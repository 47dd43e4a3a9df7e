"""Spill-aware analytics marts: single-pass reductions over result archives.

The operator-facing query layer of the reproduction: composable streaming
reducers (:mod:`~repro.marts.marts`) over ``.npz`` shard archives and live
chunk streams, sketches with tested accuracy bounds
(:mod:`~repro.marts.sketches`), archive readers
(:mod:`~repro.marts.archive`), the ``repro report`` rendering layer
(:mod:`~repro.marts.report`) and the streaming sweep result sink
(:mod:`~repro.marts.sink`).  Peak memory everywhere is one decompressed
shard plus sketch state — never the series.
"""

from repro.marts.archive import ArchiveCell, ServeArchive, SweepArchive, open_archive
from repro.marts.marts import (
    MART_REGISTRY,
    ErrorQuantilesMart,
    Mart,
    MartSpec,
    OdCcdfMart,
    OverviewMart,
    TopTalkersMart,
    TrafficByHourMart,
    build_mart,
)
from repro.marts.report import REPORT_FORMATS, build_report, render_report
from repro.marts.sink import ArchiveResultSink
from repro.marts.sketches import CCDFSketch, QuantileSketch, TopK

__all__ = [
    "Mart",
    "MartSpec",
    "MART_REGISTRY",
    "OverviewMart",
    "TopTalkersMart",
    "TrafficByHourMart",
    "OdCcdfMart",
    "ErrorQuantilesMart",
    "build_mart",
    "QuantileSketch",
    "CCDFSketch",
    "TopK",
    "ArchiveCell",
    "SweepArchive",
    "ServeArchive",
    "open_archive",
    "build_report",
    "render_report",
    "REPORT_FORMATS",
    "ArchiveResultSink",
]
