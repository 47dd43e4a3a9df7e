"""Live flow ingestion: sources, binning, rolling fits and the service loop.

This package turns the repo's batch estimation pipeline into a continuously
running service (``repro serve``).  The layering mirrors the data path:

* :mod:`repro.ingest.records` — columnar :class:`RecordBatch` batches and
  the ``.csv``/``.jsonl`` replay formats;
* :mod:`repro.ingest.sources` — the :class:`FlowSource` protocol and its
  file-replay and synthetic adapters;
* :mod:`repro.ingest.binner` — the watermark time binner producing ordered
  per-bin OD matrices;
* :mod:`repro.ingest.rolling` — the sliding fit window (spilled past a
  budget) and the atomically swapped active prior;
* :mod:`repro.ingest.service` — the publisher/status/checkpoint loop.
"""

from repro.ingest.binner import FlowBinner
from repro.ingest.records import (
    RecordBatch,
    read_flow_file,
    write_flow_csv,
)
from repro.ingest.rolling import ActivePrior, PRIOR_MODES, RollingFitManager, RollingWindow
from repro.ingest.service import CHECKPOINT_FORMAT, IngestService, ServiceStatus
from repro.ingest.sources import (
    FileReplaySource,
    FlowSource,
    SyntheticFlowSource,
)

__all__ = [
    "ActivePrior",
    "CHECKPOINT_FORMAT",
    "FileReplaySource",
    "FlowBinner",
    "FlowSource",
    "IngestService",
    "PRIOR_MODES",
    "RecordBatch",
    "RollingFitManager",
    "RollingWindow",
    "ServiceStatus",
    "SyntheticFlowSource",
    "read_flow_file",
    "write_flow_csv",
]
