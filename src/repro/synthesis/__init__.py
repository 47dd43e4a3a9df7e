"""Synthetic traffic-matrix generation and dataset factories.

Section 5.5 of the paper proposes using the stable-fP IC model for synthetic
traffic-matrix generation: choose an ``f`` in the empirical 0.2-0.3 range,
draw long-tailed (lognormal) preference values, generate diurnal activity
time series and compose them with Eq. 5.  This subpackage implements that
recipe and uses it to build the synthetic stand-ins for the paper's datasets:

* :mod:`repro.synthesis.preference` — the lognormal preference generator,
* :mod:`repro.synthesis.activity` — a cyclostationary diurnal activity model
  (daily periodicity, weekend dips, per-node scale heterogeneity, noise),
* :mod:`repro.synthesis.generator` — IC-based and gravity-based synthetic TM
  generators,
* :mod:`repro.synthesis.datasets` — Geant-like (D1) and Totem-like (D2)
  multi-week dataset factories with known ground truth.
"""

from repro.synthesis.preference import lognormal_preferences
from repro.synthesis.activity import ActivityModel, DiurnalProfile
from repro.synthesis.generator import (
    GravityTMGenerator,
    ICTMGenerator,
    SyntheticTMConfig,
)
from repro.synthesis.datasets import (
    StreamingDataset,
    load_dataset,
    make_geant_like_dataset,
    make_totem_like_dataset,
    open_dataset_stream,
    register_dataset_stream,
    streamable_dataset_names,
)

__all__ = [
    "lognormal_preferences",
    "ActivityModel",
    "DiurnalProfile",
    "SyntheticTMConfig",
    "ICTMGenerator",
    "GravityTMGenerator",
    "StreamingDataset",
    "load_dataset",
    "open_dataset_stream",
    "register_dataset_stream",
    "streamable_dataset_names",
    "make_geant_like_dataset",
    "make_totem_like_dataset",
]
