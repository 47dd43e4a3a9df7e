"""Core of the reproduction: traffic-matrix types, models, fitting and priors.

The subpackage is organised as follows:

* :mod:`repro.core.traffic_matrix` — validated containers for a single traffic
  matrix and for a time series of traffic matrices.
* :mod:`repro.core.metrics` — the paper's relative-L2 temporal error (Eq. 6)
  plus spatial and improvement metrics.
* :mod:`repro.core.ic_model` — the independent-connection model family
  (Eqs. 1-5) and degrees-of-freedom accounting.
* :mod:`repro.core.gravity` — the gravity-model baseline.
* :mod:`repro.core.fitting` — constrained parameter estimation replacing the
  paper's Matlab nonlinear program.
* :mod:`repro.core.priors` — priors for traffic-matrix estimation
  (Sections 6.1-6.3).
"""

from repro.core.traffic_matrix import TrafficMatrix, TrafficMatrixSeries
from repro.core.metrics import (
    mean_relative_error,
    percent_improvement,
    rel_l2_spatial_error,
    rel_l2_temporal_error,
)
from repro.core.ic_model import (
    StableFPICModel,
    degrees_of_freedom,
    general_ic_matrix,
    general_ic_series,
    simplified_ic_matrix,
    simplified_ic_series,
    time_varying_ic_series,
)
from repro.core.gravity import GravityModel, gravity_matrix, gravity_series, gravity_series_values
from repro.core.fitting import FitResult, fit_stable_f, fit_stable_fp, fit_time_varying
from repro.core.priors import (
    GravityPrior,
    MeasuredParameterPrior,
    StableFPPrior,
    StableFPrior,
)

__all__ = [
    "TrafficMatrix",
    "TrafficMatrixSeries",
    "rel_l2_temporal_error",
    "rel_l2_spatial_error",
    "percent_improvement",
    "mean_relative_error",
    "StableFPICModel",
    "degrees_of_freedom",
    "general_ic_matrix",
    "general_ic_series",
    "simplified_ic_matrix",
    "simplified_ic_series",
    "time_varying_ic_series",
    "GravityModel",
    "gravity_matrix",
    "gravity_series",
    "gravity_series_values",
    "FitResult",
    "fit_stable_fp",
    "fit_stable_f",
    "fit_time_varying",
    "GravityPrior",
    "MeasuredParameterPrior",
    "StableFPPrior",
    "StableFPrior",
]
