"""Reproduction of "An Independent-Connection Model for Traffic Matrices".

This package reimplements, from scratch, the independent-connection (IC)
traffic-matrix model of Erramilli, Crovella and Taft (IMC 2006) together with
every substrate the paper's evaluation depends on:

* traffic-matrix containers and error metrics (:mod:`repro.core`),
* the gravity-model baseline and the IC model family (general, simplified,
  time-varying, stable-f and stable-fP variants),
* parameter fitting by constrained optimisation,
* priors for traffic-matrix estimation (measured, stable-fP pseudo-inverse and
  stable-f closed form),
* a PoP-level topology and routing substrate with routing-matrix construction
  (:mod:`repro.topology`),
* a tomogravity-style estimation pipeline with iterative proportional fitting
  (:mod:`repro.estimation`),
* a bidirectional packet/flow trace substrate implementing the paper's
  f-measurement procedure (:mod:`repro.traces`),
* synthetic traffic-matrix generation and dataset factories standing in for
  the Geant, Totem and Abilene data (:mod:`repro.synthesis`),
* parameter characterisation tools (:mod:`repro.characterization`), and
* one experiment driver per figure of the paper (:mod:`repro.experiments`).

The package's composition layer is the Scenario API: named components
(priors, estimators, datasets, topologies) live in the registries of
:mod:`repro.registry`, and :mod:`repro.scenarios` provides the declarative
:class:`Scenario` configuration plus the :class:`ScenarioRunner` that
executes one scenario or a whole grid.  The ``repro`` CLI
(``python -m repro``) is a thin shell over both.

The public API is re-exported here for convenience::

    from repro import Scenario, ScenarioRunner, TrafficMatrixSeries

    result = ScenarioRunner().run(Scenario(dataset="geant", prior="stable_fp"))
"""

from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.core.ic_model import (
    StableFPICModel,
    degrees_of_freedom,
    general_ic_matrix,
    general_ic_series,
    simplified_ic_series,
    time_varying_ic_series,
)
from repro.core.gravity import gravity_series, gravity_series_values
from repro.core.metrics import (
    mean_relative_error,
    percent_improvement,
    rel_l2_temporal_error,
)
from repro.core.fitting import (
    FitResult,
    fit_stable_f,
    fit_stable_fp,
    fit_time_varying,
)
from repro.core.priors import (
    GravityPrior,
    StableFPPrior,
    StableFPrior,
)
from repro.errors import RegistryError, ReproError, ShapeError, ValidationError
from repro.registry import (
    DATASETS,
    ESTIMATORS,
    PRIORS,
    TOPOLOGIES,
    Registry,
    register_dataset,
    register_estimator,
    register_prior,
    register_topology,
)
from repro.scenarios import (
    Scenario,
    ScenarioResult,
    ScenarioRunner,
    SweepResult,
)

__version__ = "1.1.0"

__all__ = [
    "TrafficMatrixSeries",
    "StableFPICModel",
    "degrees_of_freedom",
    "general_ic_matrix",
    "general_ic_series",
    "simplified_ic_series",
    "time_varying_ic_series",
    "gravity_series",
    "gravity_series_values",
    "rel_l2_temporal_error",
    "percent_improvement",
    "mean_relative_error",
    "FitResult",
    "fit_stable_fp",
    "fit_stable_f",
    "fit_time_varying",
    "GravityPrior",
    "StableFPPrior",
    "StableFPrior",
    "ReproError",
    "RegistryError",
    "ShapeError",
    "ValidationError",
    "Registry",
    "PRIORS",
    "ESTIMATORS",
    "DATASETS",
    "TOPOLOGIES",
    "register_prior",
    "register_estimator",
    "register_dataset",
    "register_topology",
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "SweepResult",
    "__version__",
]
