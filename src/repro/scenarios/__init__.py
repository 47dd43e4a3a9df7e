"""Declarative estimation scenarios over the component registries.

This package is the composition layer of the reproduction: instead of
hard-wiring a dataset, prior and estimator inside an experiment driver, a
:class:`Scenario` names registered components plus the scale/seed knobs, and
a :class:`ScenarioRunner` executes it (or a whole grid of them) through the
shared measurement-simulation and estimation pipeline::

    from repro.scenarios import Scenario, ScenarioRunner

    scenario = Scenario(dataset="geant", prior="stable_fp", bins_per_week=96)
    result = ScenarioRunner().run(scenario)
    print(result.format_table())

Scenarios round-trip through plain dicts (:meth:`Scenario.to_dict` /
:meth:`Scenario.from_dict`), so batch configurations can live in JSON files
without this package needing a serialisation dependency.  New components
plug in through the decorators in :mod:`repro.registry`
(``register_prior``, ``register_dataset``, ...) and are immediately
available to every scenario and to the ``repro`` CLI.
"""

from repro.scenarios.scenario import Scenario
from repro.scenarios.executors import (
    InProcessExecutor,
    LocalPoolExecutor,
    RemoteExecutor,
    ResultSink,
    SpawnedWorkers,
    SweepExecutor,
    SweepPlan,
    run_sweep_worker,
)
from repro.scenarios.runner import (
    FIT_CACHE_BYTES,
    ScenarioResult,
    ScenarioRunner,
    SweepResult,
    SweepSharedState,
)
from repro.scenarios.spill import (
    SPILL_AUTO_MIN_BINS,
    SpilledSeries,
    SpillStore,
    discover_spilled_series,
)

__all__ = [
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "SweepResult",
    "SweepSharedState",
    "SweepExecutor",
    "SweepPlan",
    "InProcessExecutor",
    "LocalPoolExecutor",
    "RemoteExecutor",
    "ResultSink",
    "SpawnedWorkers",
    "run_sweep_worker",
    "SpilledSeries",
    "SpillStore",
    "discover_spilled_series",
    "SPILL_AUTO_MIN_BINS",
    "FIT_CACHE_BYTES",
]
