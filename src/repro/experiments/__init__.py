"""Experiment drivers: one module per figure of the paper's evaluation.

Every experiment exposes a ``run_*`` function taking keyword parameters with
fast defaults (reduced bin counts) and a ``full_scale`` switch for the
paper-sized workload.  Results are small dataclasses with a ``format_table()``
method producing the ASCII equivalent of the paper's figure, which the CLI
prints.  ``tests/test_figures.py`` checks each figure's summary numbers
against committed goldens.

Each driver is registered in :data:`repro.registry.EXPERIMENTS_REGISTRY`
under its figure identifier with an ``accepts`` metadata tuple naming the
CLI-settable knobs it understands; ``python -m repro run <id>`` runs one
from the command line.  The estimation figures (11-13) are thin wrappers
over :mod:`repro.scenarios`.  :data:`EXPERIMENTS` remains as the plain
name → function mapping.
"""

from repro.experiments.example_network import run_example_network
from repro.experiments.fig3_model_fit import run_model_fit
from repro.experiments.fig4_f_from_traces import run_f_from_traces
from repro.experiments.fig5_f_stability import run_f_stability
from repro.experiments.fig6_preference_stability import run_preference_stability
from repro.experiments.fig7_preference_ccdf import run_preference_ccdf
from repro.experiments.fig8_preference_vs_egress import run_preference_vs_egress
from repro.experiments.fig9_activity_timeseries import run_activity_timeseries
from repro.experiments.fig10_routing_asymmetry import run_routing_asymmetry
from repro.experiments.fig11_estimation_measured import run_estimation_measured
from repro.experiments.fig12_estimation_stable_fp import run_estimation_stable_fp
from repro.experiments.fig13_estimation_stable_f import run_estimation_stable_f
from repro.registry import EXPERIMENTS_REGISTRY

_DATASET_KNOBS = ("dataset", "bins_per_week", "full_scale")
_STREAMING_KNOBS = _DATASET_KNOBS + ("stream", "chunk_bins")

# identifier -> (driver, description, CLI-settable keyword parameters)
_EXPERIMENT_SPECS = {
    "fig2": (run_example_network, "Example network conditional egress probabilities", ()),
    "fig3": (run_model_fit, "IC model fit quality vs the gravity model", _DATASET_KNOBS),
    "fig4": (run_f_from_traces, "Forward fraction f measured from packet traces", ()),
    "fig5": (run_f_stability, "Week-over-week stability of f", _DATASET_KNOBS),
    "fig6": (run_preference_stability, "Week-over-week stability of the preference vector", _DATASET_KNOBS),
    "fig7": (run_preference_ccdf, "CCDF of preference values vs lognormal/exponential", _DATASET_KNOBS),
    "fig8": (run_preference_vs_egress, "Preference vs egress share (little correlation)", _DATASET_KNOBS),
    "fig9": (run_activity_timeseries, "Diurnal/weekly activity time series", _DATASET_KNOBS),
    "fig10": (run_routing_asymmetry, "Simplified-model degradation under routing asymmetry", ()),
    "fig11": (run_estimation_measured, "TM estimation, all IC parameters measured (Section 6.1)", _STREAMING_KNOBS),
    "fig12": (run_estimation_stable_fp, "TM estimation, f and P from a previous week (Section 6.2)", _STREAMING_KNOBS),
    "fig13": (run_estimation_stable_f, "TM estimation, only f known (Section 6.3)", _STREAMING_KNOBS),
}

for _name, (_runner, _description, _accepts) in _EXPERIMENT_SPECS.items():
    if _name not in EXPERIMENTS_REGISTRY:
        EXPERIMENTS_REGISTRY.register(
            _name, _runner, description=_description, metadata={"accepts": _accepts}
        )

EXPERIMENTS = {name: spec[0] for name, spec in _EXPERIMENT_SPECS.items()}

__all__ = [
    "EXPERIMENTS",
    "run_example_network",
    "run_model_fit",
    "run_f_from_traces",
    "run_f_stability",
    "run_preference_stability",
    "run_preference_ccdf",
    "run_preference_vs_egress",
    "run_activity_timeseries",
    "run_routing_asymmetry",
    "run_estimation_measured",
    "run_estimation_stable_fp",
    "run_estimation_stable_f",
]
