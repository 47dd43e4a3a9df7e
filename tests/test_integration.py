"""End-to-end integration tests across the whole stack.

These mirror the paper's workflows: generate realistic traffic, fit the model,
build priors, run the estimation pipeline on simulated measurements, and make
sure the qualitative conclusions hold at small scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fitting import fit_stable_fp
from repro.core.gravity import gravity_series
from repro.core.metrics import mean_relative_error, percent_improvement, rel_l2_temporal_error
from repro.core.ic_model import simplified_ic_series
from repro.core.priors import GravityPrior, StableFPPrior
from repro.estimation.linear_system import simulate_link_loads
from repro.estimation.pipeline import TMEstimator
from repro.synthesis.generator import ICTMGenerator, SyntheticTMConfig
from repro.traces.matching import measure_forward_fraction
from repro.traces.trace_generator import BidirectionalTraceGenerator


class TestFitAndEstimateWorkflow:
    def test_week_over_week_estimation_workflow(self, small_geant_dataset):
        """Calibrate on week 1, estimate week 2 from link counts only."""
        dataset = small_geant_dataset
        calibration, target = dataset.week(0), dataset.week(1)[:12]

        calibration_fit = fit_stable_fp(calibration)
        assert 0.05 < calibration_fit.forward_fraction < 0.45

        system = simulate_link_loads(dataset.topology, target, noise_std=0.01, seed=3)
        gravity_prior = GravityPrior().series(system.ingress, system.egress, nodes=target.nodes)
        ic_prior = StableFPPrior.from_fit(calibration_fit).series(
            system.ingress, system.egress, nodes=target.nodes
        )
        estimator = TMEstimator()
        results = estimator.compare_priors(
            system, {"gravity": gravity_prior, "ic": ic_prior}, target
        )
        improvement = percent_improvement(results["gravity"].errors, results["ic"].errors)
        assert float(np.mean(improvement)) > 0.0

    def test_measured_prior_is_at_least_as_good_as_stable_fp(self, small_geant_dataset):
        dataset = small_geant_dataset
        target = dataset.week(1)[:12]
        system = simulate_link_loads(dataset.topology, target, noise_std=0.01, seed=4)
        measured_fit = fit_stable_fp(target)
        calibration_fit = fit_stable_fp(dataset.week(0))
        measured_prior = simplified_ic_series(
            float(measured_fit.forward_fraction), measured_fit.activity, measured_fit.preference
        )
        stable_fp_prior = StableFPPrior.from_fit(calibration_fit).series(
            system.ingress, system.egress, nodes=target.nodes
        )
        measured_error = mean_relative_error(target, measured_prior)
        stable_fp_error = mean_relative_error(target, stable_fp_prior)
        assert measured_error <= stable_fp_error + 0.02


class TestGenerationToFittingConsistency:
    def test_fit_recovers_generating_parameters_at_low_noise(self):
        config = SyntheticTMConfig(
            forward_fraction=0.25,
            noise_sigma=0.02,
            f_jitter_sigma=0.0,
            f_responder_sigma=0.0,
            spatial_bias_sigma=0.0,
        )
        generator = ICTMGenerator([f"n{i}" for i in range(10)], config, seed=3)
        series, truth = generator.generate(48)
        fit = fit_stable_fp(series)
        assert fit.forward_fraction == pytest.approx(0.25, abs=0.03)
        correlation = np.corrcoef(fit.preference, truth.preference)[0, 1]
        assert correlation > 0.99

    def test_ic_beats_gravity_on_ic_structured_traffic(self):
        generator = ICTMGenerator([f"n{i}" for i in range(12)], seed=9)
        series, _ = generator.generate(36)
        fit = fit_stable_fp(series)
        gravity_error = rel_l2_temporal_error(series, gravity_series(series))
        assert fit.mean_error < float(np.mean(gravity_error))


class TestTraceToModelConsistency:
    def test_trace_measured_f_matches_od_level_f(self):
        """The f measured from link traces agrees with the f implied by OD volumes."""
        generator = BidirectionalTraceGenerator(
            "IPLS", "CLEV", connections_per_hour=4000, seed=12
        )
        pair = generator.generate(7200)
        measurement = measure_forward_fraction(pair, bin_seconds=600.0)
        forward_bytes = sum(
            c.forward_bytes for c in pair.connections if c.initiator_node == "IPLS"
        )
        reverse_bytes = sum(
            c.reverse_bytes for c in pair.connections if c.initiator_node == "IPLS"
        )
        od_level_f = forward_bytes / (forward_bytes + reverse_bytes)
        measured_f, _ = measurement.mean_f()
        assert measured_f == pytest.approx(od_level_f, abs=0.08)


class TestPersistenceWorkflow:
    def test_generate_save_load_fit(self, tmp_path, small_geant_dataset):
        week = small_geant_dataset.week(0)
        path = tmp_path / "week.npz"
        week.save(path)
        with np.load(path, allow_pickle=False) as data:
            loaded = data["values"]
        original_fit = fit_stable_fp(week)
        loaded_fit = fit_stable_fp(loaded)
        assert loaded_fit.forward_fraction == pytest.approx(original_fit.forward_fraction)


class TestPublicSurface:
    def test_exported_names_resolve_and_deleted_names_are_gone(self):
        import importlib
        import importlib.util

        deleted = {
            "TrafficMatrix", "od_pairs", "gravity_matrix", "GravityModel",
            "simplified_ic_matrix", "MeasuredParameterPrior",
            "estimate_activity_from_marginals", "rel_l2_spatial_error",
            "mart_from_state", "register_dataset_stream", "run_scenario", "sweep",
            "write_flow_jsonl", "fit_general_ic", "fit_pairwise_forward_fractions",
            "GeneralFitResult", "NetflowSampler", "od_flows_from_connections",
        }
        for name in ("repro", "repro.core", "repro.synthesis", "repro.ingest",
                     "repro.marts", "repro.scenarios", "repro.traces"):
            module = importlib.import_module(name)
            for exported in module.__all__:
                assert getattr(module, exported, None) is not None, (name, exported)
            assert not deleted & set(module.__all__), name
        for module in ("repro.core.general_fitting", "repro.traces.netflow"):
            assert importlib.util.find_spec(module) is None, module
