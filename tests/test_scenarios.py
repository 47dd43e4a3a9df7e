"""Tests for the component registries and the Scenario API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RegistryError, ValidationError
from repro.registry import (
    DATASETS,
    ESTIMATORS,
    PRIORS,
    TOPOLOGIES,
    Registry,
    canonical_name,
)
from repro.scenarios import Scenario, ScenarioRunner
from repro.synthesis.datasets import load_dataset

SMALL = {"bins_per_week": 36, "max_bins": 6}


# ---------------------------------------------------------------------------
# the Registry mechanism
# ---------------------------------------------------------------------------

class TestRegistryMechanism:
    def test_decorator_registration_and_lookup(self):
        registry = Registry("widget")

        @registry.register("spinner", description="spins")
        def make_spinner():
            return "spun"

        assert registry.get("spinner") is make_spinner
        assert registry.entry("spinner").description == "spins"
        assert registry.names() == ("spinner",)

    def test_direct_registration(self):
        registry = Registry("widget")
        registry.register("a", object(), description="x")
        assert "a" in registry
        assert len(registry) == 1

    def test_names_are_canonicalised(self):
        registry = Registry("widget")
        registry.register("Stable-fP", object())
        assert registry.names() == ("stable_fp",)
        assert registry.get("stable-fp") is registry.get("STABLE_FP")

    def test_duplicate_registration_raises(self):
        registry = Registry("widget")
        registry.register("a", object())
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("a", object())

    def test_duplicate_with_overwrite_replaces(self):
        registry = Registry("widget")
        first, second = object(), object()
        registry.register("a", first)
        registry.register("a", second, overwrite=True)
        assert registry.get("a") is second

    def test_unknown_lookup_names_choices(self):
        registry = Registry("widget")
        registry.register("alpha", object())
        registry.register("beta", object())
        with pytest.raises(RegistryError, match="alpha, beta"):
            registry.get("gamma")

    def test_description_defaults_to_docstring_first_line(self):
        registry = Registry("widget")

        @registry.register("doc")
        def documented():
            """First line.

            More detail.
            """

        assert registry.entry("doc").description == "First line."

    def test_empty_name_rejected(self):
        with pytest.raises(RegistryError):
            canonical_name("   ")

    def test_unregister_removes_entry(self):
        registry = Registry("widget")
        registry.register("a", object())
        registry.unregister("a")
        assert "a" not in registry
        with pytest.raises(RegistryError, match="unregister"):
            registry.unregister("a")

    def test_failed_population_is_retried(self, monkeypatch):
        import repro.registry as registry_module

        monkeypatch.setattr(registry_module, "_populated", False)
        monkeypatch.setattr(registry_module, "_COMPONENT_MODULES", ("repro.no_such_module",))
        with pytest.raises(ModuleNotFoundError):
            registry_module.ensure_populated()
        assert registry_module._populated is False
        monkeypatch.setattr(registry_module, "_COMPONENT_MODULES", ())
        registry_module.ensure_populated()
        assert registry_module._populated is True


class TestPopulatedRegistries:
    def test_priors_cover_paper_section_6(self):
        assert {"gravity", "measured", "stable_f", "stable_fp"} <= set(PRIORS.names())

    def test_datasets_cover_paper_data(self):
        assert {"geant", "totem"} <= set(DATASETS.names())
        assert DATASETS.entry("geant").metadata["calibration_gap"] == 1
        assert DATASETS.entry("totem").metadata["calibration_gap"] == 2

    def test_estimators_registered(self):
        assert {"tomogravity", "entropy"} <= set(ESTIMATORS.names())

    def test_topologies_registered(self):
        assert {"geant", "totem", "abilene", "random"} <= set(TOPOLOGIES.names())


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

class TestScenario:
    def test_round_trip_through_plain_dict(self):
        scenario = Scenario(
            dataset="geant", prior="stable_fp", bins_per_week=96, max_bins=16, seed=3
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_round_trip_for_every_registered_prior(self):
        for prior in PRIORS.names():
            scenario = Scenario(dataset="totem", prior=prior)
            assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_component_names_are_canonicalised(self):
        scenario = Scenario(dataset="Geant", prior="stable-fP")
        assert scenario.dataset == "geant"
        assert scenario.prior == "stable_fp"

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown Scenario fields"):
            Scenario.from_dict({"dataset": "geant", "prior": "gravity", "bogus": 1})

    def test_from_dict_rejects_removed_backend_field(self):
        with pytest.raises(ValidationError, match=r"unknown Scenario fields \['backend'\]"):
            Scenario.from_dict({"dataset": "geant", "prior": "gravity", "backend": "numpy"})

    def test_from_dict_requires_dataset_and_prior(self):
        with pytest.raises(ValidationError, match="dataset"):
            Scenario.from_dict({"prior": "gravity"})
        with pytest.raises(ValidationError, match="prior"):
            Scenario.from_dict({"dataset": "geant"})

    def test_validate_rejects_unknown_components(self):
        with pytest.raises(RegistryError, match="registered priors"):
            Scenario(dataset="geant", prior="bogus").validate()
        with pytest.raises(RegistryError, match="registered datasets"):
            Scenario(dataset="bogus", prior="gravity").validate()
        with pytest.raises(RegistryError, match="registered estimators"):
            Scenario(dataset="geant", prior="gravity", estimator="bogus").validate()

    def test_validate_rejects_bad_knobs(self):
        with pytest.raises(ValidationError):
            Scenario(dataset="geant", prior="gravity", calibration_week=-1).validate()
        with pytest.raises(ValidationError):
            Scenario(dataset="geant", prior="gravity", max_bins=0).validate()

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -float("inf"), -0.01])
    def test_validate_rejects_non_finite_or_negative_noise(self, noise):
        with pytest.raises(ValidationError, match="measurement_noise"):
            Scenario(dataset="geant", prior="gravity", measurement_noise=noise).validate()

    def test_label_and_replace(self):
        scenario = Scenario(dataset="geant", prior="gravity")
        assert scenario.label == "geant/gravity"
        assert scenario.replace(name="x").label == "x"
        assert scenario.replace(prior="stable_f").prior == "stable_f"


class TestWeekResolution:
    def test_measured_defaults_to_same_week(self):
        scenario = Scenario(dataset="geant", prior="measured")
        assert ScenarioRunner.resolve_weeks(scenario) == (0, 0)

    def test_stable_f_defaults_to_next_week(self):
        scenario = Scenario(dataset="geant", prior="stable_f")
        assert ScenarioRunner.resolve_weeks(scenario) == (0, 1)

    def test_stable_fp_uses_dataset_calibration_gap(self):
        assert ScenarioRunner.resolve_weeks(Scenario(dataset="geant", prior="stable_fp")) == (0, 1)
        assert ScenarioRunner.resolve_weeks(Scenario(dataset="totem", prior="stable_fp")) == (0, 2)

    def test_explicit_target_week_wins(self):
        scenario = Scenario(dataset="geant", prior="stable_fp", calibration_week=1, target_week=3)
        assert ScenarioRunner.resolve_weeks(scenario) == (1, 3)

    def test_gap_prior_rejects_same_week(self):
        scenario = Scenario(dataset="geant", prior="stable_fp", target_week=0)
        with pytest.raises(ValidationError, match="differ"):
            ScenarioRunner.resolve_weeks(scenario)


# ---------------------------------------------------------------------------
# running scenarios
# ---------------------------------------------------------------------------

class TestScenarioRunner:
    def test_run_produces_errors_improvement_and_timing(self):
        result = ScenarioRunner().run(Scenario(dataset="geant", prior="stable_f", **SMALL))
        assert result.errors.shape == (6,)
        assert result.improvement is not None
        assert np.all(np.isfinite(result.improvement))
        assert set(result.timing) >= {"dataset", "prior", "estimation", "total", "peak_rss_mb"}
        assert result.timing["total"] > 0

    def test_run_accepts_plain_dicts(self):
        result = ScenarioRunner().run(Scenario.from_dict({"dataset": "geant", "prior": "gravity", **SMALL}))
        assert result.prior_label == "gravity"

    def test_matches_figure_driver_exactly(self):
        from repro.experiments.fig13_estimation_stable_f import run_estimation_stable_f

        driver = run_estimation_stable_f("geant", bins_per_week=36, max_bins=6)
        scenario = Scenario(dataset="geant", prior="stable_f", bins_per_week=36, max_bins=6)
        result = ScenarioRunner().run(scenario)
        np.testing.assert_array_equal(driver.improvement, result.improvement)
        np.testing.assert_array_equal(driver.ic_errors, result.errors)
        np.testing.assert_array_equal(driver.gravity_errors, result.baseline_errors)

    def test_no_baseline_runner_skips_comparison(self):
        runner = ScenarioRunner(baseline_prior=None)
        result = runner.run(Scenario(dataset="geant", prior="stable_f", **SMALL))
        assert result.improvement is None
        assert result.baseline_errors is None
        with pytest.raises(ValidationError):
            result.mean_improvement

    def test_gravity_scenario_runs_without_self_baseline(self):
        result = ScenarioRunner().run(Scenario(dataset="geant", prior="gravity", **SMALL))
        assert result.improvement is None
        assert result.mean_error > 0

    def test_format_table_mentions_components(self):
        result = ScenarioRunner().run(Scenario(dataset="geant", prior="stable_f", **SMALL))
        table = result.format_table()
        assert "stable-f" in table
        assert "mean improvement %" in table
        assert "tomogravity" in table

    def test_run_never_reads_the_dense_routing_matrix(self, monkeypatch):
        from repro.topology.routing import RoutingMatrix

        monkeypatch.setattr(
            RoutingMatrix, "matrix", property(lambda self: pytest.fail("dense R read"))
        )
        result = ScenarioRunner().run(Scenario(dataset="geant", prior="stable_fp", **SMALL))
        assert result.errors.shape == (6,)
        assert np.all(np.isfinite(result.errors))

    def test_entropy_estimator_differs_from_tomogravity(self):
        base = Scenario(dataset="geant", prior="gravity", **SMALL)
        tomo = ScenarioRunner().run(base)
        entropy = ScenarioRunner().run(base.replace(estimator="entropy"))
        assert not np.array_equal(tomo.errors, entropy.errors)

    def test_topology_override_must_match_dataset_nodes(self):
        matching = ScenarioRunner().run(Scenario(dataset="geant", prior="gravity", topology="geant", **SMALL))
        assert matching.mean_error > 0
        with pytest.raises(ValidationError, match="node sets must match"):
            ScenarioRunner().run(Scenario(dataset="geant", prior="gravity", topology="abilene", **SMALL))
        with pytest.raises(ValidationError, match="parameter"):
            ScenarioRunner().run(Scenario(dataset="geant", prior="gravity", topology="random", **SMALL))


class TestSweep:
    def test_grid_over_two_priors_and_two_datasets(self):
        result = ScenarioRunner().sweep(priors=("stable_f", "gravity"), datasets=("geant", "totem"), **SMALL)
        assert len(result.results) == 4
        assert not result.failures
        labels = {r.scenario.label for r in result.results}
        assert labels == {
            "geant/stable_f", "geant/gravity", "totem/stable_f", "totem/gravity"
        }
        table = result.format_table()
        assert "geant" in table and "totem" in table

    def test_sweep_shares_dataset_synthesis(self):
        load_dataset.cache_clear()
        ScenarioRunner().sweep(priors=("stable_f", "stable_f"), datasets=("geant",), **SMALL)
        info = load_dataset.cache_info()
        assert info.hits >= 1

    def test_sweep_runs_one_synthesis_per_dataset_across_week_modes(self):
        # gravity targets week 0, stable_f week 1: without a shared n_weeks
        # floor they would synthesize (and estimate against) different data.
        load_dataset.cache_clear()
        result = ScenarioRunner().sweep(priors=("gravity", "stable_f"), datasets=("geant",), **SMALL)
        assert len(result.results) == 2
        assert load_dataset.cache_info().misses == 1

    def test_failed_cells_are_collected_not_raised(self):
        result = ScenarioRunner().sweep(
            priors=("stable_fp",), datasets=("geant",), target_week=0, **SMALL
        )
        assert not result.results
        assert len(result.failures) == 1
        assert "target_week" in result.failures[0][1]
        assert "failed" in result.format_table()

    def test_sweep_requires_nonempty_axes(self):
        with pytest.raises(ValidationError):
            ScenarioRunner().sweep(priors=(), datasets=("geant",))
