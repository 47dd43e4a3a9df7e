"""Tests for synthetic TM generation: preferences, activity, generators, datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ic_model import general_ic_matrix
from repro.errors import ValidationError
from repro.synthesis.activity import ActivityModel, DiurnalProfile
from repro.synthesis.datasets import (
    load_dataset,
    make_geant_like_dataset,
    make_totem_like_dataset,
)
from repro.synthesis.generator import GravityTMGenerator, ICTMGenerator, SyntheticTMConfig
from repro.synthesis.preference import lognormal_preferences


class TestPreferenceGenerators:
    def test_lognormal_normalised(self):
        preference = lognormal_preferences(22, seed=0)
        assert preference.shape == (22,)
        assert preference.sum() == pytest.approx(1.0)
        assert np.all(preference > 0)

    def test_lognormal_seeded(self):
        np.testing.assert_allclose(lognormal_preferences(10, seed=3), lognormal_preferences(10, seed=3))

    def test_lognormal_is_long_tailed(self):
        preference = lognormal_preferences(200, seed=1)
        assert preference.max() / np.median(preference) > 5.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            lognormal_preferences(0)
        with pytest.raises(ValidationError):
            lognormal_preferences(5, sigma=-1.0)


class TestDiurnalProfile:
    def test_waveform_positive(self):
        profile = DiurnalProfile()
        times = np.arange(0, 7 * 86400, 300)
        waveform = profile.waveform(times)
        assert np.all(waveform > 0)

    def test_weekend_damping(self):
        profile = DiurnalProfile(weekend_factor=0.5)
        monday_noon = 12 * 3600.0
        saturday_noon = 5 * 86400 + 12 * 3600.0
        weekday = profile.waveform(np.array([monday_noon]))[0]
        weekend = profile.waveform(np.array([saturday_noon]))[0]
        assert weekend == pytest.approx(0.5 * weekday)

    def test_peak_hour(self):
        profile = DiurnalProfile(peak_hour=15.0, harmonic_amplitude=0.0)
        hours = np.arange(24)
        waveform = profile.waveform(hours * 3600.0)
        assert hours[np.argmax(waveform)] == 15

    def test_validation(self):
        with pytest.raises(ValidationError):
            DiurnalProfile(day_amplitude=2.0)
        with pytest.raises(ValidationError):
            DiurnalProfile(peak_hour=25.0)


class TestActivityModel:
    def test_shape_and_positivity(self):
        model = ActivityModel(10, seed=0)
        activity = model.generate(100, bin_seconds=300.0)
        assert activity.shape == (100, 10)
        assert np.all(activity > 0)

    def test_daily_periodicity_detectable(self):
        from repro.characterization.activity_analysis import dominant_period

        model = ActivityModel(3, noise_sigma=0.02, seed=1)
        bins_per_day = 288
        activity = model.generate(3 * bins_per_day, bin_seconds=300.0)
        period = dominant_period(activity[:, 0], bin_seconds=300.0)
        assert period == pytest.approx(86400.0, rel=0.1)

    def test_heterogeneity_spreads_levels(self):
        model = ActivityModel(50, heterogeneity_sigma=1.5, seed=2)
        levels = model.base_levels
        assert levels.max() / levels.min() > 10.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            ActivityModel(0)
        with pytest.raises(ValidationError):
            ActivityModel(3, mean_level=-1.0)
        with pytest.raises(ValidationError):
            ActivityModel(3).generate(0)


class TestICTMGenerator:
    def test_noiseless_generation_matches_ground_truth_model(self):
        config = SyntheticTMConfig(noise_sigma=0.0, f_jitter_sigma=0.0, f_responder_sigma=0.0, spatial_bias_sigma=0.0)
        generator = ICTMGenerator(["a", "b", "c", "d"], config, seed=0)
        series, truth = generator.generate(10)
        for t in range(10):
            expected = general_ic_matrix(
                truth.forward_fraction_matrix, truth.activity[t], truth.preference
            )
            np.testing.assert_allclose(series.values[t], expected, rtol=1e-9)

    def test_ground_truth_shapes(self):
        generator = ICTMGenerator([f"n{i}" for i in range(6)], seed=1)
        series, truth = generator.generate(12)
        assert truth.preference.shape == (6,)
        assert truth.activity.shape == (12, 6)
        assert truth.forward_fraction_matrix.shape == (6, 6)
        assert truth.spatial_bias.shape == (6, 6)

    def test_seeded_determinism(self):
        a = ICTMGenerator(["x", "y", "z"], seed=5).generate(5)[0]
        b = ICTMGenerator(["x", "y", "z"], seed=5).generate(5)[0]
        np.testing.assert_allclose(a.values, b.values)

    def test_plan_ranges_concatenate_to_the_whole_series_without_replay(self, monkeypatch):
        from repro.synthesis import generator as generator_module

        replayed: list[int] = []
        original = generator_module.GenerationPlan._replay_span

        def counting(self, rng, start, stop):
            replayed.append(stop - start)
            return original(self, rng, start, stop)

        generator = ICTMGenerator([f"n{i}" for i in range(5)], seed=4)
        whole, truth = generator.generate(700)
        plan = generator.plan(700)
        monkeypatch.setattr(generator_module.GenerationPlan, "_replay_span", counting)
        # 300-bin ranges: the state-cache anchors (every 256 bins) never
        # land on a range boundary, so only the cached stop state avoids
        # replaying draws.
        parts = [generator.generate(300, plan=plan, start_bin=start) for start in (0, 300)]
        parts.append(generator.generate(100, plan=plan, start_bin=600))
        assert sum(replayed) == 0
        joined = np.concatenate([series.values for series, _ in parts])
        assert joined.tobytes() == whole.values.tobytes()
        np.testing.assert_array_equal(parts[1][1].activity, truth.activity[300:600])
        with pytest.raises(ValidationError):
            generator.generate(200, plan=plan, start_bin=600)

    def test_requires_two_nodes(self):
        with pytest.raises(ValidationError):
            ICTMGenerator(["only"])

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SyntheticTMConfig(forward_fraction=1.5)
        with pytest.raises(ValidationError):
            SyntheticTMConfig(noise_sigma=-0.1)
        with pytest.raises(ValidationError):
            SyntheticTMConfig(mean_activity=0.0)


class TestGravityTMGenerator:
    def test_generated_traffic_is_gravity_consistent(self):
        from repro.core.gravity import gravity_series
        from repro.core.metrics import mean_relative_error

        generator = GravityTMGenerator(["a", "b", "c", "d"], noise_sigma=0.0, seed=0)
        series = generator.generate(10)
        assert mean_relative_error(series, gravity_series(series)) < 1e-9

    def test_validation(self):
        with pytest.raises(ValidationError):
            GravityTMGenerator(["a"])
        with pytest.raises(ValidationError):
            GravityTMGenerator(["a", "b"], mean_load=0.0)


class TestDatasets:
    def test_geant_dimensions(self):
        dataset = make_geant_like_dataset(n_weeks=2, bins_per_week=24, seed=0)
        assert dataset.n_weeks == 2
        assert dataset.topology.n_nodes == 22
        assert dataset.week(0).n_timesteps == 24
        assert dataset.week(0).nodes == dataset.topology.nodes
        assert dataset.bin_seconds == 300.0

    def test_totem_dimensions(self):
        dataset = make_totem_like_dataset(n_weeks=2, bins_per_week=24, seed=0)
        assert dataset.topology.n_nodes == 23
        assert dataset.week(0).bin_seconds == 900.0

    def test_weeks_share_spatial_parameters(self):
        dataset = make_geant_like_dataset(n_weeks=3, bins_per_week=12, seed=1)
        first = dataset.ground_truths[0]
        for truth in dataset.ground_truths[1:]:
            np.testing.assert_allclose(truth.preference, first.preference)
            assert truth.forward_fraction == first.forward_fraction

    def test_weeks_have_distinct_traffic(self):
        dataset = make_geant_like_dataset(n_weeks=2, bins_per_week=12, seed=2)
        assert not np.allclose(dataset.week(0).values, dataset.week(1).values)

    def test_full_series_concatenates_weeks(self):
        dataset = make_geant_like_dataset(n_weeks=2, bins_per_week=12, seed=3)
        assert dataset.full_stream().materialize().n_timesteps == 24

    def test_full_scale_dimensions(self):
        dataset = make_geant_like_dataset(n_weeks=1, full_scale=True, seed=4)
        assert dataset.week(0).n_timesteps == 2016

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_geant_like_dataset(n_weeks=0, bins_per_week=10)
        with pytest.raises(ValidationError):
            make_geant_like_dataset(n_weeks=1, bins_per_week=1)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_week_indices_are_validated(self, index):
        # Negative indices must not wrap around to the last week, and an
        # index past the end is a ValidationError, not a bare IndexError.
        dataset = load_dataset("geant", n_weeks=2, bins_per_week=12)
        with pytest.raises(ValidationError, match="out of range"):
            dataset.week(index)
        with pytest.raises(ValidationError, match="out of range"):
            dataset.week_stream(index)

    def test_factories_materialise_and_default_their_seeds(self):
        # A factory only plans; the first week() call generates and caches
        # every week, and seed=None is the published default seed.
        dataset = make_totem_like_dataset(n_weeks=2, bins_per_week=12)
        assert not dataset.materialized
        first = dataset.week(0)
        assert dataset.materialized
        assert dataset.week(0) is first
        np.testing.assert_array_equal(
            dataset.week(1).values,
            make_totem_like_dataset(n_weeks=2, bins_per_week=12, seed=23).week(1).values,
        )

    @pytest.mark.parametrize("name", ["geant", "totem"])
    def test_iter_weeks_matches_materialise_and_stays_lazy(self, name):
        # 300 bins per week: the 512-bin generation chunks straddle the week
        # boundaries, and totem's anomalies land in every week.
        factory = {"geant": make_geant_like_dataset, "totem": make_totem_like_dataset}[name]
        lazy = factory(n_weeks=3, bins_per_week=300, seed=5)
        walked = [week.values for week in lazy.iter_weeks()]
        assert not lazy.materialized
        cached = factory(n_weeks=3, bins_per_week=300, seed=5).materialize()
        assert len(walked) == 3
        for index, values in enumerate(walked):
            assert values.tobytes() == cached.week(index).values.tobytes()
        # Each lazy week is one ICTMGenerator.generate call over the plan,
        # so the week walk is timed wherever that call is.
        calls: list[int] = []
        original = ICTMGenerator.generate

        def counting(self, *args, **kwargs):
            calls.append(kwargs["start_bin"])
            return original(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ICTMGenerator, "generate", counting)
            fresh = factory(n_weeks=3, bins_per_week=300, seed=5)
            rewalked = [week.values for week in fresh.iter_weeks()]
        assert calls == [0, 300, 600]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(rewalked, walked))
        # A materialised dataset yields its cached weeks.
        assert all(
            walked_week is cached.week(index)
            for index, walked_week in enumerate(cached.iter_weeks())
        )
