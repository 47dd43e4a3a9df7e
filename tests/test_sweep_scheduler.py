"""Tests for the shared-plan sweep scheduler, spill plane and plan shipping.

Covers the PR-5 surface:

* eager noise-state checkpoints (plan reads are O(chunk), proven by counting
  replayed bins),
* the budget-bounded chunk replay cache behind multi-pass fits,
* routing/measurement/baseline reuse across the cells of a sweep,
* streamed ``jobs`` sweeps bit-identical to the serial in-memory sweep,
* shipping streaming-plan state to workers over the sweep-worker wire,
* out-of-core ``.npz`` spilling with lazy :class:`SpilledSeries` handles.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.scenarios import (
    Scenario,
    ScenarioRunner,
    SpilledSeries,
    SpillStore,
    SweepSharedState,
)
from repro.streaming import CachedChunkStream, FunctionChunkStream, cache_chunks
from repro.synthesis.datasets import open_dataset_stream, streaming_dataset_from_state
from repro.synthesis.generator import _STATE_CACHE_STRIDE, ICTMGenerator, SyntheticTMConfig


SMALL = {"bins_per_week": 36, "max_bins": 4}


def _plan(n_bins=600, *, nodes=6, seed=3):
    generator = ICTMGenerator(
        [f"n{i}" for i in range(nodes)], SyntheticTMConfig(noise_sigma=0.2), seed=seed
    )
    return generator, generator.plan(n_bins)


class TestNoiseCheckpoints:
    def test_checkpoint_populates_every_stride_anchor(self):
        _, plan = _plan(600)
        assert set(plan.noise_states) == {0}
        plan.checkpoint_noise_states()
        expected = {0} | {s for s in range(0, 601, _STATE_CACHE_STRIDE)}
        assert set(plan.noise_states) == expected

    def test_checkpointed_first_read_replays_at_most_one_stride(self, monkeypatch):
        from repro.synthesis import generator as generator_module

        replayed: list[int] = []
        original = generator_module.GenerationPlan._replay_span

        def counting(self, rng, start, stop):
            replayed.append(stop - start)
            return original(self, rng, start, stop)

        monkeypatch.setattr(generator_module.GenerationPlan, "_replay_span", counting)

        generator, cold = _plan(600)
        list(generator.iter_chunks(cold, chunk_bins=32, start_bin=500, stop_bin=532))
        cold_replayed = sum(replayed)
        assert cold_replayed >= 500  # the whole prefix was replayed

        replayed.clear()
        generator, warm = _plan(600)
        warm.checkpoint_noise_states()
        checkpoint_replayed = sum(replayed)
        # One pass from bin 0 to the last stride anchor before n_bins.
        assert checkpoint_replayed == (600 // _STATE_CACHE_STRIDE) * _STATE_CACHE_STRIDE

        replayed.clear()
        list(generator.iter_chunks(warm, chunk_bins=32, start_bin=500, stop_bin=532))
        assert sum(replayed) < _STATE_CACHE_STRIDE  # O(chunk), not O(prefix)

    def test_checkpoint_fills_gaps_left_by_a_chunked_read(self, monkeypatch):
        from repro.synthesis import generator as generator_module

        # A materialised read caches only the chunk ends that land on a
        # stride anchor; checkpointing must fill the anchors in between.
        data = open_dataset_stream("geant", n_weeks=3, bins_per_week=700).materialize()
        data.checkpoint_noise()
        plan = data._plan  # noqa: SLF001 - the checkpoints are plan state
        anchors = set(range(0, plan.n_bins + 1, _STATE_CACHE_STRIDE))
        assert anchors <= set(plan.noise_states)

        replayed: list[int] = []
        original = generator_module.GenerationPlan._replay_span

        def counting(self, rng, start, stop):
            replayed.append(stop - start)
            return original(self, rng, start, stop)

        monkeypatch.setattr(generator_module.GenerationPlan, "_replay_span", counting)
        plan._noise_rng_at(1400)  # noqa: SLF001
        assert sum(replayed) <= _STATE_CACHE_STRIDE

    def test_repeat_reads_at_same_start_are_replay_free(self, monkeypatch):
        from repro.synthesis import generator as generator_module

        replayed: list[int] = []
        original = generator_module.GenerationPlan._replay_span

        def counting(self, rng, start, stop):
            replayed.append(stop - start)
            return original(self, rng, start, stop)

        monkeypatch.setattr(generator_module.GenerationPlan, "_replay_span", counting)
        generator, plan = _plan(600)
        list(generator.iter_chunks(plan, chunk_bins=32, start_bin=300, stop_bin=332))
        assert sum(replayed) > 0
        replayed.clear()
        list(generator.iter_chunks(plan, chunk_bins=32, start_bin=300, stop_bin=332))
        assert sum(replayed) == 0  # exact-start state was cached on the first read

    def test_checkpointed_chunks_bit_identical_to_cold_plan(self):
        generator, cold = _plan(600)
        generator2, warm = _plan(600)
        warm.checkpoint_noise_states()
        for (t0, a), (t1, b) in zip(
            generator.iter_chunks(cold, chunk_bins=41, start_bin=123, stop_bin=420),
            generator2.iter_chunks(warm, chunk_bins=41, start_bin=123, stop_bin=420),
        ):
            assert t0 == t1
            np.testing.assert_array_equal(a, b)

    def test_noise_free_plan_checkpoint_is_noop(self):
        generator = ICTMGenerator(["a", "b"], SyntheticTMConfig(noise_sigma=0.0), seed=1)
        plan = generator.plan(600)
        plan.checkpoint_noise_states()
        assert plan.noise_states == {0: plan.noise_states[0]}


class TestCachedChunkStream:
    def _counting_stream(self, n_bins=64, chunk_bins=16):
        passes = {"count": 0}
        rng_values = np.random.default_rng(0).random((n_bins, 3, 3))

        def factory(resolved):
            passes["count"] += 1
            for start in range(0, n_bins, resolved):
                yield start, rng_values[start : start + resolved].copy()

        stream = FunctionChunkStream(
            factory, n_bins=n_bins, nodes=("a", "b", "c"), bin_seconds=300.0,
            chunk_bins=chunk_bins,
        )
        return stream, passes, rng_values

    def test_cached_passes_are_bit_identical_and_skip_regen(self):
        stream, passes, values = self._counting_stream()
        cached = cache_chunks(stream, budget_bytes=10 * values.nbytes)
        first = np.concatenate([b for _, b in cached.chunks()])
        second = np.concatenate([b for _, b in cached.chunks()])
        np.testing.assert_array_equal(first, values)
        np.testing.assert_array_equal(second, values)
        assert passes["count"] == 1  # second pass came from the cache
        assert cached.cached_bins == 64

    def test_budget_bounds_cached_bins(self):
        stream, passes, values = self._counting_stream(n_bins=64, chunk_bins=16)
        chunk_bytes = values[:16].nbytes
        cached = CachedChunkStream(stream, budget_bytes=2 * chunk_bytes)
        for _ in range(3):
            total = np.concatenate([b for _, b in cached.chunks()])
            np.testing.assert_array_equal(total, values)
        assert cached.cached_bins == 32  # two chunks fit the budget
        assert passes["count"] == 3  # the tail regenerates every pass

    def test_zero_or_none_budget_disables_caching(self):
        stream, passes, _ = self._counting_stream()
        assert cache_chunks(stream, budget_bytes=None) is stream
        assert cache_chunks(stream, budget_bytes=0) is stream

    def test_array_streams_are_not_wrapped(self):
        from repro.streaming import ArrayChunkStream

        stream = ArrayChunkStream(np.zeros((8, 2, 2)))
        assert cache_chunks(stream, budget_bytes=1 << 20) is stream

    def test_fit_with_cache_matches_uncached_fit(self):
        from repro.core.fitting import fit_stable_fp

        data = open_dataset_stream("geant", n_weeks=1, bins_per_week=48, chunk_bins=12)
        week = data.week_stream(0)
        plain = fit_stable_fp(week)
        cached = fit_stable_fp(week, cache_bytes=64 << 20)
        assert plain.forward_fraction == cached.forward_fraction
        np.testing.assert_array_equal(plain.preference, cached.preference)
        np.testing.assert_array_equal(plain.errors, cached.errors)


class TestOperatorReuse:
    def test_routing_built_once_per_topology_across_cells_and_priors(self, monkeypatch):
        from repro.topology import routing as routing_module

        routing_module.clear_routing_cache()
        builds: list[str] = []
        original = routing_module._build_routing_matrix

        def counting(topology):
            builds.append(topology.name)
            return original(topology)

        monkeypatch.setattr(routing_module, "_build_routing_matrix", counting)
        ScenarioRunner().sweep(
            priors=("stable_f", "gravity"), datasets=("geant", "totem"),
            base=dict(SMALL), jobs=1,
        )
        # 2 priors x 2 datasets = 4 cells, but only one build per topology.
        assert sorted(builds) == ["geant", "totem"]
        routing_module.clear_routing_cache()

    def test_augmented_operator_cached_on_routing_instance(self):
        from repro.synthesis.datasets import load_dataset
        from repro.estimation.linear_system import simulate_link_loads

        data = load_dataset("geant", n_weeks=1, bins_per_week=36)
        week = data.week(0)[:4]
        system_a = simulate_link_loads(data.topology, week)
        system_b = simulate_link_loads(data.topology, week, seed=7, noise_std=0.1)
        b_first, _ = system_a.augmented_system()
        b_second, _ = system_b.augmented_system()
        assert b_first is b_second  # same memoised routing, same stacked operator
        assert not b_first.data.flags.writeable

    def test_shared_state_reuses_systems_and_baselines(self):
        shared = SweepSharedState()
        runner = ScenarioRunner()
        base = Scenario(dataset="geant", prior="gravity", target_week=1,
                        stream=True, n_weeks=2, **SMALL)
        for prior in ("gravity", "stable_f", "stable_fp"):
            runner.run(base.replace(prior=prior), shared=shared)
        # One measurement system and one baseline estimate for the column —
        # the gravity cell's own estimate doubles as the baseline.
        assert shared.system_builds == 1
        assert shared.baseline_builds == 1

    def test_shared_cells_match_unshared_cells_bitwise(self):
        shared = SweepSharedState()
        runner = ScenarioRunner()
        base = Scenario(dataset="geant", prior="gravity", target_week=1,
                        stream=True, n_weeks=2, **SMALL)
        for prior in ("gravity", "stable_f", "stable_fp"):
            with_sharing = runner.run(base.replace(prior=prior), shared=shared)
            without = runner.run(base.replace(prior=prior))
            np.testing.assert_array_equal(with_sharing.errors, without.errors)
            if with_sharing.baseline_errors is not None:
                np.testing.assert_array_equal(
                    with_sharing.baseline_errors, without.baseline_errors
                )


class TestSharedPlanSweeps:
    def test_streamed_jobs2_grid_matches_serial_in_memory_sweep(self):
        """The acceptance grid: 2x2 incl. totem anomalies, streamed+parallel.

        Every cell of a streamed ``jobs=2`` sweep must agree with the serial
        in-memory sweep within 1e-12 (closed-form priors are exactly equal;
        the streamed ALS fit of ``stable_fp`` differs only in reduction
        order).  Week 1 targets exercise resume-from-week-boundary chunk
        reads in the workers.
        """
        kwargs = dict(
            priors=("gravity", "stable_f"),
            datasets=("geant", "totem"),
            base=dict(bins_per_week=36, max_bins=6, target_week=1),
        )
        in_memory = ScenarioRunner().sweep(jobs=1, **kwargs)
        streamed = ScenarioRunner().sweep(jobs=2, stream=True, **kwargs)
        assert not in_memory.failures and not streamed.failures
        assert len(in_memory.results) == len(streamed.results) == 4
        for mem_cell, stream_cell in zip(in_memory.results, streamed.results):
            assert mem_cell.scenario.dataset == stream_cell.scenario.dataset
            assert mem_cell.scenario.prior == stream_cell.scenario.prior
            np.testing.assert_allclose(
                np.asarray(stream_cell.errors), np.asarray(mem_cell.errors),
                rtol=0, atol=1e-12,
            )
            np.testing.assert_allclose(
                np.asarray(stream_cell.prior_errors), np.asarray(mem_cell.prior_errors),
                rtol=0, atol=1e-12,
            )

    def test_forced_pool_matches_serial(self, monkeypatch):
        """End-to-end worker-pool run on any host (cpu count patched up)."""
        import repro.scenarios.runner as runner_module

        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: 4)
        kwargs = dict(
            priors=("stable_f", "gravity"),
            datasets=("geant",),
            base=dict(SMALL, stream=True),
        )
        serial = ScenarioRunner().sweep(jobs=1, **kwargs)
        pooled = ScenarioRunner().sweep(jobs=2, **kwargs)
        assert not pooled.failures
        for left, right in zip(serial.results, pooled.results):
            np.testing.assert_array_equal(
                np.asarray(left.errors), np.asarray(right.errors)
            )

    def test_sweep_reports_throughput_and_rss(self):
        result = ScenarioRunner().sweep(
            priors=("stable_f",), datasets=("geant",), base=dict(SMALL), jobs=1
        )
        assert result.timing["cells"] == 1
        assert result.timing["cells_per_second"] > 0
        assert "cells/s" in result.format_summary()

    def test_column_batches_group_then_split(self):
        cells = [
            Scenario(dataset=dataset, prior=prior, n_weeks=2, **SMALL)
            for dataset in ("geant", "totem")
            for prior in ("gravity", "stable_f")
        ]
        items = [(index, cell, None) for index, cell in enumerate(cells)]
        by_column = ScenarioRunner._column_batches(items, 2)
        assert [[item[0] for item in batch] for batch in by_column] == [[0, 1], [2, 3]]
        split = ScenarioRunner._column_batches(items, 4)
        assert len(split) == 4
        assert sorted(item[0] for batch in split for item in batch) == [0, 1, 2, 3]


class TestStreamingPlanShipping:
    def test_export_state_rebuild_is_bit_identical(self):
        data = open_dataset_stream("totem", n_weeks=2, bins_per_week=32).checkpoint_noise()
        rebuilt = streaming_dataset_from_state(data.export_state())
        for week in range(2):
            np.testing.assert_array_equal(
                rebuilt.week(week).values, data.week(week).values
            )
        assert rebuilt.nodes == data.nodes
        assert rebuilt.bins_per_week == data.bins_per_week
        with pytest.raises(ValidationError, match="missing plan arrays"):
            streaming_dataset_from_state(dataclasses.replace(data.export_state(), activity=None))

    def test_run_accepts_shipped_streaming_dataset(self):
        scenario = Scenario(
            dataset="geant", prior="stable_f", stream=True, n_weeks=2, target_week=1, **SMALL
        )
        shipped = open_dataset_stream("geant", n_weeks=2, bins_per_week=36).checkpoint_noise()
        rebuilt = streaming_dataset_from_state(shipped.export_state())
        from_cache = ScenarioRunner().run(scenario)
        from_shipped = ScenarioRunner().run(scenario, dataset=rebuilt)
        np.testing.assert_array_equal(from_cache.errors, from_shipped.errors)

    def test_run_rejects_mismatched_dataset_kinds(self):
        # There is one dataset type: only an object without week_stream is
        # rejected, and a materialised or a lazy dataset of the same plan
        # gives identical errors in either mode.
        from repro.synthesis.datasets import load_dataset

        streaming = Scenario(
            dataset="geant", prior="stable_f", stream=True, target_week=0, **SMALL
        )
        with pytest.raises(ValidationError, match="week_stream"):
            ScenarioRunner().run(streaming, dataset=object())
        materialised = load_dataset("geant", n_weeks=1, bins_per_week=36)
        for scenario in (streaming, streaming.replace(stream=False)):
            lazy = open_dataset_stream("geant", n_weeks=1, bins_per_week=36)
            from_lazy = ScenarioRunner().run(scenario, dataset=lazy)
            from_materialised = ScenarioRunner().run(scenario, dataset=materialised)
            np.testing.assert_array_equal(from_lazy.errors, from_materialised.errors)
            np.testing.assert_array_equal(from_lazy.prior_errors, from_materialised.prior_errors)
            # Only the in-memory cell materialises the lazy dataset.
            assert lazy.materialized == (not scenario.stream)

    def test_in_memory_run_generates_each_bin_once(self, monkeypatch):
        # A worker's rebuilt column is lazy; an in-memory cell materialises
        # it in one pass and every later read (measurement, prior fit,
        # estimation, ground truth) is a view, so no bin is generated twice.
        from repro.synthesis import generator as generator_module

        generated: list[int] = []
        original = generator_module.ICTMGenerator.iter_chunks

        def counting(self, plan, **kwargs):
            for t0, block in original(self, plan, **kwargs):
                generated.append(block.shape[0])
                yield t0, block

        shipped = open_dataset_stream("totem", n_weeks=2, bins_per_week=36).checkpoint_noise()
        rebuilt = streaming_dataset_from_state(shipped.export_state())
        monkeypatch.setattr(generator_module.ICTMGenerator, "iter_chunks", counting)
        scenario = Scenario(
            dataset="totem", prior="stable_fp", n_weeks=2, calibration_week=0, target_week=1,
            **SMALL,
        )
        ScenarioRunner().run(scenario, dataset=rebuilt)
        ScenarioRunner().run(scenario.replace(prior="stable_f"), dataset=rebuilt)
        assert sum(generated) == rebuilt.n_bins == 72

    def test_run_rejects_too_short_streaming_dataset(self):
        scenario = Scenario(
            dataset="geant", prior="stable_f", stream=True, calibration_week=1,
            target_week=2, **SMALL,
        )
        shipped = open_dataset_stream("geant", n_weeks=1, bins_per_week=36)
        with pytest.raises(ValidationError, match="weeks"):
            ScenarioRunner().run(scenario, dataset=shipped)


class TestSpill:
    def test_store_roundtrip_and_lazy_handle(self, tmp_path):
        store = SpillStore(tmp_path / "run", shard_bins=8)
        values = np.arange(20.0)
        series = store.add_series("errors", values)
        assert isinstance(series, SpilledSeries)
        assert series.shape == (20,)
        assert len(series.paths) == 3  # 8 + 8 + 4
        np.testing.assert_array_equal(np.asarray(series), values)
        assert float(np.mean(series)) == values.mean()

    def test_writer_accepts_chunks_in_order_only(self, tmp_path):
        store = SpillStore(tmp_path, shard_bins=4)
        writer = store.writer("estimate")
        writer(0, np.zeros((3, 2, 2)))
        writer(3, np.ones((3, 2, 2)))
        series = writer.finish()
        assert series.shape == (6, 2, 2)
        np.testing.assert_array_equal(series[3:], np.ones((3, 2, 2)))
        bad = store.writer("other")
        bad(0, np.zeros((2, 2, 2)))
        with pytest.raises(ValidationError, match="expected a chunk"):
            bad(5, np.zeros((1, 2, 2)))

    def test_handle_pickles_as_paths(self, tmp_path):
        import pickle

        store = SpillStore(tmp_path)
        series = store.add_series("x", np.arange(6.0))
        series.load()
        clone = pickle.loads(pickle.dumps(series))
        assert clone._loaded is None  # the cache does not travel
        np.testing.assert_array_equal(np.asarray(clone), np.arange(6.0))

    def test_streamed_scenario_spills_with_explicit_dir(self, tmp_path):
        scenario = Scenario(
            dataset="geant", prior="stable_f", stream=True,
            spill_dir=str(tmp_path), **SMALL,
        )
        plain = ScenarioRunner().run(scenario.replace(spill_dir=None))
        spilled = ScenarioRunner().run(scenario)
        assert isinstance(spilled.errors, SpilledSeries)
        assert isinstance(spilled.improvement, SpilledSeries)
        assert "estimate" in spilled.spilled
        estimate = spilled.spilled["estimate"]
        assert estimate.shape == (4, 22, 22)
        np.testing.assert_array_equal(np.asarray(spilled.errors), plain.errors)
        assert spilled.timing["spill_dir"].startswith(str(tmp_path))
        assert "spill directory" in spilled.format_table()
        # The shards really live under the run directory, one cell subdir.
        shards = list(tmp_path.rglob("*.npz"))
        assert shards and all("geant-stable_f" in str(path) for path in shards)

    def test_auto_spill_threshold(self, monkeypatch, tmp_path):
        import repro.scenarios.runner as runner_module

        monkeypatch.setattr(runner_module, "SPILL_AUTO_MIN_BINS", 4)
        monkeypatch.setattr(
            runner_module.tempfile, "mkdtemp",
            lambda prefix: str(tmp_path / "auto-run"),
        )
        scenario = Scenario(dataset="geant", prior="stable_f", stream=True, **SMALL)
        result = ScenarioRunner().run(scenario)
        assert isinstance(result.errors, SpilledSeries)
        assert result.timing["spill_dir"] == str(tmp_path / "auto-run")

    def test_spill_dir_requires_stream(self):
        scenario = Scenario(dataset="geant", prior="stable_f", spill_dir="/tmp/x", **SMALL)
        with pytest.raises(ValidationError, match="stream"):
            scenario.validate()

    def test_sweep_cells_spill_into_label_subdirs(self, tmp_path):
        result = ScenarioRunner().sweep(
            priors=("stable_f", "gravity"), datasets=("geant",),
            base=dict(SMALL, stream=True, spill_dir=str(tmp_path)), jobs=1,
        )
        assert not result.failures
        subdirs = sorted(path.name for path in tmp_path.iterdir())
        assert subdirs == ["geant-gravity", "geant-stable_f"]
        for cell in result.results:
            np.testing.assert_array_equal(
                np.asarray(cell.errors), np.asarray(cell.errors)
            )
