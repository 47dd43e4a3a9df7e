"""Streaming pipeline tests: chunk protocol, bit-identity, equivalence, memory.

The contract under test is the one the streaming data plane advertises:

* same-seed chunked synthesis is **bit-identical** to the in-memory cube,
* the streaming estimator produces the same numbers as the cube path for the
  fig11/12/13 scenario shapes (within float reduction order, far inside the
  1e-12 budget), and
* peak memory is bounded by the chunk size, not the series length
  (asserted via ``tracemalloc``).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.fitting import fit_stable_fp
from repro.errors import ValidationError
from repro.estimation.linear_system import simulate_link_loads
from repro.estimation.pipeline import TMEstimator
from repro.scenarios import Scenario, ScenarioRunner
from repro.streaming import (
    ArrayChunkStream,
    CachedChunkStream,
    FunctionChunkStream,
    as_chunk_stream,
    default_chunk_bins,
    zip_chunks,
)
from repro.synthesis.datasets import load_dataset, open_dataset_stream
from repro.synthesis.generator import ICTMGenerator


# ---------------------------------------------------------------------------
# the chunk protocol
# ---------------------------------------------------------------------------

class TestChunkProtocol:
    def test_array_stream_yields_views_covering_all_bins(self):
        values = np.random.default_rng(0).random((20, 3, 3))
        stream = ArrayChunkStream(values, bin_seconds=60.0, chunk_bins=7)
        chunks = list(stream.chunks())
        assert [t0 for t0, _ in chunks] == [0, 7, 14]
        assert [block.shape[0] for _, block in chunks] == [7, 7, 6]
        assert np.array_equal(np.concatenate([b for _, b in chunks]), values)
        assert chunks[0][1].base is not None  # views, not copies

    def test_adapter_accepts_cube_series_and_stream(self):
        values = np.random.default_rng(1).random((10, 4, 4))
        from repro.core.traffic_matrix import TrafficMatrixSeries

        series = TrafficMatrixSeries(values, bin_seconds=900.0)
        for source in (values, series, ArrayChunkStream(series)):
            stream = as_chunk_stream(source, chunk_bins=3)
            assert stream.n_bins == 10
            assert stream.chunk_bins == 3
        assert as_chunk_stream(series).bin_seconds == 900.0

    def test_adapter_rechunks_array_streams_only(self):
        values = np.random.default_rng(2).random((8, 3, 3))
        rechunked = as_chunk_stream(ArrayChunkStream(values, chunk_bins=4), chunk_bins=2)
        assert rechunked.chunk_bins == 2

        generative = FunctionChunkStream(
            lambda chunk: iter([(0, values)]),
            n_bins=8,
            nodes=[f"n{i}" for i in range(3)],
            bin_seconds=300.0,
            chunk_bins=8,
        )
        with pytest.raises(ValidationError, match="re-chunk"):
            as_chunk_stream(generative, chunk_bins=2)

    def test_function_stream_validates_coverage(self):
        nodes = ("a", "b")

        def gappy(chunk):
            yield 0, np.zeros((2, 2, 2))
            yield 5, np.zeros((2, 2, 2))  # skips bins 2-4

        stream = FunctionChunkStream(gappy, n_bins=7, nodes=nodes, bin_seconds=60.0, chunk_bins=2)
        with pytest.raises(ValidationError, match="skipped"):
            list(stream.chunks())

        def short(chunk):
            yield 0, np.zeros((2, 2, 2))

        stream = FunctionChunkStream(short, n_bins=7, nodes=nodes, bin_seconds=60.0, chunk_bins=2)
        with pytest.raises(ValidationError, match="ended early"):
            list(stream.chunks())

    def test_zip_chunks_requires_matching_boundaries(self):
        a = ArrayChunkStream(np.zeros((6, 2, 2)), chunk_bins=2)
        b = ArrayChunkStream(np.ones((6, 2, 2)), chunk_bins=2)
        zipped = list(zip_chunks(a, b))
        assert [t0 for t0, _ in zipped] == [0, 2, 4]
        mismatched = ArrayChunkStream(np.ones((6, 2, 2)), chunk_bins=4)
        with pytest.raises(ValidationError, match="chunk boundaries"):
            list(zip_chunks(a, mismatched))
        with pytest.raises(ValidationError, match="n_bins"):
            list(zip_chunks(a, ArrayChunkStream(np.ones((5, 2, 2)))))

    def test_zip_chunks_refuses_silent_truncation_naming_streams(self):
        class TruncatedStream:
            """Claims 6 bins but its iterator stops after one 3-bin chunk."""

            n_bins = 6

            def chunks(self):
                yield 0, np.zeros((3, 2, 2))

        a = ArrayChunkStream(np.zeros((6, 2, 2)), chunk_bins=3)
        with pytest.raises(ValidationError) as excinfo:
            list(zip_chunks(a, TruncatedStream()))
        message = str(excinfo.value)
        assert "refusing to truncate" in message
        assert "TruncatedStream" in message  # the stream that ran dry
        assert "ArrayChunkStream" in message  # the stream left yielding

    def test_default_chunk_bins_scales_down_with_network_size(self):
        assert default_chunk_bins(10) > default_chunk_bins(100) >= 1

    def test_iter_chunks_materialize_and_marginals(self):
        values = np.random.default_rng(3).random((9, 3, 3))
        stream = as_chunk_stream(values, chunk_bins=4)
        assert np.array_equal(
            np.concatenate([b for _, b in stream.chunks()]), values
        )
        assert np.array_equal(stream.materialize().values, values)
        ingress, egress = stream.marginals()
        assert np.array_equal(ingress, values.sum(axis=2))
        assert np.array_equal(egress, values.sum(axis=1))


class TestCachedChunkStreamConcurrency:
    """Interleaved multi-pass readers and budgets below one chunk."""

    def _counting_stream(self, n_bins=12, chunk_bins=4):
        values = np.random.default_rng(9).random((n_bins, 3, 3))
        passes = {"count": 0}

        def factory(resolved):
            passes["count"] += 1
            for start in range(0, n_bins, resolved):
                yield start, values[start:start + resolved].copy()

        stream = FunctionChunkStream(
            factory, n_bins=n_bins, nodes=("a", "b", "c"), bin_seconds=60.0,
            chunk_bins=chunk_bins,
        )
        return stream, values, passes

    def test_interleaved_passes_see_complete_duplicate_free_sequences(self):
        stream, values, passes = self._counting_stream()
        cached = CachedChunkStream(stream, budget_bytes=1 << 30)
        first = cached.chunks()
        collected_first = [next(first)]  # first pass is mid-flight...
        second = list(cached.chunks())  # ...when a second pass runs to completion
        collected_first.extend(first)
        for chunks in (collected_first, second):
            assert [t0 for t0, _ in chunks] == [0, 4, 8]  # complete, no duplicates
            assert np.array_equal(np.concatenate([b for _, b in chunks]), values)
        # The cache held only what the filling pass appended — no duplicate
        # entries from the concurrent reader — and now serves passes alone.
        assert cached.cached_bins == 12
        third = list(cached.chunks())
        assert np.array_equal(np.concatenate([b for _, b in third]), values)
        assert passes["count"] == 2  # third pass never touched the inner stream

    def test_budget_below_one_chunk_caches_nothing_but_stays_correct(self):
        stream, values, passes = self._counting_stream()
        chunk_bytes = values[:4].nbytes
        cached = CachedChunkStream(stream, budget_bytes=chunk_bytes - 1)
        for _ in range(2):
            total = np.concatenate([b for _, b in cached.chunks()])
            assert np.array_equal(total, values)
        assert cached.cached_bins == 0
        assert passes["count"] == 2  # every pass regenerates from the source


# ---------------------------------------------------------------------------
# chunked synthesis bit-identity
# ---------------------------------------------------------------------------

class TestSynthesisBitIdentity:
    def test_generator_chunks_match_cube_for_any_chunking(self):
        generator = ICTMGenerator([f"n{i}" for i in range(8)], seed=5)
        series, _ = generator.generate(100)
        plan = generator.plan(100)
        for chunk_bins in (1, 13, 100):
            blocks = [b for _, b in generator.iter_chunks(plan, chunk_bins=chunk_bins)]
            assert np.array_equal(np.concatenate(blocks), series.values)

    def test_generator_mid_stream_slice_matches_cube_slice(self):
        generator = ICTMGenerator([f"n{i}" for i in range(6)], seed=9)
        series, _ = generator.generate(80)
        plan = generator.plan(80)
        blocks = [
            b for _, b in generator.iter_chunks(plan, chunk_bins=7, start_bin=33, stop_bin=71)
        ]
        assert np.array_equal(np.concatenate(blocks), series.values[33:71])
        # A second pass reuses cached RNG state and must be identical.
        again = [
            b for _, b in generator.iter_chunks(plan, chunk_bins=11, start_bin=33, stop_bin=71)
        ]
        assert np.array_equal(np.concatenate(again), series.values[33:71])

    @pytest.mark.parametrize("name,weeks,bins", [("geant", 2, 36), ("totem", 3, 40)])
    def test_week_streams_bit_identical_to_cube_weeks(self, name, weeks, bins):
        data = load_dataset(name, n_weeks=weeks, bins_per_week=bins)
        stream = open_dataset_stream(name, n_weeks=weeks, bins_per_week=bins)
        assert stream.nodes == data.nodes
        assert stream.bin_seconds == data.bin_seconds
        for week_index in range(weeks):
            streamed = stream.week_stream(week_index, chunk_bins=7).materialize()
            assert np.array_equal(streamed.values, data.week(week_index).values)

    def test_full_stream_matches_concatenated_weeks_across_boundaries(self):
        # Chunk length of 17 straddles the 40-bin week boundary, exercising
        # anomaly application on partial weeks (totem injects anomalies).
        data = load_dataset("totem", n_weeks=2, bins_per_week=40)
        stream = open_dataset_stream("totem", n_weeks=2, bins_per_week=40)
        full = stream.full_stream(chunk_bins=17).materialize()
        assert np.array_equal(full.values, data.full_stream().materialize().values)

    def test_trimmed_week_stream_matches_cube_prefix(self):
        data = load_dataset("geant", n_weeks=1, bins_per_week=48)
        stream = open_dataset_stream("geant", n_weeks=1, bins_per_week=48)
        trimmed = stream.week_stream(0, chunk_bins=5, max_bins=13).materialize()
        assert np.array_equal(trimmed.values, data.week(0).values[:13])

    def test_ground_truths_match_cube_path(self):
        data = load_dataset("totem", n_weeks=2, bins_per_week=24)
        stream = open_dataset_stream("totem", n_weeks=2, bins_per_week=24)
        for week_index in range(2):
            cube_truth = data.ground_truths[week_index]
            stream_truth = stream.ground_truths[week_index]
            assert np.array_equal(cube_truth.activity, stream_truth.activity)
            assert np.array_equal(cube_truth.preference, stream_truth.preference)
            assert np.array_equal(
                cube_truth.forward_fraction_matrix, stream_truth.forward_fraction_matrix
            )

    def test_unknown_or_unstreamable_dataset_rejected(self):
        with pytest.raises(Exception):
            open_dataset_stream("no-such-dataset", n_weeks=1)

    def test_streamed_measurements_match_materialised_system(self):
        data = load_dataset("geant", n_weeks=1, bins_per_week=36)
        stream = open_dataset_stream("geant", n_weeks=1, bins_per_week=36)
        week = data.week(0)
        system_mem = simulate_link_loads(data.topology, week, noise_std=0.01, seed=3)
        system_str = simulate_link_loads(
            stream.topology, stream.week_stream(0, chunk_bins=7), noise_std=0.01, seed=3
        )
        assert np.array_equal(system_mem.ingress, system_str.ingress)
        assert np.array_equal(system_mem.egress, system_str.egress)
        # The CSR product sums each bin on its own, so chunking changes no bit.
        assert np.array_equal(system_mem.link_loads, system_str.link_loads)


# ---------------------------------------------------------------------------
# streamed stable-fP fits
# ---------------------------------------------------------------------------

class TestStreamingReductions:
    @pytest.fixture(scope="class")
    def week_and_stream(self):
        data = load_dataset("geant", n_weeks=1, bins_per_week=48)
        stream = open_dataset_stream("geant", n_weeks=1, bins_per_week=48)
        return data.week(0), stream.week_stream(0, chunk_bins=7)

    def test_streaming_fit_matches_in_memory_fit(self, week_and_stream):
        week, stream = week_and_stream
        fit_mem = fit_stable_fp(week)
        fit_str = fit_stable_fp(stream)
        assert fit_str.model == "stable-fP"
        assert fit_str.converged == fit_mem.converged
        assert len(fit_str.objective_history) == len(fit_mem.objective_history)
        np.testing.assert_allclose(
            fit_str.forward_fraction, fit_mem.forward_fraction, rtol=1e-9
        )
        np.testing.assert_allclose(fit_str.preference, fit_mem.preference, atol=1e-10)
        np.testing.assert_allclose(fit_str.errors, fit_mem.errors, atol=1e-10)

    @pytest.mark.parametrize("max_iterations, tolerance", [(4, -np.inf), (60, 1e-6)])
    def test_streaming_fit_reads_at_most_iterations_plus_two_passes(
        self, week_and_stream, max_iterations, tolerance
    ):
        week, _ = week_and_stream

        class CountingStream(ArrayChunkStream):
            passes = 0

            def chunks(self):
                self.passes += 1
                return super().chunks()

        stream = CountingStream(week, chunk_bins=7)
        fit = fit_stable_fp(stream, max_iterations=max_iterations, tolerance=tolerance)
        iterations = len(fit.objective_history)
        assert iterations == max_iterations or fit.converged
        assert stream.passes == iterations + 2

    def test_fit_stable_fp_accepts_streams_via_adapter(self, week_and_stream):
        _, stream = week_and_stream
        fit = fit_stable_fp(stream)
        assert fit.model == "stable-fP"


# ---------------------------------------------------------------------------
# streaming scenarios: fig11/12/13 equivalence
# ---------------------------------------------------------------------------

class TestStreamingScenarios:
    # The fig11/12/13 scenario shapes: measured (6.1), stable_fp (6.2),
    # stable_f (6.3), each against the gravity baseline.
    @pytest.mark.parametrize("chunk_bins", [7, None])
    @pytest.mark.parametrize("prior", ["measured", "stable_fp", "stable_f"])
    def test_streamed_errors_match_in_memory_within_1e12(self, prior, chunk_bins):
        base = Scenario(dataset="totem", prior=prior, bins_per_week=40, max_bins=20)
        runner = ScenarioRunner()
        in_memory = runner.run(base)
        streamed = runner.run(base.replace(stream=True, chunk_bins=chunk_bins))
        names = ("errors", "prior_errors", "baseline_errors", "improvement")
        if chunk_bins is None:
            # Default chunking: both runs cut the week into the same chunks,
            # so every series agrees bit for bit.
            for name in names:
                assert np.array_equal(getattr(streamed, name), getattr(in_memory, name)), name
        np.testing.assert_allclose(streamed.errors, in_memory.errors, atol=1e-12)
        np.testing.assert_allclose(
            streamed.prior_errors, in_memory.prior_errors, atol=1e-12
        )
        np.testing.assert_allclose(
            streamed.baseline_errors, in_memory.baseline_errors, atol=1e-12
        )
        np.testing.assert_allclose(
            streamed.improvement, in_memory.improvement, atol=1e-8
        )
        assert streamed.estimate is None
        assert in_memory.estimate is not None
        assert streamed.timing["chunk_bins"] == (chunk_bins or 20)

    @pytest.mark.parametrize("prior", ["gravity", "measured", "stable_fp", "stable_f"])
    def test_materialised_estimate_equals_estimator_on_same_inputs(self, prior):
        from repro.core.priors import PriorContext
        from repro.registry import PRIORS

        scenario = Scenario(dataset="geant", prior=prior, bins_per_week=36, max_bins=12)
        result = ScenarioRunner(baseline_prior=None).run(scenario)
        calibration_week, target_week = ScenarioRunner.resolve_weeks(scenario)
        data = load_dataset(
            "geant", n_weeks=max(calibration_week, target_week) + 1, bins_per_week=36
        )
        target = data.week(target_week)[:12]
        system = simulate_link_loads(
            data.topology, target, noise_std=scenario.measurement_noise, seed=scenario.seed
        )
        context = PriorContext(
            dataset=data,
            target=data.week_stream(target_week, max_bins=12),
            system=system,
            calibration_week=calibration_week,
            target_week=target_week,
        )
        prior_series = PRIORS.get(prior)(context).materialize()
        reference = TMEstimator().estimate(system, prior_series, ground_truth=target)
        assert np.array_equal(result.estimate.values, reference.estimate.values)
        assert np.array_equal(result.errors, reference.errors)
        assert np.array_equal(result.prior_errors, reference.prior_errors)

    def test_streamed_gravity_scenario_without_baseline(self):
        scenario = Scenario(
            dataset="geant", prior="gravity", bins_per_week=36, max_bins=12,
            stream=True, chunk_bins=5,
        )
        runner = ScenarioRunner(baseline_prior=None)
        result = runner.run(scenario)
        reference = ScenarioRunner(baseline_prior=None).run(scenario.replace(stream=False))
        np.testing.assert_allclose(result.errors, reference.errors, atol=1e-12)
        assert result.improvement is None

    def test_streaming_rejects_unstreamable_prior(self):
        # Every prior now has one builder for both modes, and the runner
        # coerces whatever it returns into a chunk stream: a test-only prior
        # handing back the ground-truth target (as the stream itself, or
        # materialised into a series) runs either way.
        from repro.registry import PRIORS

        builders = (lambda context: context.target, lambda context: context.target.materialize())
        try:
            for builder in builders:
                PRIORS.register(
                    "cube_only", builder, description="test-only prior", overwrite=True
                )
                for stream in (False, True):
                    scenario = Scenario(
                        dataset="geant", prior="cube_only", bins_per_week=36, max_bins=6,
                        stream=stream, chunk_bins=4 if stream else None,
                    )
                    result = ScenarioRunner(baseline_prior=None).run(scenario)
                    assert result.errors.shape == (6,)
                    assert np.all(result.prior_errors == 0.0)
        finally:
            PRIORS.unregister("cube_only")
        assert "cube_only" not in PRIORS

    def test_streaming_rejects_shipped_dataset(self):
        scenario = Scenario(dataset="geant", prior="gravity", stream=True)
        with pytest.raises(ValidationError, match="dataset=None"):
            ScenarioRunner().run(scenario, dataset=object())

    def test_estimate_stream_matches_estimate_bitwise(self):
        data = load_dataset("geant", n_weeks=1, bins_per_week=36)
        week = data.week(0)
        system = simulate_link_loads(data.topology, week, noise_std=0.01, seed=0)
        from repro.core.priors import GravityPrior

        prior = GravityPrior().series(
            system.ingress, system.egress, nodes=week.nodes, bin_seconds=week.bin_seconds
        )
        estimator = TMEstimator()
        reference = estimator.estimate(system, prior, ground_truth=week)
        streamed = estimator.estimate_stream(
            system,
            ArrayChunkStream(prior, chunk_bins=7),
            ground_truth_stream=ArrayChunkStream(week, chunk_bins=7),
            collect_estimate=True,
        )
        assert np.array_equal(reference.errors, streamed.errors)
        assert np.array_equal(reference.estimate.values, streamed.estimate.values)
        no_truth = estimator.estimate_stream(system, ArrayChunkStream(prior, chunk_bins=7))
        assert no_truth.errors is None and no_truth.estimate is None


# ---------------------------------------------------------------------------
# bounded peak memory
# ---------------------------------------------------------------------------

def _traced_peak(func) -> int:
    tracemalloc.start()
    try:
        func()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestBoundedMemory:
    def test_streamed_synthesis_peak_is_chunk_sized_not_series_sized(self):
        bins = 288
        stream = open_dataset_stream("geant", n_weeks=1, bins_per_week=bins, chunk_bins=8)
        cube_bytes = bins * len(stream.nodes) ** 2 * 8
        peak = _traced_peak(lambda: stream.week_stream(0).marginals())
        assert peak < cube_bytes / 3

    def test_streaming_scenario_peak_below_in_memory_and_flat_in_t(self):
        def run(bins: int, stream: bool) -> None:
            scenario = Scenario(
                dataset="geant",
                prior="stable_f",
                bins_per_week=bins,
                max_bins=bins,
                stream=stream,
                chunk_bins=8 if stream else None,
                target_week=0,
                calibration_week=0,
            )
            ScenarioRunner(baseline_prior=None).run(scenario)

        # Synthesis caches would hide the second run's allocations; clear them.
        from repro.synthesis import datasets as datasets_module

        def fresh(bins: int, stream: bool):
            datasets_module.load_dataset.cache_clear()
            datasets_module._open_stream_core.cache_clear()
            return _traced_peak(lambda: run(bins, stream))

        in_memory_peak = fresh(192, stream=False)
        streamed_peak = fresh(192, stream=True)
        assert streamed_peak < in_memory_peak / 3

        # Doubling T must not double the streamed peak: the n^2 working set
        # is O(chunk); only O(T n) marginal state grows.
        streamed_small = fresh(96, stream=True)
        assert streamed_peak < 1.6 * streamed_small


# ---------------------------------------------------------------------------
# custom-dataset streaming
# ---------------------------------------------------------------------------

class TestCustomDatasetStreaming:
    def test_error_lists_streamable_datasets(self):
        from repro.registry import DATASETS, register_dataset
        from repro.synthesis import open_dataset_stream

        register_dataset("cube_only", lambda n_weeks=1, **kwargs: None, overwrite=True)
        try:
            with pytest.raises(ValidationError) as excinfo:
                open_dataset_stream("cube_only", n_weeks=1)
            message = str(excinfo.value)
            assert "geant" in message and "totem" in message
            assert "register_dataset_stream" in message
        finally:
            DATASETS.unregister("cube_only")

    def test_registered_chunk_factory_streams(self):
        from repro.registry import DATASETS, register_dataset
        from repro.streaming import FunctionChunkStream
        from repro.synthesis import (
            open_dataset_stream,
            register_dataset_stream,
            streamable_dataset_names,
        )
        from repro.synthesis.datasets import _STREAM_OPENERS

        register_dataset("toy_stream", lambda n_weeks=1, **kwargs: None, overwrite=True)

        class ToyStreaming:
            nodes = ("a", "b")
            n_weeks = 1
            bin_seconds = 300.0

            def week_stream(self, index, *, chunk_bins=None, max_bins=None):
                def factory(chunk):
                    yield 0, np.full((4, 2, 2), float(index + 1))

                return FunctionChunkStream(
                    factory, n_bins=4, nodes=self.nodes, bin_seconds=self.bin_seconds
                )

        seen_kwargs = {}

        @register_dataset_stream("toy_stream")
        def open_toy(**kwargs):
            seen_kwargs.update(kwargs)
            return ToyStreaming()

        try:
            assert "toy_stream" in streamable_dataset_names()
            data = open_dataset_stream("toy_stream", n_weeks=1, chunk_bins=2)
            assert seen_kwargs["n_weeks"] == 1 and seen_kwargs["chunk_bins"] == 2
            week = data.week_stream(0).materialize()
            assert np.all(week.values == 1.0)
        finally:
            DATASETS.unregister("toy_stream")
            _STREAM_OPENERS.pop("toy_stream", None)

    def test_builtin_opener_cannot_be_replaced(self):
        from repro.errors import RegistryError
        from repro.synthesis import register_dataset_stream

        with pytest.raises(RegistryError, match="built-in"):
            register_dataset_stream("geant", lambda **kwargs: None)

    def test_duplicate_opener_needs_overwrite(self):
        from repro.errors import RegistryError
        from repro.synthesis import register_dataset_stream
        from repro.synthesis.datasets import _STREAM_OPENERS

        register_dataset_stream("dup_stream", lambda **kwargs: None)
        try:
            with pytest.raises(RegistryError, match="overwrite"):
                register_dataset_stream("dup_stream", lambda **kwargs: None)
            register_dataset_stream("dup_stream", lambda **kwargs: None, overwrite=True)
        finally:
            _STREAM_OPENERS.pop("dup_stream", None)
