"""Replay, rescaling and chunking contracts of the estimation path.

The incremental fast path that used to live in ``repro.estimation.fastpath``
exploited three properties of real feeds: repeated bins, exactly rescaled
bins and a bin-invariant routing operator.  The rank-reduced tomogravity
kernel makes the cache pointless, but the properties are still contracts of
the one remaining path, and these tests hold it to them:

* the observation factor cached on the routing matrix is built once per
  routing memo, reused by every run, and rebuilt when the operator changes;
  a bare matrix handed to the kernel is factored afresh on each call;
* a replayed bin reproduces its first estimate **bit for bit** in any chunk,
  and every chunking of a feed (estimator, service, trace replay) publishes
  identical numbers;
* an exactly rescaled bin stays within 1e-10 of the per-bin ``pinv``
  oracle, and IPF's fixed point rescales with its inputs;
* IPF's ``iteration_counts`` instrumentation leaves the fitted values
  untouched.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ShapeError
from repro.estimation import tomogravity
from repro.estimation.ipf import (
    iterative_proportional_fitting,
    iterative_proportional_fitting_series,
)
from repro.estimation.linear_system import simulate_link_loads_streaming
from repro.estimation.pipeline import TMEstimator
from repro.estimation.tomogravity import factor_observation_operator, tomogravity_estimate
from repro.ingest import FileReplaySource, IngestService, SyntheticFlowSource
from repro.scenarios import Scenario
from repro.streaming import ArrayChunkStream
from repro.topology.routing import build_routing_matrix, clear_routing_cache


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _rel_diff(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


def _oracle(priors, matrix, observed):
    """The per-bin ``m x m`` ``pinv`` refinement the kernel replaced."""
    floors = tomogravity._weight_floors(priors, None)
    weights = np.maximum(priors, floors[:, np.newaxis])
    return np.stack([
        tomogravity._pinv_refine(priors[t], matrix, observed[t], weights[t])
        for t in range(priors.shape[0])
    ])


# ---------------------------------------------------------------------------
# the observation factor vs the per-bin oracle
# ---------------------------------------------------------------------------

def _toy_problem(seed=0, t=6, links=9, n_od=16):
    rng = np.random.default_rng(seed)
    matrix = (rng.random((links, n_od)) < 0.4).astype(float)
    matrix[0] = 1.0  # keep the system connected
    priors = rng.gamma(2.0, 10.0, (t, n_od))
    truth = priors * rng.uniform(0.8, 1.25, (t, n_od))
    observed = truth @ matrix.T
    return priors, matrix, observed


class TestFactorizationCache:
    def test_cold_chunk_is_all_misses_and_bit_identical(self):
        priors, matrix, observed = _toy_problem()
        # A bare matrix is factored on the call; a prebuilt factor is reused.
        cold = tomogravity_estimate(priors, matrix, observed)
        factor = factor_observation_operator(matrix)
        np.testing.assert_array_equal(tomogravity_estimate(priors, factor, observed), cold)
        assert _rel_diff(cold, _oracle(priors, matrix, observed)) <= 1e-10

    def test_equal_tier_replay_is_bit_identical(self):
        priors, matrix, observed = _toy_problem()
        factor = factor_observation_operator(matrix)
        first = tomogravity_estimate(priors, factor, observed)
        steady = np.repeat(priors[-1:], 5, axis=0)
        replay = tomogravity_estimate(steady, factor, np.repeat(observed[-1:], 5, axis=0))
        for t in range(5):
            np.testing.assert_array_equal(replay[t], first[-1])

    def test_scaled_tier_matches_oracle_within_budget(self):
        priors, matrix, observed = _toy_problem(seed=3)
        scales = np.array([0.5, 1.7, 3.0, 0.9, 2.2])
        family = scales[:, np.newaxis] * priors[-1]
        targets = scales[:, np.newaxis] * observed[-1]
        factor = factor_observation_operator(matrix)
        estimates = tomogravity_estimate(family, factor, targets)
        assert _rel_diff(estimates, _oracle(family, matrix, targets)) <= 1e-10
        base = tomogravity_estimate(priors[-1], factor, observed[-1])
        assert _rel_diff(estimates, scales[:, np.newaxis] * base) <= 1e-10

    def test_drifting_priors_fall_back_bit_identical(self):
        priors, matrix, observed = _toy_problem(seed=7)
        factor = factor_observation_operator(matrix)
        whole = tomogravity_estimate(priors, factor, observed)
        split = np.concatenate([
            tomogravity_estimate(priors[:3], factor, observed[:3]),
            tomogravity_estimate(priors[3:], factor, observed[3:]),
        ])
        np.testing.assert_array_equal(split, whole)
        assert _rel_diff(whole, _oracle(priors, matrix, observed)) <= 1e-10

    def test_key_change_invalidates(self, abilene):
        try:
            clear_routing_cache()
            routing = build_routing_matrix(abilene)
            factor = routing.observation_factor()
            assert build_routing_matrix(abilene).observation_factor() is factor
            clear_routing_cache()
            rebuilt = build_routing_matrix(abilene)
            assert rebuilt is not routing
            assert rebuilt.observation_factor() is not factor
        finally:
            clear_routing_cache()
        rng = np.random.default_rng(1)
        priors = rng.gamma(2.0, 10.0, (3, factor.shape[1]))
        observed = priors @ factor.matrix.T
        np.testing.assert_array_equal(
            tomogravity_estimate(priors, rebuilt.observation_factor(), observed),
            tomogravity_estimate(priors, factor, observed),
        )

    def test_matrix_identity_change_invalidates(self):
        priors, matrix, observed = _toy_problem()
        before = tomogravity_estimate(priors, matrix, observed)
        changed = matrix.copy()
        changed[1] = 0.0
        changed[1, :4] = 1.0
        after = tomogravity_estimate(priors, changed, observed)
        assert _rel_diff(after, _oracle(priors, changed, observed)) <= 1e-10
        assert not np.array_equal(after, before)

    def test_stats_accumulate(self, abilene, monkeypatch):
        builds = []
        original = tomogravity.factor_observation_operator

        def counting(operator):
            builds.append(operator.shape)
            return original(operator)

        monkeypatch.setattr(tomogravity, "factor_observation_operator", counting)
        cube, prior = _family_feed(abilene, bins=6)
        prior_series = TrafficMatrixSeries(prior, abilene.nodes, bin_seconds=300.0)
        try:
            clear_routing_cache()
            system, prior_stream = _stream_pair(abilene, cube, prior, 3)
            estimator = TMEstimator()
            for _ in range(3):
                estimator.estimate(system, prior_series)
            TMEstimator().estimate_stream(system, prior_stream)
            assert len(builds) == 1
            TMEstimator(use_marginals_in_refinement=False).estimate(system, prior_series)
            assert len(builds) == 2
        finally:
            clear_routing_cache()


# ---------------------------------------------------------------------------
# IPF: replays and rescaled inputs
# ---------------------------------------------------------------------------

def _ipf_problem(seed=11, t=5, n=6):
    rng = np.random.default_rng(seed)
    seeds = rng.gamma(2.0, 5.0, (t, n, n))
    targets = rng.gamma(2.0, 5.0, (t, n, n))
    return seeds, targets.sum(axis=2), targets.sum(axis=1)


class TestIPFSolveCache:
    def test_cold_fit_matches_direct_series(self):
        seeds, rows, cols = _ipf_problem()
        series = iterative_proportional_fitting_series(seeds, rows, cols)
        direct = np.stack([
            iterative_proportional_fitting(seeds[t], rows[t], cols[t])
            for t in range(seeds.shape[0])
        ])
        assert _rel_diff(series, direct) <= 1e-12

    def test_equal_tier_replay_is_bit_identical(self):
        seeds, rows, cols = _ipf_problem()
        first = iterative_proportional_fitting_series(seeds, rows, cols)
        steady = (np.repeat(seeds[-1:], 3, axis=0),
                  np.repeat(rows[-1:], 3, axis=0),
                  np.repeat(cols[-1:], 3, axis=0))
        replay = iterative_proportional_fitting_series(*steady)
        for t in range(3):
            np.testing.assert_array_equal(replay[t], first[-1])

    def test_scaled_tier_rescales_the_cached_solution(self):
        seeds, rows, cols = _ipf_problem(seed=2)
        base = iterative_proportional_fitting_series(seeds[-1:], rows[-1:], cols[-1:])
        scales = np.array([0.25, 1.5, 4.0])
        family = (scales[:, np.newaxis, np.newaxis] * seeds[-1],
                  scales[:, np.newaxis] * rows[-1],
                  scales[:, np.newaxis] * cols[-1])
        solutions = iterative_proportional_fitting_series(*family)
        assert _rel_diff(solutions, scales[:, np.newaxis, np.newaxis] * base[0]) <= 1e-10


# ---------------------------------------------------------------------------
# IPF instrumentation: inert by default, validated when used
# ---------------------------------------------------------------------------

class TestIPFInstrumentation:
    def test_instrumented_default_path_is_bit_identical(self):
        seeds, rows, cols = _ipf_problem(seed=31)
        plain = iterative_proportional_fitting_series(seeds, rows, cols)
        counts = np.zeros(seeds.shape[0], dtype=np.intp)
        instrumented = iterative_proportional_fitting_series(
            seeds, rows, cols, iteration_counts=counts
        )
        np.testing.assert_array_equal(plain, instrumented)
        assert np.all(counts >= 1)

    def test_zero_total_bins_report_zero_iterations(self):
        seeds, rows, cols = _ipf_problem(seed=37, t=3)
        rows[1] = 0.0
        cols[1] = 0.0
        counts = np.zeros(3, dtype=np.intp)
        iterative_proportional_fitting_series(seeds, rows, cols, iteration_counts=counts)
        assert counts[1] == 0 and counts[0] >= 1 and counts[2] >= 1

    def test_iteration_counts_shape_checked(self):
        seeds, rows, cols = _ipf_problem(t=2)
        with pytest.raises(ShapeError, match="iteration_counts"):
            iterative_proportional_fitting_series(
                seeds, rows, cols, iteration_counts=np.zeros(5, dtype=np.intp)
            )


# ---------------------------------------------------------------------------
# estimator level: chunkings agree, rescaled feeds track the oracle
# ---------------------------------------------------------------------------

def _family_feed(topology, *, bins, scales=None, drift=0.0, seed=101):
    """An exactly rescaled (or drifting) traffic cube + matching gravity prior."""
    n = len(topology.nodes)
    rng = np.random.default_rng(seed)
    base = rng.gamma(2.0, 40.0, (n, n))
    np.fill_diagonal(base, 0.0)
    if scales is None:
        scales = np.ones(bins)
    cube = scales[:, np.newaxis, np.newaxis] * base
    if drift:
        shapes = 1 + drift * rng.standard_normal((bins, n, n))
        cube = np.abs(cube * shapes)
        for t in range(bins):
            np.fill_diagonal(cube[t], 0.0)
    ingress = cube.sum(axis=2)
    egress = cube.sum(axis=1)
    total = ingress.sum(axis=1)
    prior = ingress[:, :, np.newaxis] * egress[:, np.newaxis, :] / total[:, np.newaxis, np.newaxis]
    for t in range(bins):
        np.fill_diagonal(prior[t], 0.0)
    return cube, prior


def _stream_pair(topology, cube, prior, chunk):
    stream = ArrayChunkStream(cube, topology.nodes, bin_seconds=300.0, chunk_bins=chunk)
    system = simulate_link_loads_streaming(topology, stream)
    prior_stream = ArrayChunkStream(
        prior, topology.nodes, bin_seconds=300.0, chunk_bins=chunk
    )
    return system, prior_stream


def _batch(topology, cube, prior):
    system, _ = _stream_pair(topology, cube, prior, cube.shape[0])
    series = TrafficMatrixSeries(prior, topology.nodes, bin_seconds=300.0)
    return TMEstimator().estimate(system, series).estimate.values


def _oracle_pipeline(system, prior):
    """The estimator's two stages with the per-bin ``pinv`` refinement."""
    n = system.n_nodes
    matrix, observations = system.augmented_system()
    refined = _oracle(prior.reshape(prior.shape[0], n * n), matrix, observations)
    return iterative_proportional_fitting_series(
        refined.reshape(-1, n, n), system.ingress, system.egress, max_iterations=50
    )


class TestEstimatorEquivalence:
    @pytest.mark.parametrize("chunk", [4, 7])
    def test_steady_feed_is_bit_identical(self, abilene, chunk):
        cube, prior = _family_feed(abilene, bins=12)
        system, prior_stream = _stream_pair(abilene, cube, prior, chunk)
        streamed = TMEstimator().estimate_stream(system, prior_stream, collect_estimate=True)
        values = streamed.estimate.values
        np.testing.assert_array_equal(values, _batch(abilene, cube, prior))
        for t in range(1, values.shape[0]):
            np.testing.assert_array_equal(values[t], values[0])

    @pytest.mark.parametrize("chunk", [4, 7])
    def test_scaled_feed_within_budget_and_hits_scaled_tier(self, abilene, chunk):
        scales = 1.0 + 0.3 * np.sin(np.linspace(0.0, 2 * np.pi, 12, endpoint=False))
        cube, prior = _family_feed(abilene, bins=12, scales=scales)
        system, prior_stream = _stream_pair(abilene, cube, prior, chunk)
        streamed = TMEstimator().estimate_stream(system, prior_stream, collect_estimate=True)
        values = streamed.estimate.values
        assert _rel_diff(values, _oracle_pipeline(system, prior)) <= 1e-10
        base = values[0] / scales[0]
        assert _rel_diff(values, scales[:, np.newaxis, np.newaxis] * base) <= 1e-10

    def test_drifting_feed_with_warm_off_is_bit_identical(self, abilene):
        cube, prior = _family_feed(abilene, bins=8, drift=0.05)
        system, prior_stream = _stream_pair(abilene, cube, prior, 4)
        streamed = TMEstimator().estimate_stream(system, prior_stream, collect_estimate=True)
        np.testing.assert_array_equal(streamed.estimate.values, _batch(abilene, cube, prior))

    def test_drifting_feed_with_warm_on_stays_within_budget(self, abilene):
        cube, prior = _family_feed(abilene, bins=8, drift=0.05)
        system, prior_stream = _stream_pair(abilene, cube, prior, 4)
        streamed = TMEstimator().estimate_stream(system, prior_stream, collect_estimate=True)
        assert _rel_diff(streamed.estimate.values, _oracle_pipeline(system, prior)) <= 1e-10

    def test_batch_estimate_honours_fast_path(self, abilene):
        cube, prior = _family_feed(abilene, bins=6, drift=0.05)
        system, prior_stream = _stream_pair(abilene, cube, prior, 1)
        singles = TMEstimator().estimate_stream(system, prior_stream, collect_estimate=True)
        series = TrafficMatrixSeries(prior, abilene.nodes, bin_seconds=300.0)
        batch = TMEstimator().estimate(system, series)
        np.testing.assert_array_equal(batch.estimate.values, singles.estimate.values)


# ---------------------------------------------------------------------------
# service level: chunkings and trace replays publish identical records
# ---------------------------------------------------------------------------

def _served(tmp_path, topology, cube, *, tag, chunk=4, **service_kwargs):
    sink = tmp_path / f"{tag}.jsonl"
    stream = ArrayChunkStream(cube, topology.nodes, bin_seconds=300.0, chunk_bins=chunk)
    service = IngestService(
        SyntheticFlowSource(stream),
        topology,
        bin_seconds=300.0,
        chunk_bins=chunk,
        estimator=TMEstimator(),
        sink=sink,
        **service_kwargs,
    )
    status = service.run()
    return sink, status


class TestServiceFastPath:
    def test_steady_feed_publishes_identical_jsonl(self, tmp_path, abilene):
        cube, _ = _family_feed(abilene, bins=12)
        four, _ = _served(tmp_path, abilene, cube, tag="four", chunk=4)
        seven, _ = _served(tmp_path, abilene, cube, tag="seven", chunk=7)
        records = _read_jsonl(four)
        assert len(records) == 12
        assert records == _read_jsonl(seven)
        assert all(r["estimate"] == records[0]["estimate"] for r in records)

    def test_scaled_feed_within_budget(self, tmp_path, abilene):
        scales = 1.0 + 0.25 * np.sin(np.linspace(0.0, 2 * np.pi, 16, endpoint=False))
        cube, _ = _family_feed(abilene, bins=16, scales=scales)
        steady, _ = _family_feed(abilene, bins=16)
        scaled_sink, _ = _served(tmp_path, abilene, cube, tag="scaled")
        steady_sink, _ = _served(tmp_path, abilene, steady, tag="steady")
        scaled = np.array([r["estimate"] for r in _read_jsonl(scaled_sink)])
        base = np.array([r["estimate"] for r in _read_jsonl(steady_sink)])
        assert _rel_diff(scaled, scales[:, np.newaxis, np.newaxis] * base) <= 1e-10

    def test_fast_service_equals_slow_on_trace_replay(self, tmp_path, abilene):
        """The CI smoke's chunk-invariance replay in miniature."""
        trace = "examples/sample_flows.csv"
        sinks = []
        for chunk in (4, 16):
            sink = tmp_path / f"chunk{chunk}.jsonl"
            IngestService(
                FileReplaySource(trace, abilene.nodes), abilene, sink=sink,
                estimator=TMEstimator(), bin_seconds=300.0, chunk_bins=chunk,
            ).run()
            sinks.append(sink)
        assert sinks[0].read_bytes() == sinks[1].read_bytes()
        assert len(_read_jsonl(sinks[0])) > 4


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------

class TestScenarioFastPath:
    def test_round_trips_through_dict(self):
        scenario = Scenario(dataset="geant", prior="gravity", stream=True, chunk_bins=5)
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        assert scenario.validate() is scenario

    def test_runner_threads_fast_path_through(self):
        from repro.scenarios import run_scenario
        base = Scenario(
            dataset="geant", prior="gravity", bins_per_week=12, max_bins=12,
            measurement_noise=0.0,
        )
        batch = run_scenario(base)
        streamed = run_scenario(base.replace(stream=True, chunk_bins=5))
        assert streamed.errors is not None
        np.testing.assert_array_equal(streamed.errors, batch.errors)
