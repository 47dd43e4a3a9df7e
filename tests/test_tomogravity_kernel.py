"""The rank-reduced tomogravity kernel against the ``m x m`` ``pinv`` oracle.

The kernel solves a ``k x k`` system per bin through the exact identity
``(C G Cᵀ)⁺ = C⁺ᵀ G⁻¹ C⁺`` (see :mod:`repro.estimation.tomogravity`).  Every
case here checks it against the per-bin pseudo-inverse formulation it
replaces, on noisy (inconsistent) observations, within a relative budget of
1e-10; plus the per-bin fallback and the condition bound that decides which
bins need a condition estimate, block invariance, the refinement's memory
peak and the lifetime of the factors cached on the routing matrix.
"""

from __future__ import annotations

import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import lapack

from repro.core.gravity import gravity_series
from repro.core.priors import GravityPrior
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ValidationError
from repro.estimation import tomogravity
from repro.estimation.linear_system import simulate_link_loads
from repro.estimation.pipeline import TMEstimator
from repro.estimation.tomogravity import (
    ObservationFactor,
    factor_observation_operator,
    tomogravity_estimate,
)
from repro.synthesis.datasets import load_dataset
from repro.topology import Topology
from repro.topology.library import abilene_topology, geant_topology
from repro.topology.routing import build_routing_matrix, clear_routing_cache

BUDGET = 1e-10


def _oracle(priors, matrix, observed, weight_floor=None):
    floors = tomogravity._weight_floors(priors, weight_floor)
    weights = np.maximum(priors, floors[:, np.newaxis])
    matrix = sparse.csr_matrix(matrix)
    return np.stack([
        tomogravity._pinv_refine(priors[t], matrix, observed[t], weights[t])
        for t in range(priors.shape[0])
    ])


def _rel_diff(actual, expected):
    return float(np.max(np.abs(actual - expected)) / max(np.max(np.abs(expected)), 1e-300))


def _noisy(matrix, truth, seed, noise=0.02):
    """Observations of ``truth`` with multiplicative noise: inconsistent ``z``."""
    rng = np.random.default_rng(seed)
    clean = np.asarray(matrix @ truth.T).T
    return clean * rng.normal(1.0, noise, clean.shape)


def _rank_deficient(rng, n_od=40, rank=9):
    """14 rows of rank <= 9, drawn as in the random-operator pinv test."""
    base = rng.random((rank, n_od)) * (rng.random((rank, n_od)) < 0.5)
    return np.vstack([base, base[:3] + base[3:6], 2.0 * base[6:8]])


def ring_with_chords(n_nodes: int) -> Topology:
    """A ring whose every PoP also links a quarter of the way round."""
    names = tuple(f"pop{i:03d}" for i in range(n_nodes))
    topology = Topology("ring-with-chords", names)
    for i in range(n_nodes):
        topology.add_bidirectional_link(names[i], names[(i + 1) % n_nodes])
        topology.add_bidirectional_link(names[i], names[(i + n_nodes // 4) % n_nodes])
    return topology


@pytest.mark.parametrize("dataset", ["geant", "totem"])
def test_paper_operators_match_pinv_on_noisy_observations(dataset):
    data = load_dataset(dataset, n_weeks=1, bins_per_week=12)
    week = data.week(0)
    system = simulate_link_loads(data.topology, week, noise_std=0.02, seed=3)
    matrix, observed = system.augmented_system()
    factor = system.routing.observation_factor()
    assert factor.rank == np.linalg.matrix_rank(matrix.toarray()) < matrix.shape[0]
    priors = gravity_series(week).to_vectors()
    estimates = tomogravity_estimate(priors, factor, observed)
    assert _rel_diff(estimates, _oracle(priors, matrix, observed)) <= BUDGET


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("as_sparse", [False, True])
def test_random_rank_deficient_operators_match_pinv(seed, as_sparse):
    rng = np.random.default_rng(seed)
    n_od, rank = 40, 9
    base = rng.random((rank, n_od)) * (rng.random((rank, n_od)) < 0.5)
    # Dependent rows on top of independent ones: 14 rows of rank <= 9.
    matrix = np.vstack([base, base[:3] + base[3:6], 2.0 * base[6:8]])
    priors = rng.gamma(2.0, 10.0, (5, n_od))
    observed = _noisy(matrix, priors * rng.uniform(0.7, 1.4, priors.shape), seed)
    operator = sparse.csr_matrix(matrix) if as_sparse else matrix
    factor = factor_observation_operator(operator)
    assert factor.rank == np.linalg.matrix_rank(matrix)
    estimates = tomogravity_estimate(priors, operator, observed)
    assert _rel_diff(estimates, _oracle(priors, operator, observed)) <= BUDGET


def test_all_floor_bins_match_pinv():
    data = load_dataset("geant", n_weeks=1, bins_per_week=12)
    week = data.week(0)
    system = simulate_link_loads(data.topology, week, noise_std=0.02, seed=9)
    matrix, observed = system.augmented_system()
    priors = gravity_series(week).to_vectors()[:4].copy()
    priors[1] = 0.0  # every weight is the floor
    priors[3, ::2] = 0.0  # half the weights are
    estimates = tomogravity_estimate(priors, matrix, observed[:4])
    assert np.all(estimates >= 0.0)
    assert _rel_diff(estimates, _oracle(priors, matrix, observed[:4])) <= BUDGET


# Weights of 1e6 on eight OD pairs and the floor elsewhere.  With a 1e-30
# floor the reduced gram fails to factor; with 1e-3 it factors, but its
# reciprocal condition number (~1e-12) is below the 1e-10 cut-off.
@pytest.mark.parametrize("weight_floor", [1e-30, 1e-3], ids=["singular", "ill-conditioned"])
def test_ill_conditioned_bin_alone_falls_back_to_pinv(monkeypatch, weight_floor):
    data = load_dataset("geant", n_weeks=1, bins_per_week=12)
    week = data.week(0)
    system = simulate_link_loads(data.topology, week, noise_std=0.02, seed=4)
    matrix, observed = system.augmented_system()
    rng = np.random.default_rng(4)
    priors = week.to_vectors()[:5] * rng.uniform(0.5, 1.5, (5, matrix.shape[1]))
    priors[2] = 0.0
    priors[2, :8] = 1e6

    calls = []
    original = tomogravity._pinv_refine

    def counting(prior, *args):
        calls.append(prior.copy())
        return original(prior, *args)

    monkeypatch.setattr(tomogravity, "_pinv_refine", counting)
    estimates = tomogravity_estimate(priors, matrix, observed[:5], weight_floor=weight_floor)
    assert len(calls) == 1 and np.array_equal(calls[0], priors[2])
    monkeypatch.setattr(tomogravity, "_pinv_refine", original)

    oracle = _oracle(priors, matrix, observed[:5], weight_floor)
    assert np.array_equal(estimates[2], oracle[2])
    normal = [0, 1, 3, 4]
    assert _rel_diff(estimates[normal], oracle[normal]) <= BUDGET
    singles = np.stack([
        tomogravity_estimate(priors[t], matrix, observed[t], weight_floor=weight_floor)
        for t in range(5)
    ])
    assert np.array_equal(estimates, singles)


def _dpocon_fallbacks(factor, weights):
    """Bins that fail the cut-off when ``dpocon`` runs on every bin."""
    k = factor.rank
    rows, cols = np.triu_indices(k)
    upper = factor.outer @ weights.T
    norms = (factor.incidence @ np.abs(upper)).max(axis=0)
    fallbacks = []
    for t in range(weights.shape[0]):
        gram = np.zeros((k, k))
        gram[cols, rows] = upper[:, t]
        chol, info = lapack.dpotrf(gram.T, lower=0, clean=0, overwrite_a=1)
        if info == 0:
            rcond, info = lapack.dpocon(chol, norms[t])
        if info != 0 or not rcond >= tomogravity._RCOND:
            fallbacks.append(t)
    return fallbacks


# Weights of 1 to 10 with a random share of OD pairs scaled by up to 1e12:
# the draws reach all three paths (bound proves the cut-off, dpocon passes,
# pinv fallback).
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_skew=st.floats(min_value=0.0, max_value=12.0),
    heavy_share=st.floats(min_value=0.0, max_value=0.3),
)
@settings(max_examples=60, deadline=None)
def test_dpocon_is_skipped_only_where_the_bound_proves_the_cut_off(seed, log_skew, heavy_share):
    rng = np.random.default_rng(seed)
    matrix = _rank_deficient(rng)
    n_bins, n_od = 6, matrix.shape[1]
    heavy = rng.random((n_bins, n_od)) < heavy_share
    weights = np.where(heavy, 10.0**log_skew, 1.0) * rng.uniform(1.0, 10.0, (n_bins, n_od))
    observed = _noisy(matrix, weights, seed)
    factor = factor_observation_operator(matrix)

    calls = []
    original = tomogravity._pinv_refine

    def counting(prior, *args):
        calls.append(next(t for t in range(n_bins) if np.array_equal(prior, weights[t])))
        return original(prior, *args)

    with mock.patch.object(tomogravity, "_pinv_refine", counting):
        # A floor of 1 leaves the weights equal to the priors.
        tomogravity_estimate(weights, factor, observed, weight_floor=1.0)
    assert calls == _dpocon_fallbacks(factor, weights)

    bounds = tomogravity._rcond_bounds(factor, weights)
    basis = factor.basis.toarray()
    for t in range(n_bins):
        rcond = 1.0 / np.linalg.cond((basis * weights[t]) @ basis.T, 1)
        # The dense reference is itself rounded: its rcond is good to ~eps.
        assert bounds[t] <= rcond * (1 + 1e-6) + 16 * np.finfo(float).eps


def test_refining_a_full_geant_week_peaks_below_four_prior_stacks():
    data = load_dataset("geant", n_weeks=1, bins_per_week=2016)
    week = data.week(0)
    system = simulate_link_loads(data.topology, week, noise_std=0.02, seed=3)
    _, observed = system.augmented_system()
    factor = system.routing.observation_factor()
    priors = gravity_series(week).to_vectors()
    assert priors.shape == (2016, 484)
    tracemalloc.start()
    try:
        tomogravity_estimate(priors, factor, observed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The output is one prior stack; a (T, k, k) gram stack alone was 16.
    assert peak <= 4 * priors.nbytes


def test_ring_with_chords_sparse_operator_matches_pinv():
    topology = ring_with_chords(50)
    routing = build_routing_matrix(topology)
    operator = routing.augmented_operator()
    rng = np.random.default_rng(50)
    truth = rng.gamma(2.0, 50.0, (3, operator.shape[1]))
    priors = truth * rng.uniform(0.6, 1.5, truth.shape)
    observed = _noisy(operator, truth, 50)
    factor = routing.observation_factor()
    assert sparse.issparse(factor.matrix) and factor.rank < operator.shape[0]
    estimates = tomogravity_estimate(priors, factor, observed)
    assert _rel_diff(estimates, _oracle(priors, operator, observed)) <= BUDGET


def test_chunk_boundaries_do_not_change_any_bit(monkeypatch):
    data = load_dataset("totem", n_weeks=1, bins_per_week=12)
    week = data.week(0)
    system = simulate_link_loads(data.topology, week, noise_std=0.02, seed=2)
    factor = system.routing.observation_factor()
    _, observed = system.augmented_system()
    priors = gravity_series(week).to_vectors()
    whole = tomogravity_estimate(priors, factor, observed)
    monkeypatch.setattr(tomogravity, "_BLOCK_BYTES", 1)  # one bin per block
    assert np.array_equal(tomogravity_estimate(priors, factor, observed), whole)


def test_zero_operator_leaves_prior_unchanged():
    priors = np.array([[1.0, 0.0, 3.0], [2.0, 5.0, 0.5]])
    estimates = tomogravity_estimate(priors, np.zeros((2, 3)), np.ones((2, 2)))
    assert np.array_equal(estimates, priors)


def test_non_finite_operator_rejected():
    matrix = np.ones((2, 3))
    matrix[1, 1] = np.nan
    with pytest.raises(ValidationError, match="observation_matrix"):
        factor_observation_operator(matrix)


def _live_factors() -> int:
    gc.collect()
    return sum(isinstance(obj, ObservationFactor) for obj in gc.get_objects())


def test_cached_factors_live_and_die_with_the_routing_memo():
    topology = abilene_topology()
    rng = np.random.default_rng(8)
    n = topology.n_nodes
    series = TrafficMatrixSeries(rng.lognormal(10.0, 0.8, (4, n, n)), topology.nodes)
    counts = []
    try:
        for _ in range(4):
            clear_routing_cache()
            system = simulate_link_loads(topology, series, noise_std=0.01)
            prior = gravity_series(series)
            estimator = TMEstimator()
            estimator.estimate(system, prior)
            estimator.estimate(system, prior)
            assert system.routing.observation_factor() is system.routing.observation_factor()
            del system
            counts.append(_live_factors())
    finally:
        clear_routing_cache()
    assert counts == [counts[0]] * len(counts)


@pytest.mark.parametrize("weight_floor", [-1.0, 0.0, float("nan"), float("inf")])
def test_weight_floor_must_be_finite_and_positive(weight_floor):
    priors, matrix = np.ones((2, 4)), np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    with pytest.raises(ValidationError, match="weight_floor"):
        tomogravity_estimate(priors, matrix, priors @ matrix.T, weight_floor=weight_floor)


def test_component_tomogravity():
    week = load_dataset("geant", n_weeks=1, bins_per_week=96).week(0)
    system = simulate_link_loads(geant_topology(), week[:8], noise_std=0.0)
    prior = GravityPrior().series(system.ingress, system.egress, nodes=week.nodes)
    matrix, observations = system.augmented_system()
    vector = prior.to_vectors()[0]
    refined = tomogravity_estimate(vector, matrix, observations[0])
    assert refined.shape == vector.shape
