"""Equivalence tests for the batched execution engine.

Every batched kernel introduced by the time-vectorised refactor must be
*bit-for-bit* identical to the per-bin (or per-entry) reference loop it
replaced: these property-based tests generate random inputs with hypothesis
and compare against straightforward reference implementations written the
way the seed code computed things, using ``np.array_equal`` (no tolerance).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.gravity import gravity_series_values
from repro.core.ic_model import (
    general_ic_matrix,
    general_ic_series,
    simplified_ic_series,
    time_varying_ic_series,
)
from repro.core.priors import StableFPrior
from repro.estimation.ipf import iterative_proportional_fitting_series
from repro.estimation.linear_system import simulate_link_loads
from repro.estimation.tomogravity import tomogravity_estimate
from repro.errors import ShapeError, ValidationError
from repro.synthesis.datasets import load_dataset
from repro.topology.library import random_topology

def ic_oracle(f, a, p) -> np.ndarray:
    """Eq. 2 for one bin, written out: ``f A Pᵀ + (1 - f) P Aᵀ``, ``P`` normalised."""
    p = np.asarray(p, dtype=float) / np.sum(p)
    return f * np.outer(a, p) + (1.0 - f) * np.outer(p, a)


def gravity_oracle(ingress, egress) -> np.ndarray:
    """``X_ij = ingress_i egress_j / total`` for one bin; all zero without traffic."""
    total = float(np.sum(ingress))
    return np.outer(ingress, egress) / total if total > 0 else np.zeros((len(ingress),) * 2)


# -- strategies -------------------------------------------------------------

def assert_bit_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    """Bitwise equality: same shape and the exact same bytes (NaN-safe)."""
    actual = np.ascontiguousarray(actual)
    expected = np.ascontiguousarray(expected)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


node_counts = st.integers(min_value=2, max_value=7)
bin_counts = st.integers(min_value=1, max_value=9)
forward_fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def nonneg_array(shape, min_value: float = 0.0, max_value: float = 1e6):
    return arrays(
        dtype=float,
        shape=shape,
        elements=st.floats(
            min_value=min_value, max_value=max_value, allow_nan=False, allow_infinity=False
        ),
    )


@st.composite
def series_inputs(draw):
    n = draw(node_counts)
    t = draw(bin_counts)
    forward = draw(forward_fractions)
    activity = draw(nonneg_array((t, n)))
    preference = draw(nonneg_array(n, min_value=1e-6, max_value=1.0))
    return forward, activity, preference


@st.composite
def time_varying_inputs(draw):
    n = draw(node_counts)
    t = draw(bin_counts)
    forward = draw(nonneg_array(t, max_value=1.0))
    activity = draw(nonneg_array((t, n)))
    preference = draw(nonneg_array((t, n), min_value=1e-6, max_value=1.0))
    return forward, activity, preference


# -- IC series kernels -------------------------------------------------------


@given(series_inputs())
@settings(max_examples=80, deadline=None)
def test_simplified_series_matches_per_bin_loop_bitwise(inputs):
    forward, activity, preference = inputs
    reference = np.stack(
        [ic_oracle(forward, activity[t], preference) for t in range(activity.shape[0])]
    )
    assert np.array_equal(simplified_ic_series(forward, activity, preference), reference)


@given(series_inputs(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_general_series_matches_per_bin_loop_bitwise(inputs, seed):
    forward, activity, preference = inputs
    n = preference.shape[0]
    rng = np.random.default_rng(seed)
    f_matrix = rng.uniform(0.0, 1.0, size=(n, n))
    reference = np.stack(
        [general_ic_matrix(f_matrix, activity[t], preference) for t in range(activity.shape[0])]
    )
    assert np.array_equal(general_ic_series(f_matrix, activity, preference), reference)


@given(time_varying_inputs())
@settings(max_examples=80, deadline=None)
def test_time_varying_series_matches_per_bin_loop_bitwise(inputs):
    forward, activity, preference = inputs
    reference = np.stack(
        [
            ic_oracle(float(forward[t]), activity[t], preference[t])
            for t in range(activity.shape[0])
        ]
    )
    assert np.array_equal(time_varying_ic_series(forward, activity, preference), reference)


@given(time_varying_inputs(), forward_fractions)
@settings(max_examples=40, deadline=None)
def test_time_varying_series_scalar_f_matches_loop(inputs, forward):
    _, activity, preference = inputs
    reference = np.stack(
        [
            ic_oracle(forward, activity[t], preference[t])
            for t in range(activity.shape[0])
        ]
    )
    assert np.array_equal(time_varying_ic_series(forward, activity, preference), reference)


def test_time_varying_series_rejects_zero_preference_bin():
    activity = np.ones((2, 3))
    preference = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValidationError):
        time_varying_ic_series(0.3, activity, preference)


def test_time_varying_series_rejects_mismatched_f_length():
    with pytest.raises(ShapeError):
        time_varying_ic_series(np.ones(3), np.ones((2, 3)), np.ones((2, 3)))


def test_kernel_chunking_boundary_is_seamless():
    """Results must not depend on where the cache-sized chunks split."""
    rng = np.random.default_rng(7)
    activity = rng.random((300, 40)) * 1e5
    preference = rng.random(40) + 1e-3
    reference = np.stack(
        [ic_oracle(0.25, activity[t], preference) for t in range(300)]
    )
    assert np.array_equal(simplified_ic_series(0.25, activity, preference), reference)


# -- gravity kernel ----------------------------------------------------------


@given(
    node_counts.flatmap(
        lambda n: st.tuples(nonneg_array((5, n)), nonneg_array((5, n)))
    )
)
@settings(max_examples=60, deadline=None)
def test_gravity_series_values_matches_per_bin_loop_bitwise(marginals):
    ingress, egress = marginals
    reference = np.stack(
        [gravity_oracle(ingress[t], egress[t]) for t in range(ingress.shape[0])]
    )
    assert np.array_equal(gravity_series_values(ingress, egress), reference)


# -- stable-f prior ----------------------------------------------------------


@given(
    node_counts.flatmap(
        lambda n: st.tuples(
            nonneg_array((4, n), min_value=1.0, max_value=1e6),
            nonneg_array((4, n), min_value=1.0, max_value=1e6),
        )
    ),
    st.floats(min_value=0.05, max_value=0.45),
)
@settings(max_examples=40, deadline=None)
def test_stable_f_prior_series_matches_seed_loop(marginals, forward):
    from repro.core.priors import stable_f_closed_form

    ingress, egress = marginals
    prior = StableFPrior(forward)
    activity, preference = stable_f_closed_form(forward, ingress, egress)
    reference = np.stack(
        [
            ic_oracle(forward, activity[t], preference[t])
            if preference[t].sum() > 0
            else np.zeros((ingress.shape[1], ingress.shape[1]))
            for t in range(ingress.shape[0])
        ]
    )
    series = prior.series(ingress, egress)
    assert np.array_equal(np.asarray(series.values), reference)


# -- batched estimation steps ------------------------------------------------


@pytest.fixture(scope="module")
def measurement_setup():
    data = load_dataset("geant", n_weeks=1, bins_per_week=12)
    week = data.week(0)
    system = simulate_link_loads(data.topology, week, noise_std=0.01, seed=5)
    return week, system


def test_tomogravity_batch_matches_per_bin_loop_bitwise(measurement_setup):
    week, system = measurement_setup
    matrix, observations = system.augmented_system()
    priors = week.to_vectors()
    reference = np.stack(
        [
            tomogravity_estimate(priors[t], matrix, observations[t])
            for t in range(priors.shape[0])
        ]
    )
    assert np.array_equal(tomogravity_estimate(priors, matrix, observations), reference)


def ipf_oracle(seed, rows, cols, max_iterations=100, tolerance=1e-8) -> np.ndarray:
    """IPF for one bin, written out as a plain loop over row and column sweeps."""
    rows = np.asarray(rows, dtype=float)
    cols = np.asarray(cols, dtype=float)
    grand_row, grand_col = rows.sum(), cols.sum()
    if grand_row <= 0 or grand_col <= 0:
        return np.zeros_like(seed, dtype=float)
    grand = 0.5 * (grand_row + grand_col)
    rows = rows * (grand / grand_row)
    cols = cols * (grand / grand_col)
    current = np.array(seed, dtype=float)
    current[(current.sum(axis=1) <= 0) & (rows > 0), :] = 1.0
    empty_cols = (current.sum(axis=0) <= 0) & (cols > 0)
    current[:, empty_cols] = np.maximum(current[:, empty_cols], 1.0)

    def mismatch(actual, target):
        mask = target > 0
        if not np.any(mask):
            return 0.0
        scale = np.maximum(target, 1e-12)
        return float(np.max(np.abs(actual[mask] - target[mask]) / scale[mask]))

    for _ in range(max_iterations):
        row_sums = current.sum(axis=1)
        row_scale = np.where(row_sums > 0, rows / np.where(row_sums > 0, row_sums, 1.0), 0.0)
        current = current * row_scale[:, None]
        col_sums = current.sum(axis=0)
        col_scale = np.where(col_sums > 0, cols / np.where(col_sums > 0, col_sums, 1.0), 0.0)
        current = current * col_scale[None, :]
        row_error = mismatch(current.sum(axis=1), rows)
        col_error = mismatch(current.sum(axis=0), cols)
        if max(row_error, col_error) < tolerance:
            break
    return current


@given(
    node_counts.flatmap(
        lambda n: st.tuples(
            nonneg_array((4, n, n), max_value=1e3),
            nonneg_array((4, n), max_value=1e3),
            nonneg_array((4, n), max_value=1e3),
        )
    ),
    st.integers(min_value=1, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_ipf_series_matches_per_bin_loop_bitwise(inputs, iterations):
    seeds, rows, cols = inputs
    reference = np.stack(
        [
            ipf_oracle(seeds[t], rows[t], cols[t], max_iterations=iterations)
            for t in range(seeds.shape[0])
        ]
    )
    batched = iterative_proportional_fitting_series(
        seeds, rows, cols, max_iterations=iterations
    )
    assert_bit_identical(batched, reference)


def test_ipf_series_freezes_converged_bins_like_the_loop(measurement_setup):
    """Bins converging at different iterations must stop exactly like the loop."""
    week, system = measurement_setup
    seeds = np.asarray(week.values, dtype=float)
    rng = np.random.default_rng(11)
    rows = system.ingress * rng.uniform(0.5, 2.0, size=system.ingress.shape)
    cols = system.egress * rng.uniform(0.5, 2.0, size=system.egress.shape)
    reference = np.stack(
        [
            ipf_oracle(seeds[t], rows[t], cols[t])
            for t in range(seeds.shape[0])
        ]
    )
    assert np.array_equal(
        iterative_proportional_fitting_series(seeds, rows, cols), reference
    )


# -- routing equivalence (sparse vs dense reference build) -------------------


def _dense_reference_routing(topology):
    """Brute-force ECMP routing: enumerate every simple path, keep the cheapest.

    Each OD column puts ``c/m`` on a link that ``c`` of the pair's ``m``
    minimum-weight paths use, built as the correctly rounded fraction.
    """
    links = topology.links
    link_index = {link.key: r for r, link in enumerate(links)}
    n = topology.n_nodes
    matrix = np.zeros((len(links), n * n))

    def walk(path, cost, found):
        *_, here = path
        for link in links:
            if link.source == here and link.target not in path:
                step = path + [link.target]
                found.setdefault(link.target, []).append((cost + link.weight, step))
                walk(step, cost + link.weight, found)

    for origin in topology.nodes:
        found: dict[str, list] = {}
        walk([origin], 0.0, found)
        for destination, candidates in found.items():
            best = min(cost for cost, _ in candidates)
            cheapest = [path for cost, path in candidates if cost == best]
            uses: dict[int, int] = {}
            for path in cheapest:
                for hop in zip(path[:-1], path[1:]):
                    uses[link_index[hop]] = uses.get(link_index[hop], 0) + 1
            column = topology.node_index(origin) * n + topology.node_index(destination)
            for row, count in uses.items():
                matrix[row, column] = float(Fraction(count, len(cheapest)))
    return matrix


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_sparse_routing_matches_dense_reference(n_nodes, seed, unit_weights):
    """The CSR build equals a brute-force path enumeration exactly, incl. ECMP shares."""
    from repro.topology.routing import build_routing_matrix
    from repro.topology.topology import Topology

    topology = random_topology(n_nodes, seed=seed)
    if unit_weights:
        # Rebuild with all-equal weights to force equal-cost ties (ECMP splits).
        flattened = Topology(topology.name, topology.nodes)
        for link in topology.links:
            if not flattened.has_link(link.source, link.target):
                flattened.add_link(
                    type(link)(link.source, link.target, weight=1.0, capacity=link.capacity)
                )
        topology = flattened
    routing = build_routing_matrix(topology)
    reference = _dense_reference_routing(topology)
    assert np.array_equal(routing.matrix, reference)
    assert np.array_equal(routing.sparse.toarray(), reference)
