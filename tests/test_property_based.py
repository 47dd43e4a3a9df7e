"""Property-based tests (hypothesis) for core invariants.

These exercise the model algebra, the metrics, IPF, routing and the priors on
randomly generated inputs, checking invariants that must hold for *every*
input rather than for hand-picked examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.gravity import gravity_series_values
from repro.core.ic_model import simplified_ic_series
from repro.core.metrics import percent_improvement, rel_l2_temporal_error
from repro.core.priors import StableFPPrior, stable_f_closed_form
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.estimation.ipf import iterative_proportional_fitting
from repro.topology.library import random_topology
from repro.topology.routing import build_routing_matrix

# -- strategies -------------------------------------------------------------

node_counts = st.integers(min_value=2, max_value=8)
forward_fractions = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)


def positive_vector(n: int, min_value: float = 0.0, max_value: float = 1e6):
    return arrays(
        dtype=float,
        shape=n,
        elements=st.floats(min_value=min_value, max_value=max_value, allow_nan=False, allow_infinity=False),
    )


@st.composite
def ic_inputs(draw):
    n = draw(node_counts)
    forward = draw(forward_fractions)
    activity = draw(positive_vector(n, min_value=0.0, max_value=1e6))
    preference = draw(positive_vector(n, min_value=1e-3, max_value=1.0))
    return forward, activity, preference


# -- IC model algebra --------------------------------------------------------


@given(ic_inputs())
@settings(max_examples=60, deadline=None)
def test_ic_matrix_total_equals_total_activity(inputs):
    forward, activity, preference = inputs
    matrix = simplified_ic_series(forward, activity, preference)[0]
    assert matrix.sum() == pytest.approx(activity.sum(), rel=1e-9, abs=1e-6)


@given(ic_inputs())
@settings(max_examples=60, deadline=None)
def test_ic_matrix_nonnegative(inputs):
    forward, activity, preference = inputs
    matrix = simplified_ic_series(forward, activity, preference)[0]
    assert np.all(matrix >= 0)


@given(ic_inputs())
@settings(max_examples=60, deadline=None)
def test_ic_marginal_identities(inputs):
    forward, activity, preference = inputs
    normalised = preference / preference.sum()
    matrix = simplified_ic_series(forward, activity, normalised)[0]
    np.testing.assert_allclose(
        matrix.sum(axis=1),
        forward * activity + (1 - forward) * normalised * activity.sum(),
        rtol=1e-8,
        atol=1e-6,
    )
    np.testing.assert_allclose(
        matrix.sum(axis=0),
        (1 - forward) * activity + forward * normalised * activity.sum(),
        rtol=1e-8,
        atol=1e-6,
    )


@given(ic_inputs())
@settings(max_examples=40, deadline=None)
def test_ic_transpose_symmetry_under_f_half(inputs):
    """At f = 0.5 the IC matrix is symmetric (forward and reverse are equal)."""
    _, activity, preference = inputs
    matrix = simplified_ic_series(0.5, activity, preference)[0]
    np.testing.assert_allclose(matrix, matrix.T, rtol=1e-9, atol=1e-6)


# -- gravity model ------------------------------------------------------------


@given(node_counts, st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_gravity_preserves_marginals_when_totals_agree(n, seed):
    rng = np.random.default_rng(seed)
    ingress = rng.random(n) * 100 + 1.0
    egress = rng.permutation(ingress)
    estimate = gravity_series_values(ingress, egress)[0]
    np.testing.assert_allclose(estimate.sum(axis=1), ingress, rtol=1e-9)
    np.testing.assert_allclose(estimate.sum(axis=0), egress, rtol=1e-9)


# -- marginal-based parameter recovery (Eqs. 8, 11-12) -------------------------


@given(ic_inputs())
@settings(max_examples=40, deadline=None)
def test_stable_f_closed_form_recovers_parameters(inputs):
    forward, activity, preference = inputs
    if abs(forward - 0.5) < 0.05:
        forward = 0.3
    if activity.sum() <= 0:
        activity = activity + 1.0
    normalised = preference / preference.sum()
    matrix = simplified_ic_series(forward, activity, normalised)[0]
    est_activity, est_preference = stable_f_closed_form(
        forward, matrix.sum(axis=1), matrix.sum(axis=0)
    )
    np.testing.assert_allclose(est_activity, activity, rtol=1e-6, atol=1e-3)
    np.testing.assert_allclose(est_preference, normalised, rtol=1e-6, atol=1e-6)


@given(ic_inputs(), st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_activity_recovery_from_marginals(inputs, timesteps):
    forward, activity, preference = inputs
    normalised = preference / preference.sum()
    rng = np.random.default_rng(0)
    activity_series = np.maximum(
        rng.random((timesteps, activity.shape[0])) * (activity + 1.0), 1e-3
    )
    values = simplified_ic_series(forward, activity_series, normalised)
    series = TrafficMatrixSeries(values)
    recovered = StableFPPrior(forward, normalised).estimate_activity(
        series.ingress, series.egress
    )
    np.testing.assert_allclose(recovered, activity_series, rtol=1e-5, atol=1e-3)


# -- metrics -------------------------------------------------------------------


@given(
    arrays(
        dtype=float,
        shape=(3, 4, 4),
        elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    )
)
@settings(max_examples=40, deadline=None)
def test_error_of_exact_estimate_is_zero(values):
    np.testing.assert_allclose(rel_l2_temporal_error(values, values), 0.0)


@given(
    arrays(dtype=float, shape=5, elements=st.floats(min_value=0.01, max_value=100.0)),
    arrays(dtype=float, shape=5, elements=st.floats(min_value=0.01, max_value=100.0)),
)
@settings(max_examples=40, deadline=None)
def test_improvement_antisymmetry_sign(baseline, model):
    """Improvement is positive exactly when the model error is lower."""
    improvement = percent_improvement(baseline, model)
    assert np.all((improvement > 0) == (model < baseline))


# -- IPF ------------------------------------------------------------------------


@given(node_counts, st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_ipf_matches_marginals(n, seed):
    rng = np.random.default_rng(seed)
    seed_matrix = rng.random((n, n)) + 0.1
    rows = rng.random(n) * 10 + 1.0
    cols = rng.permutation(rows)
    fitted = iterative_proportional_fitting(seed_matrix, rows, cols, max_iterations=200)
    np.testing.assert_allclose(fitted.sum(axis=1), rows, rtol=1e-4)
    np.testing.assert_allclose(fitted.sum(axis=0), cols, rtol=1e-4)
    assert np.all(fitted >= 0)


# -- routing ---------------------------------------------------------------------


@given(st.integers(min_value=4, max_value=10), st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_routing_matrix_column_properties(n, seed):
    topology = random_topology(n, seed=seed)
    routing = build_routing_matrix(topology)
    matrix = routing.matrix
    # Every entry is a fraction in [0, 1]; diagonal OD pairs route nowhere.
    assert np.all(matrix >= -1e-12) and np.all(matrix <= 1.0 + 1e-12)
    for i, node in enumerate(topology.nodes):
        np.testing.assert_allclose(routing.column(node, node), 0.0)
    # Off-diagonal OD pairs are carried by at least one link.
    for origin in topology.nodes[:3]:
        for destination in topology.nodes[:3]:
            if origin != destination:
                assert routing.column(origin, destination).sum() >= 1.0 - 1e-9


# -- containers -------------------------------------------------------------------


@given(
    arrays(
        dtype=float,
        shape=(4, 4),
        elements=st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    )
)
@settings(max_examples=40, deadline=None)
def test_traffic_matrix_vector_round_trip(values):
    matrix = TrafficMatrixSeries(values)
    rebuilt = TrafficMatrixSeries(matrix.to_vectors().reshape(1, 4, 4))
    np.testing.assert_allclose(rebuilt.values, matrix.values)
    assert matrix.totals[0] == pytest.approx(matrix.ingress.sum())
    assert matrix.totals[0] == pytest.approx(matrix.egress.sum())
