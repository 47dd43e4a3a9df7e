"""Tests for the IC model family (Eqs. 1-5) and degrees-of-freedom accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ic_model import (
    StableFPICModel,
    degrees_of_freedom,
    general_ic_matrix,
    simplified_ic_series,
)
from repro.errors import ShapeError, ValidationError


def simplified_ic_matrix(forward_fraction, activity, preference) -> np.ndarray:
    """One bin of the batched simplified kernel: a T = 1 call."""
    return simplified_ic_series(forward_fraction, activity, preference)[0]


def ic_oracle(f, a, p) -> np.ndarray:
    """Eq. 2 for one bin, written out: ``f A Pᵀ + (1 - f) P Aᵀ``, ``P`` normalised."""
    p = np.asarray(p, dtype=float) / np.sum(p)
    return f * np.outer(a, p) + (1.0 - f) * np.outer(p, a)


class TestSimplifiedMatrix:
    def test_manual_two_node_case(self):
        # f=0.5, A=(10, 0), P=(0.5, 0.5): node 0's connections split equally
        # across both responders, with symmetric forward/reverse volumes.
        matrix = simplified_ic_matrix(0.5, [10.0, 0.0], [0.5, 0.5])
        expected = np.array([[5.0, 2.5], [2.5, 0.0]])
        np.testing.assert_allclose(matrix, expected)

    def test_marginal_identities(self):
        """Ingress X_i* = f*A_i + (1-f)*P_i*sum(A); egress symmetric."""
        rng = np.random.default_rng(0)
        activity = rng.random(6) * 100
        preference = rng.random(6)
        preference = preference / preference.sum()
        f = 0.3
        matrix = simplified_ic_matrix(f, activity, preference)
        ingress = matrix.sum(axis=1)
        egress = matrix.sum(axis=0)
        np.testing.assert_allclose(ingress, f * activity + (1 - f) * preference * activity.sum())
        np.testing.assert_allclose(egress, (1 - f) * activity + f * preference * activity.sum())

    def test_total_equals_total_activity(self):
        rng = np.random.default_rng(1)
        activity = rng.random(5) * 10
        preference = rng.random(5)
        matrix = simplified_ic_matrix(0.2, activity, preference)
        assert matrix.sum() == pytest.approx(activity.sum())

    def test_preference_normalisation_is_internal(self):
        activity = np.array([1.0, 2.0, 3.0])
        a = simplified_ic_matrix(0.3, activity, [1.0, 1.0, 2.0])
        b = simplified_ic_matrix(0.3, activity, [0.25, 0.25, 0.5])
        np.testing.assert_allclose(a, b)

    def test_invalid_f_rejected(self):
        with pytest.raises(ValidationError):
            simplified_ic_matrix(1.5, [1.0, 1.0], [0.5, 0.5])

    def test_negative_activity_rejected(self):
        with pytest.raises(ValidationError):
            simplified_ic_matrix(0.2, [-1.0, 1.0], [0.5, 0.5])


class TestGeneralMatrix:
    def test_reduces_to_simplified_for_constant_f(self):
        rng = np.random.default_rng(2)
        n = 5
        activity = rng.random(n) * 50
        preference = rng.random(n)
        f = 0.3
        general = general_ic_matrix(np.full((n, n), f), activity, preference)
        simplified = ic_oracle(f, activity, preference)
        np.testing.assert_allclose(general, simplified)

    def test_uses_f_ij_forward_and_f_ji_reverse(self):
        # Two nodes, only node 0 active; f_01 governs the forward part of
        # X_01, while X_10 is the reverse of the same connections: 1 - f_01.
        f = np.array([[0.5, 0.8], [0.1, 0.5]])
        activity = np.array([100.0, 0.0])
        preference = np.array([0.0, 1.0])
        matrix = general_ic_matrix(f, activity, preference)
        assert matrix[0, 1] == pytest.approx(80.0)
        assert matrix[1, 0] == pytest.approx(20.0)

    def test_rejects_out_of_range_f(self):
        with pytest.raises(ValidationError):
            general_ic_matrix(np.full((2, 2), 1.2), [1.0, 1.0], [0.5, 0.5])

    def test_rejects_non_square_f(self):
        with pytest.raises(ShapeError):
            general_ic_matrix(np.ones((2, 3)), [1.0, 1.0], [0.5, 0.5])


class TestSeriesHelpers:
    def test_vectorised_matches_loop(self):
        rng = np.random.default_rng(3)
        activity = rng.random((7, 4)) * 10
        preference = rng.random(4)
        f = 0.25
        batch = simplified_ic_series(f, activity, preference)
        for t in range(7):
            np.testing.assert_allclose(batch[t], ic_oracle(f, activity[t], preference))

    def test_single_row_promoted(self):
        result = simplified_ic_series(0.3, np.ones(3), np.ones(3))
        assert result.shape == (1, 3, 3)


class TestModelClasses:
    def test_simplified_series_shape(self):
        model = StableFPICModel(0.25, [1.0, 2.0, 3.0], nodes=["a", "b", "c"])
        series = model.series(np.ones((5, 3)), bin_seconds=60.0)
        assert series.n_timesteps == 5
        assert series.nodes == ("a", "b", "c")
        assert series.bin_seconds == 60.0

    def test_stable_fp_dof_method(self):
        model = StableFPICModel(0.25, np.ones(4))
        assert model.degrees_of_freedom(10) == degrees_of_freedom("stable-fP", 4, 10)


class TestDegreesOfFreedom:
    """The Section 5.1 formulas, verbatim."""

    @pytest.mark.parametrize(
        "model, expected",
        [
            ("gravity", 2 * 22 * 2016 - 1),
            ("time-varying", 3 * 22 * 2016),
            ("stable-f", 2 * 22 * 2016 + 1),
            ("stable-fP", 22 * 2016 + 22 + 1),
        ],
    )
    def test_geant_week_values(self, model, expected):
        assert degrees_of_freedom(model, 22, 2016) == expected

    def test_stable_fp_has_fewest_inputs(self):
        n, t = 23, 672
        dof = {m: degrees_of_freedom(m, n, t) for m in ("gravity", "time-varying", "stable-f", "stable-fP")}
        assert dof["stable-fP"] < dof["gravity"] < dof["stable-f"] < dof["time-varying"]

    def test_unknown_model(self):
        with pytest.raises(ValidationError):
            degrees_of_freedom("bogus", 10, 10)

    def test_invalid_sizes(self):
        with pytest.raises(ValidationError):
            degrees_of_freedom("gravity", 0, 5)


def test_component_ic_series_evaluation():
    rng = np.random.default_rng(0)
    activity = rng.random((2016, 22)) * 1e6
    preference = rng.random(22)
    result = simplified_ic_series(0.25, activity, preference)
    assert result.shape == (2016, 22, 22)
