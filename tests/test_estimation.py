"""Tests for the estimation substrate: link loads, tomogravity, IPF, entropy, pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gravity import gravity_series
from repro.core.metrics import rel_l2_temporal_error
from repro.core.priors import GravityPrior
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ShapeError, ValidationError
from repro.estimation.entropy import entropy_estimate
from repro.estimation.ipf import iterative_proportional_fitting
from repro.estimation.linear_system import LinkLoadSystem, simulate_link_loads
from repro.estimation.pipeline import TMEstimator
from repro.estimation.tomogravity import tomogravity_estimate
from repro.topology.library import abilene_topology
from repro.topology.routing import build_routing_matrix


@pytest.fixture(scope="module")
def abilene_world():
    """A small ground-truth series on the Abilene topology plus its measurements."""
    topology = abilene_topology()
    rng = np.random.default_rng(42)
    n = topology.n_nodes
    values = rng.lognormal(np.log(1e6), 0.8, (6, n, n))
    series = TrafficMatrixSeries(values, topology.nodes)
    system = simulate_link_loads(topology, series, noise_std=0.0)
    return topology, series, system


class TestSimulateLinkLoads:
    def test_link_loads_match_routing_matrix(self, abilene_world):
        topology, series, system = abilene_world
        manual = series.to_vectors() @ system.routing.matrix.T
        np.testing.assert_allclose(system.link_loads, manual)

    def test_marginals_match_series(self, abilene_world):
        _, series, system = abilene_world
        np.testing.assert_allclose(system.ingress, series.ingress)
        np.testing.assert_allclose(system.egress, series.egress)

    def test_node_mismatch_rejected(self, abilene_world):
        topology, series, _ = abilene_world
        renamed = TrafficMatrixSeries(series.values, [f"x{i}" for i in range(series.n_nodes)])
        with pytest.raises(ValidationError):
            simulate_link_loads(topology, renamed)

    def test_noise_changes_measurements_but_not_much(self, abilene_world):
        topology, series, clean = abilene_world
        noisy = simulate_link_loads(topology, series, noise_std=0.05, seed=1)
        assert not np.allclose(noisy.link_loads, clean.link_loads)
        relative = np.abs(noisy.link_loads - clean.link_loads) / np.maximum(clean.link_loads, 1.0)
        assert np.median(relative) < 0.2

    def test_negative_noise_rejected(self, abilene_world):
        topology, series, _ = abilene_world
        with pytest.raises(ValidationError):
            simulate_link_loads(topology, series, noise_std=-0.1)

    def test_augmented_system_consistency(self, abilene_world):
        _, series, system = abilene_world
        b, z = system.augmented_system()
        np.testing.assert_allclose(b @ series.to_vectors()[0], z[0])

    def test_link_load_system_shape_validation(self, abilene_world):
        _, series, system = abilene_world
        with pytest.raises(ShapeError):
            LinkLoadSystem(
                routing=system.routing,
                link_loads=system.link_loads,
                ingress=system.ingress[:, :-1],
                egress=system.egress,
            )


class TestTomogravity:
    def test_returns_prior_when_already_consistent(self, abilene_world):
        _, series, system = abilene_world
        truth = series.to_vectors()[0]
        refined = tomogravity_estimate(truth, system.routing.matrix, system.link_loads[0])
        np.testing.assert_allclose(refined, truth, rtol=1e-6, atol=1e-3)

    def test_improves_gravity_prior(self, abilene_world):
        _, series, system = abilene_world
        b, z = system.augmented_system()
        prior = gravity_series(series).to_vectors()[0]
        truth = series.to_vectors()[0]
        refined = tomogravity_estimate(prior, b, z[0])
        assert np.linalg.norm(refined - truth) <= np.linalg.norm(prior - truth) + 1e-6

    def test_satisfies_observations(self, abilene_world):
        _, series, system = abilene_world
        prior = gravity_series(series).to_vectors()[0]
        refined = tomogravity_estimate(prior, system.routing.matrix, system.link_loads[0])
        residual = system.routing.matrix @ refined - system.link_loads[0]
        scale = np.maximum(system.link_loads[0], 1.0)
        assert np.max(np.abs(residual) / scale) < 0.05

    def test_nonnegative_output(self, abilene_world):
        _, series, system = abilene_world
        prior = np.zeros(series.n_nodes**2)
        refined = tomogravity_estimate(prior, system.routing.matrix, system.link_loads[0])
        assert np.all(refined >= 0)

    def test_batch_mode(self, abilene_world):
        _, series, system = abilene_world
        priors = gravity_series(series).to_vectors()
        refined = tomogravity_estimate(priors, system.routing.matrix, system.link_loads)
        assert refined.shape == priors.shape

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            tomogravity_estimate(np.ones(4), np.ones((3, 5)), np.ones(3))
        with pytest.raises(ShapeError):
            tomogravity_estimate(np.ones(4), np.ones((3, 4)), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observations_rejected(self, abilene_world, bad):
        _, series, system = abilene_world
        observed = system.link_loads[:2].copy()
        observed[1, 3] = bad
        with pytest.raises(ValidationError, match="observations"):
            tomogravity_estimate(series.to_vectors()[:2], system.routing.matrix, observed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prior_rejected(self, abilene_world, bad):
        _, series, system = abilene_world
        prior = series.to_vectors()[0].copy()
        prior[5] = bad
        with pytest.raises(ValidationError, match="prior"):
            tomogravity_estimate(prior, system.routing.matrix, system.link_loads[0])


class TestIPF:
    def test_matches_marginals(self):
        rng = np.random.default_rng(1)
        seed_matrix = rng.random((5, 5))
        rows = rng.random(5) * 10
        cols = rng.permutation(rows)  # same grand total
        fitted = iterative_proportional_fitting(seed_matrix, rows, cols)
        np.testing.assert_allclose(fitted.sum(axis=1), rows, rtol=1e-5)
        np.testing.assert_allclose(fitted.sum(axis=0), cols, rtol=1e-5)

    def test_preserves_structural_zeros(self):
        seed_matrix = np.array([[0.0, 1.0], [1.0, 1.0]])
        fitted = iterative_proportional_fitting(seed_matrix, np.array([2.0, 3.0]), np.array([2.0, 3.0]))
        assert fitted[0, 0] == 0.0

    def test_reconciles_inconsistent_totals(self):
        seed_matrix = np.ones((3, 3))
        rows = np.array([10.0, 10.0, 10.0])
        cols = np.array([5.0, 5.0, 5.0])  # grand totals disagree by 2x
        fitted = iterative_proportional_fitting(seed_matrix, rows, cols)
        assert fitted.sum() == pytest.approx(0.5 * (rows.sum() + cols.sum()), rel=1e-6)

    def test_zero_targets_give_zero_matrix(self):
        fitted = iterative_proportional_fitting(np.ones((2, 2)), np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(fitted, 0.0)

    def test_empty_seed_row_with_positive_target(self):
        seed_matrix = np.array([[0.0, 0.0], [1.0, 1.0]])
        fitted = iterative_proportional_fitting(seed_matrix, np.array([4.0, 4.0]), np.array([4.0, 4.0]))
        assert fitted[0].sum() == pytest.approx(4.0, rel=1e-5)

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            iterative_proportional_fitting(np.ones((2, 3)), np.ones(2), np.ones(2))
        with pytest.raises(ValidationError):
            iterative_proportional_fitting(-np.ones((2, 2)), np.ones(2), np.ones(2))
        with pytest.raises(ValidationError):
            iterative_proportional_fitting(np.ones((2, 2)), -np.ones(2), np.ones(2))


class TestEntropyEstimate:
    def test_reduces_constraint_residual(self, abilene_world):
        _, series, system = abilene_world
        prior = gravity_series(series).to_vectors()[0]
        refined = entropy_estimate(prior, system.routing.matrix, system.link_loads[0])
        before = np.linalg.norm(system.routing.matrix @ prior - system.link_loads[0])
        after = np.linalg.norm(system.routing.matrix @ refined - system.link_loads[0])
        assert after < before

    def test_keeps_consistent_prior(self, abilene_world):
        _, series, system = abilene_world
        truth = series.to_vectors()[0]
        refined = entropy_estimate(truth, system.routing.matrix, system.link_loads[0])
        np.testing.assert_allclose(refined, truth, rtol=0.05)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            entropy_estimate(np.ones(4), np.ones((3, 5)), np.ones(3))


class TestPipeline:
    def test_estimate_improves_on_prior(self, abilene_world):
        _, series, system = abilene_world
        prior = GravityPrior().series(system.ingress, system.egress, nodes=series.nodes)
        result = TMEstimator().estimate(system, prior, ground_truth=series)
        assert result.mean_error <= float(np.mean(result.prior_errors)) + 1e-9

    def test_estimate_matches_marginals(self, abilene_world):
        _, series, system = abilene_world
        prior = GravityPrior().series(system.ingress, system.egress, nodes=series.nodes)
        result = TMEstimator().estimate(system, prior)
        np.testing.assert_allclose(result.estimate.ingress, system.ingress, rtol=1e-3)
        np.testing.assert_allclose(result.estimate.egress, system.egress, rtol=1e-3)

    def test_errors_unavailable_without_ground_truth(self, abilene_world):
        _, series, system = abilene_world
        prior = GravityPrior().series(system.ingress, system.egress, nodes=series.nodes)
        result = TMEstimator().estimate(system, prior)
        with pytest.raises(ValidationError):
            _ = result.mean_error

    def test_compare_priors_runs_all(self, abilene_world):
        _, series, system = abilene_world
        prior = GravityPrior().series(system.ingress, system.egress, nodes=series.nodes)
        results = TMEstimator().compare_priors(system, {"a": prior, "b": prior}, series)
        assert set(results) == {"a", "b"}
        np.testing.assert_allclose(results["a"].errors, results["b"].errors)

    def test_prior_length_mismatch_rejected(self, abilene_world):
        _, series, system = abilene_world
        prior = GravityPrior().series(system.ingress[:-1], system.egress[:-1], nodes=series.nodes)
        with pytest.raises(ValidationError):
            TMEstimator().estimate(system, prior)

    def test_entropy_method_selectable(self, abilene_world):
        _, series, system = abilene_world
        short_series = series[:1]
        short_system = simulate_link_loads(abilene_topology(), short_series, noise_std=0.0)
        prior = GravityPrior().series(short_system.ingress, short_system.egress, nodes=series.nodes)
        result = TMEstimator(method="entropy").estimate(short_system, prior, ground_truth=short_series)
        assert np.all(np.isfinite(result.errors))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            TMEstimator(method="magic")

    def test_improvement_over(self, abilene_world):
        _, series, system = abilene_world
        prior = GravityPrior().series(system.ingress, system.egress, nodes=series.nodes)
        result = TMEstimator().estimate(system, prior, ground_truth=series)
        improvement = result.improvement_over(result)
        np.testing.assert_allclose(improvement, 0.0)


class TestSparseAugmentedSystem:
    """The stacked observation operator built without densifying the routing matrix."""

    def test_sparse_operator_equals_dense(self, abilene_world):
        _, _, system = abilene_world
        dense_b, dense_z = system.augmented_system()
        sparse_b, sparse_z = system.augmented_system(as_sparse=True)
        from scipy import sparse as scipy_sparse

        assert scipy_sparse.issparse(sparse_b)
        assert np.array_equal(dense_b, sparse_b.toarray())
        assert np.array_equal(dense_z, sparse_z)

    def test_tomogravity_accepts_sparse_operator(self, abilene_world):
        _, series, system = abilene_world
        dense_b, z = system.augmented_system()
        sparse_b, _ = system.augmented_system(as_sparse=True)
        priors = series.to_vectors()
        dense_estimates = tomogravity_estimate(priors, dense_b, z)
        sparse_estimates = tomogravity_estimate(priors, sparse_b, z)
        np.testing.assert_allclose(sparse_estimates, dense_estimates, rtol=1e-8, atol=1e-3)
        single = tomogravity_estimate(priors[0], sparse_b, z[0])
        np.testing.assert_allclose(single, dense_estimates[0], rtol=1e-8, atol=1e-3)

    def test_estimator_sparse_mode_matches_dense(self, abilene_world):
        topology, series, system = abilene_world
        prior = GravityPrior().series(
            system.ingress, system.egress, nodes=series.nodes, bin_seconds=series.bin_seconds
        )
        dense_result = TMEstimator(use_sparse_system=False).estimate(
            system, prior, ground_truth=series
        )
        sparse_result = TMEstimator(use_sparse_system=True).estimate(
            system, prior, ground_truth=series
        )
        np.testing.assert_allclose(sparse_result.errors, dense_result.errors, rtol=1e-6)

    def test_auto_mode_keeps_paper_scale_topologies_dense(self, abilene_world):
        _, _, system = abilene_world
        from repro.estimation.pipeline import SPARSE_SYSTEM_MIN_NODES

        estimator = TMEstimator()
        assert system.n_nodes < SPARSE_SYSTEM_MIN_NODES
        assert estimator._resolve_sparse(system) is False
        assert TMEstimator(use_sparse_system=True)._resolve_sparse(system) is True
        # The entropy method always runs dense.
        assert TMEstimator(method="entropy", use_sparse_system=True)._resolve_sparse(system) is False
