"""Tests for the estimation substrate: link loads, tomogravity, IPF, entropy, pipeline."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse as scipy_sparse

from repro.core.gravity import gravity_series
from repro.core.metrics import rel_l2_temporal_error
from repro.core.priors import GravityPrior
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ShapeError, ValidationError
from repro.estimation.entropy import entropy_estimate
from repro.estimation.ipf import (
    iterative_proportional_fitting,
    iterative_proportional_fitting_series,
)
from repro.estimation.linear_system import LinkLoadSystem, simulate_link_loads
from repro.estimation.pipeline import TMEstimator
from repro.estimation.tomogravity import tomogravity_estimate
from repro.synthesis.datasets import load_dataset
from repro.topology import Topology
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

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, abilene_world, noise):
        topology, series, _ = abilene_world
        with pytest.raises(ValidationError, match="noise_std"):
            simulate_link_loads(topology, series, noise_std=noise)

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
    @pytest.mark.parametrize("iterations", [0, -1])
    def test_iteration_cap_below_one_rejected(self, iterations):
        seed_matrix = np.ones((3, 3))
        totals = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="max_iterations"):
            iterative_proportional_fitting(seed_matrix, totals, totals, max_iterations=iterations)
        with pytest.raises(ValidationError, match="max_iterations"):
            iterative_proportional_fitting_series(
                seed_matrix[np.newaxis], totals[np.newaxis], totals[np.newaxis],
                max_iterations=iterations,
            )

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

    @pytest.mark.parametrize("iterations", [0, -3])
    def test_ipf_iterations_below_one_rejected(self, iterations):
        with pytest.raises(ValidationError, match="ipf_iterations"):
            TMEstimator(ipf_iterations=iterations)

    def test_improvement_over(self, abilene_world):
        _, series, system = abilene_world
        prior = GravityPrior().series(system.ingress, system.egress, nodes=series.nodes)
        result = TMEstimator().estimate(system, prior, ground_truth=series)
        improvement = result.improvement_over(result)
        np.testing.assert_allclose(improvement, 0.0)


def _ring_with_chords(n_nodes: int) -> Topology:
    """A ring whose every PoP also links a quarter of the way round."""
    names = tuple(f"pop{i:03d}" for i in range(n_nodes))
    topology = Topology("ring-with-chords", names)
    for i in range(n_nodes):
        topology.add_bidirectional_link(names[i], names[(i + 1) % n_nodes])
        topology.add_bidirectional_link(names[i], names[(i + n_nodes // 4) % n_nodes])
    return topology


class TestSparseAugmentedSystem:
    """The stacked observation operator is CSR at every network size."""

    def test_sparse_operator_equals_dense(self, abilene_world):
        _, _, system = abilene_world
        b, z = system.augmented_system()
        n = system.n_nodes
        ingress_rows = np.kron(np.eye(n), np.ones(n))
        egress_rows = np.kron(np.ones(n), np.eye(n))
        assert scipy_sparse.isspmatrix_csr(b)
        assert np.array_equal(
            b.toarray(), np.vstack([system.routing.matrix, ingress_rows, egress_rows])
        )
        assert np.array_equal(z, np.hstack([system.link_loads, system.ingress, system.egress]))

    def test_tomogravity_accepts_sparse_operator(self, abilene_world):
        _, series, system = abilene_world
        sparse_b, z = system.augmented_system()
        dense_b = sparse_b.toarray()
        priors = series.to_vectors()
        sparse_estimates = tomogravity_estimate(priors, sparse_b, z)
        assert np.array_equal(tomogravity_estimate(priors, dense_b, z), sparse_estimates)
        assert np.array_equal(tomogravity_estimate(priors[0], dense_b, z[0]), sparse_estimates[0])

    def test_estimator_sparse_mode_matches_dense(self, abilene_world):
        _, series, system = abilene_world
        prior = GravityPrior().series(
            system.ingress, system.egress, nodes=series.nodes, bin_seconds=series.bin_seconds
        )
        result = TMEstimator().estimate(system, prior, ground_truth=series)
        _, z = system.augmented_system()
        n = system.n_nodes
        refined = tomogravity_estimate(prior.to_vectors(), system.routing.augmented_operator(), z)
        expected = iterative_proportional_fitting_series(
            refined.reshape(-1, n, n), system.ingress, system.egress, max_iterations=50
        )
        assert np.array_equal(result.estimate.values, expected)

    def test_auto_mode_keeps_paper_scale_topologies_dense(self, monkeypatch):
        """At 11 and 50 PoPs the estimate runs on one cached CSR factor, never on dense R."""
        from repro.estimation import tomogravity as tomogravity_module
        from repro.topology.routing import RoutingMatrix, clear_routing_cache

        factored = []
        factor_operator = tomogravity_module.factor_observation_operator

        def counting(operator):
            factored.append(operator)
            return factor_operator(operator)

        monkeypatch.setattr(tomogravity_module, "factor_observation_operator", counting)
        monkeypatch.setattr(
            RoutingMatrix, "matrix", property(lambda self: pytest.fail("dense R read"))
        )
        for topology in (abilene_topology(), _ring_with_chords(50)):
            n = topology.n_nodes
            values = np.random.default_rng(n).lognormal(np.log(1e6), 0.8, (2, n, n))
            series = TrafficMatrixSeries(values, topology.nodes)
            factored.clear()
            clear_routing_cache()
            try:
                system = simulate_link_loads(topology, series, noise_std=0.01, seed=1)
                prior = GravityPrior().series(system.ingress, system.egress, nodes=series.nodes)
                for _ in range(2):
                    result = TMEstimator().estimate(system, prior, ground_truth=series)
                    assert np.all(np.isfinite(result.errors))
            finally:
                clear_routing_cache()
            assert len(factored) == 1 and scipy_sparse.isspmatrix_csr(factored[0])
            assert factored[0].shape == (system.routing.n_links + 2 * n, n * n)


def test_component_ipf():
    week = load_dataset("geant", n_weeks=1, bins_per_week=96).week(0)
    matrix = np.array(week.values[0], copy=True)
    rows = week.ingress[1]
    cols = week.egress[1]
    fitted = iterative_proportional_fitting(matrix, rows, cols)
    reconciled = rows * (0.5 * (rows.sum() + cols.sum()) / rows.sum())
    np.testing.assert_allclose(fitted.sum(axis=1), reconciled, rtol=1e-3)
