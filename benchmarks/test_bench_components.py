"""Micro-benchmarks of the computational building blocks.

These are conventional pytest-benchmark timings (multiple rounds) of the
hot paths a user of the library will exercise: model evaluation, gravity
reconstruction, stable-fP fitting, routing-matrix construction, tomogravity
refinement and IPF.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fitting import fit_stable_fp
from repro.core.gravity import gravity_series
from repro.core.ic_model import simplified_ic_series
from repro.core.priors import GravityPrior
from repro.estimation.ipf import iterative_proportional_fitting
from repro.estimation.linear_system import simulate_link_loads
from repro.estimation.tomogravity import tomogravity_estimate
from repro.synthesis.datasets import load_dataset
from repro.topology.library import geant_topology
from repro.topology.routing import build_routing_matrix


@pytest.fixture(scope="module")
def week():
    return load_dataset("geant", n_weeks=1, bins_per_week=96).week(0)


@pytest.fixture(scope="module")
def measurement_system(week):
    return simulate_link_loads(geant_topology(), week[:8], noise_std=0.0)


def test_component_ic_series_evaluation(benchmark):
    rng = np.random.default_rng(0)
    activity = rng.random((2016, 22)) * 1e6
    preference = rng.random(22)
    result = benchmark(simplified_ic_series, 0.25, activity, preference)
    assert result.shape == (2016, 22, 22)


def test_component_gravity_series(benchmark, week):
    result = benchmark(gravity_series, week)
    assert result.n_timesteps == week.n_timesteps


def test_component_stable_fp_fit(benchmark, week):
    fit = benchmark.pedantic(fit_stable_fp, args=(week,), rounds=3, iterations=1)
    assert fit.mean_error < 1.0


def test_component_routing_matrix_build(benchmark):
    routing = benchmark(build_routing_matrix, geant_topology())
    assert routing.matrix.shape[1] == 22 * 22


def test_component_tomogravity(benchmark, week, measurement_system):
    prior = GravityPrior().series(
        measurement_system.ingress, measurement_system.egress, nodes=week.nodes
    )
    matrix, observations = measurement_system.augmented_system()
    vector = prior.to_vectors()[0]
    refined = benchmark(tomogravity_estimate, vector, matrix, observations[0])
    assert refined.shape == vector.shape


def test_component_ipf(benchmark, week):
    matrix = np.array(week.values[0], copy=True)
    rows = week.ingress[1]
    cols = week.egress[1]
    fitted = benchmark(iterative_proportional_fitting, matrix, rows, cols)
    np.testing.assert_allclose(fitted.sum(axis=1), rows * (0.5 * (rows.sum() + cols.sum()) / rows.sum()), rtol=1e-3)
