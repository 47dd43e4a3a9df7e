"""The compute path: one NumPy kernel per stage, and no backend selection.

Every stage (IC series, gravity, stable-fP fit, tomogravity, IPF, the full
estimator) has exactly one implementation, written against NumPy.  These
tests pin that contract from three sides:

* kernel equivalence, parametrized over the *input form*: ``numpy`` passes
  float ndarrays, ``numpy_generic`` passes the same values as plain nested
  Python lists.  Both forms must give bit-identical results, and both must
  agree within 1e-10 with an independent per-bin reference (the per-matrix
  kernel or the textbook formula),
* host results: kernels return writable float64 ndarrays and never write to
  their inputs,
* no selection surface: there is no ``backend`` registry, keyword,
  environment variable, Scenario field or CLI flag, and a stale
  ``ic_series_backend`` record in an old BENCH file compares by wall time
  alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fitting import fit_stable_fp
from repro.core.gravity import gravity_matrix, gravity_series_values
from repro.core.ic_model import (
    general_ic_matrix,
    general_ic_series,
    simplified_ic_matrix,
    simplified_ic_series,
    time_varying_ic_series,
)
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ValidationError
from repro.estimation.ipf import (
    iterative_proportional_fitting,
    iterative_proportional_fitting_series,
)
from repro.estimation.pipeline import TMEstimator
from repro.estimation.tomogravity import tomogravity_estimate

TOL = 1e-10


@pytest.fixture(params=["numpy", "numpy_generic"])
def form(request):
    """Converter giving an input in the parametrized form (ndarrays are not copied)."""
    if request.param == "numpy":
        return lambda values: np.asarray(values, dtype=float)
    return lambda values: np.asarray(values, dtype=float).tolist()


@pytest.fixture()
def small_problem():
    rng = np.random.default_rng(7)
    t, n = 16, 7
    activity = rng.random((t, n)) * 1e6
    preference = rng.random(n) + 1e-2
    return activity, preference


def _close(reference: np.ndarray, candidate) -> None:
    candidate = np.asarray(candidate)
    scale = max(float(np.max(np.abs(reference))), 1.0)
    assert np.max(np.abs(reference - candidate)) / scale <= TOL


def _kernel_calls(small_problem, form):
    """The inputs, and ``(name, thunk)`` per series kernel fed them in ``form``."""
    activity, preference = small_problem
    n = activity.shape[1]
    inputs = {
        "activity": activity,
        "preference": preference,
        "forward": np.full((n, n), 0.3),
        "preference_series": np.tile(preference, (activity.shape[0], 1)),
        "cols": np.roll(activity, 1, axis=1),
        "seeds": simplified_ic_series(0.25, activity, preference),
    }
    x = {name: form(values) for name, values in inputs.items()}
    calls = [
        ("simplified", lambda: simplified_ic_series(0.25, x["activity"], x["preference"])),
        ("general", lambda: general_ic_series(x["forward"], x["activity"], x["preference"])),
        ("time_varying", lambda: time_varying_ic_series(
            0.3, x["activity"], x["preference_series"])),
        ("gravity", lambda: gravity_series_values(x["activity"], x["cols"])),
        ("ipf", lambda: iterative_proportional_fitting_series(
            x["seeds"], x["activity"], x["cols"])),
    ]
    return inputs, calls


# ---------------------------------------------------------------------------
# no selection surface
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_builtins_are_registered(self):
        from repro.registry import REGISTRIES

        assert sorted(REGISTRIES) == [
            "datasets", "estimators", "experiments", "priors", "topologies",
        ]

    def test_unknown_backend_names_choices(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["list", "backends"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'backends'" in err and "priors" in err

    def test_env_var_selects_backend(self, monkeypatch, small_problem):
        """``REPRO_BACKEND`` is not read: any value leaves every kernel unchanged."""
        activity, preference = small_problem
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        reference = simplified_ic_series(0.25, activity, preference)
        monkeypatch.setenv("REPRO_BACKEND", "no_such_backend")
        assert np.array_equal(simplified_ic_series(0.25, activity, preference), reference)

    def test_explicit_argument_beats_context(self, small_problem):
        """No kernel takes a ``backend=`` keyword."""
        activity, preference = small_problem
        calls = [
            lambda: simplified_ic_series(0.25, activity, preference, backend="numpy"),
            lambda: gravity_series_values(activity, activity, backend="numpy"),
            lambda: fit_stable_fp(simplified_ic_series(0.25, activity, preference),
                                  backend="numpy"),
            lambda: TMEstimator(backend="numpy"),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="backend"):
                call()

    def test_use_backend_none_is_noop(self):
        """The package exports no backend API and has no backend module."""
        import repro

        for name in ("use_backend", "get_backend", "register_backend", "available_backends"):
            assert not hasattr(repro, name)
            assert name not in repro.__all__
        with pytest.raises(ImportError):
            import repro.backend  # noqa: F401


# ---------------------------------------------------------------------------
# host results
# ---------------------------------------------------------------------------

class TestTransfers:
    def test_asarray_to_numpy_roundtrip(self, form, small_problem):
        """A series built from either form holds the same float64 values."""
        activity, preference = small_problem
        cube = simplified_ic_series(0.25, activity, preference)
        series = TrafficMatrixSeries(form(cube))
        assert series.values.dtype == np.float64
        assert np.array_equal(series.values, cube)
        assert np.array_equal(series.to_vectors().reshape(cube.shape), cube)

    def test_asarray_is_idempotent(self, form, small_problem):
        """Kernels never write to their inputs."""
        inputs, calls = _kernel_calls(small_problem, form)
        before = {name: values.copy() for name, values in inputs.items()}
        for _, call in calls:
            call()
        for name, values in inputs.items():
            assert np.array_equal(values, before[name]), name

    def test_to_numpy_returns_writable_host_array(self, form, small_problem):
        for name, call in _kernel_calls(small_problem, form)[1]:
            result = call()
            assert isinstance(result, np.ndarray), name
            assert result.dtype == np.float64, name
            result += 1.0  # must not raise


# ---------------------------------------------------------------------------
# kernel equivalence
# ---------------------------------------------------------------------------

class TestKernelEquivalence:
    def test_simplified_ic_series(self, form, small_problem):
        activity, preference = small_problem
        reference = np.stack([simplified_ic_matrix(0.25, a, preference) for a in activity])
        result = simplified_ic_series(0.25, form(activity), form(preference))
        _close(reference, result)
        assert np.array_equal(result, simplified_ic_series(0.25, activity, preference))

    def test_general_ic_series(self, form, small_problem):
        activity, preference = small_problem
        rng = np.random.default_rng(11)
        forward = rng.random((activity.shape[1], activity.shape[1]))
        reference = np.stack([general_ic_matrix(forward, a, preference) for a in activity])
        result = general_ic_series(form(forward), form(activity), form(preference))
        _close(reference, result)
        assert np.array_equal(result, general_ic_series(forward, activity, preference))

    def test_time_varying_ic_series(self, form, small_problem):
        activity, _ = small_problem
        rng = np.random.default_rng(13)
        preference_series = rng.random(activity.shape) + 1e-3
        forward_series = rng.random(activity.shape[0])
        reference = np.stack([
            simplified_ic_matrix(f, a, p)
            for f, a, p in zip(forward_series, activity, preference_series)
        ])
        result = time_varying_ic_series(
            form(forward_series), form(activity), form(preference_series)
        )
        _close(reference, result)

    def test_time_varying_scalar_f(self, form, small_problem):
        activity, _ = small_problem
        rng = np.random.default_rng(17)
        preference_series = rng.random(activity.shape) + 1e-3
        reference = np.stack([
            simplified_ic_matrix(0.3, a, p) for a, p in zip(activity, preference_series)
        ])
        result = time_varying_ic_series(0.3, form(activity), form(preference_series))
        _close(reference, result)

    def test_gravity_series_values(self, form, small_problem):
        activity, _ = small_problem
        rng = np.random.default_rng(19)
        egress = rng.random(activity.shape) * 1e6
        ingress = activity.copy()
        ingress[3] = 0.0  # a zero-traffic bin must come back all-zero
        reference = np.stack([gravity_matrix(i, e) for i, e in zip(ingress, egress)])
        result = gravity_series_values(form(ingress), form(egress))
        _close(reference, result)
        assert np.all(result[3] == 0.0)

    def test_device_inputs_accepted(self, form, small_problem):
        """A single ``(n,)`` activity vector is one bin of the series."""
        activity, preference = small_problem
        result = simplified_ic_series(0.25, form(activity[0]), form(preference))
        assert result.shape == (1, activity.shape[1], activity.shape[1])
        _close(simplified_ic_matrix(0.25, activity[0], preference), result[0])

    def test_numpy_backend_is_bit_identical(self, small_problem):
        """The batched kernel equals stacking the per-bin matrix bit for bit."""
        activity, preference = small_problem
        assert np.array_equal(
            simplified_ic_series(0.25, activity, preference),
            np.stack([simplified_ic_matrix(0.25, a, preference) for a in activity]),
        )


class TestFitEquivalence:
    @pytest.fixture(scope="class")
    def observed(self):
        rng = np.random.default_rng(23)
        t, n = 20, 8
        activity = rng.random((t, n)) * 1e6
        preference = rng.random(n) + 0.1
        preference /= preference.sum()
        values = simplified_ic_series(0.27, activity, preference)
        values *= 1.0 + 0.02 * rng.standard_normal(values.shape)
        return np.clip(values, 0.0, None)

    def test_fit_stable_fp_matches_reference(self, form, observed):
        reference = fit_stable_fp(observed)
        fitted = fit_stable_fp(form(observed))
        assert fitted.forward_fraction == reference.forward_fraction
        assert np.array_equal(fitted.preference, reference.preference)
        assert np.array_equal(fitted.activity, reference.activity)
        assert abs(fitted.forward_fraction - 0.27) < 0.02
        assert isinstance(fitted.preference, np.ndarray)


class TestEstimationEquivalence:
    @pytest.fixture(scope="class")
    def system_and_prior(self):
        from repro.core.gravity import gravity_series
        from repro.estimation.linear_system import simulate_link_loads
        from repro.synthesis.datasets import load_dataset

        data = load_dataset("geant", n_weeks=1, bins_per_week=48)
        week = data.week(0)[:10]
        system = simulate_link_loads(data.topology, week, noise_std=0.01, seed=0)
        return system, gravity_series(week), week

    @staticmethod
    def _textbook(priors, matrix, observed):
        """``x + W Bᵀ (B W Bᵀ)⁺ (z - B x)``, clipped, one bin at a time."""
        out = np.empty_like(priors)
        for t, (prior, z) in enumerate(zip(priors, observed)):
            weights = np.maximum(prior, max(prior.mean() * 1e-3, 1e-9))
            weighted = matrix * weights
            gram_pinv = np.linalg.pinv(weighted @ matrix.T, rcond=1e-10)
            out[t] = np.clip(prior + weighted.T @ (gram_pinv @ (z - matrix @ prior)), 0.0, None)
        return out

    def test_tomogravity_matches_reference(self, form, system_and_prior):
        system, prior, _ = system_and_prior
        matrix, observations = system.augmented_system()
        matrix = matrix.toarray()  # the textbook formula is written for a dense B
        vectors = prior.to_vectors()
        reference = self._textbook(vectors, matrix, observations)
        result = tomogravity_estimate(form(vectors), form(matrix), form(observations))
        _close(reference, result)
        assert np.array_equal(result, tomogravity_estimate(vectors, matrix, observations))

    def test_ipf_matches_reference(self, form, system_and_prior):
        system, prior, _ = system_and_prior
        seeds = np.asarray(prior.values)
        reference = np.stack([
            iterative_proportional_fitting(s, r, c)
            for s, r, c in zip(seeds, system.ingress, system.egress)
        ])
        result = iterative_proportional_fitting_series(
            form(seeds), form(system.ingress), form(system.egress)
        )
        assert np.array_equal(result, reference)

    def test_ipf_zero_bins_and_empty_rows(self, form):
        seeds = np.zeros((3, 4, 4))
        seeds[0] = np.ones((4, 4))
        seeds[2, 0, :] = 0.0
        rows = np.ones((3, 4)) * 5.0
        cols = np.ones((3, 4)) * 5.0
        rows[1] = 0.0  # zero-traffic bin
        cols[1] = 0.0
        result = iterative_proportional_fitting_series(form(seeds), form(rows), form(cols))
        assert np.all(result[1] == 0.0)
        assert np.all(np.isfinite(result))
        np.testing.assert_allclose(result[0].sum(axis=1), rows[0], rtol=1e-6)

    def test_estimator_end_to_end(self, form, system_and_prior):
        system, prior, truth = system_and_prior
        reference = TMEstimator().estimate(system, prior, ground_truth=truth)
        result = TMEstimator().estimate(
            system,
            TrafficMatrixSeries(form(prior.values), prior.nodes),
            ground_truth=TrafficMatrixSeries(form(truth.values), truth.nodes),
        )
        assert np.array_equal(reference.errors, result.errors)
        assert isinstance(result.estimate.values, np.ndarray)
        assert result.mean_error < float(np.mean(result.prior_errors))

    def test_estimator_stream_matches_in_memory(self, form, system_and_prior):
        """``estimate`` is the one-chunk stream: same bins in any chunking."""
        from repro.streaming import ArrayChunkStream

        system, prior, truth = system_and_prior
        in_memory = TMEstimator().estimate(system, prior, ground_truth=truth)
        assert in_memory.prior is prior
        for chunk_bins in (None, 3):
            streamed = TMEstimator().estimate_stream(
                system,
                ArrayChunkStream(form(prior.values), prior.nodes, chunk_bins=chunk_bins),
                ground_truth_stream=truth,
                collect_estimate=True,
            )
            assert np.array_equal(in_memory.errors, streamed.errors)
            assert np.array_equal(in_memory.prior_errors, streamed.prior_errors)
            assert np.array_equal(in_memory.estimate.values, streamed.estimate.values)

    def test_entropy_round_trips_through_host(self, system_and_prior):
        """The entropy method runs the same single path and returns host arrays."""
        system, prior, truth = system_and_prior
        estimator = TMEstimator(method="entropy")
        result = estimator.estimate(system, prior, ground_truth=truth)
        streamed = estimator.estimate_stream(
            system, prior, ground_truth_stream=truth, collect_estimate=True
        )
        assert isinstance(result.estimate.values, np.ndarray)
        assert np.array_equal(result.estimate.values, streamed.estimate.values)
        assert np.array_equal(result.errors, streamed.errors)


# ---------------------------------------------------------------------------
# scenario / CLI surface
# ---------------------------------------------------------------------------

class TestScenarioThreading:
    def test_scenario_backend_field_round_trips(self):
        from repro.scenarios import Scenario

        scenario = Scenario(dataset="geant", prior="stable_fp")
        assert "backend" not in scenario.to_dict()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_scenario_backend_name_is_canonicalised(self):
        from repro.scenarios import Scenario

        with pytest.raises(TypeError, match="backend"):
            Scenario(dataset="geant", prior="stable_fp", backend="numpy")

    def test_scenario_unknown_backend_rejected(self):
        from repro.scenarios import run_scenario, sweep

        spec = {"dataset": "geant", "prior": "gravity", "backend": "numpy"}
        with pytest.raises(ValidationError, match="unknown Scenario fields"):
            run_scenario(spec)
        with pytest.raises(ValidationError, match="unknown Scenario fields"):
            sweep(priors=["gravity"], datasets=["geant"], base=spec)

    def test_runner_backend_matches_default(self, monkeypatch):
        from repro.scenarios import Scenario, ScenarioRunner

        base = Scenario(dataset="geant", prior="stable_fp", bins_per_week=36, max_bins=4)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        reference = ScenarioRunner().run(base)
        monkeypatch.setenv("REPRO_BACKEND", "no_such_backend")
        result = ScenarioRunner().run(base)
        assert np.array_equal(reference.errors, result.errors)
        assert "backend" not in result.format_table()

    def test_cli_backend_flag(self, capsys):
        from repro.cli import main

        for command in (
            ["run", "fig2"],
            ["estimate", "--prior", "gravity", "--dataset", "geant"],
            ["sweep", "--priors", "gravity", "--datasets", "geant"],
            ["serve", "--source", "synthetic"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(command + ["--backend", "numpy"])
            assert excinfo.value.code == 2, command
            assert "unrecognized arguments: --backend numpy" in capsys.readouterr().err

    def test_cli_unavailable_backend_exits_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--prior", "stable_fp", "--dataset", "geant",
                  "--bins-per-week", "36", "--max-bins", "4", "--backend", "torch"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err
