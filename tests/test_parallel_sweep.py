"""Tests for the parallel grid sweep (ScenarioRunner.sweep with jobs > 1)."""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import warnings
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.scenarios import InProcessExecutor, LocalPoolExecutor, Scenario, ScenarioRunner
from repro.scenarios.executors import (
    _rebuild_dataset,
    _recv_message,
    _roundtrip,
    _send_message,
    _serve_connection,
)

SMALL = {"bins_per_week": 36, "max_bins": 4}


@contextmanager
def _worker_connection():
    """A socket whose peer runs the sweep-worker loop in a thread."""
    ours, theirs = socket.socketpair()
    thread = threading.Thread(target=_serve_connection, args=(theirs,))
    thread.start()
    try:
        yield ours
    finally:
        ours.close()
        thread.join(timeout=60)
        theirs.close()
    assert not thread.is_alive()


def _run_batch(sock, items, baseline="gravity"):
    reply = _roundtrip(
        sock,
        {
            "op": "batch",
            "baseline": baseline,
            "fit_cache_bytes": None,
            "fit_memo": True,
            "items": items,
            "trace": None,
            "worker": "test",
        },
    )
    assert reply["ok"], reply
    assert reply["trace_events"] == []  # untraced parent -> no span events shipped back
    return reply["outcomes"]


def _run_one_cell(baseline, scenario, key, sock=None):
    """Run a single cell through the sweep-worker batch op."""
    with _worker_connection() if sock is None else nullcontext(sock) as conn:
        [(_, result, message)] = _run_batch(conn, [(0, scenario, key)], baseline)
    return result, message


def _through_wire(message: dict) -> dict:
    """One framed-pickle message sent and received over a socket pair."""
    ours, theirs = socket.socketpair()
    with ours, theirs:
        sender = threading.Thread(target=_send_message, args=(ours, message))
        sender.start()
        received = _recv_message(theirs)
        sender.join()
    return received


class TestRunSweepBatch:
    def test_success_returns_result(self):
        scenario = Scenario(dataset="geant", prior="stable_f", **SMALL)
        result, message = _run_one_cell("gravity", scenario, None)
        assert message is None
        assert result.errors.shape[0] == 4

    def test_failure_returns_message(self):
        # The stable-f closed form is singular at f = 0.5, so this cell fails.
        scenario = Scenario(
            dataset="geant", prior="stable_f", measured_forward_fraction=0.5, **SMALL
        )
        result, message = _run_one_cell("gravity", scenario, None)
        assert result is None
        assert "ValidationError" in message

    def test_batch_preserves_indices_and_shares_state(self):
        cells = [
            Scenario(dataset="geant", prior=prior, n_weeks=2, target_week=1, **SMALL)
            for prior in ("gravity", "stable_f")
        ]
        items = [(index + 5, cell, None) for index, cell in enumerate(cells)]
        with _worker_connection() as sock:
            outcomes = _run_batch(sock, items)
        assert [index for index, _, _ in outcomes] == [5, 6]
        assert all(message is None for _, _, message in outcomes)


class TestParallelSweep:
    @pytest.fixture(scope="class")
    def serial_and_parallel(self):
        kwargs = dict(
            priors=("stable_f", "gravity"),
            datasets=("geant",),
            base=dict(SMALL),
        )
        serial = ScenarioRunner().sweep(jobs=1, **kwargs)
        parallel = ScenarioRunner().sweep(jobs=2, **kwargs)
        return serial, parallel

    def test_parallel_matches_serial_bitwise(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert len(serial.results) == len(parallel.results) == 2
        assert not serial.failures and not parallel.failures
        for left, right in zip(serial.results, parallel.results):
            assert left.scenario == right.scenario
            assert np.array_equal(left.errors, right.errors)
            assert np.array_equal(left.prior_errors, right.prior_errors)

    def test_grid_order_is_preserved(self, serial_and_parallel):
        _, parallel = serial_and_parallel
        labels = [result.scenario.prior for result in parallel.results]
        assert labels == ["stable_f", "gravity"]

    def test_jobs_none_uses_cpu_count(self):
        result = ScenarioRunner().sweep(
            priors=("stable_f",),
            datasets=("geant",),
            base=dict(SMALL),
            jobs=None,
        )
        assert len(result.results) == 1

    def test_failures_are_collected_not_raised(self):
        result = ScenarioRunner().sweep(
            priors=("stable_f", "gravity"),
            datasets=("geant",),
            base=dict(SMALL),
            measured_forward_fraction=0.5,
            jobs=2,
        )
        # The stable-f cell dies on the singular f = 0.5; gravity survives.
        assert len(result.results) == 1
        assert len(result.failures) == 1
        assert result.failures[0][0].prior == "stable_f"

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioRunner().sweep(priors=(), datasets=("geant",), jobs=2)


class TestPreSynthesizedDatasets:
    """The parent synthesizes each dataset column once and ships it to workers."""

    def test_run_uses_shipped_dataset(self):
        # Ship a dataset generated with a *different* seed than the scenario
        # names; if run() honoured the scenario's own synthesis path instead
        # of the shipped arrays, the errors would match the default seed.
        from repro.synthesis.datasets import load_dataset

        scenario = Scenario(dataset="geant", prior="stable_f", n_weeks=2, **SMALL)
        default_result = ScenarioRunner().run(scenario)
        shipped = load_dataset("geant", n_weeks=2, bins_per_week=36, seed=777)
        shipped_result = ScenarioRunner().run(scenario, dataset=shipped)
        assert not np.allclose(default_result.errors, shipped_result.errors)

    def test_run_rejects_too_short_shipped_dataset(self):
        from repro.synthesis.datasets import load_dataset

        scenario = Scenario(
            dataset="geant", prior="stable_f", calibration_week=1, target_week=2, **SMALL
        )
        shipped = load_dataset("geant", n_weeks=1, bins_per_week=36)
        with pytest.raises(ValidationError, match="weeks"):
            ScenarioRunner().run(scenario, dataset=shipped)

    def test_worker_cell_prefers_shipped_dataset(self):
        from repro.synthesis.datasets import load_dataset

        cell = Scenario(dataset="geant", prior="stable_f", n_weeks=2, **SMALL)
        key = ScenarioRunner._dataset_key(cell)
        assert key == ("geant", 2, 36, False, None)
        shipped = load_dataset("geant", n_weeks=2, bins_per_week=36, seed=777)
        with _worker_connection() as sock:
            reply = _roundtrip(
                sock, {"op": "dataset", "key": key, "kind": "cube", "payload": shipped}
            )
            assert reply == {"ok": True}
            result, message = _run_one_cell("gravity", cell, key, sock)
            assert message is None
            baseline, _ = _run_one_cell("gravity", cell, None, sock)
        assert not np.allclose(result.errors, baseline.errors)

    def test_streaming_cells_ship_plan_keys(self):
        cell = Scenario(dataset="geant", prior="stable_f", n_weeks=2, stream=True, **SMALL)
        key = ScenarioRunner._dataset_key(cell)
        assert key is not None and key[0] == "stream"
        # Streamed and in-memory columns must never collide in the worker map.
        assert key != ScenarioRunner._dataset_key(cell.replace(stream=False))
        assert ScenarioRunner._dataset_key(cell.replace(n_weeks=None)) is None

    def test_parallel_sweep_ships_column_synthesis(self):
        # End to end: a 2-prior column over one dataset, two workers.  The
        # results must be identical to the serial (cache-backed) sweep.
        kwargs = dict(priors=("stable_f", "gravity"), datasets=("geant",), base=dict(SMALL))
        serial = ScenarioRunner().sweep(jobs=1, **kwargs)
        parallel = ScenarioRunner().sweep(jobs=2, **kwargs)
        assert len(parallel.results) == len(serial.results) == 2
        for serial_cell, parallel_cell in zip(serial.results, parallel.results):
            assert np.array_equal(serial_cell.errors, parallel_cell.errors)


class TestSharedMemoryShipping:
    """Dataset columns ship over the sweep-worker wire and rebuild bitwise.

    The class and test names date from an earlier shared-memory transport;
    they are kept so the test ids stay stable.
    """

    def test_export_attach_roundtrip_is_bitwise(self):
        from repro.synthesis.datasets import load_dataset

        data = load_dataset("geant", n_weeks=2, bins_per_week=36)
        message = _through_wire({"kind": "cube", "payload": data})
        rebuilt = _rebuild_dataset(message["kind"], message["payload"])
        assert rebuilt.n_weeks == 2
        assert rebuilt.topology.nodes == data.topology.nodes
        for original, shipped in zip(data.weeks, rebuilt.weeks):
            assert np.array_equal(original.values, shipped.values)
            assert original.bin_seconds == shipped.bin_seconds

    def test_worker_init_reconstructs_datasets_from_shm(self):
        from repro.synthesis.datasets import open_dataset_stream

        data = open_dataset_stream("geant", n_weeks=2, bins_per_week=32).checkpoint_noise()
        message = _through_wire({"kind": "plan", "payload": data.export_state()})
        rebuilt = _rebuild_dataset(message["kind"], message["payload"])
        assert rebuilt.nodes == data.nodes
        for week in range(2):
            np.testing.assert_array_equal(rebuilt.week(week).values, data.week(week).values)


GRID = dict(priors=("stable_f", "gravity"), datasets=("geant", "totem"), base=dict(SMALL))


def _assert_bitwise(left, right):
    assert not left.failures and not right.failures
    assert len(left.results) == len(right.results)
    for a, b in zip(left.results, right.results):
        assert (a.scenario.dataset, a.scenario.prior) == (b.scenario.dataset, b.scenario.prior)
        np.testing.assert_array_equal(np.asarray(a.errors), np.asarray(b.errors))
        np.testing.assert_array_equal(np.asarray(a.prior_errors), np.asarray(b.prior_errors))


class TestLocalPool:
    """The local pool: sweep workers over socket pairs, with a serial fallback."""

    @pytest.fixture(scope="class")
    def in_process(self):
        return ScenarioRunner().sweep(executor=InProcessExecutor(), **GRID)

    def test_process_start_failure_falls_back_serially(self, in_process, monkeypatch):
        def refuse(self):
            raise OSError("process creation refused")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pooled = ScenarioRunner().sweep(executor=LocalPoolExecutor(2), **GRID)
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "process creation refused" in str(runtime[0].message)
        _assert_bitwise(in_process, pooled)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched cell runner reaches the workers only under fork",
    )
    def test_worker_death_reruns_only_its_undelivered_cells(self, in_process, monkeypatch):
        parent = os.getpid()
        original = ScenarioRunner._run_cell_guarded
        reruns = []

        def guarded(self, cell, **kwargs):
            if os.getpid() != parent:
                if cell.dataset == "totem":
                    os._exit(3)  # the worker holding the totem column dies mid-batch
            else:
                reruns.append((cell.dataset, cell.prior))
            return original(self, cell, **kwargs)

        monkeypatch.setattr(ScenarioRunner, "_run_cell_guarded", guarded)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pooled = ScenarioRunner().sweep(executor=LocalPoolExecutor(2), **GRID)
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "falling back to a serial run of 2 cell(s)" in str(runtime[0].message)
        assert sorted(reruns) == [("totem", "gravity"), ("totem", "stable_f")]
        _assert_bitwise(in_process, pooled)

    def test_pool_never_listens_and_reaps_its_workers(self, in_process, monkeypatch):
        listened = []
        real_listen = socket.socket.listen

        def listen(self, *args):
            listened.append(self)
            return real_listen(self, *args)

        monkeypatch.setattr(socket.socket, "listen", listen)
        pooled = ScenarioRunner().sweep(executor=LocalPoolExecutor(2), **GRID)
        assert listened == []
        assert multiprocessing.active_children() == []
        _assert_bitwise(in_process, pooled)

    def test_spilled_streamed_grid_matches_in_process(self, tmp_path):
        grid = dict(GRID, base=dict(SMALL, stream=True))
        serial = ScenarioRunner().sweep(
            executor=InProcessExecutor(), spill_dir=str(tmp_path / "serial"), **grid
        )
        pooled = ScenarioRunner().sweep(
            executor=LocalPoolExecutor(2), spill_dir=str(tmp_path / "pooled"), **grid
        )
        for result in pooled.results:
            assert result.timing["spill_dir"].startswith(str(tmp_path / "pooled"))
        _assert_bitwise(serial, pooled)
