"""Tests for the sweep executor layer (PR 7).

Covers:

* :meth:`ScenarioRunner._column_batches` edge cases (jobs > cells, single
  column, empty grid, determinism),
* :func:`resolve_executor` — the auto/in-process/local-pool/instance ladder
  and the warn-once CPU cap on local pools,
* the remote wire plumbing (address parsing, length-prefixed framing),
* :class:`RemoteExecutor` failure modes (unreachable worker, protocol
  mismatch) raising :class:`ExecutorError` instead of degrading silently,
* a loopback two-daemon remote sweep bit-identical to the serial path on a
  streamed, spilled grid,
* worker-level streamed-fit memoisation: overlapping-window grids fit each
  (plan, window) once, without changing a single output bit or RNG draw.
"""

from __future__ import annotations

import io
import re
import socket
import threading
import time
import warnings

import numpy as np
import pytest

from repro.errors import ExecutorError, ValidationError
from repro.scenarios import (
    InProcessExecutor,
    LocalPoolExecutor,
    RemoteExecutor,
    Scenario,
    ScenarioRunner,
    SpilledSeries,
    SweepSharedState,
    run_sweep_worker,
)
from repro.scenarios import executors as executors_module
from repro.scenarios.executors import (
    SWEEP_WORKER_PROTOCOL,
    _parse_address,
    _recv_message,
    _send_message,
    resolve_executor,
)

SMALL = {"bins_per_week": 36, "max_bins": 4}


def _items(cells):
    return [
        (index, cell, ScenarioRunner._dataset_key(cell))
        for index, cell in enumerate(cells)
    ]


class TestColumnBatches:
    def test_empty_grid_yields_no_batches(self):
        assert ScenarioRunner._column_batches([], 4) == []

    def test_single_column_single_job_stays_whole(self):
        cells = [
            Scenario(dataset="geant", prior=prior, **SMALL)
            for prior in ("gravity", "stable_f", "stable_fp", "measured")
        ]
        batches = ScenarioRunner._column_batches(_items(cells), 1)
        assert len(batches) == 1
        assert [index for index, _, _ in batches[0]] == [0, 1, 2, 3]

    def test_jobs_beyond_cells_split_to_singletons(self):
        cells = [
            Scenario(dataset="geant", prior=prior, **SMALL)
            for prior in ("gravity", "stable_f")
        ]
        batches = ScenarioRunner._column_batches(_items(cells), 8)
        # Splitting stops at one cell per batch; no empty batches appear.
        assert all(len(batch) == 1 for batch in batches)
        assert sorted(index for batch in batches for index, _, _ in batch) == [0, 1]

    def test_distinct_columns_never_merge(self):
        cells = [
            Scenario(dataset="geant", prior="gravity", dataset_seed=seed, **SMALL)
            for seed in (1, 2, 3)
        ]
        batches = ScenarioRunner._column_batches(_items(cells), 1)
        assert len(batches) == 3
        assert all(len(batch) == 1 for batch in batches)

    def test_batching_is_deterministic(self):
        cells = [
            Scenario(dataset="geant", prior=prior, dataset_seed=seed, **SMALL)
            for seed in (1, 2)
            for prior in ("gravity", "stable_f", "stable_fp")
        ]
        first = ScenarioRunner._column_batches(_items(cells), 4)
        second = ScenarioRunner._column_batches(_items(cells), 4)
        assert [
            [index for index, _, _ in batch] for batch in first
        ] == [[index for index, _, _ in batch] for batch in second]

    def test_all_items_survive_splitting(self):
        cells = [
            Scenario(dataset="geant", prior="gravity", target_week=week, n_weeks=8, **SMALL)
            for week in range(7)
        ]
        batches = ScenarioRunner._column_batches(_items(cells), 3)
        assert len(batches) >= 3
        assert sorted(index for batch in batches for index, _, _ in batch) == list(range(7))


class TestResolveExecutor:
    def test_auto_prefers_pool_when_cpus_and_cells_allow(self):
        executor, plan_jobs = resolve_executor(None, jobs=4, n_cells=4, cpu_count=8)
        assert isinstance(executor, LocalPoolExecutor)
        assert executor.jobs == 4
        assert plan_jobs == 4

    def test_auto_collapses_to_in_process_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(executors_module, "_JOBS_CAP_WARNED", True)
        executor, _ = resolve_executor("auto", jobs=4, n_cells=4, cpu_count=1)
        assert isinstance(executor, InProcessExecutor)

    def test_auto_collapses_to_in_process_on_one_cell(self):
        executor, _ = resolve_executor(None, jobs=4, n_cells=1, cpu_count=8)
        assert isinstance(executor, InProcessExecutor)

    def test_jobs_none_means_one_per_cpu(self):
        executor, plan_jobs = resolve_executor(None, jobs=None, n_cells=4, cpu_count=6)
        assert isinstance(executor, LocalPoolExecutor)
        assert executor.jobs == 6
        assert plan_jobs == 6

    def test_named_in_process(self):
        for name in ("in-process", "serial"):
            executor, _ = resolve_executor(name, jobs=4, n_cells=4, cpu_count=8)
            assert isinstance(executor, InProcessExecutor)

    def test_named_local_pool_caps_at_cpu(self, monkeypatch):
        monkeypatch.setattr(executors_module, "_JOBS_CAP_WARNED", True)
        executor, plan_jobs = resolve_executor("local-pool", jobs=16, n_cells=4, cpu_count=2)
        assert isinstance(executor, LocalPoolExecutor)
        assert executor.jobs == 2
        assert plan_jobs == 16  # the uncapped request survives in the plan

    def test_instance_passes_through_uncapped(self):
        instance = RemoteExecutor([("127.0.0.1", 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            executor, plan_jobs = resolve_executor(instance, jobs=64, n_cells=4, cpu_count=1)
        assert executor is instance
        assert plan_jobs == 64

    def test_remote_by_name_needs_addresses(self):
        with pytest.raises(ValidationError, match="worker addresses"):
            resolve_executor("remote", jobs=4, n_cells=4, cpu_count=8)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="unknown sweep executor"):
            resolve_executor("cloud", jobs=1, n_cells=1, cpu_count=1)

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(ValidationError, match="jobs"):
            resolve_executor(None, jobs=0, n_cells=1, cpu_count=1)


class TestJobsCapWarning:
    @pytest.fixture(autouse=True)
    def _reset_warned(self, monkeypatch):
        monkeypatch.setattr(executors_module, "_JOBS_CAP_WARNED", False)

    def test_warns_once_with_effective_count(self):
        with pytest.warns(RuntimeWarning, match=r"jobs=8 exceeds this host's 2 CPU\(s\)"):
            executor, plan_jobs = resolve_executor(
                "local-pool", jobs=8, n_cells=4, cpu_count=2
            )
        assert executor.jobs == 2 and plan_jobs == 8
        # The cap is a property of the host: later sweeps stay quiet.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolve_executor("local-pool", jobs=8, n_cells=4, cpu_count=2)

    def test_no_warning_when_under_cap(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolve_executor("local-pool", jobs=2, n_cells=4, cpu_count=4)

    def test_warning_points_at_remote_executor(self):
        with pytest.warns(RuntimeWarning, match="--remote-workers"):
            resolve_executor(None, jobs=8, n_cells=4, cpu_count=2)


class TestWireFormat:
    def test_parse_address_host_port_string(self):
        assert _parse_address("worker-3.lab:9100") == ("worker-3.lab", 9100)

    def test_parse_address_pair(self):
        assert _parse_address(("10.0.0.7", 9100)) == ("10.0.0.7", 9100)

    def test_parse_address_last_colon_wins(self):
        assert _parse_address("::1:9100") == ("::1", 9100)

    def test_parse_address_rejects_missing_port(self):
        with pytest.raises(ValidationError, match="HOST:PORT"):
            _parse_address("just-a-host")

    def test_parse_address_rejects_bad_port(self):
        with pytest.raises(ValidationError, match="non-integer port"):
            _parse_address("host:http")

    def test_framing_roundtrips_arbitrary_payloads(self):
        left, right = socket.socketpair()
        try:
            message = {"op": "batch", "values": np.arange(5.0), "nested": {"a": (1, 2)}}
            _send_message(left, message)
            received = _recv_message(right)
            assert received["op"] == "batch"
            np.testing.assert_array_equal(received["values"], message["values"])
        finally:
            left.close()
            right.close()

    def test_truncated_frame_raises_eof(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00\x00\x00\x00\x00\x00\x10partial")
            left.close()
            with pytest.raises(EOFError):
                _recv_message(right)
        finally:
            right.close()


def _start_worker(max_connections=1):
    """Spawn ``run_sweep_worker`` in a thread; return (thread, "host:port")."""
    output = io.StringIO()
    thread = threading.Thread(
        target=run_sweep_worker,
        kwargs=dict(port=0, max_connections=max_connections, output=output),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        match = re.search(r"listening on ([0-9.]+):(\d+)", output.getvalue())
        if match:
            return thread, f"{match.group(1)}:{match.group(2)}"
        time.sleep(0.01)
    raise RuntimeError("sweep worker did not announce its port")


class TestRemoteExecutorFailures:
    def test_unreachable_worker_raises_executor_error(self):
        # Bind-then-close guarantees a port with nothing listening on it.
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        executor = RemoteExecutor([("127.0.0.1", port)], connect_timeout=2.0)
        cells = [Scenario(dataset="geant", prior="gravity", **SMALL)]
        with pytest.raises(ExecutorError, match="unreachable"):
            ScenarioRunner().run_cells(cells, executor=executor)

    def test_protocol_mismatch_raises_executor_error(self):
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def impostor():
            conn, _ = server.accept()
            with conn:
                _recv_message(conn)  # the ping
                _send_message(conn, {"ok": True, "protocol": SWEEP_WORKER_PROTOCOL + 1})

        thread = threading.Thread(target=impostor, daemon=True)
        thread.start()
        try:
            executor = RemoteExecutor([("127.0.0.1", port)], connect_timeout=2.0)
            cells = [Scenario(dataset="geant", prior="gravity", **SMALL)]
            with pytest.raises(ExecutorError, match="protocol"):
                ScenarioRunner().run_cells(cells, executor=executor)
        finally:
            thread.join(timeout=5)
            server.close()

    def test_no_addresses_rejected(self):
        with pytest.raises(ValidationError, match="at least one worker"):
            RemoteExecutor([])


class TestRemoteLoopback:
    def test_two_workers_match_serial_bitwise_on_spilled_streamed_grid(self, tmp_path):
        kwargs = dict(
            priors=("stable_fp", "gravity"),
            datasets=("geant",),
            base=dict(SMALL),
            stream=True,
            n_weeks=2,
            spill_dir=str(tmp_path / "spill"),
        )
        serial = ScenarioRunner().sweep(jobs=1, executor="in-process", **kwargs)
        workers = [_start_worker(max_connections=1) for _ in range(2)]
        executor = RemoteExecutor([address for _, address in workers])
        remote = ScenarioRunner().sweep(jobs=4, executor=executor, **kwargs)
        for thread, _ in workers:
            thread.join(timeout=10)
        assert not serial.failures and not remote.failures
        assert len(remote.results) == len(serial.results) == 2
        assert remote.timing["executor"] == "remote"
        for serial_cell, remote_cell in zip(serial.results, remote.results):
            assert serial_cell.scenario == remote_cell.scenario
            # Spilled handles came back over the wire as paths into the
            # shared spill directory; loading them must reproduce the serial
            # arrays exactly.
            assert isinstance(remote_cell.errors, SpilledSeries)
            np.testing.assert_array_equal(
                np.asarray(serial_cell.errors), np.asarray(remote_cell.errors)
            )
            np.testing.assert_array_equal(
                np.asarray(serial_cell.prior_errors), np.asarray(remote_cell.prior_errors)
            )


def _overlapping_cells(n_targets=3, *, stream=True):
    """Overlapping-window grid: one calibration week, ``n_targets`` targets."""
    return [
        Scenario(
            dataset="geant",
            prior="stable_fp",
            stream=stream,
            calibration_week=0,
            target_week=week,
            n_weeks=n_targets + 1,
            **SMALL,
        )
        for week in range(1, n_targets + 1)
    ]


class TestFitMemoisation:
    @pytest.fixture
    def fit_calls(self, monkeypatch):
        from repro.core import streaming as streaming_module

        calls: list[int] = []
        original = streaming_module.fit_stable_fp_streaming

        def counting(source, **kwargs):
            calls.append(source.n_bins)
            return original(source, **kwargs)

        monkeypatch.setattr(streaming_module, "fit_stable_fp_streaming", counting)
        return calls

    def test_shared_state_fit_builds_once_per_key(self):
        shared = SweepSharedState()
        built = []
        assert shared.fit(("k", 1), lambda: built.append(1) or "a") == "a"
        assert shared.fit(("k", 1), lambda: built.append(2) or "b") == "a"
        assert shared.fit(("k", 2), lambda: built.append(3) or "c") == "c"
        assert built == [1, 3]
        assert shared.fit_builds == 2

    def test_overlapping_windows_fit_once_when_memoised(self, fit_calls):
        cells = _overlapping_cells(3)
        result = ScenarioRunner(fit_memo=True).run_cells(
            cells, executor=InProcessExecutor()
        )
        assert not result.failures
        # All three cells calibrate on week 0 of the same plan: one fit.
        assert len(fit_calls) == 1

    def test_materialised_overlapping_windows_share_the_memo(self, fit_calls):
        # Materialised cells run the same body, so they share fits too; the
        # memoised results equal a fresh per-cell fit bit for bit.
        cells = _overlapping_cells(3, stream=False)
        memoised = ScenarioRunner(fit_memo=True).run_cells(
            cells, executor=InProcessExecutor()
        )
        assert not memoised.failures
        assert len(fit_calls) == 1
        fresh = ScenarioRunner(fit_memo=False).run_cells(
            cells, executor=InProcessExecutor()
        )
        assert len(fit_calls) == 1 + 3
        for left, right in zip(memoised.results, fresh.results):
            np.testing.assert_array_equal(left.errors, right.errors)
            np.testing.assert_array_equal(left.estimate.values, right.estimate.values)

    def test_overlapping_windows_refit_when_memo_disabled(self, fit_calls):
        cells = _overlapping_cells(3)
        result = ScenarioRunner(fit_memo=False).run_cells(
            cells, executor=InProcessExecutor()
        )
        assert not result.failures
        assert len(fit_calls) == 3

    def test_memoisation_changes_no_output_bit(self):
        cells = _overlapping_cells(3)
        memoised = ScenarioRunner(fit_memo=True).run_cells(
            cells, executor=InProcessExecutor()
        )
        fresh = ScenarioRunner(fit_memo=False).run_cells(
            cells, executor=InProcessExecutor()
        )
        assert not memoised.failures and not fresh.failures
        for left, right in zip(memoised.results, fresh.results):
            np.testing.assert_array_equal(left.errors, right.errors)
            np.testing.assert_array_equal(left.prior_errors, right.prior_errors)

    def test_memoisation_leaves_synthesis_replay_untouched(self, monkeypatch):
        # The memo must only skip *fit* recomputation — the synthesis RNG
        # draw pattern (replayed spans per read) has to stay identical, or
        # the determinism contract between executors breaks.
        from repro.synthesis import generator as generator_module
        from repro.synthesis.datasets import _open_stream_core

        spans: list[tuple[int, int]] = []
        original = generator_module.GenerationPlan._replay_span

        def counting(self, rng, start, stop):
            spans.append((start, stop))
            return original(self, rng, start, stop)

        monkeypatch.setattr(generator_module.GenerationPlan, "_replay_span", counting)

        cells = _overlapping_cells(1)  # one cell: memo on/off do identical work
        # Both runs start cold: a cached generation plan would otherwise let
        # the second run skip replays the first had to make.
        _open_stream_core.cache_clear()
        ScenarioRunner(fit_memo=True).run_cells(cells, executor=InProcessExecutor())
        memo_spans = list(spans)
        spans.clear()
        _open_stream_core.cache_clear()
        ScenarioRunner(fit_memo=False).run_cells(cells, executor=InProcessExecutor())
        assert spans == memo_spans


class TestExecutorSelectionEndToEnd:
    def test_sweep_reports_executor_in_timing(self):
        result = ScenarioRunner().sweep(
            priors=("gravity",), datasets=("geant",), base=dict(SMALL), jobs=1
        )
        assert result.timing["executor"] == "in-process"

    def test_forced_local_pool_matches_in_process(self, monkeypatch):
        monkeypatch.setattr(executors_module, "_JOBS_CAP_WARNED", True)
        kwargs = dict(
            priors=("stable_f", "gravity"), datasets=("geant",), base=dict(SMALL)
        )
        serial = ScenarioRunner().sweep(jobs=1, **kwargs)
        pooled = ScenarioRunner().sweep(jobs=2, executor="local-pool", **kwargs)
        assert pooled.timing["executor"] == "local-pool"
        for left, right in zip(serial.results, pooled.results):
            np.testing.assert_array_equal(left.errors, right.errors)
