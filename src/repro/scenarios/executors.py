"""Sweep executors: where the cells of a grid actually run.

:meth:`ScenarioRunner.sweep` builds the grid; *executors* decide where its
cells execute.  Three implementations cover the scaling ladder:

* :class:`InProcessExecutor` — every cell runs serially in the calling
  process, sharing one :class:`~repro.scenarios.runner.SweepSharedState`.
  The reference path: all other executors must match it bit for bit.
* :class:`LocalPoolExecutor` — local worker processes, each running the
  ``repro sweep-worker`` loop on one end of a :func:`socket.socketpair`
  (no listening port).
* :class:`RemoteExecutor` — ``repro sweep-worker`` daemons over TCP.

Both out-of-process executors share one driver and one wire protocol.
Dataset columns are synthesized (or planned) once in the parent and the
cells run in column batches; whichever worker is free pulls the next batch
(there is no round-robin assignment), and a column is sent to a worker the
first time one of its batches needs it.  Streaming columns travel as their
generation-plan state (:meth:`StreamingDataset.export_state`), in-memory
columns as pickled week cubes; workers run the cells and send the per-cell
results back.  Remote cells that spill expect ``spill_dir`` to be a
directory *shared* between the parent and every worker (NFS or equivalent):
workers write ``.npz`` shards there and return lazy
:class:`~repro.scenarios.spill.SpilledSeries` handles that the parent reads
from the same paths.

Every executor preserves the sweep's determinism contract: cells carry
explicit seeds, batches are formed by the same column-grouping rule, and
results are reassembled in grid order, so the choice of executor (and the
number or speed of its workers) cannot change a single bit of the output.

**Security note:** the worker protocol exchanges pickled Python objects
over plain TCP with no authentication.  Run ``repro sweep-worker`` only on
a trusted, private network (loopback, a lab LAN, a VPC) — never expose the
port to untrusted peers, since unpickling attacker-controlled bytes runs
arbitrary code.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import pickle
import re
import socket
import struct
import subprocess
import sys
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ExecutorError, ValidationError
from repro.obs import get_metrics, get_tracer, tracer_from_context, use_tracer, worker_context

__all__ = [
    "SweepExecutor",
    "InProcessExecutor",
    "LocalPoolExecutor",
    "RemoteExecutor",
    "ResultSink",
    "SweepPlan",
    "SpawnedWorkers",
    "resolve_executor",
    "run_sweep_worker",
    "SWEEP_WORKER_PROTOCOL",
]

# Bumped whenever the wire messages change shape; client and daemon must
# agree exactly (there is no cross-version compatibility machinery).
# 2: batch requests carry the caller's trace context ("trace", "worker"),
#    batch replies carry the worker's span events ("trace_events").
SWEEP_WORKER_PROTOCOL = 2


class ResultSink:
    """Protocol: consume sweep cell results the moment they complete.

    A sink turns the sweep's result channel from *accumulate in the
    driver* into *stream to the consumer*: executors deliver each cell
    through :meth:`SweepPlan.emit` as it finishes (in completion order,
    not grid order), the sink reduces or persists it, and the driver keeps
    none of it — :class:`~repro.scenarios.runner.SweepResult.results`
    stays empty.  Delivery is serialised under the plan lock, so sinks
    need no locking of their own.  :meth:`finish` runs once after every
    cell is delivered.
    """

    def cell(self, index: int, scenario, result, message: str | None) -> None:
        raise NotImplementedError

    def finish(self):  # pragma: no cover - optional hook
        return None


@dataclass
class SweepPlan:
    """One sweep's work, handed from the runner to its executor.

    ``cells`` are already week-pinned and in grid order; ``jobs`` is the
    *requested* worker count before any local CPU capping (remote executors
    may honour widths a single host cannot).  ``sink`` is the optional
    :class:`ResultSink`; executors must deliver every cell exactly once
    through :meth:`emit`, which either forwards the result to the sink
    (streaming mode — the plan retains only the message) or records it for
    :meth:`outcomes` (accumulate mode, the historical behaviour).
    """

    runner: object
    cells: list
    jobs: int = 1
    sink: ResultSink | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)
    _outcomes: list = field(default_factory=list, init=False, repr=False)
    _delivered: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        self._outcomes = [None] * len(self.cells)
        self._delivered = [False] * len(self.cells)

    def emit(self, index: int, result, message: str | None) -> None:
        """Deliver one completed cell (thread-safe, exactly once per cell)."""
        with get_tracer().span("emit", index=index, sink=self.sink is not None):
            with self._lock:
                if self._delivered[index]:
                    raise ExecutorError(
                        f"cell {index} was delivered twice — executor bug"
                    )
                self._delivered[index] = True
                if self.sink is not None:
                    self.sink.cell(index, self.cells[index], result, message)
                    self._outcomes[index] = (None, message)
                else:
                    self._outcomes[index] = (result, message)

    def pending(self) -> list:
        """Indices of cells not yet delivered."""
        with self._lock:
            return [at for at, done in enumerate(self._delivered) if not done]

    def outcomes(self) -> list[tuple]:
        """The per-cell ``(result, message)`` list, once all cells delivered."""
        missing = self.pending()
        if missing:
            raise ExecutorError(f"executor delivered no outcome for cells {missing}")
        return list(self._outcomes)


class SweepExecutor:
    """Protocol: turn a :class:`SweepPlan` into per-cell outcomes.

    ``execute`` delivers every cell through :meth:`SweepPlan.emit` as it
    completes and returns ``plan.outcomes()`` — one ``(result, message)``
    pair per cell, in cell order, where ``message`` is ``None`` for a
    success and the error string for a failed cell, exactly like the
    serial path produces.  (When the plan carries a sink, the emitted
    results stream to it instead and the returned pairs hold ``None``
    results.)
    """

    name = "executor"

    def execute(self, plan: SweepPlan) -> list[tuple]:
        raise NotImplementedError


class InProcessExecutor(SweepExecutor):
    """Run every cell serially in the calling process (the reference path)."""

    name = "in-process"

    def execute(self, plan: SweepPlan) -> list[tuple]:
        from repro.scenarios.runner import SweepSharedState

        shared = SweepSharedState()
        for index, cell in enumerate(plan.cells):
            result, message = plan.runner._run_cell_guarded(cell, shared=shared)
            plan.emit(index, result, message)
        return plan.outcomes()


class LocalPoolExecutor(SweepExecutor):
    """Run column batches in local sweep-worker processes over socket pairs.

    Starts ``min(jobs, batches)`` processes with the default
    :mod:`multiprocessing` context; each serves the ``repro sweep-worker``
    loop on one end of a :func:`socket.socketpair`, driven exactly like a
    remote daemon.  When the pool cannot start or a worker fails, the cells
    no batch delivered run serially in this process with a
    ``RuntimeWarning``, like ``--jobs`` always has.
    """

    name = "local-pool"

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValidationError("LocalPoolExecutor needs jobs >= 1")
        self.jobs = int(jobs)

    def execute(self, plan: SweepPlan) -> list[tuple]:
        from repro.scenarios.runner import ScenarioRunner, SweepSharedState

        items, datasets = plan.runner._prepare_sweep_items(plan.cells)
        work = _BatchQueue(plan, ScenarioRunner._column_batches(items, self.jobs), datasets)
        processes, sockets = [], []
        try:
            processes, sockets = _start_pool(min(self.jobs, len(work)))
            _join_all(
                threading.Thread(
                    target=_drive_local, args=(work, sock, f"pool-{process.pid}")
                )
                for process, sock in zip(processes, sockets)
            )
        except (OSError, RuntimeError) as exc:
            work.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            _stop_pool(processes, sockets)
        missing = plan.pending()
        if missing:
            warnings.warn(
                f"parallel sweep unavailable ({'; '.join(work.errors)}); "
                f"falling back to a serial run of {len(missing)} cell(s)",
                RuntimeWarning,
                stacklevel=2,
            )
            shared = SweepSharedState()
            for index in missing:
                result, message = plan.runner._run_cell_guarded(
                    plan.cells[index], shared=shared
                )
                plan.emit(index, result, message)
        return plan.outcomes()


def resolve_executor(spec, *, jobs: int | None, n_cells: int, cpu_count: int | None):
    """Resolve a user-facing executor spec into ``(executor, plan_jobs)``.

    ``spec`` is an executor instance (used as-is), a name (``"auto"``,
    ``"in-process"``, ``"local-pool"``) or ``None`` (same as ``"auto"``).
    ``jobs=None`` means one per CPU.  ``auto`` keeps the historical
    semantics: cap the pool at the host's CPU count — now warning once
    when the cap bites — and collapse to the in-process path when only one
    worker could run or the grid has a single cell.  ``plan_jobs`` is the
    uncapped request, which remote executors may use to split batches
    wider than this host's CPUs.
    """
    requested = (cpu_count or 1) if jobs is None else int(jobs)
    if requested < 1:
        raise ValidationError("jobs must be >= 1 (or None for one per CPU)")
    if isinstance(spec, SweepExecutor):
        return spec, requested
    name = "auto" if spec is None else str(spec)
    if name == "remote":
        raise ValidationError(
            "the remote executor needs worker addresses; pass a "
            "RemoteExecutor([...]) instance (CLI: --remote-workers HOST:PORT ...)"
        )
    if name in ("in-process", "serial"):
        return InProcessExecutor(), requested
    capped = max(1, min(requested, cpu_count or requested))
    if capped < requested:
        _warn_jobs_capped(requested, capped, cpu_count)
    if name in ("local", "local-pool"):
        return LocalPoolExecutor(capped), requested
    if name == "auto":
        if capped > 1 and n_cells > 1:
            return LocalPoolExecutor(capped), requested
        return InProcessExecutor(), requested
    raise ValidationError(
        f"unknown sweep executor {spec!r}; valid executors: auto, in-process, "
        "local-pool, or a RemoteExecutor instance"
    )


# Emitted at most once per process: sweeps are often run in loops, and the
# cap is a property of the host, not of any one call.
_JOBS_CAP_WARNED = False


def _warn_jobs_capped(requested: int, capped: int, cpu_count: int | None) -> None:
    global _JOBS_CAP_WARNED
    if _JOBS_CAP_WARNED:
        return
    _JOBS_CAP_WARNED = True
    warnings.warn(
        f"sweep jobs={requested} exceeds this host's {cpu_count} CPU(s); "
        f"running {capped} local worker(s).  Workers beyond the CPU count buy "
        "no local concurrency — use the remote executor (--executor remote "
        "--remote-workers HOST:PORT ...) to go wider across machines",
        RuntimeWarning,
        stacklevel=4,
    )


# ---------------------------------------------------------------------------
# the sweep-worker wire protocol (remote daemons and local pool workers)
# ---------------------------------------------------------------------------
#
# Frames are length-prefixed pickles: an 8-byte big-endian unsigned length
# followed by that many pickle bytes.  The client speaks a strict
# request/response sequence per connection:
#
#   {"op": "ping"}                                  -> {"ok", "protocol"}
#   {"op": "dataset", "key", "kind", "payload"}      -> {"ok"[, "error"]}
#   {"op": "batch", "baseline", "fit_cache_bytes",
#    "fit_memo", "items", "trace", "worker"}          -> {"ok", "outcomes",
#                                                        "peak_rss_mb",
#                                                        "trace_events"}
#   {"op": "shutdown"}                               -> {"ok"}  (daemon exits)
#
# ``kind`` is "plan" (a StreamingDatasetState with arrays inline) or "cube"
# (a pickled materialised dataset); ``items`` is a column batch of
# ``(index, scenario, dataset_key)`` tuples and ``outcomes`` the matching
# ``(index, result, message)`` list.  One connection serves one sweep: the
# daemon's dataset cache and SweepSharedState live exactly as long as the
# connection, so nothing leaks between sweeps (or clients).


def _send_message(sock: socket.socket, message: dict) -> None:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(struct.pack("!Q", len(payload)) + payload)


def _recv_exact(sock: socket.socket, n_bytes: int) -> bytes:
    chunks = []
    remaining = n_bytes
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise EOFError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_message(sock: socket.socket) -> dict:
    (length,) = struct.unpack("!Q", _recv_exact(sock, 8))
    return pickle.loads(_recv_exact(sock, length))


def _roundtrip(sock: socket.socket, message: dict) -> dict:
    _send_message(sock, message)
    return _recv_message(sock)


def _parse_address(worker) -> tuple[str, int]:
    """Accept ``"host:port"`` strings or ``(host, port)`` pairs."""
    if isinstance(worker, str):
        host, separator, port = worker.rpartition(":")
        if not separator or not host:
            raise ValidationError(
                f"worker address {worker!r} must look like HOST:PORT"
            )
        try:
            return host, int(port)
        except ValueError:
            raise ValidationError(
                f"worker address {worker!r} has a non-integer port"
            ) from None
    host, port = worker
    return str(host), int(port)


class _BatchQueue:
    """One sweep's column batches, pulled by whichever connection is free.

    The driver behind both out-of-process executors: :meth:`drive` feeds
    one connected sweep-worker socket until the queue is empty, sending each
    dataset column the first time a batch on that connection needs it and
    emitting every cell to the plan as its batch lands.  A failed connection
    records its error and stops; its batch stays undelivered on the plan.
    """

    def __init__(self, plan: SweepPlan, batches: list, datasets: dict):
        self.plan = plan
        self.datasets = datasets
        self.errors: list[str] = []
        self._batches = collections.deque(batches)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._batches)

    def _next_batch(self):
        with self._lock:
            return self._batches.popleft() if self._batches else None

    def fail(self, label: str, message: str, *, span, reason: str) -> None:
        # Every failure path converges here: the error lands in the shared
        # list, on the still-open worker span (so no span leaks open or
        # unattributed), and on the failure counter.
        with self._lock:
            self.errors.append(message)
        span.set(error=message)
        get_metrics().counter(
            "repro_executor_failures_total", worker=label, reason=reason
        ).inc()

    def drive(self, sock: socket.socket, label: str, span) -> None:
        tracer = get_tracer()
        runner = self.plan.runner
        sent: set = set()
        try:
            hello = _roundtrip(sock, {"op": "ping"})
            if hello.get("protocol") != SWEEP_WORKER_PROTOCOL:
                self.fail(
                    label,
                    f"worker {label} speaks protocol "
                    f"{hello.get('protocol')!r}, expected {SWEEP_WORKER_PROTOCOL}",
                    span=span,
                    reason="protocol",
                )
                return
            while (batch := self._next_batch()) is not None:
                needed = {key for (_, _, key) in batch if key is not None} - sent
                for key in sorted(needed, key=repr):
                    data = self.datasets[key]
                    if hasattr(data, "export_state"):
                        kind, payload = "plan", data.export_state()
                    else:
                        kind, payload = "cube", data
                    reply = _roundtrip(
                        sock, {"op": "dataset", "key": key, "kind": kind, "payload": payload}
                    )
                    if not reply.get("ok"):
                        self.fail(
                            label,
                            f"worker {label} rejected dataset {key!r}: "
                            f"{reply.get('error', 'unknown error')}",
                            span=span,
                            reason="dataset",
                        )
                        return
                    sent.add(key)
                reply = _roundtrip(
                    sock,
                    {
                        "op": "batch",
                        "baseline": runner._baseline,
                        "fit_cache_bytes": runner._fit_cache_bytes,
                        "fit_memo": runner._fit_memo,
                        "items": batch,
                        "trace": worker_context(tracer),
                        "worker": label,
                    },
                )
                if not reply.get("ok"):
                    self.fail(
                        label,
                        f"worker {label} failed a batch: "
                        f"{reply.get('error', 'unknown error')}",
                        span=span,
                        reason="batch",
                    )
                    return
                # The worker ran its cells under a capture tracer seeded from
                # this thread's context; merge its spans here so the driver's
                # trace file tells the whole distributed story.
                tracer.ingest(reply.get("trace_events"))
                if reply.get("peak_rss_mb") is not None:
                    get_metrics().gauge(
                        "repro_executor_worker_rss_mb", worker=label
                    ).set(reply["peak_rss_mb"])
                # Stream each cell to the plan as its batch lands, instead of
                # accumulating the whole grid's results in this driver.
                for index, result, message in reply["outcomes"]:
                    self.plan.emit(index, result, message)
        except (OSError, EOFError, pickle.PickleError, struct.error) as exc:
            self.fail(
                label,
                f"worker {label} failed ({type(exc).__name__}: {exc})",
                span=span,
                reason="connection",
            )


class RemoteExecutor(SweepExecutor):
    """Ship column batches to ``repro sweep-worker`` daemons over TCP.

    Parameters
    ----------
    workers:
        Daemon addresses (``"host:port"`` strings or ``(host, port)``
        pairs).  Each daemon gets one connection and pulls the next column
        batch whenever it is free, so its per-connection
        :class:`~repro.scenarios.runner.SweepSharedState` (measurement
        systems, baselines, memoised streamed fits) is reused across every
        batch it runs.
    connect_timeout:
        Seconds to wait for each daemon's TCP accept.  Batch execution
        itself is not timed out (month-scale cells are expected to be
        slow).

    Unlike the local pool there is **no** silent serial fallback: an
    unreachable or failing worker raises :class:`ExecutorError`, because
    degrading a fleet-sized sweep to one serial host behind the caller's
    back would look like success while hiding the operational failure.
    """

    name = "remote"

    def __init__(self, workers, *, connect_timeout: float = 30.0):
        addresses = [_parse_address(worker) for worker in workers]
        if not addresses:
            raise ValidationError("RemoteExecutor needs at least one worker address")
        self._addresses = addresses
        self._connect_timeout = float(connect_timeout)

    def execute(self, plan: SweepPlan) -> list[tuple]:
        from repro.scenarios.runner import ScenarioRunner

        items, datasets = plan.runner._prepare_sweep_items(plan.cells)
        # Split for the full requested width — remote workers are not bound
        # by this host's CPU count — but never below one batch per worker.
        split = max(int(plan.jobs or 1), len(self._addresses))
        work = _BatchQueue(plan, ScenarioRunner._column_batches(items, split), datasets)
        _join_all(
            threading.Thread(
                target=self._connect_and_drive,
                args=(address, work),
                name=f"sweep-remote-{address[0]}:{address[1]}",
            )
            for address in self._addresses[: len(work)]
        )
        if work.errors:
            raise ExecutorError(
                "remote sweep failed: " + "; ".join(sorted(work.errors))
            )
        missing = plan.pending()
        if missing:
            raise ExecutorError(
                f"remote sweep returned no outcome for cells {missing}; "
                "client and workers are likely running different versions "
                f"(protocol {SWEEP_WORKER_PROTOCOL})"
            )
        return plan.outcomes()

    def _connect_and_drive(self, address, work: _BatchQueue) -> None:
        label = f"{address[0]}:{address[1]}"
        with get_tracer().span("remote_worker", worker=label) as span:
            try:
                sock = socket.create_connection(address, timeout=self._connect_timeout)
            except OSError as exc:
                work.fail(
                    label, f"worker {label} unreachable ({exc})", span=span, reason="unreachable"
                )
                return
            with sock:
                # Cells can legitimately run for minutes; only the connect is
                # bounded above.
                sock.settimeout(None)
                work.drive(sock, label, span)


# ---------------------------------------------------------------------------
# the worker daemon (``repro sweep-worker``)
# ---------------------------------------------------------------------------

def _rebuild_dataset(kind: str, payload):
    if kind == "plan":
        from repro.synthesis.datasets import streaming_dataset_from_state

        return streaming_dataset_from_state(payload)
    if kind == "cube":
        return payload
    raise ValidationError(f"unknown dataset kind {kind!r}")


def _serve_connection(conn: socket.socket) -> bool:
    """Serve one client connection; returns True when shutdown was requested.

    The dataset cache and shared state are connection-scoped: the rebuilt
    plans stay alive (and keep their ids stable, which the shared-state
    keys embed) for exactly one sweep, then everything is dropped.
    """
    from repro.obs import peak_rss_mb
    from repro.scenarios.runner import ScenarioRunner, SweepSharedState

    datasets: dict[tuple, object] = {}
    shared = SweepSharedState()
    while True:
        try:
            message = _recv_message(conn)
        except EOFError:
            return False
        op = message.get("op")
        if op == "ping":
            _send_message(conn, {"ok": True, "protocol": SWEEP_WORKER_PROTOCOL})
        elif op == "dataset":
            try:
                datasets[message["key"]] = _rebuild_dataset(
                    message["kind"], message["payload"]
                )
                _send_message(conn, {"ok": True})
            except Exception as exc:  # noqa: BLE001 - reported to the client
                _send_message(
                    conn, {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                )
        elif op == "batch":
            try:
                runner = ScenarioRunner(
                    baseline_prior=message["baseline"],
                    fit_cache_bytes=message["fit_cache_bytes"],
                    fit_memo=message.get("fit_memo", True),
                )
                # A traced client ships its span context; run the cells under
                # a capture tracer so their spans (attributed to this worker)
                # travel back in the reply and merge into the client's trace.
                tracer = tracer_from_context(
                    message.get("trace"), worker=message.get("worker") or "sweep-worker"
                )
                outcomes = []
                with use_tracer(tracer):
                    for index, cell, dataset_key in message["items"]:
                        dataset = (
                            datasets.get(dataset_key) if dataset_key is not None else None
                        )
                        result, error = runner._run_cell_guarded(
                            cell, dataset=dataset, shared=shared
                        )
                        outcomes.append((index, result, error))
                _send_message(
                    conn,
                    {
                        "ok": True,
                        "outcomes": outcomes,
                        "peak_rss_mb": peak_rss_mb(),
                        "trace_events": tracer.drain(),
                    },
                )
            except Exception as exc:  # noqa: BLE001 - reported to the client
                _send_message(
                    conn, {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                )
        elif op == "shutdown":
            _send_message(conn, {"ok": True})
            return True
        else:
            _send_message(conn, {"ok": False, "error": f"unknown op {op!r}"})


def run_sweep_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_connections: int | None = None,
    output=None,
) -> int:
    """Run a sweep-worker daemon until shutdown (the ``repro sweep-worker`` loop).

    Binds ``host:port`` (``port=0`` picks an ephemeral port) and announces
    the bound address on ``output`` as ``sweep-worker listening on
    HOST:PORT`` so launchers can parse it.  Connections are served one at a
    time — a worker daemon is one execution slot; run several daemons for
    parallelism — and the daemon exits after ``max_connections`` clients or
    a ``shutdown`` request.  See the module docstring for the trusted-
    network requirement.
    """
    stream = output if output is not None else sys.stdout
    server = socket.create_server((host, port), backlog=8)
    bound_host, bound_port = server.getsockname()[:2]
    print(f"sweep-worker listening on {bound_host}:{bound_port}", file=stream, flush=True)
    served = 0
    try:
        while True:
            conn, _ = server.accept()
            try:
                shutdown = _serve_connection(conn)
            finally:
                conn.close()
            if shutdown:
                return 0
            served += 1
            if max_connections is not None and served >= max_connections:
                return 0
    finally:
        server.close()


# ---------------------------------------------------------------------------
# local worker processes (``LocalPoolExecutor``)
# ---------------------------------------------------------------------------

def _start_pool(count: int) -> tuple[list, list[socket.socket]]:
    """Start ``count`` local sweep workers; returns ``(processes, sockets)``.

    Every child starts before any driver thread does.  The parent closes its
    copy of each child's end right after the start, so a dying child's EOF
    reaches the driver; each child closes the parent-side ends it inherited,
    so closing the parent's end reaches the child.
    """
    context = multiprocessing.get_context()
    processes, sockets = [], []
    try:
        for _ in range(count):
            ours, theirs = socket.socketpair()
            sockets.append(ours)
            with theirs:
                process = context.Process(
                    target=_pool_worker, args=(theirs, list(sockets)), daemon=True
                )
                process.start()
            processes.append(process)
    except BaseException:
        _stop_pool(processes, sockets)
        raise
    return processes, sockets


def _pool_worker(conn: socket.socket, inherited: list[socket.socket]) -> None:
    """Body of one local pool process: serve one sweep over ``conn``."""
    for sock in inherited:
        sock.close()
    with conn:
        _serve_connection(conn)


def _stop_pool(processes, sockets) -> None:
    """Close the parent's ends (the workers see EOF and exit), then reap."""
    for sock in sockets:
        sock.close()
    for process in processes:
        process.join(10.0)
        if process.is_alive():  # pragma: no cover - a worker ignoring EOF
            process.terminate()
            process.join()


def _drive_local(work: _BatchQueue, sock: socket.socket, label: str) -> None:
    with get_tracer().span("pool_worker", worker=label) as span:
        work.drive(sock, label, span)


def _join_all(threads) -> None:
    """Start every thread, then join every one that started."""
    started = []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
    finally:
        for thread in started:
            thread.join()


# ---------------------------------------------------------------------------
# loopback worker launching (``--remote-workers spawn:N``)
# ---------------------------------------------------------------------------

_LISTENING_LINE = re.compile(r"listening on ([0-9.]+:\d+)")


class SpawnedWorkers:
    """N loopback ``repro sweep-worker`` subprocesses, torn down on close.

    The launch helper behind ``--remote-workers spawn:N``: each worker
    binds an ephemeral loopback port and announces it on stdout; the
    parsed addresses are ready for :class:`RemoteExecutor`.  Workers serve
    one connection (one sweep) and exit on their own; :meth:`close` waits
    briefly, then terminates stragglers (e.g. workers the sweep never
    connected to).  Loopback only — multi-host fleets manage their own
    daemon lifecycle.

    Usable as a context manager::

        with SpawnedWorkers(4) as workers:
            runner.sweep(..., executor=RemoteExecutor(workers.addresses))
    """

    def __init__(self, count: int, *, startup_timeout: float = 30.0):
        if count < 1:
            raise ValidationError("spawn:N needs N >= 1 workers")
        self._startup_timeout = float(startup_timeout)
        self._processes: list[subprocess.Popen] = []
        self.addresses: list[str] = []
        # The workers must import the same repro package as this process,
        # whether it came from an install or a PYTHONPATH=src checkout.
        package_root = str(Path(__file__).resolve().parent.parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        try:
            for _ in range(int(count)):
                process = subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "sweep-worker",
                        "--port",
                        "0",
                        "--max-connections",
                        "1",
                    ],
                    stdout=subprocess.PIPE,
                    text=True,
                    env=env,
                )
                self._processes.append(process)
            for process in self._processes:
                self.addresses.append(self._read_address(process))
        except Exception:
            self.close()
            raise

    def _read_address(self, process: subprocess.Popen) -> str:
        """Parse the daemon's ``listening on HOST:PORT`` announcement."""
        holder: dict = {}

        def reader():
            holder["line"] = process.stdout.readline()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        thread.join(self._startup_timeout)
        line = holder.get("line", "")
        match = _LISTENING_LINE.search(line or "")
        if match is None:
            raise ExecutorError(
                f"spawned sweep-worker did not announce an address within "
                f"{self._startup_timeout:.0f}s (got {line!r})"
            )
        return match.group(1)

    def close(self, *, timeout: float = 10.0) -> None:
        """Reap every worker: brief grace for natural exit, then terminate.

        Workers that served their sweep exit on their own almost
        immediately; the terminate path is for workers the sweep never
        connected to (more workers than batches) or a failed launch.
        """
        for process in self._processes:
            try:
                process.wait(timeout=min(timeout, 2.0))
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=timeout)
                except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                    process.kill()
                    process.wait()
            if process.stdout is not None:
                process.stdout.close()
        self._processes = []

    def __enter__(self) -> "SpawnedWorkers":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.addresses)
