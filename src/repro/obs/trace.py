"""Nested-span tracing with cross-process context propagation.

Every traced region is a :class:`Span` used as a context manager::

    tracer = Tracer(path="trace.jsonl")
    with use_tracer(tracer):
        with get_tracer().span("sweep_cell", label="gravity/geant"):
            ...

Spans nest through a per-thread stack, so concurrently executing threads
(e.g. the :class:`~repro.scenarios.executors.RemoteExecutor` driver
threads) each build their own causal chain under the same trace.  A span
records its wall-clock start (``time.time()``) and a monotonic duration
(``time.perf_counter()``), closing into one JSONL event; an exception
escaping the ``with`` block closes the span with an ``error=`` attribute
instead of leaking it.

Cross-process propagation is a two-key dict, not a header format:
:func:`worker_context` captures ``{"trace": ..., "span": ...}`` at the
call site, ships inside the existing pool payload / wire message, and
:func:`tracer_from_context` builds a *capture-mode* tracer in the worker
whose spans parent onto the caller's span.  Workers return
``tracer.drain()`` with their reply and the caller ``ingest()``s the
events — one merged trace, no shared files, no clock coordination beyond
each host's ``time.time()``.

The ambient tracer (:func:`get_tracer`) defaults to the shared
:class:`NullTracer`, whose ``span()`` hands back a single reusable no-op
span — the disabled hot path is two attribute lookups and an empty
``with``.

A pipeline stage that also feeds a latency histogram is one
``with stage(name, histogram, **attrs) as timed:`` block instead of a
span plus its own clock (:class:`stage`).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager

__all__ = [
    "TRACE_ENV",
    "Span",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "start_tracing",
    "worker_context",
    "tracer_from_context",
    "stage",
]

# Environment opt-in: REPRO_TRACE=<path> traces any repro command.
TRACE_ENV = "REPRO_TRACE"


class Span:
    """One traced region; records a JSONL event when its ``with`` exits."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attrs", "_t0_wall", "_t0_perf")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = str(name)
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self.attrs = attrs

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span (last write per key wins)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.span_id, self.parent_id = self._tracer._push(self)
        self._t0_wall = time.time()
        self._t0_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0_perf
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        self._tracer._pop(self, duration)
        return False


class _NullSpan:
    """Reusable do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Installed as the ambient default so instrumentation sites never need
    an ``if tracing:`` guard — ``get_tracer().span(...)`` is always legal.
    """

    enabled = False
    worker = None

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def context(self) -> None:
        return None

    def ingest(self, events) -> None:
        pass

    def drain(self) -> list:
        return []

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class Tracer:
    """Collects spans as JSONL events, to a file or an in-memory buffer.

    Parameters
    ----------
    path:
        JSONL sink.  When ``None`` the tracer runs in *capture mode*,
        buffering events for :meth:`drain` — the worker-side half of
        cross-process propagation.
    worker:
        Label stamped on every event (``"driver"``, a pool pid, a remote
        ``host:port``); the trace summary and Chrome export group by it.
    context:
        A :func:`worker_context` dict from the parent process.  Adopts
        the parent's trace id, and root spans of this tracer parent onto
        the caller's active span instead of floating free.
    """

    enabled = True

    def __init__(self, path=None, *, worker: str = "driver", context: dict | None = None):
        if context:
            self.trace_id = str(context["trace"])
            self._root_parent = context.get("span")
        else:
            self.trace_id = uuid.uuid4().hex[:16]
            self._root_parent = None
        self.worker = str(worker)
        self.path = None if path is None else os.fspath(path)
        self._prefix = uuid.uuid4().hex[:6]
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._capture: list[dict] = []
        self._handle = None
        if self.path is not None:
            self._handle = open(self.path, "a", encoding="utf-8")
            self._emit(
                {
                    "kind": "trace_start",
                    "trace": self.trace_id,
                    "worker": self.worker,
                    "pid": os.getpid(),
                    "start_unix": time.time(),
                }
            )

    # -- span lifecycle ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def _push(self, span: Span) -> tuple[str, str | None]:
        stack = self._stack()
        parent = stack[-1].span_id if stack else self._root_parent
        stack.append(span)
        return f"{self._prefix}-{next(self._ids)}", parent

    def _pop(self, span: Span, duration: float) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - mis-nested exit, be lenient
            stack.remove(span)
        self._emit(
            {
                "kind": "span",
                "trace": self.trace_id,
                "span": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "worker": self.worker,
                "pid": os.getpid(),
                "start_unix": span._t0_wall,
                "duration_s": duration,
                "attrs": span.attrs,
            }
        )

    # -- event plumbing ------------------------------------------------------

    def _emit(self, event: dict) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.write(json.dumps(event) + "\n")
            else:
                self._capture.append(event)

    def ingest(self, events) -> None:
        """Absorb events a worker shipped back (already fully formed)."""
        for event in events or ():
            self._emit(dict(event))

    def drain(self) -> list[dict]:
        """Return and clear the captured events (capture mode only)."""
        with self._lock:
            events, self._capture = self._capture, []
        return events

    def context(self) -> dict:
        """Propagation context for the current thread's active span."""
        stack = self._stack()
        return {
            "trace": self.trace_id,
            "span": stack[-1].span_id if stack else self._root_parent,
        }

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


_NULL_TRACER = NullTracer()
_active: NullTracer | Tracer = _NULL_TRACER
_active_lock = threading.Lock()


def get_tracer():
    """The ambient tracer (the shared :class:`NullTracer` by default)."""
    return _active


def set_tracer(tracer):
    """Install ``tracer`` as ambient; ``None`` restores the null tracer."""
    global _active
    with _active_lock:
        _active = tracer if tracer is not None else _NULL_TRACER
    return _active


@contextmanager
def use_tracer(tracer):
    """Scope the ambient tracer to a ``with`` block, then restore."""
    previous = _active
    set_tracer(tracer)
    try:
        yield get_tracer()
    finally:
        set_tracer(previous)


def start_tracing(path, *, worker: str = "driver") -> Tracer:
    """Open a file-backed tracer and install it as ambient."""
    tracer = Tracer(path, worker=worker)
    set_tracer(tracer)
    return tracer


def worker_context(tracer=None) -> dict | None:
    """Context to ship to a worker, or ``None`` when tracing is off."""
    tracer = tracer if tracer is not None else _active
    return tracer.context() if tracer.enabled else None


def tracer_from_context(context: dict | None, *, worker: str):
    """Worker-side tracer adopting a shipped context (null when absent)."""
    if context is None:
        return _NULL_TRACER
    return Tracer(worker=worker, context=context)


class stage:  # noqa: N801 - a context manager, named like contextlib.suppress
    """Time a block as the ambient tracer's span ``name`` with ``attrs``.

    On success the elapsed seconds (one ``perf_counter`` pair) land in
    ``.seconds`` and, when given, in ``histogram.observe``.  An exception
    closes the span with ``error=``, records nothing and propagates.
    """

    __slots__ = ("_span", "_histogram", "_t0", "seconds")

    def __init__(self, name: str, histogram=None, **attrs):
        self._span = _active.span(name, **attrs)
        self._histogram = histogram
        self.seconds: float | None = None

    def __enter__(self) -> "stage":
        self._span.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._t0
        self._span.__exit__(exc_type, exc, tb)
        if exc_type is None:
            self.seconds = elapsed
            if self._histogram is not None:
                self._histogram.observe(elapsed)
        return False
