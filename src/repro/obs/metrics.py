"""Process-local metrics: counters, gauges, reservoir histograms.

A :class:`MetricsRegistry` keys instruments by ``(name, labels)`` and
renders the whole collection as Prometheus text exposition format —
counters and gauges verbatim, histograms as ``summary`` metrics with
``quantile`` labels plus ``_sum``/``_count``/``_min``/``_max`` series.
:class:`MetricsServer` serves that text over stdlib HTTP (the
``repro serve --metrics-port`` endpoint); :meth:`MetricsRegistry.write_file`
dumps the same text for batch commands (``--metrics-out``).

Histograms use Vitter's reservoir sampling: a bounded sample (default
512 values) that stays uniform over the full observation stream, so a
daemon observing millions of stage latencies answers p50/p95/p99 from
flat memory — the fix for the previously windowed/unbounded per-stage
sample lists in :mod:`repro.ingest.service`.

The ambient registry (:func:`get_metrics`) defaults to the shared
:class:`NullMetricsRegistry`, whose instruments swallow every update, so
hot paths can ``get_metrics().counter(...).inc()`` unconditionally.
"""

from __future__ import annotations

import math
import os
import random
import sys
import threading
import zlib
from contextlib import contextmanager

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "MetricsServer",
    "get_metrics",
    "set_metrics",
    "use_metrics",
    "peak_rss_mb",
]

DEFAULT_RESERVOIR = 512
QUANTILES = (0.5, 0.95, 0.99)


class Counter:
    """Monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Sync to an externally tracked monotonic total (never decreases)."""
        with self._lock:
            self._value = max(self._value, float(value))

    @property
    def value(self) -> float:
        return self._value

    def render(self) -> list[tuple[str, float]]:
        return [(_series(self.name, self.labels), self._value)]


class Gauge:
    """Value that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def render(self) -> list[tuple[str, float]]:
        return [(_series(self.name, self.labels), self._value)]


class Histogram:
    """Bounded-reservoir histogram with exact count/sum/min/max in :meth:`snapshot`.

    The reservoir (Vitter's algorithm R) keeps a uniform sample of every
    observation ever made, in ``O(reservoir)`` memory regardless of
    stream length; quantiles are computed from the sorted sample with
    linear interpolation.  The RNG is seeded per instrument, so a given
    observation sequence yields reproducible quantiles.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: tuple, *, reservoir: int = DEFAULT_RESERVOIR):
        if reservoir < 1:
            raise ValueError("histogram reservoir must be >= 1")
        self.name = name
        self.labels = labels
        self.reservoir = int(reservoir)
        self._samples: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._rng = random.Random(zlib.crc32(repr((name, labels)).encode()))
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self._samples) < self.reservoir:
                self._samples.append(value)
            else:
                slot = self._rng.randrange(self._count)
                if slot < self.reservoir:
                    self._samples[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sample_size(self) -> int:
        """Values held in memory — never exceeds the reservoir bound."""
        return len(self._samples)

    def snapshot(self) -> dict:
        with self._lock:
            ordered = sorted(self._samples)
            count, total = self._count, self._sum
            minimum, maximum = (self._min, self._max) if count else (0.0, 0.0)
        quantiles = {}
        for q in QUANTILES:
            if not ordered:
                quantiles[q] = 0.0
                continue
            position = (len(ordered) - 1) * q
            low = int(math.floor(position))
            high = min(low + 1, len(ordered) - 1)
            fraction = position - low
            quantiles[q] = ordered[low] * (1.0 - fraction) + ordered[high] * fraction
        return {
            "count": count,
            "sum": total,
            "min": minimum,
            "max": maximum,
            "p50": quantiles[0.5],
            "p95": quantiles[0.95],
            "p99": quantiles[0.99],
        }

    def render(self) -> list[tuple[str, float]]:
        snap = self.snapshot()
        series = []
        for q in QUANTILES:
            labels = self.labels + (("quantile", _format_value(q)),)
            series.append((_series(self.name, labels), snap[f"p{int(q * 100)}"]))
        series.append((_series(self.name + "_sum", self.labels), snap["sum"]))
        series.append((_series(self.name + "_count", self.labels), snap["count"]))
        series.append((_series(self.name + "_min", self.labels), snap["min"]))
        series.append((_series(self.name + "_max", self.labels), snap["max"]))
        return series


def _format_value(value: float) -> str:
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _series(name: str, labels: tuple) -> str:
    if not labels:
        return name
    body = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{body}}}"


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    value = 0.0
    count = 0
    sample_size = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_total(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> dict:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Disabled registry: hands out a shared no-op instrument."""

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, *, reservoir: int = DEFAULT_RESERVOIR, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def to_prometheus(self) -> str:
        return ""

    def write_file(self, path) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


class MetricsRegistry:
    """Instruments keyed by ``(name, sorted labels)``; idempotent getters."""

    enabled = True

    def __init__(self):
        self._instruments: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def _get(self, factory, kind: str, name: str, labels: dict, **kwargs):
        key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory(name, key[1], **kwargs)
                self._instruments[key] = instrument
            elif instrument.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {instrument.kind}, "
                    f"requested as {kind}"
                )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, "counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, "gauge", name, labels)

    def histogram(self, name: str, *, reservoir: int = DEFAULT_RESERVOIR, **labels) -> Histogram:
        return self._get(Histogram, "histogram", name, labels, reservoir=reservoir)

    def to_prometheus(self) -> str:
        """Render every instrument as Prometheus text exposition format."""
        with self._lock:
            instruments = list(self._instruments.values())
        by_name: dict[str, list] = {}
        for instrument in instruments:
            by_name.setdefault(instrument.name, []).append(instrument)
        lines = []
        for name in sorted(by_name):
            group = by_name[name]
            prom_type = "summary" if group[0].kind == "histogram" else group[0].kind
            lines.append(f"# TYPE {name} {prom_type}")
            for instrument in group:
                for series, value in instrument.render():
                    lines.append(f"{series} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_file(self, path) -> None:
        with open(os.fspath(path), "w", encoding="utf-8") as handle:
            handle.write(self.to_prometheus())

    def snapshot(self) -> dict:
        """``{series: value-or-histogram-snapshot}`` for tests/status JSON."""
        with self._lock:
            instruments = list(self._instruments.values())
        out = {}
        for instrument in instruments:
            key = _series(instrument.name, instrument.labels)
            if instrument.kind == "histogram":
                out[key] = instrument.snapshot()
            else:
                out[key] = instrument.value
        return out


_NULL_REGISTRY = NullMetricsRegistry()
_active: NullMetricsRegistry | MetricsRegistry = _NULL_REGISTRY
_active_lock = threading.Lock()


def peak_rss_mb() -> float | None:
    """Peak resident set size of this process in MiB (None when unavailable)."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, ValueError, OSError):  # pragma: no cover - non-POSIX
        return None
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        peak /= 1024.0
    return float(peak) / 1024.0


def get_metrics():
    """The ambient registry (the shared null registry by default)."""
    return _active


def set_metrics(registry):
    """Install ``registry`` as ambient; ``None`` restores the null one."""
    global _active
    with _active_lock:
        _active = registry if registry is not None else _NULL_REGISTRY
    return _active


@contextmanager
def use_metrics(registry):
    """Scope the ambient registry to a ``with`` block, then restore."""
    previous = _active
    set_metrics(registry)
    try:
        yield get_metrics()
    finally:
        set_metrics(previous)


def _metrics_handler(registry: MetricsRegistry):
    """A request handler class serving ``registry`` at ``/`` and ``/metrics``."""
    # Imported here: only ``--metrics-port`` serves HTTP, and http.server
    # (with the email package it pulls in) would cost every start.
    from http.server import BaseHTTPRequestHandler

    class MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - http.server API
            if self.path.split("?", 1)[0] in ("/", "/metrics"):
                body = registry.to_prometheus().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            else:
                self.send_response(404)
                self.end_headers()

        def log_message(self, format, *args):  # noqa: A002 - http.server API
            pass

    return MetricsHandler


class MetricsServer:
    """Serve a registry's Prometheus text over stdlib HTTP.

    Binds ``host:port`` (``port=0`` picks an ephemeral port — read it
    back from :attr:`port`) and serves ``GET /metrics`` from a daemon
    thread until :meth:`close`.
    """

    def __init__(self, registry, *, host: str = "127.0.0.1", port: int = 0):
        from http.server import ThreadingHTTPServer

        self._server = ThreadingHTTPServer((host, int(port)), _metrics_handler(registry))
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-metrics", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
