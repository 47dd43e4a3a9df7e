"""Unified telemetry plane: tracing + metrics for every execution layer.

``repro.obs`` is the observability layer the rest of the system reports
through.  It is deliberately zero-dependency (stdlib only) and built
around two primitives:

* :mod:`repro.obs.trace` — a :class:`Tracer` producing nested spans
  (``synthesize``, ``fit_als_pass``, ``estimate_chunk``, ``sweep_cell``,
  ``emit``, ``bin_publish``…) as JSONL events.  Span context propagates
  over the sweep-worker wire protocol that local pool workers and
  remote daemons share, so a distributed sweep yields one
  merged, causally-linked trace; :mod:`repro.obs.export` renders it as a
  per-stage summary or Chrome ``trace_event`` JSON for perfetto.
* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry` of
  counters, gauges and bounded-reservoir histograms (p50/p95/p99),
  exposed as Prometheus text format, over stdlib HTTP
  (``repro serve --metrics-port``) or to a file (``--metrics-out``).

:func:`stage` joins the two for pipeline stages: ``with stage(name,
histogram, **attrs) as timed:`` opens the ambient span, reads the clock
once and, on success, observes the elapsed seconds into ``histogram`` and
``timed.seconds`` (an exception closes the span with ``error=`` and
records nothing).  ``ScenarioRunner.run`` fills ``ScenarioResult.timing``
from its ``synthesize``/``build_prior``/``estimate`` stages; ``repro
serve`` times one source batch (``bin``) or one chunk (the rest) into
``repro_serve_stage_latency_seconds{stage=...}``:

===============  =====  =======  =====  ========  =============  ===========
serve span       bin    measure  prior  estimate  bin_publish    fit_observe
stage label      bin    measure  prior  estimate  publish        fit
===============  =====  =======  =====  ========  =============  ===========

Both primitives have no-op twins (:class:`NullTracer`,
:class:`NullMetricsRegistry`) installed as the ambient default, so
instrumented hot paths pay ~nothing until a user opts in with
``--trace``/``REPRO_TRACE``/``--metrics-out`` — the invariant
``bench_obs_overhead`` guards.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsServer,
    NullMetricsRegistry,
    get_metrics,
    peak_rss_mb,
    set_metrics,
    use_metrics,
)
from repro.obs.trace import (
    TRACE_ENV,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    stage,
    start_tracing,
    tracer_from_context,
    use_tracer,
    worker_context,
)

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
