"""Tests for the unified telemetry plane (``repro.obs``).

Covers:

* :class:`~repro.obs.Tracer` span nesting, error attribution, capture-mode
  drain and cross-process context propagation,
* :class:`~repro.obs.MetricsRegistry` counters/gauges/bounded-reservoir
  histograms, Prometheus text exposition and the live
  :class:`~repro.obs.MetricsServer`,
* trace export: merge, per-name summary with wall coverage, Chrome
  ``trace_event`` conversion,
* the CLI opt-ins: ``--trace`` (and ``REPRO_TRACE``), ``--metrics-out``,
  ``repro trace summary|merge|export`` — and the determinism contract that
  a traced run prints bit-identical numbers to the untraced run,
* distributed tracing: pool workers and a two-daemon loopback remote sweep
  merging into one causally-linked trace with >= 95% wall coverage,
* executor failure telemetry: unreachable workers and mid-batch deaths
  close their spans with ``error=`` attributes and increment the failure
  counter,
* :func:`~repro.obs.stage`: one span, one clock reading, one histogram
  observation per block, and nothing recorded when the block raises,
* the serve satellites: ``feed_lag_seconds`` under a paced feed that
  outruns the fit loop, flat-memory stage-latency reservoirs, and a
  status.json whose stage numbers are the histograms' own.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.obs import (
    MetricsRegistry,
    MetricsServer,
    NullMetricsRegistry,
    NullTracer,
    Tracer,
    get_metrics,
    get_tracer,
    stage,
    tracer_from_context,
    use_metrics,
    use_tracer,
    worker_context,
)
from repro.obs.export import (
    chrome_trace,
    load_trace_file,
    merge_trace_files,
    summarize_trace,
    write_trace_file,
)

SMALL = ["--bins-per-week", "36", "--max-bins", "6"]


def _spans(events):
    return [e for e in events if e.get("kind") == "span"]


class TestTracer:
    def test_ambient_default_is_disabled_null_tracer(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert not tracer.enabled
        # The null span is always legal: context manager, set(), no-op.
        with tracer.span("anything", attr=1) as span:
            span.set(more=2)

    def test_nested_spans_record_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        events = _spans(tracer.drain())
        inner, outer = events  # inner closes (and is emitted) first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent"] == outer["span"]
        assert outer["parent"] is None
        assert inner["trace"] == outer["trace"]

    def test_span_ids_are_unique(self):
        tracer = Tracer()
        for _ in range(10):
            with tracer.span("s"):
                pass
        ids = [e["span"] for e in _spans(tracer.drain())]
        assert len(set(ids)) == len(ids)

    def test_exception_closes_span_with_error_attr(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("kaboom")
        (span,) = _spans(tracer.drain())
        assert span["attrs"]["error"] == "RuntimeError: kaboom"
        assert span["duration_s"] >= 0

    def test_file_mode_writes_header_then_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path) as tracer:
            with tracer.span("work", size=3):
                pass
        events = load_trace_file(path)
        assert events[0]["kind"] == "trace_start"
        assert events[1]["kind"] == "span"
        assert events[1]["attrs"] == {"size": 3}

    def test_worker_adopts_shipped_context_as_parent(self):
        driver = Tracer(worker="driver")
        with driver.span("dispatch"):
            context = worker_context(driver)
            remote = tracer_from_context(context, worker="w1")
            with remote.span("cell"):
                pass
            driver.ingest(remote.drain())
        events = _spans(driver.drain())
        by_name = {e["name"]: e for e in events}
        assert by_name["cell"]["trace"] == driver.trace_id
        assert by_name["cell"]["parent"] == by_name["dispatch"]["span"]
        assert by_name["cell"]["worker"] == "w1"

    def test_null_context_yields_null_worker_tracer(self):
        assert worker_context(NullTracer()) is None
        assert isinstance(tracer_from_context(None, worker="w"), NullTracer)

    def test_use_tracer_scopes_and_restores(self):
        tracer = Tracer()
        before = get_tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is before


class TestStage:
    def test_null_tracer_still_times_and_observes(self):
        histogram = MetricsRegistry().histogram("stage_seconds")
        with stage("work", histogram, size=3) as timed:
            time.sleep(0.001)
        assert timed.seconds > 0
        snap = histogram.snapshot()
        assert snap["count"] == 1
        assert snap["sum"] == timed.seconds

    def test_span_carries_name_attrs_and_parent(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("outer"):
                with stage("inner", size=3, kind="x") as timed:
                    pass
        inner, outer = _spans(tracer.drain())
        assert inner["name"] == "inner"
        assert inner["attrs"] == {"size": 3, "kind": "x"}
        assert inner["parent"] == outer["span"]
        assert timed.seconds >= 0

    def test_exception_propagates_and_records_nothing(self):
        tracer = Tracer()
        histogram = MetricsRegistry().histogram("stage_seconds")
        with use_tracer(tracer):
            with pytest.raises(RuntimeError, match="kaboom"):
                with stage("doomed", histogram) as timed:
                    raise RuntimeError("kaboom")
        (span,) = _spans(tracer.drain())
        assert span["name"] == "doomed"
        assert span["attrs"]["error"] == "RuntimeError: kaboom"
        assert histogram.snapshot()["count"] == 0
        assert timed.seconds is None


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("events_total").inc()
        registry.counter("events_total").inc(4)
        registry.gauge("depth").set(7)
        snapshot = registry.snapshot()
        assert snapshot["events_total"] == 5
        assert snapshot["depth"] == 7

    def test_counter_set_total_is_monotonic_sync(self):
        registry = MetricsRegistry()
        counter = registry.counter("published_total")
        counter.set_total(10)
        counter.set_total(24)
        assert registry.snapshot()["published_total"] == 24

    def test_histogram_reservoir_stays_bounded(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds")
        for value in range(10_000):
            histogram.observe(float(value))
        snap = histogram.snapshot()
        assert histogram.sample_size <= 512
        assert snap["count"] == 10_000
        assert snap["min"] == 0.0 and snap["max"] == 9999.0
        assert 0.0 <= snap["p50"] <= snap["p95"] <= snap["p99"] <= 9999.0

    def test_histogram_quantiles_exact_on_small_samples(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("small")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.snapshot()["p50"] == 2.0

    def test_labels_key_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("hits", stage="a").inc()
        registry.counter("hits", stage="b").inc(2)
        snapshot = registry.snapshot()
        assert snapshot['hits{stage="a"}'] == 1
        assert snapshot['hits{stage="b"}'] == 2

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="registered as counter"):
            registry.gauge("x")

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_cells_total", status="ok").inc(3)
        registry.gauge("repro_depth").set(1.5)
        registry.histogram("repro_latency", stage="fit").observe(0.25)
        text = registry.to_prometheus()
        assert "# TYPE repro_cells_total counter" in text
        assert 'repro_cells_total{status="ok"} 3' in text
        assert "# TYPE repro_depth gauge" in text
        assert "# TYPE repro_latency summary" in text
        assert 'repro_latency{stage="fit",quantile="0.5"} 0.25' in text
        assert 'repro_latency_count{stage="fit"} 1' in text

    def test_null_registry_is_disabled_noop(self):
        registry = NullMetricsRegistry()
        assert not registry.enabled
        registry.counter("x").inc()
        registry.histogram("y").observe(1.0)
        assert registry.to_prometheus() == ""
        assert isinstance(get_metrics(), NullMetricsRegistry)

    def test_use_metrics_scopes_and_restores(self):
        registry = MetricsRegistry()
        before = get_metrics()
        with use_metrics(registry):
            assert get_metrics() is registry
        assert get_metrics() is before


class TestMetricsServer:
    def test_serves_prometheus_text_over_http(self):
        registry = MetricsRegistry()
        registry.gauge("repro_live_gauge").set(42)
        with MetricsServer(registry, port=0) as server:
            body = urllib.request.urlopen(
                f"http://{server.host}:{server.port}/metrics", timeout=5
            ).read().decode()
            assert "repro_live_gauge 42" in body
            # Scrapes see live updates, not a snapshot taken at bind time.
            registry.gauge("repro_live_gauge").set(43)
            body = urllib.request.urlopen(
                f"http://{server.host}:{server.port}/metrics", timeout=5
            ).read().decode()
            assert "repro_live_gauge 43" in body

    def test_unknown_path_is_404(self):
        with MetricsServer(MetricsRegistry(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://{server.host}:{server.port}/nope", timeout=5
                )


class TestExport:
    def _sample_events(self):
        tracer = Tracer(worker="driver")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        return tracer.drain()

    def test_merge_orders_by_start_time(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        with Tracer(first) as tracer:
            with tracer.span("early"):
                pass
        time.sleep(0.01)
        with Tracer(second) as tracer:
            with tracer.span("late"):
                pass
        merged = merge_trace_files([first, second])
        names = [e["name"] for e in _spans(merged)]
        assert names == ["early", "late"]
        out = tmp_path / "merged.jsonl"
        write_trace_file(merged, out)
        assert [e["name"] for e in _spans(load_trace_file(out))] == names

    def test_summary_counts_and_coverage(self):
        summary = summarize_trace(self._sample_events())
        assert summary.spans == 2
        assert summary.workers == ("driver",)
        assert summary.errors == 0
        # The outer span covers the whole extent, so coverage is total.
        assert summary.coverage == pytest.approx(1.0)
        table = summary.format_table()
        assert "outer" in table and "coverage" in table

    def test_summary_flags_errors(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("nope")
        assert summarize_trace(tracer.drain()).errors == 1

    def test_chrome_export_structure(self):
        payload = chrome_trace(self._sample_events())
        complete = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        metadata = [e for e in payload["traceEvents"] if e.get("ph") == "M"]
        assert len(complete) == 2
        assert all(e["dur"] >= 0 and e["ts"] > 0 for e in complete)
        assert any(m["name"] == "process_name" for m in metadata)

    def test_load_rejects_bad_json_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "trace_start"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_trace_file(path)


class TestCliObservability:
    def test_traced_estimate_writes_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "estimate.jsonl"
        assert main(["estimate", "--prior", "gravity", "--dataset", "geant",
                     *SMALL, "--trace", str(trace)]) == 0
        events = load_trace_file(trace)
        names = {e["name"] for e in _spans(events)}
        assert {"repro", "synthesize", "build_prior", "estimate"} <= names
        # The root span makes the summary account for the whole command.
        assert summarize_trace(events).coverage >= 0.95
        capsys.readouterr()

    def test_traced_estimate_times_the_kernels_in_every_chunk(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "estimate.jsonl"
        assert main(["estimate", "--prior", "gravity", "--dataset", "geant",
                     *SMALL, "--trace", str(trace)]) == 0
        capsys.readouterr()
        spans = _spans(load_trace_file(trace))
        chunks = [s for s in spans if s["name"] == "estimate_chunk"]
        assert chunks
        for chunk in chunks:
            kernels = [s for s in spans if s["parent"] == chunk["span"]]
            assert sorted(s["name"] for s in kernels) == ["error_metrics", "ipf", "refine"]
            assert all(s["attrs"]["bins"] == chunk["attrs"]["bins"] for s in kernels)
        assert main(["trace", "summary", str(trace)]) == 0
        summary = capsys.readouterr().out.split()
        assert {"refine", "ipf", "error_metrics"} <= set(summary)

    def test_traced_run_is_bit_identical_to_untraced(self, tmp_path, capsys):
        from repro.cli import main

        def numeric_lines(text):
            # Drop the wall-clock/RSS rows, which vary run to run; every
            # estimation figure must match to the printed digit.
            return [line for line in text.splitlines()
                    if "runtime (s)" not in line and "peak RSS" not in line]

        args = ["estimate", "--prior", "stable_f", "--dataset", "geant", *SMALL]
        assert main(args) == 0
        untraced = capsys.readouterr().out
        assert main([*args, "--trace", str(tmp_path / "t.jsonl")]) == 0
        traced = capsys.readouterr().out
        assert numeric_lines(traced) == numeric_lines(untraced)

    def test_trace_env_var_enables_tracing(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        trace = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        assert main(["estimate", "--prior", "gravity", "--dataset", "geant", *SMALL]) == 0
        assert _spans(load_trace_file(trace))
        capsys.readouterr()

    def test_metrics_out_writes_prometheus_text(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "metrics.prom"
        assert main(["estimate", "--prior", "gravity", "--dataset", "geant",
                     *SMALL, "--metrics-out", str(out)]) == 0
        text = out.read_text()
        assert 'repro_scenario_runs_total{mode="memory"} 1' in text
        assert "# TYPE repro_scenario_run_seconds summary" in text
        capsys.readouterr()

    def test_trace_subcommand_summary_merge_export(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "t.jsonl"
        with Tracer(trace) as tracer:
            with tracer.span("work"):
                pass
        assert main(["trace", "summary", str(trace)]) == 0
        assert "work" in capsys.readouterr().out
        merged = tmp_path / "merged.jsonl"
        assert main(["trace", "merge", str(trace), "-o", str(merged)]) == 0
        capsys.readouterr()
        assert _spans(load_trace_file(merged))
        chrome = tmp_path / "chrome.json"
        assert main(["trace", "export", str(trace), "-o", str(chrome)]) == 0
        capsys.readouterr()
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_trace_subcommand_rejects_bad_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", "summary", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestDistributedTracing:
    def test_pool_workers_spans_merge_into_driver_trace(self):
        from repro.scenarios import LocalPoolExecutor, Scenario, ScenarioRunner

        cells = [
            Scenario(dataset="geant", prior=prior, bins_per_week=36, max_bins=4)
            for prior in ("gravity", "stable_f")
        ]
        tracer = Tracer(worker="driver")
        with use_tracer(tracer):
            swept = ScenarioRunner().run_cells(
                cells, jobs=2, executor=LocalPoolExecutor(2)
            )
        assert not swept.failures
        spans = _spans(tracer.drain())
        cell_spans = [s for s in spans if s["name"] == "sweep_cell"]
        assert len(cell_spans) == 2
        assert all(s["worker"].startswith("pool-") for s in cell_spans)
        assert len({s["trace"] for s in spans}) == 1

    def test_two_worker_loopback_sweep_yields_one_attributed_trace(self, tmp_path):
        # The PR's acceptance scenario: a 2-worker loopback distributed
        # sweep with --trace produces a single merged trace whose
        # sweep_cell spans are attributed to the correct worker and whose
        # summary accounts for >= 95% of wall time.
        from repro.scenarios import RemoteExecutor, Scenario, ScenarioRunner, SpawnedWorkers

        trace_path = tmp_path / "sweep.jsonl"
        base = Scenario(dataset="geant", prior="gravity", bins_per_week=36, max_bins=4)
        with Tracer(trace_path) as tracer, use_tracer(tracer):
            with tracer.span("repro", command="sweep"):
                with SpawnedWorkers(2) as workers:
                    swept = ScenarioRunner().sweep(
                        priors=("gravity", "stable_f", "measured"),
                        datasets=("geant",),
                        base=base,
                        jobs=2,
                        executor=RemoteExecutor(workers.addresses),
                    )
        assert not swept.failures and len(swept.results) == 3
        events = load_trace_file(trace_path)
        spans = _spans(events)
        assert len({s["trace"] for s in spans}) == 1
        cell_spans = [s for s in spans if s["name"] == "sweep_cell"]
        assert len(cell_spans) == 3
        worker_spans = {s["span"]: s for s in spans if s["name"] == "remote_worker"}
        assert {s["attrs"]["worker"] for s in worker_spans.values()} == set(
            workers.addresses
        )
        for cell in cell_spans:
            # Attribution: the cell ran on the worker whose remote_worker
            # span (opened by the driver thread driving that daemon) is its
            # causal parent.
            parent = worker_spans[cell["parent"]]
            assert cell["worker"] == parent["attrs"]["worker"]
        assert summarize_trace(events).coverage >= 0.95


class TestExecutorFailureTelemetry:
    def test_unreachable_worker_counts_failure_and_closes_span_with_error(self):
        from repro.errors import ExecutorError
        from repro.scenarios import RemoteExecutor, Scenario, ScenarioRunner

        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        registry = MetricsRegistry()
        tracer = Tracer(worker="driver")
        cells = [Scenario(dataset="geant", prior="gravity", bins_per_week=36, max_bins=4)]
        with use_metrics(registry), use_tracer(tracer):
            with pytest.raises(ExecutorError, match="unreachable"):
                ScenarioRunner().run_cells(
                    cells,
                    executor=RemoteExecutor([("127.0.0.1", port)], connect_timeout=2.0),
                )
        label = f"127.0.0.1:{port}"
        key = f'repro_executor_failures_total{{reason="unreachable",worker="{label}"}}'
        assert registry.snapshot()[key] == 1
        (span,) = [s for s in _spans(tracer.drain()) if s["name"] == "remote_worker"]
        assert "unreachable" in span["attrs"]["error"]

    def test_mid_batch_death_counts_connection_failure(self):
        from repro.errors import ExecutorError
        from repro.scenarios import RemoteExecutor, Scenario, ScenarioRunner
        from repro.scenarios.executors import (
            SWEEP_WORKER_PROTOCOL,
            _recv_message,
            _send_message,
        )

        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def dies_after_ping():
            conn, _ = server.accept()
            with conn:
                _recv_message(conn)  # the ping
                _send_message(conn, {"ok": True, "protocol": SWEEP_WORKER_PROTOCOL})
                # Die without reading the dataset/batch that follows.

        thread = threading.Thread(target=dies_after_ping, daemon=True)
        thread.start()
        registry = MetricsRegistry()
        tracer = Tracer(worker="driver")
        cells = [Scenario(dataset="geant", prior="gravity", bins_per_week=36, max_bins=4)]
        try:
            with use_metrics(registry), use_tracer(tracer):
                with pytest.raises(ExecutorError):
                    ScenarioRunner().run_cells(
                        cells,
                        executor=RemoteExecutor(
                            [("127.0.0.1", port)], connect_timeout=2.0
                        ),
                    )
        finally:
            thread.join(timeout=5)
            server.close()
        failures = {
            series: value
            for series, value in registry.snapshot().items()
            if series.startswith("repro_executor_failures_total")
        }
        assert sum(failures.values()) == 1
        (span,) = [s for s in _spans(tracer.drain()) if s["name"] == "remote_worker"]
        assert "error" in span["attrs"]

    def test_failed_cell_increments_failure_counter(self):
        from repro.scenarios import Scenario, ScenarioRunner

        registry = MetricsRegistry()
        cells = [
            Scenario(dataset="geant", prior="stable_f", bins_per_week=36, max_bins=4,
                     measured_forward_fraction=2.0)  # invalid f -> cell fails
        ]
        with use_metrics(registry):
            swept = ScenarioRunner().run_cells(cells)
        assert swept.failures
        assert registry.snapshot()["repro_sweep_cell_failures_total"] == 1


class TestServeTelemetry:
    def test_paced_feed_outrunning_fit_loop_records_feed_lag(self, tmp_path, abilene):
        # Satellite churn test: replay the bundled day at high speed-up with
        # an estimator slowed below the feed rate; the watermark runs ahead
        # of publication, so the lag gauges and the lag-distribution
        # histograms must record a non-zero backlog while the run drains
        # cleanly at the end.
        from repro.estimation.pipeline import TMEstimator
        from repro.ingest import FileReplaySource, IngestService

        class SlowEstimator:
            def __init__(self, delay):
                self._inner = TMEstimator()
                self._delay = delay

            def estimate_stream(self, *args, **kwargs):
                time.sleep(self._delay)
                return self._inner.estimate_stream(*args, **kwargs)

        registry = MetricsRegistry()
        service = IngestService(
            FileReplaySource(
                "examples/sample_flows.csv", abilene.nodes,
                speedup=7200.0, batch_records=256,
            ),
            abilene,
            estimator=SlowEstimator(0.15),
            bin_seconds=300.0,
            chunk_bins=2,
            sink=tmp_path / "estimates.jsonl",
            metrics=registry,
        )
        status = service.run()
        assert status.bins_published == 24
        lag_window = registry.histogram("repro_serve_feed_lag_seconds_window").snapshot()
        behind_window = registry.histogram(
            "repro_serve_bins_behind_watermark_window"
        ).snapshot()
        assert lag_window["count"] >= 2
        assert lag_window["max"] > 0.0, "paced feed never outran the fit loop"
        assert behind_window["max"] >= 1.0
        assert lag_window["max"] == behind_window["max"] * 300.0
        # Fully drained at the end: the *final* gauges read zero again.
        assert registry.snapshot()["repro_serve_feed_lag_seconds"] == 0.0
        assert status.feed_lag_seconds == 0.0

    def test_status_snapshot_and_metrics_agree(self, tmp_path, abilene):
        from repro.ingest import FileReplaySource, IngestService

        registry = MetricsRegistry()
        status_path = tmp_path / "status.json"
        service = IngestService(
            FileReplaySource("examples/sample_flows.csv", abilene.nodes),
            abilene,
            bin_seconds=300.0,
            chunk_bins=4,
            sink=tmp_path / "estimates.jsonl",
            status_path=status_path,
            metrics=registry,
        )
        service.run()
        snapshot = registry.snapshot()
        status = json.loads(status_path.read_text())
        assert snapshot["repro_serve_bins_published_total"] == status["bins_published"]
        assert snapshot["repro_serve_records_binned_total"] == status["records_binned"]
        latency = status["stage_latency_seconds"]
        for label in ("bin", "measure", "prior", "estimate", "publish", "fit"):
            series = f'repro_serve_stage_latency_seconds{{stage="{label}"}}'
            assert snapshot[series]["count"] == latency[label]["samples"]
            assert snapshot[series]["p50"] == pytest.approx(
                latency[label]["p50"], abs=1e-6
            )
            assert status["stage_seconds"][label] == round(snapshot[series]["sum"], 6)

    def test_stage_latency_memory_stays_flat(self, tmp_path, abilene):
        # Satellite 2: the per-stage latency store is a bounded reservoir,
        # not an ever-growing sample list — memory must not scale with the
        # number of chunks a long-lived service processes.
        import tracemalloc

        from repro.ingest import FileReplaySource, IngestService

        service = IngestService(
            FileReplaySource("examples/sample_flows.csv", abilene.nodes),
            abilene,
            bin_seconds=300.0,
            sink=tmp_path / "estimates.jsonl",
            metrics=MetricsRegistry(),
        )
        histogram = service._stages["estimate"]
        rng = np.random.default_rng(0)
        for value in rng.random(2_000):
            histogram.observe(float(value))
        tracemalloc.start()
        for value in rng.random(50_000):
            histogram.observe(float(value))
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert histogram.sample_size <= 512
        assert histogram.snapshot()["count"] == 52_000
        # 25x more samples than the warm-up added no retained growth beyond
        # noise: the reservoir recycles its 512 slots in place.
        assert current < 64 * 1024, f"stage-latency store grew by {current} bytes"
        latency = service.status.to_dict(service._stages)["stage_latency_seconds"]
        assert latency["estimate"]["samples"] == 52_000
        assert 0.0 <= latency["estimate"]["p50"] <= latency["estimate"]["p99"] <= 1.0


class TestScenarioMetrics:
    def test_run_total_and_run_seconds_histogram_are_one_reading(self):
        from repro.scenarios import Scenario, ScenarioRunner

        registry = MetricsRegistry()
        scenario = Scenario(dataset="geant", prior="gravity", bins_per_week=36, max_bins=4)
        with use_metrics(registry):
            result = ScenarioRunner().run(scenario)
        snap = registry.histogram("repro_scenario_run_seconds", mode="memory").snapshot()
        assert snap["count"] == 1
        assert snap["sum"] == result.timing["total"]
        stages = result.timing["dataset"] + result.timing["prior"] + result.timing["estimation"]
        assert 0 < stages <= result.timing["total"]


class TestSweepMetrics:
    def test_sweep_records_cells_and_shared_state_metrics(self):
        from repro.scenarios import Scenario, ScenarioRunner

        registry = MetricsRegistry()
        base = Scenario(dataset="geant", prior="gravity", bins_per_week=36,
                        max_bins=4, stream=True, n_weeks=2, target_week=1)
        with use_metrics(registry):
            swept = ScenarioRunner().sweep(
                priors=("gravity", "stable_f"), datasets=("geant",), base=base, jobs=1
            )
        assert not swept.failures
        snapshot = registry.snapshot()
        assert snapshot['repro_sweep_cells_total{status="ok"}'] == 2
        assert snapshot["repro_sweep_cells_per_second"] > 0
        # Two streaming cells share one dataset column: the measurement
        # system is requested per cell but built once.
        assert snapshot['repro_sweep_shared_requests_total{kind="system"}'] == 2
        assert snapshot['repro_sweep_shared_builds_total{kind="system"}'] == 1

    def test_spill_writes_record_bytes(self, tmp_path):
        from repro.scenarios.spill import SpillStore

        registry = MetricsRegistry()
        with use_metrics(registry):
            store = SpillStore(tmp_path / "spill", shard_bins=4)
            writer = store.writer("estimate")
            writer(0, np.ones((8, 3, 3)))
            writer.finish()
        snapshot = registry.snapshot()
        assert snapshot["repro_spill_shards_total"] == 2
        assert snapshot["repro_spill_bytes_total"] > 0
