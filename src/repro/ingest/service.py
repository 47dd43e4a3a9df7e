"""The publisher/service loop behind ``repro serve``.

:class:`IngestService` wires the ingest planes together into a long-running
estimator daemon: a :class:`~repro.ingest.sources.FlowSource` feeds a
:class:`~repro.ingest.binner.FlowBinner`; every ``chunk_bins`` closed bins
become one measurement chunk (link loads through the routing matrix's
:meth:`~repro.topology.routing.RoutingMatrix.link_loads` kernel plus
ingress/egress marginals — the same arithmetic as
:func:`~repro.estimation.linear_system.simulate_link_loads`);
the :class:`~repro.ingest.rolling.RollingFitManager`'s active prior and
``TMEstimator.estimate_stream`` turn the chunk into per-bin estimates; and
the publisher appends one JSONL record per bin to the sink.  Because every
stage is the batch pipeline's own per-bin code, a replayed week with a
pinned prior reproduces ``repro estimate --stream`` bit for bit — the
service is the batch path with a feed in front, not a reimplementation.

Operability:

* a **status snapshot** (JSON) is rewritten after every published chunk:
  ingestion counters, bins published, active fit (mode/f/version/age),
  cumulative seconds and p50/p99 latency per stage, peak RSS
  and **back-pressure** — how many watermark-closed bins the estimator has
  not yet published (``bins_behind_watermark``) and how many closed bins
  sit queued for the next chunk (``queue_depth``), the numbers that grow
  when the estimator falls behind a paced feed;
* **SIGTERM/SIGINT** request a clean stop (:meth:`IngestService.request_stop`
  is signal-handler compatible): the loop finishes its current batch,
  publishes every already-closed bin, writes a **resumable checkpoint**
  (next bin index, noise seed, fit state) and exits; starting a service
  with the same checkpoint path resumes exactly where it stopped, skipping
  replayed records from already-published bins;
* optional simulated SNMP noise (``measurement_noise``) draws per-chunk
  from ``default_rng([seed, chunk_start_bin])`` — deterministic per bin
  range, so a resume never replays or skips noise draws.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro._validation import require_finite_nonnegative
from repro.errors import ValidationError
from repro.estimation.linear_system import LinkLoadSystem
from repro.estimation.pipeline import TMEstimator
from repro.ingest.binner import FlowBinner
from repro.ingest.rolling import PRIOR_MODES, RollingFitManager
from repro.obs import MetricsRegistry, get_metrics, get_tracer, peak_rss_mb, stage
from repro.streaming import ArrayChunkStream
from repro.topology.routing import build_routing_matrix

__all__ = ["IngestService", "ServiceStatus", "CHECKPOINT_FORMAT"]

CHECKPOINT_FORMAT = "repro-ingest-checkpoint-v1"


@dataclass
class ServiceStatus:
    """The operational snapshot the service republishes after every chunk.

    ``bins_behind_watermark`` and ``queue_depth`` are the back-pressure
    gauges: the first counts bins the watermark has already released that
    the estimator has not published yet, the second the closed bins queued
    for the next estimation chunk.  Both stay near zero while the estimator
    keeps up with the feed and grow monotonically when it falls behind a
    paced replay.  ``feed_lag_seconds`` restates the watermark lag in feed
    time (``bins_behind_watermark * bin_seconds``) so alert thresholds can
    be written in seconds instead of bin counts.  :meth:`to_dict` renders
    ``stage_seconds`` (exact cumulative sums) and ``stage_latency_seconds``
    (p50/p99 of a uniform 512-sample reservoir over every observation since
    start) from the stage histograms; ``bin`` is timed per source batch,
    every other stage per chunk.
    """

    bins_published: int = 0
    next_bin: int = 0
    records_seen: int = 0
    records_binned: int = 0
    records_dropped_late: int = 0
    records_skipped: int = 0
    open_bins: int = 0
    queue_depth: int = 0
    bins_behind_watermark: int = 0
    feed_lag_seconds: float = 0.0
    prior_mode: str = "gravity"
    prior_version: int = 0
    fit_forward_fraction: float | None = None
    fit_age_bins: int | None = None
    refits: int = 0
    peak_rss_mb: float | None = None
    stopped_by_signal: bool = False

    def to_dict(self, stages: dict | None = None) -> dict:
        """JSON-ready snapshot; ``stages`` maps stage label to its histogram."""
        snapshots = {label: h.snapshot() for label, h in (stages or {}).items() if h.count}
        return {
            "bins_published": self.bins_published,
            "next_bin": self.next_bin,
            "records_seen": self.records_seen,
            "records_binned": self.records_binned,
            "records_dropped_late": self.records_dropped_late,
            "records_skipped": self.records_skipped,
            "open_bins": self.open_bins,
            "backpressure": {
                "queue_depth": self.queue_depth,
                "bins_behind_watermark": self.bins_behind_watermark,
                "feed_lag_seconds": round(self.feed_lag_seconds, 3),
            },
            "prior": {
                "mode": self.prior_mode,
                "version": self.prior_version,
                "forward_fraction": self.fit_forward_fraction,
                "age_bins": self.fit_age_bins,
                "refits": self.refits,
            },
            "stage_seconds": {label: round(snap["sum"], 6) for label, snap in snapshots.items()},
            "stage_latency_seconds": {
                label: {"p50": round(snap["p50"], 6), "p99": round(snap["p99"], 6),
                        "samples": snap["count"]}
                for label, snap in snapshots.items()
            },
            "peak_rss_mb": None if self.peak_rss_mb is None else round(self.peak_rss_mb, 1),
            "stopped_by_signal": self.stopped_by_signal,
        }


class _Publisher:
    """JSONL estimate sink: a file in a sink directory, or stdout (``-``)."""

    def __init__(self, sink):
        self._handle = None
        self._own = False
        if sink is None or sink == "-":
            self._handle = sys.stdout
        else:
            path = Path(sink)
            if path.suffix != ".jsonl":
                path.mkdir(parents=True, exist_ok=True)
                path = path / "estimates.jsonl"
            else:
                path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = path.open("a", encoding="utf-8")
            self._own = True
            self.path = path

    def publish(self, record: dict) -> None:
        self._handle.write(json.dumps(record) + "\n")

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        if self._own:
            self._handle.close()


class IngestService:
    """The live ingestion + rolling estimation daemon (see module docstring).

    Parameters
    ----------
    source:
        A :class:`~repro.ingest.sources.FlowSource`.
    topology:
        The :class:`~repro.topology.Topology` whose node ordering the
        source's records index and whose routing matrix turns bins into
        link loads.
    estimator:
        A :class:`~repro.estimation.pipeline.TMEstimator` (default:
        tomogravity with marginals).
    bin_seconds, watermark_bins:
        Binner geometry (see :class:`~repro.ingest.binner.FlowBinner`).
    chunk_bins:
        Closed bins per estimation chunk — the publication cadence.
    prior, forward_fraction, refit_every, window_bins, window_budget_bytes,
    spill_dir:
        Rolling-fit configuration (see
        :class:`~repro.ingest.rolling.RollingFitManager`).
    measurement_noise, seed:
        Optional simulated SNMP noise (relative std, finite and ``>= 0``)
        applied to each chunk's measurements with a per-chunk deterministic
        RNG.
    sink, status_path, checkpoint_path:
        Output plumbing.  ``sink`` is a directory (gains
        ``estimates.jsonl``), an explicit ``.jsonl`` path, or ``-``/None
        for stdout.  ``checkpoint_path`` enables resume: if the file exists
        at start the service continues from its ``next_bin``.
    estimate_shards_dir:
        Optional sidecar archive: every published estimate chunk is also
        appended to ``estimate-*.npz`` shards under this directory (via
        :class:`~repro.scenarios.spill.ShardWriter`, resuming at the
        checkpoint's bin), so ``repro report`` can reduce the served
        estimates shard-at-a-time without re-parsing the JSONL sink.  The
        JSONL sink stays the source of truth — the sidecar is flushed at
        checkpoints and clean stops, and readers fall back to the JSONL
        when the shards lag behind it.
    max_bins:
        Stop after publishing this many bins (None = run to end of source).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` to record gauges,
        counters and stage-latency histograms into.  Default: the ambient
        registry when metrics are enabled (so ``--metrics-port`` scrapes
        see the service's series), else a private registry that still
        backs the status snapshot's latency quantiles.
    """

    def __init__(
        self,
        source,
        topology,
        *,
        estimator: TMEstimator | None = None,
        bin_seconds: float = 300.0,
        watermark_bins: int = 1,
        chunk_bins: int = 16,
        prior: str = "gravity",
        forward_fraction: float | None = None,
        refit_every: int = 0,
        window_bins: int = 96,
        window_budget_bytes: int | None = None,
        spill_dir=None,
        measurement_noise: float = 0.0,
        seed: int = 0,
        sink=None,
        status_path=None,
        checkpoint_path=None,
        estimate_shards_dir=None,
        estimate_shard_bins: int = 2048,
        max_bins: int | None = None,
        origin: float = 0.0,
        metrics: MetricsRegistry | None = None,
    ):
        if tuple(source.nodes) != tuple(topology.nodes):
            raise ValidationError(
                "source and topology disagree on node ordering; "
                f"source has {len(source.nodes)} nodes, topology {len(topology.nodes)}"
            )
        if chunk_bins < 1:
            raise ValidationError("chunk_bins must be >= 1")
        measurement_noise = require_finite_nonnegative(measurement_noise, "measurement_noise")
        if prior not in PRIOR_MODES:
            raise ValidationError(f"unknown prior mode {prior!r}; choose from {PRIOR_MODES}")
        self._source = source
        self._topology = topology
        self._estimator = estimator or TMEstimator()
        self._bin_seconds = float(bin_seconds)
        self._watermark_bins = int(watermark_bins)
        self._chunk_bins = int(chunk_bins)
        self._noise_std = float(measurement_noise)
        self._seed = int(seed)
        self._sink = sink
        self._status_path = Path(status_path) if status_path else None
        self._checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self._estimate_shards_dir = Path(estimate_shards_dir) if estimate_shards_dir else None
        self._estimate_shard_bins = int(estimate_shard_bins)
        self._estimate_writer = None
        self._max_bins = int(max_bins) if max_bins else None
        self._origin = float(origin)
        self._stop_requested = False
        self._start_bin = 0
        # Build the measurement system once at init: the routing-matrix memo
        # and the augmented-operator cache are populated here, so per-chunk
        # LinkLoadSystem construction reuses one validated operator object
        # (and its cached tomogravity factor) instead of re-deriving it every
        # chunk.
        self._routing = build_routing_matrix(topology)
        self._routing.augmented_operator()
        fit_kwargs = {}
        resumed_fit = None
        if self._checkpoint_path is not None and self._checkpoint_path.exists():
            resumed_fit = self._load_checkpoint()
        manager_kwargs = dict(
            bin_seconds=bin_seconds,
            mode=prior,
            forward_fraction=forward_fraction,
            refit_every=refit_every,
            window_bins=window_bins,
            spill_dir=spill_dir,
            fit_kwargs=fit_kwargs,
        )
        if window_budget_bytes is not None:
            manager_kwargs["window_budget_bytes"] = int(window_budget_bytes)
        self._fits = RollingFitManager(topology.nodes, **manager_kwargs)
        if resumed_fit is not None:
            self._fits.pin(
                forward_fraction=resumed_fit["forward_fraction"],
                preference=np.asarray(resumed_fit["preference"], dtype=float),
            )
        self.status = ServiceStatus(next_bin=self._start_bin)
        # Stage latencies live in a metrics registry (bounded reservoir
        # histograms) rather than unbounded sample lists; the registry also
        # backs ``repro serve --metrics-port``.  An explicit registry wins;
        # otherwise adopt the ambient one when metrics are enabled so CLI
        # wiring sees the service's series, falling back to a private
        # registry so the status snapshot works with observability off.
        ambient = get_metrics()
        self.metrics = metrics if metrics is not None else (
            ambient if ambient.enabled else MetricsRegistry()
        )
        self._stages = {
            label: self.metrics.histogram("repro_serve_stage_latency_seconds", stage=label)
            for label in ("bin", "measure", "prior", "estimate", "publish", "fit")
        }

    # -- control -------------------------------------------------------------

    def request_stop(self, signum=None, frame=None) -> None:
        """Ask the loop to stop after the current batch (signal-handler safe)."""
        self._stop_requested = True

    # -- checkpointing -------------------------------------------------------

    def _load_checkpoint(self):
        payload = json.loads(self._checkpoint_path.read_text())
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise ValidationError(
                f"unrecognised checkpoint format in {self._checkpoint_path}: "
                f"{payload.get('format')!r}"
            )
        self._start_bin = int(payload["next_bin"])
        noise = payload.get("noise", {})
        if noise and not abs(float(noise.get("std", 0.0)) - self._noise_std) <= 1e-12:
            raise ValidationError(
                "checkpoint noise std does not match this service's "
                f"--measurement-noise ({noise.get('std')} vs {self._noise_std})"
            )
        fit = payload.get("fit")
        if fit and fit.get("preference") is not None:
            return fit
        return None

    def _write_checkpoint(self) -> None:
        if self._checkpoint_path is None:
            return
        active = self._fits.active
        fit = None
        if active.mode == "stable_fp" and active.preference is not None:
            fit = {
                "forward_fraction": active.forward_fraction,
                "preference": [float(v) for v in active.preference],
                "version": active.version,
            }
        payload = {
            "format": CHECKPOINT_FORMAT,
            "next_bin": self.status.next_bin,
            "bin_seconds": self._bin_seconds,
            "origin": self._origin,
            "noise": {"std": self._noise_std, "seed": self._seed},
            "fit": fit,
            "counters": {
                "records_seen": self.status.records_seen,
                "records_dropped_late": self.status.records_dropped_late,
            },
        }
        self._checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._checkpoint_path.with_suffix(self._checkpoint_path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2))
        tmp.replace(self._checkpoint_path)

    # -- status --------------------------------------------------------------

    def _write_status(self, binner: FlowBinner, *, queue_depth: int = 0) -> None:
        counters = binner.counters()
        status = self.status
        status.records_seen = counters["records_seen"]
        status.records_binned = counters["records_binned"]
        status.records_dropped_late = counters["records_dropped_late"]
        status.records_skipped = counters["records_skipped"]
        status.open_bins = counters["open_bins"]
        status.queue_depth = queue_depth
        # Bins the watermark has already released (indices below
        # max_bin_seen - watermark_bins close on every push) that are not
        # published yet: the estimator's lag behind the feed.
        status.bins_behind_watermark = max(
            0, counters["max_bin_seen"] - binner.watermark_bins - status.next_bin
        )
        # The same lag restated in feed time, so alerting thresholds can be
        # phrased in seconds regardless of the deployment's bin width.
        status.feed_lag_seconds = status.bins_behind_watermark * self._bin_seconds
        active = self._fits.active
        status.prior_mode = active.mode
        status.prior_version = active.version
        status.fit_forward_fraction = active.forward_fraction
        status.fit_age_bins = self._fits.fit_age_bins()
        status.refits = self._fits.refits
        status.peak_rss_mb = peak_rss_mb()
        self._sync_metrics(status, counters)
        if self._status_path is not None:
            self._status_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self._status_path.with_suffix(self._status_path.suffix + ".tmp")
            tmp.write_text(json.dumps(status.to_dict(self._stages), indent=2))
            tmp.replace(self._status_path)

    def _sync_metrics(self, status: ServiceStatus, counters: dict) -> None:
        """Mirror the status snapshot into the metrics registry.

        Gauges track the latest value; the two lag series additionally feed
        histograms so a scrape exposes quantiles of the lag *distribution*
        over the run, not just the instantaneous reading.  Monotonic binner
        totals use ``set_total`` — the binner already owns the cumulative
        count, re-counting increments here would double it on resume.
        """
        metrics = self.metrics
        metrics.gauge("repro_serve_queue_depth").set(status.queue_depth)
        metrics.gauge("repro_serve_bins_behind_watermark").set(status.bins_behind_watermark)
        metrics.gauge("repro_serve_feed_lag_seconds").set(status.feed_lag_seconds)
        metrics.histogram("repro_serve_bins_behind_watermark_window").observe(
            float(status.bins_behind_watermark)
        )
        metrics.histogram("repro_serve_feed_lag_seconds_window").observe(
            status.feed_lag_seconds
        )
        metrics.counter("repro_serve_bins_published_total").set_total(status.bins_published)
        metrics.counter("repro_serve_records_binned_total").set_total(counters["records_binned"])
        metrics.counter("repro_serve_records_dropped_late_total").set_total(
            counters["records_dropped_late"]
        )
        metrics.counter("repro_serve_records_skipped_total").set_total(
            counters["records_skipped"]
        )
        metrics.gauge("repro_serve_open_bins").set(status.open_bins)
        metrics.counter("repro_serve_refits_total").set_total(status.refits)
        if status.peak_rss_mb is not None:
            metrics.gauge("repro_serve_peak_rss_mb").set(status.peak_rss_mb)

    # -- the loop ------------------------------------------------------------

    def _process_chunk(self, start_bin: int, matrices: list, publisher: _Publisher) -> None:
        n = len(self._topology.nodes)
        block = np.stack(matrices)
        t_chunk = block.shape[0]

        with stage("measure", self._stages["measure"], start_bin=start_bin, bins=t_chunk):
            link_loads = self._routing.link_loads(block.reshape(t_chunk, n * n))
            ingress = block.sum(axis=2)
            egress = block.sum(axis=1)
            if self._noise_std > 0:
                rng = np.random.default_rng([self._seed, int(start_bin)])
                link_loads = link_loads * rng.normal(1.0, self._noise_std, size=link_loads.shape)
                ingress = ingress * rng.normal(1.0, self._noise_std, size=ingress.shape)
                egress = egress * rng.normal(1.0, self._noise_std, size=egress.shape)
            system = LinkLoadSystem(
                routing=self._routing, link_loads=link_loads, ingress=ingress, egress=egress
            )

        with stage("prior", self._stages["prior"], start_bin=start_bin):
            active = self._fits.active
            prior_block = self._fits.prior_values(ingress, egress)
            prior_stream = ArrayChunkStream(
                prior_block,
                self._topology.nodes,
                bin_seconds=self._bin_seconds,
                chunk_bins=t_chunk,
            )

        with stage("estimate", self._stages["estimate"], start_bin=start_bin, bins=t_chunk):
            result = self._estimator.estimate_stream(system, prior_stream, collect_estimate=True)

        with stage("bin_publish", self._stages["publish"], start_bin=start_bin, bins=t_chunk):
            estimates = result.estimate.values
            for offset in range(t_chunk):
                index = start_bin + offset
                publisher.publish(
                    {
                        "bin": index,
                        "time": self._origin + index * self._bin_seconds,
                        "prior": active.mode,
                        "prior_version": active.version,
                        "estimate": estimates[offset].tolist(),
                    }
                )
            publisher.flush()
            if self._estimate_writer is not None:
                self._estimate_writer(start_bin, estimates)
            self.status.bins_published += t_chunk
            self.status.next_bin = start_bin + t_chunk

        # Observe *after* publishing: a re-fit triggered by these bins swaps
        # the active prior atomically for subsequent chunks only.
        with stage("fit_observe", self._stages["fit"], start_bin=start_bin):
            self._fits.observe(start_bin, block)

    def run(self) -> ServiceStatus:
        """Drive the feed to completion (or stop/max-bins) and return status."""
        binner = FlowBinner(
            self._topology.nodes,
            bin_seconds=self._bin_seconds,
            watermark_bins=self._watermark_bins,
            origin=self._origin,
            start_bin=self._start_bin,
        )
        publisher = _Publisher(self._sink)
        if self._estimate_shards_dir is not None:
            from repro.scenarios.spill import SpillStore

            self._estimate_writer = SpillStore(
                self._estimate_shards_dir, shard_bins=self._estimate_shard_bins
            ).writer("estimate", start_bin=self._start_bin)
        pending: list[tuple[int, np.ndarray]] = []

        def budget_left() -> int | None:
            if self._max_bins is None:
                return None
            return self._max_bins - self.status.bins_published

        def drain(closed, *, final: bool) -> bool:
            """Publish complete chunks from ``pending``; True = keep running."""
            pending.extend(closed)
            while pending:
                left = budget_left()
                if left is not None and left <= 0:
                    return False
                take = self._chunk_bins if len(pending) >= self._chunk_bins else (
                    len(pending) if final else 0
                )
                if left is not None:
                    take = min(take, left)
                if take == 0:
                    return True
                chunk = pending[:take]
                del pending[:take]
                self._process_chunk(chunk[0][0], [m for _, m in chunk], publisher)
                self._write_status(binner, queue_depth=len(pending))
            return budget_left() is None or budget_left() > 0

        try:
            with get_tracer().span("serve", start_bin=self._start_bin) as span:
                interrupted = False
                for batch in self._source.batches():
                    with stage("bin", self._stages["bin"], records=len(batch)):
                        closed = binner.push(batch)
                    if not drain(closed, final=False):
                        break
                    if self._stop_requested:
                        interrupted = True
                        break
                if not interrupted and not self._stop_requested:
                    # End of feed: flush the watermark-held and partial bins.
                    drain(binner.flush(), final=True)
                else:
                    # Stopped mid-feed: publish what is already closed, keep the
                    # open bins for the resumed service to re-ingest.
                    drain([], final=True)
                self.status.stopped_by_signal = self._stop_requested
                self._write_status(binner, queue_depth=len(pending))
                if self._estimate_writer is not None:
                    self._estimate_writer.flush()
                self._write_checkpoint()
                span.set(bins_published=self.status.bins_published)
        finally:
            publisher.close()
        return self.status
