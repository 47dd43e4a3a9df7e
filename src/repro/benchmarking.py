"""Benchmark harness and the ``BENCH_<rev>.json`` trajectory format.

Performance work needs a baseline: this module defines one shared on-disk
format for benchmark results, so that

* ``repro bench`` (the CLI harness) writes a ``BENCH_<rev>.json`` snapshot
  of the built-in micro-benchmarks (and, in full mode, the pytest-benchmark
  suite under ``benchmarks/``), and
* ad-hoc ``pytest benchmarks/`` runs can append to the very same format via
  :mod:`benchmarks._bench_utils` (set ``REPRO_BENCH_JSON``),

which gives successive revisions a comparable perf trajectory: collect the
``BENCH_*.json`` files and diff ``wall_seconds`` per benchmark name.

The built-in micro-benchmarks time the batched kernels introduced by the
batched execution engine against their per-bin per-entry reference loops and
record the speedups in ``extra_info`` (including the headline ``(n=50,
T=288)`` IC-series kernel).
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro._tables import format_rows
from repro.core.ic_model import simplified_ic_matrix, simplified_ic_series
from repro.estimation.ipf import (
    iterative_proportional_fitting,
    iterative_proportional_fitting_series,
)
from repro.estimation.linear_system import simulate_link_loads
from repro.estimation.tomogravity import tomogravity_estimate
from repro.synthesis.datasets import load_dataset
from repro.topology.library import geant_topology
from repro.topology.routing import build_routing_matrix

__all__ = [
    "BenchmarkRecord",
    "BenchComparison",
    "bench_ic_series_kernel",
    "bench_routing_matrix",
    "bench_ipf_series",
    "bench_tomogravity_batch",
    "bench_streaming_synthesis",
    "bench_ingest_throughput",
    "bench_sweep_grid",
    "bench_sweep_executor",
    "bench_report_marts",
    "bench_obs_overhead",
    "run_benchmarks",
    "run_pytest_benchmarks",
    "current_revision",
    "environment_info",
    "write_bench_json",
    "load_bench_json",
    "compare_bench_files",
    "format_records",
]


@dataclass
class BenchmarkRecord:
    """One benchmark measurement: a name, a wall time and headline numbers."""

    name: str
    wall_seconds: float
    extra_info: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "extra_info": dict(self.extra_info),
        }


def current_revision() -> str:
    """Short git revision of the working tree, or ``"local"`` without git."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        return output or "local"
    except (OSError, subprocess.SubprocessError):
        return "local"


def environment_info() -> dict:
    """The environment fingerprint embedded in every BENCH file."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def write_bench_json(
    records,
    *,
    directory: str | Path = ".",
    revision: str | None = None,
    path: str | Path | None = None,
) -> Path:
    """Write ``records`` as a ``BENCH_<revision>.json`` trajectory file.

    ``path`` overrides the default ``<directory>/BENCH_<revision>.json``
    location.  Returns the path written.
    """
    revision = revision or current_revision()
    if path is None:
        path = Path(directory) / f"BENCH_{revision}.json"
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    obs_record = next((r for r in records if r.name == "obs_overhead"), None)
    payload = {
        "format": "repro-bench-v1",
        "revision": revision,
        "created_unix": time.time(),
        "environment": environment_info(),
        # The telemetry plane's standing cost: disabled-instrumentation
        # overhead of the traced streaming pipeline (None when the obs
        # benchmark was not part of this run).
        "obs": {
            "overhead_pct": (
                obs_record.extra_info.get("overhead_pct") if obs_record else None
            ),
            "budget_pct": (
                obs_record.extra_info.get("budget_pct") if obs_record else None
            ),
            "within_budget": (
                obs_record.extra_info.get("within_budget") if obs_record else None
            ),
        },
        "benchmarks": [record.to_dict() for record in records],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench_json(path: str | Path) -> dict:
    """Read a ``BENCH_<rev>.json`` trajectory file, validating its format."""
    path = Path(path)
    payload = json.loads(path.read_text())
    if payload.get("format") != "repro-bench-v1":
        raise ValueError(
            f"{path} is not a repro-bench-v1 file (format={payload.get('format')!r})"
        )
    return payload


@dataclass
class BenchComparison:
    """Per-benchmark wall-time diff between two BENCH trajectory snapshots.

    ``rows`` holds ``(name, old_seconds, new_seconds, ratio)`` for every
    benchmark present in both files (``ratio = new / old``; NaN when the old
    time is zero), plus the names only one side has.  A benchmark regresses
    when its ratio exceeds ``1 + threshold`` — the threshold absorbs the
    run-to-run noise wall-clock micro-benchmarks inevitably carry.
    """

    old_revision: str
    new_revision: str
    threshold: float
    rows: list[tuple[str, float, float, float]]
    only_old: list[str]
    only_new: list[str]

    @property
    def regressions(self) -> list[tuple[str, float, float, float]]:
        """The rows whose slowdown exceeds the noise threshold."""
        return [row for row in self.rows if row[3] > 1.0 + self.threshold]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def format_table(self) -> str:
        """ASCII report: per-benchmark times, ratios and regression flags."""
        header = (
            f"bench compare: {self.old_revision} -> {self.new_revision} "
            f"(regression threshold +{self.threshold * 100:.0f}%)"
        )
        rows = []
        for name, old_seconds, new_seconds, ratio in self.rows:
            flag = "REGRESSED" if ratio > 1.0 + self.threshold else (
                "improved" if ratio < 1.0 - self.threshold else "ok"
            )
            rows.append([name, f"{old_seconds:.6f}", f"{new_seconds:.6f}", f"{ratio:.3f}", flag])
        table = format_rows(["benchmark", "old s", "new s", "ratio", "status"], rows)
        lines = [header, table]
        if self.only_old:
            lines.append("only in old snapshot: " + ", ".join(sorted(self.only_old)))
        if self.only_new:
            lines.append("only in new snapshot: " + ", ".join(sorted(self.only_new)))
        if self.has_regressions:
            worst = max(self.regressions, key=lambda row: row[3])
            lines.append(
                f"{len(self.regressions)} regression(s); worst: {worst[0]} at {worst[3]:.2f}x"
            )
        else:
            lines.append("no regressions beyond the noise threshold")
        return "\n".join(lines)


def compare_bench_files(
    old_path: str | Path, new_path: str | Path, *, threshold: float = 0.25
) -> BenchComparison:
    """Diff two ``BENCH_<rev>.json`` snapshots benchmark by benchmark.

    Parameters
    ----------
    old_path, new_path:
        The baseline and candidate trajectory files (any two revisions'
        ``repro bench`` outputs).
    threshold:
        Relative slowdown treated as noise; a benchmark only counts as a
        regression when ``new > old * (1 + threshold)``.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    old_payload = load_bench_json(old_path)
    new_payload = load_bench_json(new_path)
    old_times = {
        bench["name"]: float(bench["wall_seconds"]) for bench in old_payload["benchmarks"]
    }
    new_times = {
        bench["name"]: float(bench["wall_seconds"]) for bench in new_payload["benchmarks"]
    }
    rows = []
    for name in sorted(set(old_times) & set(new_times)):
        old_seconds, new_seconds = old_times[name], new_times[name]
        ratio = new_seconds / old_seconds if old_seconds > 0 else float("nan")
        rows.append((name, old_seconds, new_seconds, ratio))
    only_old = sorted(set(old_times) - set(new_times))
    only_new = sorted(set(new_times) - set(old_times))
    return BenchComparison(
        old_revision=str(old_payload.get("revision", "?")),
        new_revision=str(new_payload.get("revision", "?")),
        threshold=float(threshold),
        rows=rows,
        only_old=only_old,
        only_new=only_new,
    )


def format_records(records) -> str:
    """ASCII table of benchmark names, wall times and headline extras."""
    rows = []
    for record in records:
        extras = ", ".join(
            f"{key}={value:.3g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in sorted(record.extra_info.items())
        )
        rows.append([record.name, f"{record.wall_seconds:.6f}", extras])
    return format_rows(["benchmark", "wall s", "extra info"], rows)


# ---------------------------------------------------------------------------
# built-in micro-benchmarks (batched kernels vs their reference loops)
# ---------------------------------------------------------------------------

def _best_of(func, *, repeat: int) -> float:
    """Best-of-``repeat`` wall time of ``func()`` in seconds."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return best


def bench_ic_series_kernel(*, n: int = 50, timesteps: int = 288, repeat: int = 3) -> BenchmarkRecord:
    """Headline kernel benchmark: batched IC ``series()`` vs the per-bin loop.

    Times :func:`repro.core.ic_model.simplified_ic_series` on ``(T, n)``
    activity against the seed-era ``np.stack`` of per-bin
    :func:`simplified_ic_matrix` calls, verifies the outputs are bit-equal,
    and records the speedup.
    """
    rng = np.random.default_rng(0)
    activity = rng.random((timesteps, n)) * 1e6
    preference = rng.random(n) + 1e-3
    forward = 0.25

    def per_bin_loop():
        return np.stack(
            [simplified_ic_matrix(forward, activity[t], preference) for t in range(timesteps)]
        )

    def batched():
        return simplified_ic_series(forward, activity, preference)

    matches = bool(np.array_equal(per_bin_loop(), batched()))
    loop_seconds = _best_of(per_bin_loop, repeat=repeat)
    batch_seconds = _best_of(batched, repeat=repeat)
    return BenchmarkRecord(
        name="ic_series_kernel",
        wall_seconds=batch_seconds,
        extra_info={
            "n": n,
            "timesteps": timesteps,
            "loop_seconds": loop_seconds,
            "speedup_vs_loop": loop_seconds / max(batch_seconds, 1e-12),
            "matches_loop_bitwise": matches,
        },
    )


def bench_routing_matrix(*, repeat: int = 3) -> BenchmarkRecord:
    """The sparse routing build."""
    topology = geant_topology()
    build_seconds = _best_of(lambda: build_routing_matrix(topology), repeat=repeat)
    routing = build_routing_matrix(topology)
    density = routing.sparse.nnz / float(routing.n_links * topology.n_nodes**2)
    return BenchmarkRecord(
        name="routing_matrix",
        wall_seconds=build_seconds,
        extra_info={
            "n_nodes": topology.n_nodes,
            "n_links": routing.n_links,
            "nnz_density": density,
        },
    )


def _small_system(bins: int):
    data = load_dataset("geant", n_weeks=1, bins_per_week=max(bins, 2))
    week = data.week(0)[:bins]
    return week, simulate_link_loads(data.topology, week, noise_std=0.0)


def bench_ipf_series(*, bins: int = 48, repeat: int = 3) -> BenchmarkRecord:
    """Batched IPF over a series vs the per-bin loop."""
    week, system = _small_system(bins)
    seeds = np.asarray(week.values, dtype=float)
    ingress, egress = system.ingress, system.egress

    def per_bin_loop():
        return np.stack(
            [
                iterative_proportional_fitting(seeds[t], ingress[t], egress[t])
                for t in range(seeds.shape[0])
            ]
        )

    def batched():
        return iterative_proportional_fitting_series(seeds, ingress, egress)

    matches = bool(np.array_equal(per_bin_loop(), batched()))
    loop_seconds = _best_of(per_bin_loop, repeat=repeat)
    batch_seconds = _best_of(batched, repeat=repeat)
    return BenchmarkRecord(
        name="ipf_series",
        wall_seconds=batch_seconds,
        extra_info={
            "bins": bins,
            "loop_seconds": loop_seconds,
            "speedup_vs_loop": loop_seconds / max(batch_seconds, 1e-12),
            "matches_loop_bitwise": matches,
        },
    )


def bench_tomogravity_batch(*, bins: int = 16, repeat: int = 3) -> BenchmarkRecord:
    """Batched tomogravity refinement vs calling it one bin at a time.

    Both arms refine against the factor cached on the routing matrix, so
    the comparison is the kernel's, not the one-off factorisation's.
    """
    week, system = _small_system(bins)
    _, observations = system.augmented_system()
    matrix = system.routing.observation_factor()
    priors = week.to_vectors()

    def per_bin_loop():
        return np.stack(
            [
                tomogravity_estimate(priors[t], matrix, observations[t])
                for t in range(priors.shape[0])
            ]
        )

    def batched():
        return tomogravity_estimate(priors, matrix, observations)

    matches = bool(np.array_equal(per_bin_loop(), batched()))
    loop_seconds = _best_of(per_bin_loop, repeat=repeat)
    batch_seconds = _best_of(batched, repeat=repeat)
    return BenchmarkRecord(
        name="tomogravity_batch",
        wall_seconds=batch_seconds,
        extra_info={
            "bins": bins,
            "loop_seconds": loop_seconds,
            "speedup_vs_loop": loop_seconds / max(batch_seconds, 1e-12),
            "matches_loop_bitwise": matches,
        },
    )


def bench_streaming_synthesis(*, bins: int = 288, repeat: int = 3) -> BenchmarkRecord:
    """Chunked synthesis vs the materialised cube: wall time and peak memory.

    Streams one geant-like week chunk by chunk (accumulating the marginals,
    the streaming pipeline's typical first pass) and compares against
    materialising the same week, recording both wall times and the
    ``tracemalloc`` peak of each path — the number the streaming data plane
    exists to bound.
    """
    import tracemalloc

    from repro.synthesis.datasets import open_dataset_stream

    stream_data = open_dataset_stream(
        "geant", n_weeks=1, bins_per_week=max(bins, 2), chunk_bins=32
    )

    def streamed():
        week_stream = stream_data.week_stream(0)
        return week_stream.marginals()

    def materialised():
        return stream_data.week(0)

    def peak_of(func) -> int:
        tracemalloc.start()
        func()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    stream_peak = peak_of(streamed)
    cube_peak = peak_of(materialised)
    stream_seconds = _best_of(streamed, repeat=repeat)
    cube_seconds = _best_of(materialised, repeat=repeat)
    return BenchmarkRecord(
        name="streaming_synthesis",
        wall_seconds=stream_seconds,
        extra_info={
            "bins": bins,
            "chunk_bins": 32,
            "cube_seconds": cube_seconds,
            "stream_peak_bytes": stream_peak,
            "cube_peak_bytes": cube_peak,
            "peak_memory_ratio": cube_peak / max(stream_peak, 1),
        },
    )


def bench_ingest_throughput(
    *, bins: int = 64, records_per_pair: int = 4, repeat: int = 3
) -> BenchmarkRecord:
    """Records/sec and bins/sec through the live-ingestion binner.

    Pre-materialises the record batches of a geant-scale synthetic feed
    (so parsing/synthesis cost is excluded), then times
    :class:`repro.ingest.FlowBinner` aggregating them — the vectorised
    ``bincount`` scatter path ``repro serve`` runs on.  The service's
    ingestion SLO (>=100k records/sec on the CI container) is asserted
    against this record's ``records_per_sec``.
    """
    from repro.ingest import FlowBinner, SyntheticFlowSource
    from repro.synthesis.datasets import open_dataset_stream

    data = open_dataset_stream("geant", n_weeks=1, bins_per_week=max(bins, 2), chunk_bins=16)
    stream = data.week_stream(0)
    source = SyntheticFlowSource(stream, records_per_pair=records_per_pair)
    batches = list(source.batches())
    n_records = sum(len(batch) for batch in batches)

    def ingest():
        binner = FlowBinner(stream.nodes, bin_seconds=stream.bin_seconds, watermark_bins=1)
        for batch in batches:
            binner.push(batch)
        binner.flush()
        return binner

    seconds = _best_of(ingest, repeat=repeat)
    return BenchmarkRecord(
        name="ingest_throughput",
        wall_seconds=seconds,
        extra_info={
            "records": n_records,
            "bins": int(stream.n_bins),
            "records_per_pair": records_per_pair,
            "records_per_sec": n_records / max(seconds, 1e-12),
            "bins_per_sec": int(stream.n_bins) / max(seconds, 1e-12),
        },
    )


def bench_sweep_grid(
    *,
    priors: tuple = ("gravity", "measured", "stable_f", "stable_fp"),
    datasets: tuple = ("geant", "totem"),
    bins_per_week: int = 2016,
    max_bins: int = 8,
    jobs: int = 4,
    repeat: int = 2,
) -> BenchmarkRecord:
    """Shared-plan streamed grid sweep vs the pre-PR per-cell execution.

    The workload mirrors the paper's Sections 5.5-5.6 evaluation: a priors ×
    datasets grid over paper-length weeks, streamed in bounded memory, with
    a small estimated window per cell (the calibration fits dominate, as
    they do at month scale).  Three executions of the *same* grid cells are
    timed:

    * ``serial_stream_seconds`` — the pre-PR serial-stream sweep: every cell
      run independently with no fit replay-cache, no measurement/baseline
      reuse and a cold routing build per cell (exactly what
      ``sweep --stream`` did before the shared-plan scheduler);
    * ``shared_serial_seconds`` — the scheduler's serial path (shared plans,
      systems, baselines, cached fits and routing);
    * ``wall_seconds`` — the scheduler at ``jobs`` worker processes.

    Per-cell errors of all three runs are verified bit-identical before any
    timing is reported, and ``extra_info`` records cells/sec, the speedups,
    the max worker peak RSS and the CPU count (the ``jobs`` speedup is
    parallelism × sharing on a multi-core host, sharing alone on one CPU).
    """
    import os

    from repro.scenarios import Scenario, ScenarioRunner
    from repro.synthesis import datasets as datasets_module
    from repro.topology.routing import clear_routing_cache

    base = Scenario(
        dataset=datasets[0],
        prior=priors[0],
        bins_per_week=bins_per_week,
        max_bins=max_bins,
        calibration_week=0,
        target_week=1,
        stream=True,
    )
    kwargs = dict(priors=priors, datasets=datasets, base=base)

    def cold_start() -> None:
        datasets_module.load_dataset.cache_clear()
        datasets_module._open_stream_core.cache_clear()  # noqa: SLF001 - bench isolation
        clear_routing_cache()

    # Pre-PR emulation: independent per-cell runs, strictly chunk-bounded
    # fits, no cross-cell reuse, routing rebuilt per cell.
    cells = [
        base.replace(dataset=dataset, prior=prior)
        for dataset in datasets
        for prior in priors
    ]
    legacy_runner = ScenarioRunner(fit_cache_bytes=None)

    def run_legacy():
        # Pre-PR plans anchored the noise-RNG state only at coarse stride
        # multiples, so *every* pass over a mid-plan week replayed the
        # skipped draws from the nearest stride; suppress the exact-start
        # state cache for the duration of the legacy runs so the emulation
        # replays exactly what the seed code replayed.  Values are
        # unaffected — only the redundant draws return.
        from repro.synthesis import generator as generator_module

        stride = generator_module._STATE_CACHE_STRIDE  # noqa: SLF001
        plan_cls = generator_module.GenerationPlan
        original = plan_cls._noise_rng_at  # noqa: SLF001

        def stride_anchored(self, start_bin):
            rng = original(self, start_bin)
            if start_bin % stride:
                self.noise_states.pop(start_bin, None)
            return rng

        plan_cls._noise_rng_at = stride_anchored  # noqa: SLF001
        try:
            results = []
            for cell in cells:
                clear_routing_cache()
                results.append(legacy_runner.run(cell))
            return results
        finally:
            plan_cls._noise_rng_at = original  # noqa: SLF001

    def timed(run) -> tuple[float, object]:
        cold_start()
        started = time.perf_counter()
        outcome = run()
        return time.perf_counter() - started, outcome

    # The three modes are deterministic, so wall-clock noise is the only
    # variance; interleave them and keep the best of ``repeat`` rounds.
    serial_stream_seconds = shared_serial_seconds = wall_seconds = float("inf")
    legacy_results = shared_serial = swept = None
    for _ in range(max(1, repeat)):
        seconds, outcome = timed(run_legacy)
        if seconds < serial_stream_seconds:
            serial_stream_seconds, legacy_results = seconds, outcome
        seconds, outcome = timed(lambda: ScenarioRunner().sweep(jobs=1, **kwargs))
        if seconds < shared_serial_seconds:
            shared_serial_seconds, shared_serial = seconds, outcome
        seconds, outcome = timed(lambda: ScenarioRunner().sweep(jobs=jobs, **kwargs))
        if seconds < wall_seconds:
            wall_seconds, swept = seconds, outcome

    if swept.failures or shared_serial.failures:  # pragma: no cover - defensive
        raise RuntimeError(f"sweep grid cells failed: {swept.failures or shared_serial.failures}")
    matches = all(
        np.array_equal(np.asarray(legacy.errors), np.asarray(cell.errors))
        and np.array_equal(np.asarray(legacy.errors), np.asarray(serial_cell.errors))
        for legacy, cell, serial_cell in zip(
            legacy_results, swept.results, shared_serial.results
        )
    )
    if not matches:
        raise RuntimeError(
            "sweep_grid executions diverged: the shared-plan scheduler must be "
            "bit-identical to the per-cell serial run"
        )
    return BenchmarkRecord(
        name="sweep_grid",
        wall_seconds=wall_seconds,
        extra_info={
            "grid": f"{len(priors)}x{len(datasets)}",
            "bins_per_week": bins_per_week,
            "max_bins": max_bins,
            "jobs": jobs,
            "effective_workers": max(1, min(jobs, os.cpu_count() or jobs)),
            "cpu_count": os.cpu_count(),
            "cells": len(cells),
            "cells_per_second": swept.timing.get("cells_per_second"),
            "serial_stream_seconds": serial_stream_seconds,
            "shared_serial_seconds": shared_serial_seconds,
            "speedup_vs_serial_stream": serial_stream_seconds / max(wall_seconds, 1e-12),
            "serial_sharing_speedup": serial_stream_seconds / max(shared_serial_seconds, 1e-12),
            "worker_peak_rss_mb": swept.timing.get("worker_peak_rss_mb"),
            "matches_serial_bitwise": matches,
        },
    )


def bench_sweep_executor(
    *,
    n_targets: int = 6,
    bins_per_week: int = 2016,
    max_bins: int = 8,
    pool_jobs: int = 2,
    repeat: int = 2,
) -> BenchmarkRecord:
    """Overlapping-window sweep: executors and streamed-fit memoisation.

    The workload is the paper's rolling evaluation shape — ``n_targets``
    ``stable_fp`` cells over one streamed dataset column, every cell
    calibrating on week 0 and targeting a different later week, so all the
    cells of a worker share one calibration fit.  Three executions of the
    same cells are timed through :meth:`ScenarioRunner.run_cells`:

    * ``serial_seconds`` — :class:`InProcessExecutor`, memoisation off: the
      pre-PR behaviour, one streamed ALS fit per cell;
    * ``pool_unmemoised_seconds`` — :class:`LocalPoolExecutor` at
      ``pool_jobs``, memoisation off (parallelism without fit reuse);
    * ``wall_seconds`` — the same pool with memoisation on: each worker
      fits the shared (plan, window) once and replays it for the rest of
      its batch.

    All three runs are verified bit-identical before any timing is
    reported; ``memoisation_speedup`` (unmemoised pool / memoised pool,
    same executor both sides) isolates the fit-memo win from scheduling.
    """
    import os

    from repro.scenarios import InProcessExecutor, LocalPoolExecutor, Scenario, ScenarioRunner
    from repro.synthesis import datasets as datasets_module
    from repro.topology.routing import clear_routing_cache

    cells = [
        Scenario(
            dataset="geant",
            prior="stable_fp",
            bins_per_week=bins_per_week,
            max_bins=max_bins,
            calibration_week=0,
            target_week=week,
            n_weeks=n_targets + 1,
            stream=True,
        )
        for week in range(1, n_targets + 1)
    ]

    def cold_start() -> None:
        datasets_module.load_dataset.cache_clear()
        datasets_module._open_stream_core.cache_clear()  # noqa: SLF001 - bench isolation
        clear_routing_cache()

    def timed(run) -> tuple[float, object]:
        cold_start()
        started = time.perf_counter()
        outcome = run()
        return time.perf_counter() - started, outcome

    arms = {
        "serial": lambda: ScenarioRunner(fit_memo=False).run_cells(
            cells, executor=InProcessExecutor()
        ),
        "pool_unmemoised": lambda: ScenarioRunner(fit_memo=False).run_cells(
            cells, jobs=pool_jobs, executor=LocalPoolExecutor(pool_jobs)
        ),
        "pool_memoised": lambda: ScenarioRunner(fit_memo=True).run_cells(
            cells, jobs=pool_jobs, executor=LocalPoolExecutor(pool_jobs)
        ),
    }
    best = {name: (float("inf"), None) for name in arms}
    # Deterministic workloads: interleave the arms and keep the best round.
    for _ in range(max(1, repeat)):
        for name, run in arms.items():
            seconds, outcome = timed(run)
            if seconds < best[name][0]:
                best[name] = (seconds, outcome)
    serial_seconds, serial = best["serial"]
    pool_unmemoised_seconds, unmemoised = best["pool_unmemoised"]
    wall_seconds, memoised = best["pool_memoised"]

    failed = serial.failures or unmemoised.failures or memoised.failures
    if failed:  # pragma: no cover - defensive
        raise RuntimeError(f"sweep_executor cells failed: {failed}")
    matches = all(
        np.array_equal(np.asarray(a.errors), np.asarray(b.errors))
        and np.array_equal(np.asarray(a.errors), np.asarray(c.errors))
        for a, b, c in zip(serial.results, unmemoised.results, memoised.results)
    )
    if not matches:
        raise RuntimeError(
            "sweep_executor executions diverged: memoised and pooled runs must "
            "be bit-identical to the serial in-process run"
        )
    return BenchmarkRecord(
        name="sweep_executor",
        wall_seconds=wall_seconds,
        extra_info={
            "cells": len(cells),
            "bins_per_week": bins_per_week,
            "max_bins": max_bins,
            "pool_jobs": pool_jobs,
            "cpu_count": os.cpu_count(),
            "serial_seconds": serial_seconds,
            "pool_unmemoised_seconds": pool_unmemoised_seconds,
            "memoisation_speedup": pool_unmemoised_seconds / max(wall_seconds, 1e-12),
            "speedup_vs_serial": serial_seconds / max(wall_seconds, 1e-12),
            "matches_serial_bitwise": matches,
        },
    )


def bench_report_marts(
    *,
    bins: int = 2048,
    nodes: int = 22,
    shard_bins: int = 128,
    repeat: int = 3,
) -> BenchmarkRecord:
    """Streaming marts over a shard archive vs materialise-then-reduce.

    Builds a spilled archive (a gamma-traffic estimate cube plus a per-bin
    error series, sharded at ``shard_bins``) and answers the ``repro
    report`` catalogue two ways over fresh lazy handles each round:

    * ``wall_seconds`` — the streaming marts (:mod:`repro.marts`): one
      decompressed shard in memory at a time, exact rollups via
      per-bin sequential folds, sketched quantiles/CCDF;
    * ``materialised_seconds`` — the pre-PR baseline: ``.load()`` the
      series into memory, then numpy reductions answering the same
      questions (``cube.sum(axis=0)``, top-K by argsort, hour-of-day
      ``np.add.at`` rollup, ``np.quantile`` over the errors and the
      positive cube values).

    The exact marts are verified bit-identical to the materialised numpy
    oracle before any number is reported, and ``tracemalloc`` peaks of
    both arms are recorded — the ``peak_memory_ratio`` is the headline:
    report memory stays one shard + sketch state, never the series.
    """
    import tempfile
    import tracemalloc

    from repro.marts import (
        ErrorQuantilesMart,
        OdCcdfMart,
        OverviewMart,
        TopTalkersMart,
        TrafficByHourMart,
    )
    from repro.scenarios.spill import SpillStore, discover_spilled_series

    quantiles = (0.5, 0.9, 0.95, 0.99)
    rng = np.random.default_rng(7)

    with tempfile.TemporaryDirectory(prefix="repro-bench-marts-") as tmp:
        store = SpillStore(tmp, shard_bins=shard_bins)
        writer = store.writer("estimate")
        for start in range(0, bins, shard_bins):
            t_chunk = min(shard_bins, bins - start)
            writer(start, rng.gamma(2.0, 50_000.0, size=(t_chunk, nodes, nodes)))
        writer.finish()
        store.add_series("errors", rng.uniform(0.1, 0.6, size=bins))

        top_k = 10
        bins_per_hour = 12

        def streamed() -> dict:
            series = discover_spilled_series(tmp)
            marts = {
                "overview": OverviewMart(),
                "top_talkers": TopTalkersMart(k=top_k),
                "traffic_by_hour": TrafficByHourMart(bins_per_hour=bins_per_hour),
                "od_ccdf": OdCcdfMart(),
            }
            for t0, block in series["estimate"].iter_blocks():
                for mart in marts.values():
                    mart.update(t0, block)
            errors = ErrorQuantilesMart().consume(series["errors"].iter_blocks())
            return {name: mart.result() for name, mart in marts.items()} | {
                "error_quantiles": errors.result()
            }

        def materialised() -> dict:
            series = discover_spilled_series(tmp)
            cube = series["estimate"].load()
            errors = series["errors"].load()
            od_sum = cube.sum(axis=0)
            bin_totals = cube.sum(axis=(1, 2))
            order = np.argsort(od_sum, axis=None)[::-1][:top_k]
            hours = (np.arange(bins) // bins_per_hour) % 24
            hour_sums = np.zeros(24)
            np.add.at(hour_sums, hours, bin_totals)
            positives = cube[cube > 0]
            return {
                "od_sum": od_sum,
                "total": float(od_sum.sum()),
                "max_bin_total": float(bin_totals.max()),
                "min_bin_total": float(bin_totals.min()),
                "ingress": od_sum.sum(axis=1),
                "egress": od_sum.sum(axis=0),
                "top": [(int(i), float(od_sum.flat[i])) for i in order],
                "hour_sums": hour_sums,
                "value_quantiles": np.quantile(positives, quantiles),
                "error_quantiles": np.quantile(errors, quantiles),
                "error_mean": float(errors.mean()),
                "error_min": float(errors.min()),
                "error_max": float(errors.max()),
            }

        streamed_report = streamed()
        oracle = materialised()
        top = streamed_report["top_talkers"]
        exact_match = (
            streamed_report["overview"]["total_traffic"] == oracle["total"]
            and streamed_report["overview"]["max_bin_total"] == oracle["max_bin_total"]
            and streamed_report["overview"]["min_bin_total"] == oracle["min_bin_total"]
            and np.array_equal(np.asarray(top["ingress_totals"]), oracle["ingress"])
            and np.array_equal(np.asarray(top["egress_totals"]), oracle["egress"])
            and [row["total"] for row in top["rows"]]
            == [value for _, value in oracle["top"]]
            and np.array_equal(
                np.asarray(
                    [row["total"] for row in streamed_report["traffic_by_hour"]["rows"]]
                ),
                oracle["hour_sums"][oracle["hour_sums"] != 0],
            )
            and streamed_report["error_quantiles"]["mean"]
            == float(np.asarray(oracle["error_mean"]))
            and streamed_report["error_quantiles"]["min"] == oracle["error_min"]
            and streamed_report["error_quantiles"]["max"] == oracle["error_max"]
        )
        if not exact_match:
            raise RuntimeError(
                "report_marts diverged: the exact streaming marts must match "
                "the materialised numpy reductions bit for bit"
            )

        def peak_of(func) -> int:
            tracemalloc.start()
            func()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        streamed_peak = peak_of(streamed)
        materialised_peak = peak_of(materialised)
        streamed_seconds = _best_of(streamed, repeat=repeat)
        materialised_seconds = _best_of(materialised, repeat=repeat)

    return BenchmarkRecord(
        name="report_marts",
        wall_seconds=streamed_seconds,
        extra_info={
            "bins": bins,
            "nodes": nodes,
            "shard_bins": shard_bins,
            "materialised_seconds": materialised_seconds,
            "speedup_vs_materialised": materialised_seconds
            / max(streamed_seconds, 1e-12),
            "streamed_peak_bytes": streamed_peak,
            "materialised_peak_bytes": materialised_peak,
            "peak_memory_ratio": materialised_peak / max(streamed_peak, 1),
            "exact_marts_match_oracle": exact_match,
        },
    )


def bench_obs_overhead(*, bins: int = 96, chunk_bins: int = 16, repeat: int = 3) -> BenchmarkRecord:
    """Disabled-instrumentation overhead of the traced streaming pipeline.

    The telemetry plane's hot-path contract is that the null tracer/registry
    make instrumentation ~free when observability is off.  This benchmark
    holds the contract to a number: it times ``TMEstimator.estimate_stream``
    (whose chunk loop enters an ``estimate_chunk`` span per chunk) under the
    ambient null twins against a seed-path replica of the same chunk loop —
    identical reshape → tomogravity → IPF arithmetic with no instrumentation
    calls at all — after verifying the two produce bit-identical estimates.

    ``overhead_pct`` is the headline; the budget is <2%.  Wall-clock noise
    on a busy CI container can exceed the budget, so a first miss triggers
    one re-measurement at doubled ``repeat`` and only a gross (>10%) miss
    raises — ``within_budget`` records the verdict either way.
    """
    from repro.estimation.pipeline import TMEstimator
    from repro.estimation.tomogravity import tomogravity_estimate as refine
    from repro.streaming import ArrayChunkStream

    from repro.streaming import zip_chunks

    week, system = _small_system(bins)
    n = system.n_nodes
    t = system.n_timesteps
    prior_cube = np.asarray(week.values, dtype=float)
    estimator = TMEstimator()

    def instrumented():
        stream = ArrayChunkStream(
            prior_cube, week.nodes, bin_seconds=300.0, chunk_bins=chunk_bins
        )
        return estimator.estimate_stream(system, stream, collect_estimate=True)

    def seed_loop():
        # The pre-instrumentation chunk loop verbatim: same observation
        # system per call, same chunk stream, same reshape → tomogravity →
        # IPF arithmetic — minus every tracer/metrics call.
        matrix, observations = estimator._observation_system(system)  # noqa: SLF001
        stream = ArrayChunkStream(
            prior_cube, week.nodes, bin_seconds=300.0, chunk_bins=chunk_bins
        )
        collected = np.empty((t, n, n))
        for t0, blocks in zip_chunks(stream):
            prior_block = blocks[0]
            stop = t0 + prior_block.shape[0]
            prior_vectors = prior_block.reshape(prior_block.shape[0], n * n)
            refined = refine(prior_vectors, matrix, observations[t0:stop])
            collected[t0:stop] = iterative_proportional_fitting_series(
                refined.reshape(-1, n, n),
                system.ingress[t0:stop],
                system.egress[t0:stop],
            )
        return collected

    matches = bool(np.array_equal(instrumented().estimate.values, seed_loop()))
    if not matches:
        raise RuntimeError(
            "obs_overhead replica diverged: the instrumented streaming pipeline "
            "must match the uninstrumented seed loop bit for bit"
        )

    budget_pct = 2.0

    def measure(rounds: int) -> tuple[float, float]:
        # Interleave the arms (both already warm from the equality check):
        # back-to-back blocks of the same deterministic workload pick up
        # drifting container load as a phantom overhead.
        seed_best = stream_best = float("inf")
        for _ in range(max(1, rounds)):
            started = time.perf_counter()
            seed_loop()
            seed_best = min(seed_best, time.perf_counter() - started)
            started = time.perf_counter()
            instrumented()
            stream_best = min(stream_best, time.perf_counter() - started)
        return seed_best, stream_best

    seed_seconds, stream_seconds = measure(repeat)
    overhead_pct = (stream_seconds - seed_seconds) / max(seed_seconds, 1e-12) * 100.0
    if overhead_pct > budget_pct:
        # One retry before believing a busy-container blip.  A round takes
        # ~15 ms, so a best-of-two still swings by tens of percent: the
        # retry takes at least ten interleaved rounds.
        seed_seconds, stream_seconds = measure(max(10, repeat * 2))
        overhead_pct = (stream_seconds - seed_seconds) / max(seed_seconds, 1e-12) * 100.0
    if overhead_pct > 10.0:
        raise RuntimeError(
            f"disabled-instrumentation overhead is {overhead_pct:.1f}% "
            "(>10%): the null tracer/registry hot path has regressed"
        )
    return BenchmarkRecord(
        name="obs_overhead",
        wall_seconds=stream_seconds,
        extra_info={
            "bins": bins,
            "chunk_bins": chunk_bins,
            "seed_seconds": seed_seconds,
            "overhead_pct": overhead_pct,
            "budget_pct": budget_pct,
            "within_budget": bool(overhead_pct <= budget_pct),
            "matches_seed_bitwise": matches,
        },
    )


def run_pytest_benchmarks(*, benchmarks_dir: str | Path = "benchmarks") -> list[BenchmarkRecord]:
    """Run the pytest-benchmark suite and adapt its JSON into records.

    Returns an empty list (with a stderr note) when the suite directory or
    the ``pytest-benchmark`` plugin is unavailable, so ``repro bench`` can
    run from an installed package as well as from a checkout.
    """
    directory = Path(benchmarks_dir)
    if not directory.is_dir():
        print(f"note: benchmark suite directory {directory} not found; skipping", file=sys.stderr)
        return []
    try:
        import pytest_benchmark  # noqa: F401
    except ImportError:
        print("note: pytest-benchmark is not installed; skipping the suite", file=sys.stderr)
        return []
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "pytest_bench.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            str(directory),
            "--benchmark-only",
            f"--benchmark-json={json_path}",
            "-q",
        ]
        completed = subprocess.run(command, capture_output=True, text=True)
        if not json_path.exists():
            print(
                f"note: pytest benchmark run produced no JSON (exit {completed.returncode}); "
                "skipping the suite",
                file=sys.stderr,
            )
            return []
        if completed.returncode != 0:
            # A partial suite must not masquerade as a healthy trajectory point.
            print(
                f"warning: pytest benchmark suite exited {completed.returncode}; "
                "the BENCH records cover only the benchmarks that completed",
                file=sys.stderr,
            )
        payload = json.loads(json_path.read_text())
    records = []
    for bench in payload.get("benchmarks", []):
        stats = bench.get("stats", {})
        records.append(
            BenchmarkRecord(
                name=bench.get("fullname", bench.get("name", "unknown")),
                wall_seconds=float(stats.get("mean", float("nan"))),
                extra_info=dict(bench.get("extra_info", {})),
            )
        )
    return records


def run_benchmarks(
    *,
    quick: bool = False,
    repeat: int = 3,
    benchmarks_dir: str | Path = "benchmarks",
) -> list[BenchmarkRecord]:
    """Run the benchmark set and return the records.

    ``quick`` limits the run to the built-in micro-benchmarks (seconds, used
    by the CI smoke job); the full mode also executes the pytest-benchmark
    suite under ``benchmarks_dir``, which regenerates every paper figure and
    takes minutes.
    """
    records = [
        bench_ic_series_kernel(repeat=repeat),
        bench_routing_matrix(repeat=repeat),
        bench_ipf_series(repeat=repeat),
        bench_tomogravity_batch(repeat=repeat),
        bench_streaming_synthesis(repeat=repeat),
        bench_ingest_throughput(repeat=repeat),
        # The grid bench runs whole sweeps, not micro-kernels; cap its rounds
        # so --repeat scales it down but never past two interleaved rounds.
        bench_sweep_grid(repeat=min(max(1, repeat), 2)),
        bench_sweep_executor(repeat=min(max(1, repeat), 2)),
        bench_report_marts(repeat=repeat),
        bench_obs_overhead(repeat=repeat),
    ]
    if not quick:
        records.extend(run_pytest_benchmarks(benchmarks_dir=benchmarks_dir))
    return records
