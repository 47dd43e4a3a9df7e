"""Execute scenarios: one, a batch, or a full component grid.

:class:`ScenarioRunner` replays the estimation protocol shared by the
paper's Figures 11-13 for any registered (dataset, prior, estimator)
combination:

1. build (or fetch from the shared cache) the dataset at the requested
   scale,
2. simulate the target week's measurements over the topology,
3. build the scenario's prior and — unless disabled — the gravity baseline
   prior from the same measurements,
4. run both through the estimator, and
5. record per-bin errors, the per-bin improvement over the baseline, and
   per-stage timing.

There is one execution path over one dataset type,
:class:`~repro.synthesis.datasets.StreamingDataset`.  An in-memory run
materialises its dataset on first use, so its week streams are views over
the cached weeks and nothing is copied; a streamed run (``Scenario.stream``)
never materialises and regenerates the week's chunks on demand instead.
Both measure, build priors — one registered builder per prior, returning a
chunk stream — and estimate (``estimate_stream``) through the same code;
the mode only decides where the chunks come from and whether the estimate
is collected, spilled or dropped.

Grid sweeps run on a shared-plan scheduler: every dataset column is
*planned* — spatial draws, activity series and eagerly checkpointed
noise-RNG states — exactly once in the parent and shipped to the workers,
which materialise it for in-memory cells; cells are grouped by dataset
column so each worker's :class:`SweepSharedState` reuses the column's
measurement systems, gravity-baseline estimates and memoised stable-fP fits
across the cells it runs.  *Where* the workers live is an executor choice
(:mod:`repro.scenarios.executors`): in this process, or in sweep workers —
local processes on socket pairs or ``repro sweep-worker`` daemons over TCP,
both speaking one protocol and each pulling the next column batch when it
is free.  Results are deterministic and bit-identical to the serial
in-memory sweep under any executor and worker count.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._tables import format_rows
from repro.core.metrics import percent_improvement, summarize_improvement
from repro.core.priors import PriorContext
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ValidationError
from repro.estimation.linear_system import simulate_link_loads
from repro.obs import get_metrics, get_tracer, peak_rss_mb, stage
from repro.registry import (
    DATASETS,
    ESTIMATORS,
    PRIORS,
    TOPOLOGIES,
    RegistryEntry,
    canonical_name,
)
from repro.scenarios.scenario import Scenario
from repro.scenarios.spill import SPILL_AUTO_MIN_BINS, SpillStore
from repro.streaming import as_chunk_stream
from repro.synthesis.datasets import load_dataset, open_dataset_stream

__all__ = [
    "ScenarioResult",
    "ScenarioRunner",
    "SweepResult",
    "SweepSharedState",
    "run_scenario",
    "sweep",
    "FIT_CACHE_BYTES",
]

# Default replay-cache budget for multi-pass streaming fits (the stable-fP
# ALS makes one pass per iteration, plus two): chunks of the calibration series are
# regenerated once instead of once per pass, within this many bytes.  A
# full-scale Geant week is ~8 MiB, so paper-scale fits cache whole weeks
# while the budget still bounds the worst case.  Pass
# ``ScenarioRunner(fit_cache_bytes=None)`` for the strictly chunk-bounded
# pre-cache behaviour.
FIT_CACHE_BYTES = 64 * 1024 * 1024


class SweepSharedState:
    """Per-process reuse caches for the cells of one sweep.

    Cells that share a dataset column, target week and measurement knobs
    solve against the *same* measurement system, and every cell compared
    against the same baseline prior re-derives the *same* baseline estimate.
    This object memoises both — keyed by the full value tuple that
    determines them — so a worker (or the serial path) computes each once
    per column instead of once per cell.  It also memoises stable-fP fits
    (:meth:`fit`): overlapping-window grids, where many cells calibrate
    against the same week of the same dataset column, pay each
    distinct ALS fit once per worker instead of once per cell.  Reuse
    returns the identical arrays a fresh computation would produce — the
    chunk-wise fit is deterministic in its inputs — so results are
    bit-identical to the unshared path; the ``*_builds`` counters exist so
    tests can prove the sharing actually happens.
    """

    def __init__(self):
        self.systems: dict[tuple, object] = {}
        self.baselines: dict[tuple, object] = {}
        self.fits: dict[tuple, object] = {}
        self.system_builds = 0
        self.baseline_builds = 0
        self.fit_builds = 0
        self._pinned: list = []

    def pin(self, anchor) -> None:
        """Keep ``anchor`` alive while this state exists.

        Cache keys embed ``id(anchor)`` (the dataset column's identity);
        pinning guarantees a recycled id can never alias a different
        column's entries for the lifetime of the sweep.
        """
        self._pinned.append(anchor)

    def _memo(self, cache: dict, key: tuple, build, kind: str):
        metrics = get_metrics()
        metrics.counter("repro_sweep_shared_requests_total", kind=kind).inc()
        cached = cache.get(key)
        if cached is None:
            cached = build()
            setattr(self, f"{kind}_builds", getattr(self, f"{kind}_builds") + 1)
            metrics.counter("repro_sweep_shared_builds_total", kind=kind).inc()
            cache[key] = cached
        return cached

    def system(self, key: tuple, build):
        return self._memo(self.systems, key, build, "system")

    def baseline(self, key: tuple, build):
        return self._memo(self.baselines, key, build, "baseline")

    def fit(self, key: tuple, build):
        return self._memo(self.fits, key, build, "fit")


@dataclass
class ScenarioResult:
    """Everything a scenario run produced.

    Attributes
    ----------
    scenario:
        The configuration that was executed.
    prior_label, baseline_label:
        Display names of the scenario prior and the baseline prior
        (``baseline_label`` is ``None`` when no baseline was run).
    estimate:
        The refined traffic-matrix estimate (``None`` for streaming runs,
        which deliberately never materialise the ``(T, n, n)`` estimate; the
        per-bin error series are the deliverable).
    errors, prior_errors:
        Per-bin relative L2 error of the estimate and of the raw prior.
        Spilled runs hold lazy :class:`~repro.scenarios.spill.SpilledSeries`
        handles here instead of arrays; they load from their ``.npz`` shards
        on first use.
    baseline_errors, baseline_prior_errors:
        Same two series for the baseline prior, when one was run.
    improvement:
        Per-bin percentage improvement over the baseline estimate.
    spilled:
        Extra out-of-core artifacts of a spilled run: with an explicit
        ``spill_dir``, the chunk-sharded ``(T, n, n)`` ``"estimate"`` cube
        (auto-spilled runs keep only the small error series on disk).
    timing:
        Seconds spent per stage: ``dataset``, ``prior`` and ``estimation``
        (the ``synthesize``, ``build_prior`` and ``estimate`` stages) and
        ``total`` (also observed into ``repro_scenario_run_seconds``), plus
        ``peak_rss_mb`` — the process's high-water resident set size after
        the run (the number the streaming pipeline bounds) — and
        ``spill_dir`` when the run spilled.
    """

    scenario: Scenario
    prior_label: str
    baseline_label: str | None
    estimate: TrafficMatrixSeries | None
    errors: np.ndarray
    prior_errors: np.ndarray
    baseline_errors: np.ndarray | None = None
    baseline_prior_errors: np.ndarray | None = None
    improvement: np.ndarray | None = None
    spilled: dict[str, object] = field(default_factory=dict)
    timing: dict[str, float] = field(default_factory=dict)

    @property
    def mean_error(self) -> float:
        """Mean per-bin error of the refined estimate."""
        return float(np.mean(np.asarray(self.errors)))

    @property
    def mean_improvement(self) -> float:
        """Mean per-bin improvement over the baseline estimate."""
        if self.improvement is None:
            raise ValidationError("scenario was run without a baseline prior")
        return float(np.mean(np.asarray(self.improvement)))

    def format_table(self) -> str:
        """ASCII summary mirroring the experiment drivers' tables."""
        rows: list[list[object]] = [
            ["scenario", self.scenario.label],
            ["dataset", self.scenario.dataset],
            ["prior", self.prior_label],
            ["estimator", self.scenario.estimator],
            ["bins estimated", int(self.errors.shape[0])],
            ["mean estimation error", self.mean_error],
            ["mean raw prior error", float(np.mean(np.asarray(self.prior_errors)))],
        ]
        if self.improvement is not None:
            summary = summarize_improvement(np.asarray(self.improvement))
            rows += [
                [f"mean estimation error ({self.baseline_label} baseline)",
                 float(np.mean(np.asarray(self.baseline_errors)))],
                ["mean improvement %", summary["mean"]],
                ["median improvement %", summary["median"]],
                ["25th-75th percentile improvement %",
                 f"{summary['p25']:.3g} .. {summary['p75']:.3g}"],
            ]
        rows.append(["runtime (s)", self.timing.get("total", float("nan"))])
        if self.scenario.stream:
            rows.append(["streamed chunk bins", self.timing.get("chunk_bins", "auto")])
        if self.timing.get("spill_dir"):
            rows.append(["spill directory", self.timing["spill_dir"]])
        if self.timing.get("peak_rss_mb") is not None:
            rows.append(["peak RSS (MiB)", f"{self.timing['peak_rss_mb']:.1f}"])
        return format_rows(["quantity", "value"], rows)


class ScenarioRunner:
    """Executes :class:`Scenario` objects against the registries.

    Parameters
    ----------
    baseline_prior:
        Registered prior every run is compared against (default
        ``"gravity"``, the paper's baseline).  ``None`` disables the
        comparison, halving the estimation work.
    fit_cache_bytes:
        Replay-cache budget for multi-pass streaming fits (see
        :data:`FIT_CACHE_BYTES`); ``None`` keeps streamed prior fits
        strictly chunk-bounded, regenerating their chunks on every ALS pass
        (the pre-cache behaviour).
    fit_memo:
        Memoise stable-fP fits in the sweep's
        :class:`SweepSharedState`, keyed by the pinned dataset identity, the
        fitted week and bin count, and the fit knobs, so overlapping-window
        grids pay each distinct fit once per worker instead of once per
        cell.  The fit is deterministic in those inputs, so reuse is
        bit-identical; ``False`` restores the per-cell re-fit.  Single runs
        (no shared state) never memoise.
    """

    def __init__(
        self,
        *,
        baseline_prior: str | None = "gravity",
        fit_cache_bytes: int | None = FIT_CACHE_BYTES,
        fit_memo: bool = True,
    ):
        self._baseline = baseline_prior
        self._fit_cache_bytes = fit_cache_bytes
        self._fit_memo = fit_memo

    # -- week resolution ----------------------------------------------------

    @staticmethod
    def resolve_weeks(scenario: Scenario) -> tuple[int, int]:
        """The (calibration_week, target_week) pair a scenario will use.

        A missing ``target_week`` falls back to the prior's ``week_mode``
        metadata: ``"same"`` targets the calibration week, ``"next"`` the
        following week, and ``"gap"`` jumps the dataset's ``calibration_gap``
        (and must land on a different week, per Section 6.2).
        """
        prior_entry = PRIORS.entry(scenario.prior)
        mode = prior_entry.metadata.get("week_mode", "same")
        calibration = scenario.calibration_week
        if scenario.target_week is not None:
            target = scenario.target_week
        elif mode == "next":
            target = calibration + 1
        elif mode == "gap":
            dataset_entry = DATASETS.entry(scenario.dataset)
            target = calibration + int(dataset_entry.metadata.get("calibration_gap", 1))
        else:
            target = calibration
        if mode == "gap" and target == calibration:
            raise ValidationError("target_week must differ from calibration_week")
        return calibration, target

    @staticmethod
    def _resolve_topology(scenario: Scenario, data):
        """The topology the measurements are simulated over.

        Defaults to the dataset's own; an explicit override must be a
        no-argument registered factory whose node set matches the dataset's
        (the synthesized traffic is defined over those nodes).
        """
        if scenario.topology is None:
            return data.topology
        entry = TOPOLOGIES.entry(scenario.topology)
        if entry.metadata.get("parameterized"):
            raise ValidationError(
                f"topology {scenario.topology!r} takes parameters and cannot be "
                "used as a scenario override; register a concrete instance instead"
            )
        topology = entry.obj()
        if tuple(topology.nodes) != tuple(data.topology.nodes):
            raise ValidationError(
                f"topology {scenario.topology!r} has nodes {topology.nodes[:4]}... "
                f"({topology.n_nodes} PoPs) but dataset {scenario.dataset!r} "
                f"is defined over {data.topology.n_nodes} PoPs; node sets must match"
            )
        return topology

    # -- execution ----------------------------------------------------------

    @staticmethod
    def _weeks_to_synthesize(scenario: Scenario, calibration_week: int, target_week: int) -> int:
        return max(max(calibration_week, target_week) + 1, scenario.n_weeks or 0)

    # -- shared-state keys ---------------------------------------------------

    @staticmethod
    def _system_key(scenario: Scenario, target_week: int, data) -> tuple:
        """The value tuple determining a cell's simulated measurement system.

        The dataset column's identity is its generation *plan* (a streamed
        cell's wrapper object is rebuilt per cell; the cached plan is what
        actually determines the traffic), or the dataset object itself for a
        third-party dataset without one; callers pin the anchor on the
        shared state so its id cannot be recycled.
        """
        return (
            scenario.stream,
            scenario.dataset,
            id(getattr(data, "plan", data)),
            scenario.bins_per_week,
            scenario.full_scale,
            scenario.dataset_seed,
            scenario.chunk_bins,
            target_week,
            scenario.max_bins,
            scenario.measurement_noise,
            scenario.seed,
            scenario.topology,
        )

    def _is_baseline_prior(self, scenario: Scenario) -> bool:
        """Whether the cell's scenario prior is the sweep's baseline prior."""
        return self._baseline is not None and scenario.prior == canonical_name(self._baseline)

    def _baseline_key(self, system_key: tuple, scenario: Scenario, calibration_week: int) -> tuple:
        """The value tuple determining a cell's baseline estimation result."""
        return (
            system_key,
            canonical_name(self._baseline),
            scenario.estimator,
            calibration_week,
            scenario.measured_forward_fraction,
        )

    @staticmethod
    def _resolve_spill(scenario: Scenario, n_bins: int) -> tuple[SpillStore | None, bool]:
        """The ``(store, spill_estimate)`` spill decision of a streaming run.

        An explicit ``spill_dir`` always spills, *including* the
        chunk-sharded estimate cube (each cell into a subdirectory named
        after its label, so sweeps share one run directory).  Without one,
        runs past :data:`~repro.scenarios.spill.SPILL_AUTO_MIN_BINS` bins
        spill only their (small) per-bin error series into a fresh
        temporary run directory — never the ``O(T n^2)`` estimate, which
        the streaming path deliberately avoids materialising unless a run
        directory was asked for explicitly.
        """
        shard_bins = scenario.spill_shard_bins or 2048
        if scenario.spill_dir is not None:
            safe_label = scenario.label.replace("/", "-").replace(" ", "_")
            return (
                SpillStore(
                    os.path.join(scenario.spill_dir, safe_label), shard_bins=shard_bins
                ),
                True,
            )
        if n_bins >= SPILL_AUTO_MIN_BINS:
            return (
                SpillStore(tempfile.mkdtemp(prefix="repro-spill-"), shard_bins=shard_bins),
                False,
            )
        return None, False

    def run(self, scenario: Scenario, *, dataset=None, shared: SweepSharedState | None = None) -> ScenarioResult:
        """Execute one scenario and return its :class:`ScenarioResult`.

        Every run goes through one chunked body: the target week is a
        :class:`~repro.streaming.ChunkStream`, measurements accumulate
        chunk-wise, priors are built as chunk streams and the estimator
        consumes them via ``estimate_stream``.  ``scenario.stream`` decides
        only where the weeks come from — an in-memory run materialises the
        dataset (once; later runs reuse its cached weeks) and streams views
        over it, a streamed run never materialises and regenerates chunks on
        demand, so nothing ``(T, n, n)``-sized is held — and what happens to
        the estimate: in-memory runs collect it on the result, streamed runs
        spill it (explicit ``spill_dir``) or drop it.

        ``dataset`` optionally supplies a pre-built dataset covering the
        scenario's weeks — anything with a ``week_stream`` method, lazy or
        materialised (the sweep scheduler ships one per column); by default
        the shared :func:`load_dataset` / :func:`open_dataset_stream` caches
        are used.  ``shared`` supplies the per-process
        :class:`SweepSharedState` the sweep scheduler uses to reuse
        measurement systems, baseline estimates and stable-fP fits across
        cells; single runs normally leave it ``None``.
        """
        scenario.validate()
        if dataset is not None and not hasattr(dataset, "week_stream"):
            raise ValidationError(
                f"a pre-built dataset needs a week_stream method; got "
                f"{type(dataset).__name__} (pass dataset=None to use the shared caches)"
            )
        prior_entry = PRIORS.entry(scenario.prior)
        baseline_entry: RegistryEntry | None = None
        if self._baseline is not None and scenario.prior != canonical_name(self._baseline):
            baseline_entry = PRIORS.entry(self._baseline)
        estimator = ESTIMATORS.get(scenario.estimator)()
        if not hasattr(estimator, "estimate_stream"):
            raise ValidationError(
                f"estimator {scenario.estimator!r} lacks an estimate_stream method; "
                "the scenario runner feeds estimators chunk streams"
            )
        calibration_week, target_week = self.resolve_weeks(scenario)

        started = time.perf_counter()
        weeks_needed = self._weeks_to_synthesize(scenario, calibration_week, target_week)
        with stage(
            "synthesize", dataset=scenario.dataset, weeks=weeks_needed, stream=scenario.stream
        ) as synthesized:
            data = dataset
            if data is not None:
                if data.n_weeks < weeks_needed:
                    raise ValidationError(
                        f"pre-built dataset has {data.n_weeks} weeks but "
                        f"the scenario needs {weeks_needed}"
                    )
            elif scenario.stream:
                data = open_dataset_stream(
                    scenario.dataset,
                    n_weeks=weeks_needed,
                    bins_per_week=scenario.bins_per_week,
                    full_scale=scenario.full_scale,
                    seed=scenario.dataset_seed,
                    chunk_bins=scenario.chunk_bins,
                )
            else:
                data = load_dataset(
                    scenario.dataset,
                    n_weeks=weeks_needed,
                    bins_per_week=scenario.bins_per_week,
                    full_scale=scenario.full_scale,
                    seed=scenario.dataset_seed,
                )
            if not scenario.stream and hasattr(data, "materialize"):
                data.materialize()  # a no-op once the weeks are cached
            topology = self._resolve_topology(scenario, data)
            target = data.week_stream(target_week, max_bins=scenario.max_bins)

        if shared is not None:
            shared.pin(data)
        system_key = self._system_key(scenario, target_week, data)

        def build_system():
            return simulate_link_loads(
                topology, target, noise_std=scenario.measurement_noise, seed=scenario.seed
            )

        system = shared.system(system_key, build_system) if shared is not None else build_system()
        fit_memo = None
        if shared is not None and self._fit_memo:
            # Everything that determines a stable-fP fit beyond the
            # (week, bin-count, cache-budget) suffix the context appends:
            # the pinned dataset identity — i.e. the exact traffic — plus
            # the scale knobs.
            fit_key_base = (
                "fit",
                scenario.dataset,
                id(getattr(data, "plan", data)),
                scenario.bins_per_week,
                scenario.full_scale,
                scenario.dataset_seed,
                scenario.chunk_bins,
            )

            def fit_memo(suffix, build, _base=fit_key_base):
                return shared.fit(_base + tuple(suffix), build)

        context = PriorContext(
            dataset=data,
            target=target,
            system=system,
            calibration_week=calibration_week,
            target_week=target_week,
            measured_forward_fraction=scenario.measured_forward_fraction,
            fit_cache_bytes=self._fit_cache_bytes,
            fit_memo=fit_memo,
        )
        spill, spill_estimate = (
            self._resolve_spill(scenario, target.n_bins) if scenario.stream else (None, False)
        )
        collect = not scenario.stream

        def build_prior(entry: RegistryEntry):
            # A user builder may still return a series or an array.
            return as_chunk_stream(
                entry.obj(context), chunk_bins=target.chunk_bins, bin_seconds=target.bin_seconds
            )

        with stage("build_prior", prior=scenario.prior, stream=scenario.stream) as prior_built:
            prior_stream = build_prior(prior_entry)

        with stage("estimate", estimator=scenario.estimator, stream=scenario.stream) as estimated:
            baseline = None
            if baseline_entry is not None:

                def build_baseline():
                    return estimator.estimate_stream(
                        system,
                        build_prior(baseline_entry),
                        ground_truth_stream=target,
                        collect_estimate=collect,
                    )

                if shared is not None:
                    baseline = shared.baseline(
                        self._baseline_key(system_key, scenario, calibration_week), build_baseline
                    )
                else:
                    baseline = build_baseline()
            estimate_writer = (
                spill.writer("estimate") if spill is not None and spill_estimate else None
            )

            def build_main():
                return estimator.estimate_stream(
                    system,
                    prior_stream,
                    ground_truth_stream=target,
                    collect_estimate=collect,
                    chunk_sink=estimate_writer,
                )

            if shared is not None and estimate_writer is None and self._is_baseline_prior(scenario):
                # A cell whose scenario prior *is* the sweep baseline computes
                # exactly the estimate its sibling cells use as their baseline;
                # share one computation through the same memo.  (Runs writing
                # estimate shards always execute, so the shards get written.)
                main = shared.baseline(
                    self._baseline_key(system_key, scenario, calibration_week), build_main
                )
            else:
                main = build_main()

        improvement = None
        if baseline is not None:
            improvement = percent_improvement(baseline.errors, main.errors)
        series = {
            "errors": main.errors,
            "prior_errors": main.prior_errors,
            "baseline_errors": baseline.errors if baseline is not None else None,
            "baseline_prior_errors": baseline.prior_errors if baseline is not None else None,
            "improvement": improvement,
        }
        spilled: dict[str, object] = {}
        if spill is not None:
            series = {
                name: spill.add_series(name, values) if values is not None else None
                for name, values in series.items()
            }
            if estimate_writer is not None:
                spilled["estimate"] = estimate_writer.finish()
        total_seconds = time.perf_counter() - started
        timing = {
            "dataset": synthesized.seconds,
            "prior": prior_built.seconds,
            "estimation": estimated.seconds,
            "total": total_seconds,
            "peak_rss_mb": peak_rss_mb(),
        }
        if scenario.stream:
            timing["chunk_bins"] = target.chunk_bins
        if spill is not None:
            timing["spill_dir"] = str(spill.directory)
        metrics = get_metrics()
        if metrics.enabled:
            mode = "stream" if scenario.stream else "memory"
            metrics.counter("repro_scenario_runs_total", mode=mode).inc()
            metrics.histogram("repro_scenario_run_seconds", mode=mode).observe(total_seconds)
        return ScenarioResult(
            scenario=scenario,
            prior_label=prior_entry.metadata.get("display", prior_entry.name),
            baseline_label=(
                baseline_entry.metadata.get("display", baseline_entry.name)
                if baseline_entry is not None
                else None
            ),
            estimate=main.estimate,
            errors=series["errors"],
            prior_errors=series["prior_errors"],
            baseline_errors=series["baseline_errors"],
            baseline_prior_errors=series["baseline_prior_errors"],
            improvement=series["improvement"],
            spilled=spilled,
            timing=timing,
        )

    def sweep(
        self,
        *,
        priors: Sequence[str],
        datasets: Sequence[str],
        base: Scenario | dict | None = None,
        jobs: int | None = 1,
        executor=None,
        result_sink=None,
        **overrides,
    ) -> "SweepResult":
        """Run the full priors × datasets grid and collect a comparison.

        Parameters
        ----------
        priors, datasets:
            Registered component names spanning the grid.
        base:
            Scenario (or plain dict) supplying the shared knobs; the grid
            cell overwrites its ``dataset`` and ``prior``.
        jobs:
            Number of workers running grid cells concurrently.  ``1`` (the
            default) runs the cells serially in this process; ``None`` uses
            one worker per CPU.  Local executors cap the pool at the host's
            CPU count (surplus workers cannot run concurrently and would
            only split the column groups; a warning reports the effective
            count once), and a single-worker pool collapses to the
            in-process path.  A remote executor honours the full request —
            its workers are other machines.
        executor:
            Where the cells run (see :mod:`repro.scenarios.executors`):
            ``None``/``"auto"`` keeps the historical jobs-driven choice
            between the in-process path and the local worker pool;
            ``"in-process"`` or ``"local-pool"`` force one; a
            :class:`~repro.scenarios.executors.RemoteExecutor` instance
            ships column batches to ``repro sweep-worker`` daemons.  Local
            pool workers run the same sweep-worker loop over socket pairs,
            and every worker pulls the next column batch when it is free.
            Results are deterministic regardless of executor or ``jobs``:
            every cell carries its own explicit ``seed``/``dataset_seed``,
            cells are scheduled in column groups and collected in grid
            order, and the reuse caches return the identical arrays a fresh
            computation would, so scheduling cannot change the outcome.
            Each dataset column is planned with eagerly checkpointed noise
            states **once in the parent** and shipped over the sweep-worker
            wire as plan state, sent to each worker the first time one of
            its batches needs the column — so the grid pays one planning
            pass per column rather than one per (worker, column); a worker
            materialises an in-memory column once, on its first cell, and
            reuses the column's measurement system, baseline estimate and
            memoised fits across its cells.
        result_sink:
            A :class:`~repro.scenarios.executors.ResultSink` receiving each
            cell's result the moment it completes, after which the result
            is **dropped** — the returned :class:`SweepResult` carries only
            failures and timing, and the driver's memory no longer grows
            with the grid.  ``None`` (the default) accumulates results in
            the driver as before.
        overrides:
            Additional Scenario fields applied on top of ``base``.
        """
        if not priors or not datasets:
            raise ValidationError("sweep needs at least one prior and one dataset")
        if isinstance(base, dict):
            base = Scenario.from_dict({"dataset": datasets[0], "prior": priors[0], **base})
        elif base is None:
            base = Scenario(dataset=datasets[0], prior=priors[0])
        cells = [
            base.replace(dataset=dataset, prior=prior, **overrides)
            for dataset in datasets
            for prior in priors
        ]
        return self.run_cells(
            cells,
            jobs=jobs,
            executor=executor,
            result_sink=result_sink,
            priors=tuple(canonical_name(prior) for prior in priors),
            datasets=tuple(canonical_name(dataset) for dataset in datasets),
        )

    def run_cells(
        self,
        cells: Sequence[Scenario],
        *,
        jobs: int | None = 1,
        executor=None,
        result_sink=None,
        priors: Sequence[str] | None = None,
        datasets: Sequence[str] | None = None,
    ) -> "SweepResult":
        """Run an explicit list of scenario cells through the sweep machinery.

        The scheduler, executors, per-column week pinning and shared-state
        reuse are exactly those of :meth:`sweep`; the difference is that the
        caller supplies the cells directly, so grids a priors × datasets
        product cannot express — e.g. overlapping-window sweeps where many
        cells share a calibration week but target different weeks — still
        get column batching, shared-plan shipping and fit memoisation.
        ``priors``/``datasets`` optionally override the result's axis
        labels; by default they are derived from the cells in first-seen
        order.
        """
        started = time.perf_counter()
        cells = list(cells)
        if not cells:
            raise ValidationError("run_cells needs at least one scenario cell")
        # Priors resolve different default target weeks, and n_weeks is part
        # of the synthesis cache key *and* changes the generated traffic; pin
        # every cell of a dataset column to the column-wide maximum so the
        # column shares one synthesis run and one ground truth.
        weeks_needed: dict[str, int] = {}
        for cell in cells:
            try:
                calibration, target = self.resolve_weeks(cell)
            except Exception:  # noqa: BLE001 - leave the failure to the cell run below
                continue
            needed = self._weeks_to_synthesize(cell, calibration, target)
            weeks_needed[cell.dataset] = max(weeks_needed.get(cell.dataset, 0), needed)
        cells = [
            cell.replace(n_weeks=weeks_needed[cell.dataset])
            if cell.dataset in weeks_needed
            else cell
            for cell in cells
        ]
        outcomes, executor_name = self._execute_cells(
            cells, jobs=jobs, executor=executor, sink=result_sink
        )
        results: list[ScenarioResult] = []
        failures: list[tuple[Scenario, str]] = []
        cells_ok = 0
        for cell, (result, message) in zip(cells, outcomes):
            if message is None:
                cells_ok += 1
                if result_sink is None:
                    results.append(result)
            else:
                failures.append((cell, message))
        if result_sink is not None and hasattr(result_sink, "finish"):
            result_sink.finish()
        wall = time.perf_counter() - started
        worker_peaks = [
            result.timing["peak_rss_mb"]
            for result in results
            if result.timing.get("peak_rss_mb") is not None
        ]
        timing = {
            "total": wall,
            "cells": len(cells),
            "cells_ok": cells_ok,
            "cells_per_second": len(cells) / wall if wall > 0 else float("nan"),
            "peak_rss_mb": peak_rss_mb(),
            "worker_peak_rss_mb": max(worker_peaks) if worker_peaks else None,
            "executor": executor_name,
            "streamed": result_sink is not None,
        }
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("repro_sweep_cells_total", status="ok").inc(cells_ok)
            metrics.counter("repro_sweep_cells_total", status="failed").inc(len(failures))
            metrics.gauge("repro_sweep_cells_per_second").set(timing["cells_per_second"])
            if timing["peak_rss_mb"] is not None:
                metrics.gauge("repro_sweep_peak_rss_mb").set(timing["peak_rss_mb"])
            if timing["worker_peak_rss_mb"] is not None:
                metrics.gauge("repro_sweep_worker_peak_rss_mb").set(timing["worker_peak_rss_mb"])
        return SweepResult(
            priors=(
                tuple(priors)
                if priors is not None
                else tuple(dict.fromkeys(cell.prior for cell in cells))
            ),
            datasets=(
                tuple(datasets)
                if datasets is not None
                else tuple(dict.fromkeys(cell.dataset for cell in cells))
            ),
            results=results,
            failures=failures,
            timing=timing,
        )

    def _execute_cells(
        self, cells: list[Scenario], *, jobs, executor, sink=None
    ) -> tuple[list, str]:
        """Resolve the executor and run the cells; returns (outcomes, name)."""
        from repro.scenarios import executors as executors_module

        resolved, plan_jobs = executors_module.resolve_executor(
            executor, jobs=jobs, n_cells=len(cells), cpu_count=os.cpu_count()
        )
        plan = executors_module.SweepPlan(
            runner=self, cells=cells, jobs=plan_jobs, sink=sink
        )
        return resolved.execute(plan), resolved.name

    def _run_cell_guarded(self, cell: Scenario, *, dataset=None, shared=None) -> tuple:
        """Run one cell on this runner, wrapping failures like the workers do.

        The cell is traced as one ``sweep_cell`` span; a failure closes the
        span with an ``error=`` attribute (the exception never escapes, so
        the span records it explicitly) and increments the cell-failure
        counter.
        """
        span = get_tracer().span(
            "sweep_cell", label=cell.label, dataset=cell.dataset, prior=cell.prior
        )
        with span:
            try:
                return self.run(cell, dataset=dataset, shared=shared), None
            except Exception as exc:  # noqa: BLE001 - a cell failure should not kill the grid
                message = f"{type(exc).__name__}: {exc}"
                span.set(error=message)
                get_metrics().counter("repro_sweep_cell_failures_total").inc()
                return None, message

    @staticmethod
    def _dataset_key(cell: Scenario) -> tuple | None:
        """The parent-side synthesis key of a cell, or ``None`` when not shippable.

        Every column ships as generation-plan state.  Streaming columns are
        keyed separately from in-memory ones, because a streamed column also
        depends on the chunking and is never materialised.  Cells whose
        week requirements could not be resolved fall back to the worker's
        own dataset caches.
        """
        if cell.n_weeks is None:
            return None
        if cell.stream:
            return (
                "stream",
                cell.dataset,
                cell.n_weeks,
                cell.bins_per_week,
                cell.full_scale,
                cell.dataset_seed,
                cell.chunk_bins,
            )
        return (cell.dataset, cell.n_weeks, cell.bins_per_week, cell.full_scale, cell.dataset_seed)

    @staticmethod
    def _column_batches(items: list[tuple], jobs: int) -> list[list[tuple]]:
        """Group ``(index, cell, key)`` items by dataset column, then split to fill ``jobs``.

        Column grouping keeps every cell of a column on one worker, so the
        worker's shared state reuses the column's measurement system and
        baseline estimate; when there are fewer columns than workers the
        largest groups are split (deterministically) until the workers are
        occupied — reuse degrades gracefully, correctness never depends on
        the grouping.
        """
        groups: dict[tuple, list[tuple]] = {}
        for item in items:
            _, cell, _ = item
            column = (
                cell.dataset, cell.n_weeks, cell.bins_per_week, cell.full_scale, cell.dataset_seed
            )
            groups.setdefault(column, []).append(item)
        batches = list(groups.values())
        while len(batches) < jobs and any(len(batch) > 1 for batch in batches):
            largest_at = max(range(len(batches)), key=lambda at: len(batches[at]))
            largest = batches.pop(largest_at)
            half = (len(largest) + 1) // 2
            batches.extend([largest[:half], largest[half:]])
        return batches

    def _prepare_sweep_items(self, cells: list[Scenario]) -> tuple[list[tuple], dict]:
        """Plan each distinct dataset column once, in the parent.

        Every column is opened lazily as a :class:`StreamingDataset` whose
        noise-state checkpoints are populated eagerly, so workers never
        re-plan or re-pay the noise-RNG prefix; nothing is materialised
        here.  Returns the
        ``(index, cell, key)`` work items (``key=None`` routes a cell to
        the worker's own dataset caches) and the ``{key: dataset}`` map
        executors ship to their workers.
        """
        datasets: dict[tuple, object] = {}
        keys: list[tuple | None] = []
        for cell in cells:
            key = self._dataset_key(cell)
            if key is not None and key not in datasets:
                try:
                    datasets[key] = open_dataset_stream(
                        cell.dataset,
                        n_weeks=cell.n_weeks,
                        bins_per_week=cell.bins_per_week,
                        full_scale=cell.full_scale,
                        seed=cell.dataset_seed,
                        # In-memory cells stream their weeks at the default chunking.
                        chunk_bins=cell.chunk_bins if cell.stream else None,
                    ).checkpoint_noise()
                except Exception:  # noqa: BLE001 - the cell run will report it
                    key = None
            keys.append(key)
        items = [(index, cell, key) for index, (cell, key) in enumerate(zip(cells, keys))]
        return items, datasets


@dataclass
class SweepResult:
    """Results of a priors × datasets grid sweep.

    ``results`` holds the successful cells; ``failures`` pairs each failed
    scenario with its error message, so one singular configuration cannot
    sink a whole batch.  ``timing`` carries the sweep-level aggregates: wall
    seconds, ``cells_per_second`` and the parent/worker peak RSS.
    """

    priors: tuple[str, ...]
    datasets: tuple[str, ...]
    results: list[ScenarioResult]
    failures: list[tuple[Scenario, str]]
    timing: dict = field(default_factory=dict)

    def result_for(self, dataset: str, prior: str) -> ScenarioResult | None:
        """The cell for (dataset, prior), or ``None`` if it failed."""
        for result in self.results:
            if result.scenario.dataset == dataset and result.scenario.prior == prior:
                return result
        return None

    def format_table(self) -> str:
        """Grid of mean improvement % over the baseline (rows = priors)."""
        headers = ["prior \\ dataset", *self.datasets]
        rows: list[list[object]] = []
        for prior in self.priors:
            row: list[object] = [prior]
            for dataset in self.datasets:
                cell = self.result_for(dataset, prior)
                if cell is None:
                    row.append("failed")
                elif cell.improvement is None:
                    row.append(f"err={cell.mean_error:.4g}")
                else:
                    row.append(f"{cell.mean_improvement:+.2f}%")
            rows.append(row)
        table = format_rows(headers, rows)
        if self.failures:
            lines = [table, "", "failed cells:"]
            lines += [f"  {scenario.label}: {message}" for scenario, message in self.failures]
            return "\n".join(lines)
        return table

    def format_summary(self) -> str:
        """One line of sweep-level throughput and memory aggregates."""
        parts = []
        if self.timing.get("total") is not None:
            parts.append(f"wall {self.timing['total']:.2f}s")
        if self.timing.get("cells_per_second") is not None:
            parts.append(f"{self.timing['cells_per_second']:.2f} cells/s")
        if self.timing.get("peak_rss_mb") is not None:
            parts.append(f"parent peak RSS {self.timing['peak_rss_mb']:.1f} MiB")
        if self.timing.get("worker_peak_rss_mb") is not None:
            parts.append(f"max worker peak RSS {self.timing['worker_peak_rss_mb']:.1f} MiB")
        return "; ".join(parts) if parts else "no sweep timing recorded"

    def format_timing(self) -> str:
        """Per-cell timing breakdown of the successful runs."""
        rows = [
            [
                result.scenario.label,
                result.timing.get("dataset", 0.0),
                result.timing.get("prior", 0.0),
                result.timing.get("estimation", 0.0),
                result.timing.get("total", 0.0),
            ]
            for result in self.results
        ]
        return format_rows(["scenario", "dataset s", "prior s", "estimation s", "total s"], rows)


def run_scenario(scenario: Scenario | dict, **runner_kwargs) -> ScenarioResult:
    """Convenience wrapper: run one scenario (or scenario dict)."""
    if isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    return ScenarioRunner(**runner_kwargs).run(scenario)


def sweep(
    *,
    priors: Sequence[str],
    datasets: Sequence[str],
    base: Scenario | dict | None = None,
    jobs: int | None = 1,
    executor=None,
    **overrides,
) -> SweepResult:
    """Convenience wrapper around :meth:`ScenarioRunner.sweep`."""
    return ScenarioRunner().sweep(
        priors=priors, datasets=datasets, base=base, jobs=jobs, executor=executor,
        **overrides,
    )
