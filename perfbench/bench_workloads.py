"""The benchmark's workloads, driven through repro's public API.

Each workload builds its inputs from a workload seed, runs one *iteration*
(the unit the benchmark times and repeats), and returns per-operation
outputs that :func:`check_outputs` compares with the numbers recorded in
``reference.json``.  An operation is one scenario cell, one figure on one
dataset, one serve replay, or one CLI command.

The seed picks one of :data:`VARIANTS` input variants (``seed % VARIANTS``)
so that every seed has recorded reference numbers; variant 0 is the
program's own default dataset seeds.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Relative tolerance of every numeric correctness check.  Exact
#: reformulations of a kernel move these summaries by ~1e-14; a wrong
#: answer moves them by far more than 1e-6.
RTOL = 1e-6
#: Absolute slack for summaries that are zero up to rounding.
ATOL = 1e-12
#: Number of distinct input variants with recorded reference numbers.
VARIANTS = 8


@dataclass
class IterationResult:
    """What one iteration of a workload produced.

    ``seconds`` and ``weights`` are per operation: its duration, and how
    many latency samples it stands for (its bins, or 1 for a CLI command).
    ``bin_latencies_s`` holds directly measured per-bin latencies instead,
    for the workload that can observe them (serve-replay).
    """

    outputs: dict[str, dict] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)
    weights: dict[str, int] = field(default_factory=dict)
    bins: int = 0
    bin_latencies_s: list[float] = field(default_factory=list)


def _summarize(value, prefix: str = "") -> dict:
    """Flatten a result object into ``{name: scalar}`` summary numbers."""
    out: dict = {}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for item in dataclasses.fields(value):
            out.update(_summarize(getattr(value, item.name), f"{prefix}{item.name}."))
    elif isinstance(value, dict):
        for key in sorted(value):
            out.update(_summarize(value[key], f"{prefix}{key}."))
    elif isinstance(value, (bool, np.bool_)):
        out[prefix.rstrip(".")] = bool(value)
    elif isinstance(value, (int, float, np.integer, np.floating)):
        out[prefix.rstrip(".")] = float(value)
    elif isinstance(value, np.ndarray) and value.dtype.kind in "fiu" and value.size:
        out[prefix.rstrip(".") + ".mean"] = float(np.mean(value))
    return out


def _close(expected, actual) -> bool:
    if isinstance(expected, bool) or isinstance(expected, str):
        return expected == actual
    if not isinstance(actual, (int, float)) or isinstance(actual, bool):
        return False
    if math.isnan(expected) or math.isnan(actual):
        return math.isnan(expected) and math.isnan(actual)
    return abs(expected - actual) <= RTOL * max(abs(expected), abs(actual)) + ATOL


def check_outputs(outputs: dict[str, dict], reference: dict[str, dict]) -> dict[str, str]:
    """``{operation: reason}`` for every operation that does not match."""
    failures = {}
    for op, expected in reference.items():
        actual = outputs.get(op)
        if actual is None:
            failures[op] = "missing"
            continue
        if "error" in actual:
            failures[op] = actual["error"]
            continue
        for key, value in expected.items():
            if key not in actual:
                failures[op] = f"{key} missing"
                break
            if not _close(value, actual[key]):
                failures[op] = f"{key}: expected {value!r}, got {actual[key]!r}"
                break
    return failures


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def lower_quartile(values) -> float:
    """Lower quartile of a run's repetitions of one timing.

    On a shared machine other tenants only ever add time, in bursts lasting
    seconds, so the median of a 20-second run still swings with the share of
    the run a burst covers; the lower quartile is the steady estimate of what
    the code costs.
    """
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=4, method="inclusive")[0])


def _clear_memos() -> None:
    """Drop the dataset and routing memos every fresh CLI process starts without."""
    from repro.synthesis.datasets import load_dataset
    from repro.topology.routing import clear_routing_cache

    load_dataset.cache_clear()
    clear_routing_cache()


class _Ops:
    """Times and guards the operations of one iteration."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.result = IterationResult()

    def run(self, name: str, bins: int, call):
        """Run ``call`` as operation ``name``; each of its bins waits the whole call."""
        # Free the previous operation's garbage first, so the peak RSS is one
        # operation's working set rather than depending on collector timing.
        gc.collect()
        index = self.recorder.open("bench.op", name) if self.recorder else None
        started = time.perf_counter()
        try:
            self.result.outputs[name] = call()
        except Exception as exc:  # an operation failing is a result, not a crash
            self.result.outputs[name] = {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            elapsed = time.perf_counter() - started
            if index is not None:
                self.recorder.close(index)
        self.result.seconds[name] = elapsed
        self.result.weights[name] = bins
        self.result.bins += bins


class Workload:
    """Base class: ``setup`` builds inputs, ``iteration`` runs the timed unit."""

    name = ""
    #: Whether the inputs depend on the workload seed (else one fixed variant).
    seeded = True
    #: Whether the program runs inside this process (else in child processes).
    in_process = True

    def __init__(self, seed: int, root: Path, *, small: bool = False):
        self.seed = int(seed)
        self.variant = self.seed % VARIANTS if self.seeded else 0
        self.root = Path(root)
        self.small = small
        self.out_dir = self.root / ".bench_out"
        self.out_dir.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.out_dir))

    def setup(self) -> None:
        raise NotImplementedError

    def iteration(self, recorder=None) -> IterationResult:
        raise NotImplementedError

    def layer_counts(self) -> dict[str, float]:
        """Per-layer metrics the workload observes itself, by metric name."""
        return {}

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# fig-estimate: the Fig. 11-13 estimation cells
# ---------------------------------------------------------------------------

DATASET_SEEDS = {"geant": 11, "totem": 23}


def dataset_seed(dataset: str, variant: int) -> int:
    return DATASET_SEEDS[dataset] + 1000 * variant


class FigEstimate(Workload):
    name = "fig-estimate"
    cells = [(d, p) for d in ("geant", "totem") for p in ("measured", "stable_fp", "stable_f")]

    def _scenarios(self, bins_per_week):
        from repro import Scenario

        return [
            Scenario(
                dataset=dataset, prior=prior, max_bins=None, bins_per_week=bins_per_week,
                dataset_seed=dataset_seed(dataset, self.variant), seed=self.variant,
            )
            for dataset, prior in self.cells
        ]

    def setup(self) -> None:
        from repro import ScenarioRunner

        _clear_memos()
        self.runner = ScenarioRunner()
        for scenario in self._scenarios(24):  # warm-up: lazy imports, first-call costs
            self.runner.run(scenario)
        self.scenarios = self._scenarios(24 if self.small else None)
        _clear_memos()

    def iteration(self, recorder=None) -> IterationResult:
        _clear_memos()
        ops = _Ops(recorder)
        for scenario in self.scenarios:

            def run(scenario=scenario):
                result = self.runner.run(scenario)
                return {
                    "bins": float(result.errors.shape[0]),
                    "mean_error": result.mean_error,
                    "mean_baseline_error": float(np.mean(result.baseline_errors)),
                    "mean_improvement": result.mean_improvement,
                }

            # Every bin is estimated twice: scenario prior and gravity baseline.
            bins = (24 if self.small else {"geant": 288, "totem": 96}[scenario.dataset]) * 2
            ops.run(scenario.label, bins, run)
        return ops.result


# ---------------------------------------------------------------------------
# fig-characterize: Figs. 3 and 5-9 at full scale
# ---------------------------------------------------------------------------

class FigCharacterize(Workload):
    """Figs. 3 and 5-9 on the default datasets, whatever the seed.

    The stable-fP ALS fits dominate this workload and their iteration count
    depends on the data: across dataset seeds the same figures take 4-6 s.
    A seeded dataset would time convergence luck, so the inputs stay fixed.
    """

    name = "fig-characterize"
    seeded = False
    #: figure -> (repro.experiments function, weeks of data it fits)
    figures = {
        "fig3": ("run_model_fit", 1),
        "fig5": ("run_f_stability", 7),
        "fig6": ("run_preference_stability", 3),
        "fig7": ("run_preference_ccdf", 1),
        "fig8": ("run_preference_vs_egress", 1),
        "fig9": ("run_activity_timeseries", 1),
    }
    full_bins = {"geant": 2016, "totem": 672}

    def _run_all(self, ops: _Ops | None, bins_per_week: int | None) -> None:
        from repro import experiments

        for dataset in ("geant", "totem"):
            for figure, (function, weeks) in self.figures.items():
                kwargs = {"bins_per_week": bins_per_week, "full_scale": bins_per_week is None}
                if figure in ("fig5", "fig6"):
                    kwargs["n_weeks"] = weeks
                fn = getattr(experiments, function)

                def run(fn=fn, dataset=dataset, kwargs=kwargs):
                    return _summarize(fn(dataset, **kwargs))

                if ops is None:
                    run()
                    continue
                per_week = bins_per_week or self.full_bins[dataset]
                ops.run(f"{figure}/{dataset}", weeks * per_week, run)

    def setup(self) -> None:
        _clear_memos()
        self._run_all(None, 48)  # warm-up at a small scale
        _clear_memos()

    def iteration(self, recorder=None) -> IterationResult:
        _clear_memos()
        ops = _Ops(recorder)
        self._run_all(ops, 96 if self.small else None)
        return ops.result


# ---------------------------------------------------------------------------
# serve-replay: `repro serve` over a generated geant CSV trace
# ---------------------------------------------------------------------------

class _LatencyProbe:
    """Per-bin publish latency, observed at the flow source's pulls.

    A bin's latency runs from the source handing over the batch that closes
    it to the first later source pull at which ``status.bins_published``
    has passed it; bins closed by the end-of-feed flush are handed over at
    the final pull and published when ``IngestService.run`` returns.
    """

    def __init__(self, bin_seconds: float, watermark_bins: int):
        self.bin_seconds = bin_seconds
        self.watermark = watermark_bins
        self.closed_at: dict[int, float] = {}
        self.latencies: list[float] = []
        self.service = None
        self._frontier = 0
        self._published = 0

    def _settle(self, now: float, published: int) -> None:
        for index in range(self._published, published):
            self.latencies.append(now - self.closed_at.pop(index))
        self._published = max(self._published, published)

    def _close_until(self, limit: int, now: float) -> None:
        while self._frontier < limit:
            self.closed_at[self._frontier] = now
            self._frontier += 1

    def install(self):
        """Patch the source and service classes; returns an undo callable."""
        from repro.ingest import FileReplaySource, IngestService

        original_batches = FileReplaySource.batches
        original_run = IngestService.run
        probe = self

        def batches(source):
            max_bin = -1
            for batch in original_batches(source):
                if len(batch):
                    latest = int(np.floor(batch.timestamps.max() / probe.bin_seconds))
                    max_bin = max(max_bin, latest)
                probe._close_until(max_bin - probe.watermark, time.perf_counter())
                yield batch
                probe._settle(time.perf_counter(), probe.service.status.bins_published)
            probe._close_until(max_bin + 1, time.perf_counter())

        def run(service):
            probe.service = service
            status = original_run(service)
            probe._settle(time.perf_counter(), status.bins_published)
            return status

        FileReplaySource.batches = batches
        IngestService.run = run

        def undo():
            FileReplaySource.batches = original_batches
            IngestService.run = original_run

        return undo


class ServeReplay(Workload):
    name = "serve-replay"
    bin_seconds = 300.0
    records_per_pair = 2

    @property
    def n_bins(self) -> int:
        return 48 if self.small else 576

    def _write_trace(self, path: Path) -> np.ndarray:
        """Write the CSV feed; return the generating ground truth ``(T, n, n)``."""
        from repro.ingest import SyntheticFlowSource
        from repro.ingest.records import write_flow_csv
        from repro.synthesis.datasets import open_dataset_stream

        weeks = 2
        data = open_dataset_stream(
            "geant", n_weeks=weeks, bins_per_week=self.n_bins // weeks,
            seed=dataset_seed("geant", self.variant), chunk_bins=48,
        )
        stream = data.full_stream(chunk_bins=48)
        truth = np.concatenate([block for _, block in stream.chunks()])
        nodes = stream.nodes
        source = SyntheticFlowSource(stream, records_per_pair=self.records_per_pair)

        def rows():
            for batch in source.batches():
                yield from zip(
                    batch.timestamps.tolist(),
                    (nodes[i] for i in batch.src.tolist()),
                    (nodes[j] for j in batch.dst.tolist()),
                    batch.volumes.tolist(),
                )

        write_flow_csv(path, rows())
        return truth

    def _replay(self, sink: Path, *extra: str) -> int:
        from repro.cli import main

        return main([
            "serve", "--source", str(self.trace), "--topology", "geant",
            "--prior", "stable_fp", "--refit-every", "96", "--sink", str(sink), *extra,
        ])

    def setup(self) -> None:
        self.trace = self.tmp / "feed.csv"
        self.truth = self._write_trace(self.trace)
        self._replays = 0
        warm = self.tmp / "warm"
        self._replay(warm, "--max-bins", "32")  # warm-up: lazy imports, first fit
        shutil.rmtree(warm)

    def iteration(self, recorder=None) -> IterationResult:
        self._replays += 1
        sink = self.tmp / f"sink-{self._replays}"
        probe = _LatencyProbe(self.bin_seconds, watermark_bins=1)  # serve's default
        undo = probe.install()
        ops = _Ops(recorder)
        try:
            ops.run("replay", 0, lambda: {"exit_code": float(self._replay(sink))})
        finally:
            undo()
        outputs = ops.result.outputs["replay"]
        if "error" not in outputs:
            outputs.update(self._check_sink(sink))
        shutil.rmtree(sink, ignore_errors=True)
        ops.result.bins = len(probe.latencies)
        ops.result.bin_latencies_s = probe.latencies
        self.status = probe.service.status if probe.service is not None else None
        return ops.result

    def _check_sink(self, sink: Path) -> dict:
        bins, errors = [], []
        truth = self.truth
        with open(sink / "estimates.jsonl", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                index = int(record["bin"])
                bins.append(index)
                if 0 <= index < truth.shape[0]:
                    estimate = np.asarray(record["estimate"], dtype=float)
                    actual = truth[index]
                    errors.append(float(np.linalg.norm(estimate - actual) / np.linalg.norm(actual)))
        return {
            "bins_in_order": bins == list(range(truth.shape[0])),
            "mean_rel_l2": float(np.mean(errors)) if errors else float("nan"),
        }

    def layer_counts(self) -> dict[str, float]:
        status = getattr(self, "status", None)
        if status is None:
            return {}
        return {
            "ingest.records": float(status.records_seen),
            "ingest.records_dropped": float(status.records_dropped_late + status.records_skipped),
            "rolling.refits": float(status.refits),
        }


# ---------------------------------------------------------------------------
# cli-cold-start: three CLI commands, each in a fresh interpreter
# ---------------------------------------------------------------------------

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def strip_timing(text: str) -> str:
    """The fig2 table without its ``=== fig2 (0.0s) ===`` wall-time header."""
    return "\n".join(line for line in text.splitlines() if not line.startswith("=== "))


class CliColdStart(Workload):
    name = "cli-cold-start"
    seeded = False
    in_process = False
    sample_bins = 24

    def _python(self, *args: str, timeout: float = 120.0):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], cwd=self.root, env=child_env(self.root),
            capture_output=True, text=True, timeout=timeout,
        )
        return proc, time.perf_counter() - started

    def setup(self) -> None:
        # Warm the page cache and bytecode cache the commands start from.
        proc, _ = self._python("-c", "import repro.cli; repro.cli.build_parser()")
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import repro.cli:\n{proc.stderr}")
        self._rounds = 0
        self._command_s: dict[str, list[float]] = {}

    def commands(self, sink: Path) -> dict[str, list[str]]:
        return {
            "list": ["-m", "repro", "list"],
            "fig2": ["-m", "repro", "run", "fig2"],
            "serve_sample": [
                "-m", "repro", "serve", "--source", "examples/sample_flows.csv",
                "--topology", "abilene", "--sink", str(sink),
            ],
        }

    def iteration(self, recorder=None) -> IterationResult:
        self._rounds += 1
        sink = self.tmp / f"sink-{self._rounds}"
        result = IterationResult()
        for name, argv in self.commands(sink).items():
            index = recorder.open("bench.op", name) if recorder else None
            try:
                proc, elapsed = self._python(*argv)
                outputs = {"exit_code": float(proc.returncode)}
                if name == "fig2":
                    outputs["table"] = strip_timing(proc.stdout)
                if name == "serve_sample":
                    outputs.update(self._sink_summary(sink))
            except (OSError, subprocess.SubprocessError) as exc:
                outputs, elapsed = {"error": f"{type(exc).__name__}: {exc}"}, 0.0
            finally:
                if index is not None:
                    recorder.close(index)
            result.outputs[name] = outputs
            result.seconds[name] = elapsed
            result.weights[name] = 1
        result.bins = self.sample_bins
        shutil.rmtree(sink, ignore_errors=True)
        for name, seconds in result.seconds.items():
            self._command_s.setdefault(name, []).append(seconds)
        return result

    @staticmethod
    def _sink_summary(sink: Path) -> dict:
        path = sink / "estimates.jsonl"
        if not path.exists():
            return {"bins_in_order": False}
        records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        expected = list(range(CliColdStart.sample_bins))
        return {
            "bins_in_order": [int(r["bin"]) for r in records] == expected,
            "total_estimate": float(sum(np.sum(r["estimate"]) for r in records)),
        }

    def layer_counts(self) -> dict[str, float]:
        return {f"cli.{name}_s": lower_quartile(s) for name, s in self._command_s.items()}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FigEstimate, FigCharacterize, ServeReplay, CliColdStart)
}


def cli_stage_times(root: Path) -> dict[str, float]:
    """Cold-start stages, each the median over fresh interpreters.

    ``cli.interpreter_s`` is a bare ``python -c pass``; the rest are timed
    inside one fresh interpreter, in order: numpy+scipy, ``import repro``,
    then ``repro.cli.build_parser()`` (which populates every registry).
    """
    probe = (
        "import json, time\n"
        "t0 = time.perf_counter()\n"
        "import numpy, scipy\n"
        "t1 = time.perf_counter()\n"
        "import repro\n"
        "t2 = time.perf_counter()\n"
        "from repro.cli import build_parser\n"
        "build_parser()\n"
        "t3 = time.perf_counter()\n"
        "print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))\n"
    )
    samples: dict[str, list[float]] = {
        "cli.interpreter_s": [], "cli.deps_import_s": [], "cli.import_s": [], "cli.parser_s": [],
    }
    env = child_env(root)
    for _ in range(3):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
        samples["cli.interpreter_s"].append(time.perf_counter() - started)
        proc = subprocess.run(
            [sys.executable, "-c", probe], cwd=root, env=env, check=True,
            capture_output=True, text=True,
        )
        deps, imp, parser = json.loads(proc.stdout.strip().splitlines()[-1])
        samples["cli.deps_import_s"].append(deps)
        samples["cli.import_s"].append(imp)
        samples["cli.parser_s"].append(parser)
    return {name: float(np.median(values)) for name, values in samples.items()}
