"""End-to-end, layer-by-layer benchmark of the repro package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig-estimate --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace
1`` runs the same workload with every layer's public functions wrapped in
spans and prints the per-layer metrics instead, writing the spans to
``.bench_out/trace-<workload>.jsonl`` (readable by ``repro trace
summary``).  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The traced run of an in-process workload also
times and checks the cold-start CLI commands once, for the ``cli.*``
metrics.  ``--workload all`` runs every workload, each in its own process,
and ends with one combined result whose metric names are prefixed with the
workload.  See ``perfbench/README.md`` for the workloads (including
``cli-cold-start``, which runs by hand only), metrics and the
layer-to-metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Pin BLAS to one thread before numpy loads, in this process and in every
# interpreter it starts: a 2-CPU machine shared with other work gives
# steadier numbers single-threaded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# Every run times at least this many iterations, so each timing's lower
# quartile rests on the same number of samples on a slow machine as on a
# fast one.
MIN_ITERATIONS = 3


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole iterations: at least three, then more "
                             "while the next fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fingerprint(workload: str, seed: int) -> dict:
    import hashlib
    import platform

    import numpy
    import scipy

    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    revision = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else "unknown"
        revision = ref
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
        "src_sha1": digest.hexdigest(),
    }


def _load_reference(workload) -> dict:
    path = HERE / "reference.json"
    if not path.is_file():
        return {}
    data = json.loads(path.read_text())
    per_workload = data.get("workloads", {}).get(workload.name, {})
    return per_workload.get(str(workload.variant) if workload.seeded else "*", {})


def _metric_specs() -> dict[str, list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def _cli_probe(seed: int) -> tuple[dict[str, float], dict[str, str], int]:
    """Run the cold-start CLI commands once, each in a fresh interpreter.

    Returns their ``cli.<command>_s`` times, ``{command: reason}`` for every
    command whose outputs differ from the reference, and the number checked.
    """
    import bench_workloads

    cli = bench_workloads.CliColdStart(seed, ROOT)
    try:
        cli.setup()
        result = cli.iteration()
    finally:
        cli.close()
    reference = _load_reference(cli)
    bad = bench_workloads.check_outputs(result.outputs, reference)
    if not reference:
        bad["cli"] = "no reference numbers recorded"
    return cli.layer_counts(), {f"cli.{op}": reason for op, reason in bad.items()}, len(reference)


def _per_layer(recorder, workload, iterations: int, traced_wall: float
               ) -> tuple[dict[str, float], dict[str, str], int]:
    """Per-layer metric values, plus the cold-start probe's failures and checks."""
    import bench_trace
    import bench_workloads

    totals = bench_trace.layer_totals(recorder.spans)

    def total(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0.0) / iterations

    def ms_per_bin(layer: str) -> float:
        bins = totals.get(layer, {}).get("bins", 0)
        return 1000.0 * totals[layer]["busy_s"] / bins if bins else 0.0

    values = {
        "refine.busy_s": total("refine", "busy_s"),
        "refine.ms_per_bin": ms_per_bin("refine"),
        "ipf.busy_s": total("ipf", "busy_s"),
        "ipf.ms_per_bin": ms_per_bin("ipf"),
        "estimate.busy_s": total("estimate", "busy_s"),
        "estimate.self_s": total("estimate", "self_s"),
        "estimate.bins": total("estimate", "bins"),
        "error_metrics.busy_s": total("error_metrics", "busy_s"),
        "prior.busy_s": total("prior", "busy_s"),
        "prior_fit.busy_s": total("prior_fit", "busy_s"),
        "prior_fit.calls": total("prior_fit", "calls"),
        "synthesis.busy_s": total("synthesis", "busy_s"),
        "synthesis.calls": total("synthesis", "calls"),
        "measure.busy_s": total("measure", "busy_s"),
        "routing.busy_s": total("routing", "busy_s"),
        "routing.calls": total("routing", "calls"),
        "ingest.parse_s": total("ingest.parse", "busy_s"),
        "ingest.bin_s": total("ingest.bin", "busy_s"),
        "rolling.observe_s": total("rolling.observe", "busy_s"),
        "rolling.prior_s": total("rolling.prior", "busy_s"),
        "serve.self_s": total("serve", "self_s"),
        "runner.self_s": total("runner", "self_s"),
        "characterization.busy_s": total("characterization", "busy_s"),
        "ingest.records": 0.0,
        "ingest.records_dropped": 0.0,
        "rolling.refits": 0.0,
        "cli.list_s": 0.0,
        "cli.fig2_s": 0.0,
        "cli.serve_sample_s": 0.0,
    }
    values.update(workload.layer_counts())

    # Fast-path cache ratios, each with its base, from the estimators seen.
    hits = {"factor": [0, 0], "ipf": [0, 0]}
    for estimator in recorder.estimators.values():
        stats_fn = getattr(estimator, "fast_path_stats", None)
        stats = stats_fn() if callable(stats_fn) else None
        if not stats:
            continue
        factor, ipf = stats["factor_cache"], stats["ipf_cache"]
        hits["factor"][0] += factor["hits_equal"] + factor["hits_scaled"]
        hits["factor"][1] += factor["hits_equal"] + factor["hits_scaled"] + factor["misses"]
        hits["ipf"][0] += ipf["hits_equal"] + ipf["hits_scaled"]
        hits["ipf"][1] += ipf["hits_equal"] + ipf["hits_scaled"] + ipf["solved"]
    for cache, (hit, base) in hits.items():
        values[f"fastpath.{cache}_hit_ratio"] = hit / base if base else 0.0
        values[f"fastpath.{cache}_lookups"] = base / iterations

    values.update(bench_workloads.cli_stage_times(ROOT))
    failures, checked = {}, 0
    if workload.in_process:  # the CLI workload times its commands itself
        probe, failures, checked = _cli_probe(workload.seed)
        values.update(probe)
    spans_per_iteration = len(recorder.spans) / iterations
    values["trace.spans"] = spans_per_iteration
    values["trace.overhead_frac"] = (
        spans_per_iteration * bench_trace.span_cost_s() / (traced_wall / iterations)
    )
    values["trace.layer_coverage_frac"] = (
        bench_trace.layer_coverage(recorder.spans) if workload.in_process else 0.0
    )
    return values, failures, checked


def _run_all(args, names) -> int:
    """Run every workload in its own process; print their lines and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import bench_trace
    import bench_workloads
    from bench_workloads import lower_quartile, percentile

    if args.workload == "all":
        return _run_all(args, bench_workloads.WORKLOADS)
    if args.workload not in bench_workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    specs = _metric_specs()
    workload = bench_workloads.WORKLOADS[args.workload](args.seed, ROOT)
    # Keep every temporary file the program or its children make inside the
    # checkout, where the workload removes them at exit.
    os.environ["TMPDIR"] = tempfile.tempdir = str(workload.tmp)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        reference = _load_reference(workload)

        recorder = bench_trace.SpanRecorder() if args.trace else None
        walls, op_seconds, weights = [], {}, {}
        bin_latencies = []  # one list of per-bin latencies per iteration
        bins = 0
        attempted = failed = 0
        failures: dict[str, str] = {}
        deadline = time.perf_counter() + args.seconds
        with (bench_trace.instrument(recorder) if recorder else contextlib.nullcontext()):
            while len(walls) < MIN_ITERATIONS or time.perf_counter() + walls[-1] <= deadline:
                root = recorder.open("bench.iteration", workload.name) if recorder else None
                started = time.perf_counter()
                result = workload.iteration(recorder)
                walls.append(time.perf_counter() - started)
                if root is not None:
                    recorder.close(root)
                for op, seconds in result.seconds.items():
                    op_seconds.setdefault(op, []).append(seconds)
                weights.update(result.weights)
                bins = result.bins
                if result.bin_latencies_s:
                    bin_latencies.append(result.bin_latencies_s)
                bad = bench_workloads.check_outputs(result.outputs, reference)
                attempted += max(len(reference), len(result.outputs))
                failed += len(bad) if reference else len(result.outputs)
                failures.update(bad)

        # A run reports the lower quartile of each timing's repetitions.
        op_cost = {op: lower_quartile(runs) for op, runs in op_seconds.items()}
        wall = sum(op_cost.values())
        if bin_latencies:  # measured per bin: a percentile per iteration
            latency = {q: lower_quartile([percentile(it, q) for it in bin_latencies])
                       for q in (50, 98)}
            samples = sum(len(it) for it in bin_latencies)
        else:  # a bin waits for its whole operation
            per_bin = [op_cost[op] for op, weight in weights.items() for _ in range(weight)]
            latency = {q: percentile(per_bin, q) for q in (50, 98)}
            samples = len(per_bin)
        if args.trace:
            values, bad, checked = _per_layer(recorder, workload, len(walls), sum(walls))
            failures.update(bad)
            attempted += checked
            failed += len(bad)
            trace_path = workload.out_dir / f"trace-{workload.name}.jsonl"
            bench_trace.write_jsonl(recorder, trace_path, trace_id=f"{workload.name}-{args.seed}")
            problems = bench_trace.check_nesting(recorder.spans)
            if problems:
                failures["trace"] = problems[0]
                failed += 1
            print(f"# trace written to {trace_path.relative_to(ROOT)}")
            chosen = specs["per_layer"]
        else:
            usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": wall,
                "bins_per_s": bins / wall,
                "latency_p50_ms": 1000.0 * latency[50],
                "latency_p98_ms": 1000.0 * latency[98],
                "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
            }
            chosen = specs["end_to_end"]
    finally:
        workload.close()

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in chosen}
    env = _fingerprint(workload.name, args.seed)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {workload.name}: {len(walls)} iteration(s), variant {workload.variant}, "
          f"{samples} latency samples, setups {[round(s, 3) for s in setups]}")
    if not reference:
        print("# no reference numbers recorded for this workload variant")
    for op, runs in op_seconds.items():
        print(f"# op {op:<24} lower quartile {op_cost[op]:.4f} s of "
              f"{json.dumps([round(x, 4) for x in runs])}")
    for op, reason in sorted(failures.items()):
        print(f"# FAILED {op}: {reason}")
    print(f"# failed_frac {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    for name, metric in metrics.items():
        print(f"# {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0 and bool(reference),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
