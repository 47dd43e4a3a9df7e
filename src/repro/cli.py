"""Command-line interface: subcommands over the registries and scenarios.

Usage::

    python -m repro run fig3 --dataset geant
    python -m repro run all
    python -m repro estimate --prior stable_fp --dataset geant
    python -m repro sweep --priors measured stable_f --datasets geant totem --jobs 4
    python -m repro list priors

``run`` executes a figure-reproduction experiment, ``estimate`` a single
declarative scenario, ``sweep`` a priors × datasets grid through the
:class:`repro.scenarios.ScenarioRunner` (``--jobs N`` runs grid cells in
parallel with deterministic per-cell seeds; ``--executor remote
--remote-workers HOST:PORT ...`` shards them across ``repro sweep-worker``
daemons, or spawns loopback ones with ``--remote-workers spawn:N``),
``sweep-worker`` runs one such daemon, ``report`` renders streaming
analytics marts over a sweep ``--spill-dir`` archive or a ``serve`` sink
(one shard in memory at a time — never the series), ``trace`` inspects,
merges and exports the JSONL span traces that ``--trace FILE`` (or
``REPRO_TRACE=FILE``) records on run/estimate/sweep/serve (``--metrics-out
FILE`` writes Prometheus metrics at exit; ``repro serve --metrics-port N``
additionally serves them live), and ``list`` shows the registered
components of any kind together with their metadata.  Unknown component
or experiment names exit with status 2 and a message naming the valid
registered choices.

The bare legacy form ``python -m repro.cli fig3`` (no subcommand) is still
accepted and treated as ``run fig3``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.errors import ReproError
from repro.registry import EXPERIMENTS_REGISTRY, REGISTRIES
from repro.scenarios import Scenario, ScenarioRunner

__all__ = ["main", "build_parser"]

USAGE_EXIT_CODE = 2


def _add_scenario_knobs(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``estimate`` and ``sweep`` (Scenario fields)."""
    parser.add_argument("--estimator", default="tomogravity",
                        help="registered estimator to refine the prior with")
    parser.add_argument("--bins-per-week", type=int, default=None,
                        help="override the number of time bins per week")
    parser.add_argument("--full-scale", action="store_true",
                        help="use paper-sized workloads (slower)")
    parser.add_argument("--max-bins", type=int, default=48,
                        help="cap on bins pushed through the pipeline (0 = whole week)")
    parser.add_argument("--calibration-week", type=int, default=0,
                        help="week used to calibrate the prior")
    parser.add_argument("--target-week", type=int, default=None,
                        help="week being estimated (default: the prior's paper setup)")
    parser.add_argument("--measurement-noise", type=float, default=0.01,
                        help="relative std of simulated SNMP noise")
    parser.add_argument("--seed", type=int, default=0,
                        help="measurement-noise seed")
    parser.add_argument("--dataset-seed", type=int, default=None,
                        help="override the dataset generation seed")
    _add_streaming_knobs(parser)
    _add_obs_knobs(parser)
    parser.add_argument("--spill-dir", default=None,
                        help="out-of-core results for --stream runs: per-bin "
                             "error series and the estimate cube are written "
                             "as .npz shards under this run directory and "
                             "loaded lazily (without it, runs spill "
                             "automatically to a temporary directory once "
                             "they reach the auto threshold)")
    parser.add_argument("--spill-shard-bins", type=int, default=None,
                        help="bins per spilled .npz shard (default 2048); "
                             "smaller shards lower the peak memory of "
                             "shard-at-a-time readers like `repro report`")


def _add_obs_knobs(parser: argparse.ArgumentParser, *, metrics_port: bool = False) -> None:
    """The observability opt-ins shared by run/estimate/sweep/serve."""
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a JSONL span trace of this command to FILE "
                             "(REPRO_TRACE=FILE does the same; distributed "
                             "sweeps merge worker spans into the one file; "
                             "inspect with `repro trace summary FILE`)")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write final counters/gauges/latency quantiles as "
                             "Prometheus text exposition to FILE on exit")
    if metrics_port:
        parser.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                            help="serve live Prometheus metrics on "
                                 "http://127.0.0.1:PORT/metrics while the "
                                 "service runs (0 = pick an ephemeral port; "
                                 "the bound address is printed to stderr)")


def _add_streaming_knobs(parser: argparse.ArgumentParser) -> None:
    """The chunked-execution flags shared by ``run``, ``estimate`` and ``sweep``."""
    parser.add_argument("--stream", action="store_true",
                        help="run through the chunked streaming pipeline: "
                             "bounded peak memory (reported as peak RSS), "
                             "bit-identical same-seed synthesis")
    parser.add_argument("--chunk-bins", type=int, default=None,
                        help="bins per streamed chunk (default: fit a small "
                             "fixed memory budget)")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce and extend the independent-connection traffic-matrix model.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="run a figure-reproduction experiment and print its table"
    )
    run.add_argument(
        "experiment",
        choices=[*EXPERIMENTS_REGISTRY.names(), "all"],
        help="experiment identifier (paper figure number) or 'all'",
    )
    run.add_argument("--dataset", default=None,
                     help="registered dataset, for experiments that take one")
    run.add_argument("--full-scale", action="store_true",
                     help="use paper-sized workloads (slower) where supported")
    run.add_argument("--bins-per-week", type=int, default=None,
                     help="override the number of time bins per week")
    _add_streaming_knobs(run)
    _add_obs_knobs(run)
    run.set_defaults(handler=_cmd_run)

    estimate = subparsers.add_parser(
        "estimate", help="run one estimation scenario (prior × dataset × estimator)"
    )
    estimate.add_argument("--prior", required=True, help="registered prior to estimate with")
    estimate.add_argument("--dataset", required=True, help="registered dataset to estimate on")
    estimate.add_argument("--topology", default=None,
                          help="registered topology overriding the dataset's own")
    estimate.add_argument("--forward-fraction", type=float, default=None,
                          help="externally measured f, for priors that use one")
    estimate.add_argument("--no-baseline", action="store_true",
                          help="skip the gravity-baseline comparison run")
    _add_scenario_knobs(estimate)
    estimate.set_defaults(handler=_cmd_estimate)

    sweep = subparsers.add_parser(
        "sweep",
        help="run a priors × datasets grid and print a comparison table",
        description=(
            "Run every (prior, dataset) grid cell through the shared estimation "
            "pipeline.  With --jobs N the cells run in N parallel worker "
            "processes on the shared-plan scheduler: each dataset column is "
            "synthesized (or, with --stream, planned with checkpointed noise "
            "states) once in the parent and shipped over the sweep-worker "
            "protocol — local workers speak it over socket pairs, remote ones "
            "over TCP — and whichever worker is free takes the next column "
            "batch, reusing the column's measurement system and baseline "
            "estimate across its priors.  Every cell carries its own "
            "deterministic seeds, so the grid result is identical regardless "
            "of the worker count."
        ),
    )
    sweep.add_argument("--priors", nargs="+", default=("measured", "stable_fp", "stable_f"),
                       help="registered priors spanning the grid rows")
    sweep.add_argument("--datasets", nargs="+", default=("geant", "totem"),
                       help="registered datasets spanning the grid columns")
    sweep.add_argument("--timing", action="store_true",
                       help="also print the per-cell timing breakdown")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="workers for grid cells (1 = serial, 0 = one per "
                            "CPU); local executors cap at the CPU count (a "
                            "warning reports the effective count), remote "
                            "executors honour the full request; deterministic "
                            "per-cell seeds keep results identical at any "
                            "worker count")
    sweep.add_argument("--executor", default="auto",
                       choices=["auto", "in-process", "local-pool", "remote"],
                       help="where cells run: auto picks in-process or the "
                            "local worker pool from --jobs (local processes "
                            "speaking the sweep-worker protocol over socket "
                            "pairs); remote ships column batches to `repro "
                            "sweep-worker` daemons (requires --remote-workers)")
    sweep.add_argument("--remote-workers", nargs="+", default=None,
                       metavar="HOST:PORT",
                       help="sweep-worker daemon addresses for --executor "
                            "remote; cells that spill need --spill-dir on "
                            "storage shared with every worker.  The single "
                            "token spawn:N instead launches N loopback "
                            "worker subprocesses for the sweep and tears "
                            "them down afterwards")
    sweep.add_argument("--stream-results", action="store_true",
                       help="stream cell results into the --spill-dir archive "
                            "as they complete instead of accumulating them in "
                            "the driver (requires --stream and --spill-dir): "
                            "writes manifest.jsonl and merged marts.json, "
                            "prints the archive summary, and keeps driver "
                            "memory flat in the grid size; render details "
                            "later with `repro report <spill-dir>`")
    _add_scenario_knobs(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    worker = subparsers.add_parser(
        "sweep-worker",
        help="run a sweep-worker daemon for distributed `repro sweep` runs",
        description=(
            "Listen for `repro sweep --executor remote` clients, rebuild the "
            "dataset columns they ship (streaming generation-plan state or "
            "materialised week cubes), run their column batches through the "
            "shared estimation pipeline, and send the per-cell results back.  "
            "One daemon is one execution slot; run several for parallelism.  "
            "The protocol exchanges pickled objects over plain TCP with no "
            "authentication: bind only to loopback or a trusted private "
            "network."
        ),
    )
    worker.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default loopback; bind "
                             "non-loopback addresses only on trusted networks)")
    worker.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = pick an ephemeral port; the bound "
                             "address is printed as 'sweep-worker listening on "
                             "HOST:PORT')")
    worker.add_argument("--max-connections", type=int, default=0,
                        help="exit after serving this many client connections "
                             "(0 = serve until killed or a shutdown request)")
    worker.set_defaults(handler=_cmd_sweep_worker)

    serve = subparsers.add_parser(
        "serve",
        help="run the live flow-ingestion estimation service",
        description=(
            "Ingest a flow-record feed (a .csv/.jsonl trace replay or a "
            "synthetic generator), bin it into per-bin OD matrices behind a "
            "bounded watermark, and publish rolling traffic-matrix estimates "
            "as JSONL.  The estimation stages are the batch pipeline's own "
            "per-bin code, so a replayed week with a pinned prior reproduces "
            "`repro estimate --stream` exactly.  SIGTERM stops the service "
            "cleanly and writes a resumable checkpoint."
        ),
    )
    serve.add_argument("--source", required=True,
                       help="flow feed: a .csv/.jsonl trace file, or 'synthetic'")
    serve.add_argument("--topology", default=None,
                       help="registered topology naming the nodes and routing "
                            "(required for file sources; synthetic defaults to "
                            "the dataset's own)")
    serve.add_argument("--dataset", default="geant",
                       help="dataset behind --source synthetic")
    serve.add_argument("--bins-per-week", type=int, default=None,
                       help="synthetic scale: bins per generated week")
    serve.add_argument("--n-weeks", type=int, default=1,
                       help="synthetic scale: weeks to generate")
    serve.add_argument("--dataset-seed", type=int, default=None,
                       help="override the synthetic dataset generation seed")
    serve.add_argument("--speedup", type=float, default=0.0,
                       help="replay pacing: trace seconds per wall-clock second "
                            "(0 = unpaced, as fast as the file parses)")
    serve.add_argument("--batch-records", type=int, default=1024,
                       help="records per replay batch (pacing and stop-check "
                            "granularity for file sources)")
    serve.add_argument("--bin-seconds", type=float, default=None,
                       help="bin width (default: the dataset's for synthetic, "
                            "300s for file sources)")
    serve.add_argument("--chunk-bins", type=int, default=16,
                       help="closed bins per estimation chunk (the publication cadence)")
    serve.add_argument("--watermark-bins", type=int, default=1,
                       help="out-of-order tolerance in whole bins before a bin "
                            "closes; later records are dropped and counted")
    serve.add_argument("--estimator", default="tomogravity",
                       help="registered estimator refining the prior")
    serve.add_argument("--prior", default="gravity",
                       choices=["gravity", "stable_f", "stable_fp"],
                       help="prior recipe for the refinement step")
    serve.add_argument("--forward-fraction", type=float, default=None,
                       help="pinned f for --prior stable_f (and the warm start "
                            "of the first stable_fp fit)")
    serve.add_argument("--refit-every", type=int, default=0,
                       help="re-fit the stable_fp prior every K closed bins on "
                            "the sliding window (0 = never re-fit)")
    serve.add_argument("--window-bins", type=int, default=96,
                       help="sliding fit-window length in bins")
    serve.add_argument("--window-budget-mb", type=float, default=64.0,
                       help="in-memory window budget before bins spill to .npz shards")
    serve.add_argument("--spill-dir", default=None,
                       help="directory for spilled window shards (default: a "
                            "temporary directory)")
    serve.add_argument("--sink", default="-",
                       help="estimate output: a directory (gains estimates.jsonl), "
                            "an explicit .jsonl path, or '-' for stdout")
    serve.add_argument("--status-file", default=None,
                       help="status snapshot JSON, rewritten after every chunk "
                            "(default: <sink>/status.json for directory sinks)")
    serve.add_argument("--checkpoint", default=None,
                       help="resumable checkpoint path; if the file exists the "
                            "service resumes from it (default: "
                            "<sink>/checkpoint.json for directory sinks)")
    serve.add_argument("--estimate-shards", default=None,
                       help="also append published estimates to estimate-*.npz "
                            "shards under this directory (a `repro report`-"
                            "readable sidecar; the JSONL sink remains the "
                            "source of truth)")
    serve.add_argument("--max-bins", type=int, default=0,
                       help="stop after publishing this many bins (0 = run to "
                            "the end of the feed)")
    serve.add_argument("--measurement-noise", type=float, default=0.0,
                       help="relative std of simulated SNMP noise on the binned "
                            "measurements (deterministic per chunk)")
    serve.add_argument("--seed", type=int, default=0, help="measurement-noise seed")
    _add_obs_knobs(serve, metrics_port=True)
    serve.set_defaults(handler=_cmd_serve)

    report = subparsers.add_parser(
        "report",
        help="render streaming analytics marts over a result archive",
        description=(
            "Reduce a result archive — a `repro sweep --spill-dir` run "
            "directory or a `repro serve` sink (JSONL, or its "
            "--estimate-shards sidecar) — through single-pass streaming "
            "marts: exact top talkers, hour-of-day rollups and totals, plus "
            "sketched quantiles and per-OD CCDFs with committed error "
            "bounds.  Shards are read one at a time, so peak memory is one "
            "shard plus sketch state — the series itself is never "
            "materialised."
        ),
    )
    report.add_argument("archive", nargs="?", default=None,
                        help="sweep --spill-dir directory, serve sink directory, "
                             "or an estimates.jsonl file")
    report.add_argument("--marts", nargs="+", default=None,
                        help="marts to render (default: all registered; see "
                             "`repro report --help-marts`)")
    report.add_argument("--help-marts", action="store_true",
                        help="list the registered marts and exit")
    report.add_argument("--format", default="table", choices=["table", "json", "csv"],
                        help="output rendering (default table)")
    report.add_argument("--series", default="errors",
                        help="per-bin scalar series consumed by series marts "
                             "(default errors)")
    report.add_argument("--window", nargs=2, type=int, metavar=("START", "STOP"),
                        default=None,
                        help="restrict the reduction to bins [START, STOP); "
                             "only overlapping shards are read")
    report.add_argument("--top", type=int, default=10,
                        help="K for the top_talkers mart (default 10)")
    report.add_argument("--bins-per-hour", type=int, default=None,
                        help="bins per hour for traffic_by_hour (default 12, "
                             "i.e. 300 s bins)")
    report.add_argument("--epsilon", type=float, default=None,
                        help="rank-error bound for sketched quantiles "
                             "(default 0.005)")
    report.set_defaults(handler=_cmd_report)

    trace = subparsers.add_parser(
        "trace",
        help="inspect, merge or export JSONL span traces",
        description=(
            "Work with the JSONL traces written by --trace/REPRO_TRACE: "
            "`summary` prints the per-span-name time breakdown and the "
            "share of wall time the spans account for, `merge` combines "
            "trace files (e.g. per-host worker traces) into one "
            "time-ordered file, and `export` converts traces to Chrome "
            "trace_event JSON for chrome://tracing / Perfetto."
        ),
    )
    trace.add_argument("action", choices=["summary", "merge", "export"],
                       help="summary: per-name totals and wall coverage; "
                            "merge: combine JSONL traces; export: Chrome "
                            "trace_event JSON")
    trace.add_argument("files", nargs="+", metavar="TRACE.jsonl",
                       help="one or more JSONL trace files")
    trace.add_argument("-o", "--output", default=None,
                       help="output path for merge/export (default stdout)")
    trace.set_defaults(handler=_cmd_trace)

    lister = subparsers.add_parser(
        "list", help="list registered components (priors, datasets, ...)"
    )
    lister.add_argument(
        "kind",
        nargs="?",
        choices=sorted(REGISTRIES),
        default=None,
        help="component kind to list (default: every registry)",
    )
    lister.set_defaults(handler=_cmd_list)

    return parser


# ---------------------------------------------------------------------------
# observability wiring
# ---------------------------------------------------------------------------

def _observability(args: argparse.Namespace, command: str):
    """Context manager arming tracing/metrics for one command, per its flags.

    ``--trace FILE`` (or ``REPRO_TRACE=FILE``) installs a file-backed
    ambient tracer wrapped in a root ``repro`` span so the whole command is
    covered; ``--metrics-out``/``--metrics-port`` install an ambient
    :class:`~repro.obs.MetricsRegistry` (served live and/or written at
    exit).  Commands without the flags get the null twins: the context is
    always legal to enter and costs nothing when observability is off.
    """
    import os
    from contextlib import ExitStack, contextmanager

    from repro.obs import (
        TRACE_ENV,
        MetricsRegistry,
        MetricsServer,
        Tracer,
        use_metrics,
        use_tracer,
    )

    trace_path = getattr(args, "trace", None) or os.environ.get(TRACE_ENV) or None
    metrics_out = getattr(args, "metrics_out", None)
    metrics_port = getattr(args, "metrics_port", None)

    @contextmanager
    def _armed():
        with ExitStack() as stack:
            registry = None
            if metrics_out or metrics_port is not None:
                registry = MetricsRegistry()
                stack.enter_context(use_metrics(registry))
                if metrics_port is not None:
                    server = MetricsServer(registry, port=metrics_port)
                    stack.callback(server.close)
                    print(
                        f"metrics: serving http://{server.host}:{server.port}/metrics",
                        file=sys.stderr,
                    )
            if trace_path:
                tracer = stack.enter_context(Tracer(trace_path))
                stack.enter_context(use_tracer(tracer))
                stack.enter_context(tracer.span("repro", command=command))
            yield
            if registry is not None and metrics_out:
                registry.write_file(metrics_out)
    return _armed()


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _run_one(name: str, args: argparse.Namespace) -> str:
    entry = EXPERIMENTS_REGISTRY.entry(name)
    accepts = entry.metadata.get("accepts", ())
    kwargs = {}
    if args.dataset is not None and "dataset" in accepts:
        kwargs["dataset"] = args.dataset
    if args.full_scale and "full_scale" in accepts:
        kwargs["full_scale"] = True
    if args.bins_per_week is not None and "bins_per_week" in accepts:
        kwargs["bins_per_week"] = args.bins_per_week
    if args.stream:
        if "stream" not in accepts:
            raise ReproError(
                f"experiment {name!r} does not support --stream; streaming "
                "experiments: "
                + ", ".join(
                    entry.name
                    for entry in EXPERIMENTS_REGISTRY.entries()
                    if "stream" in entry.metadata.get("accepts", ())
                )
            )
        kwargs["stream"] = True
    if args.chunk_bins is not None and "chunk_bins" in accepts:
        kwargs["chunk_bins"] = args.chunk_bins
    started = time.perf_counter()
    result = entry.obj(**kwargs)
    elapsed = time.perf_counter() - started
    header = f"=== {name} ({elapsed:.1f}s) ==="
    return f"{header}\n{result.format_table()}\n"


def _cmd_run(args: argparse.Namespace) -> int:
    names = (
        list(EXPERIMENTS_REGISTRY.names()) if args.experiment == "all" else [args.experiment]
    )
    for name in names:
        print(_run_one(name, args))
    return 0


def _scenario_from_args(args: argparse.Namespace, *, dataset: str, prior: str) -> Scenario:
    return Scenario(
        dataset=dataset,
        prior=prior,
        estimator=args.estimator,
        topology=getattr(args, "topology", None),
        calibration_week=args.calibration_week,
        target_week=args.target_week,
        bins_per_week=args.bins_per_week,
        full_scale=args.full_scale,
        max_bins=args.max_bins if args.max_bins and args.max_bins > 0 else None,
        measurement_noise=args.measurement_noise,
        seed=args.seed,
        dataset_seed=args.dataset_seed,
        measured_forward_fraction=getattr(args, "forward_fraction", None),
        stream=args.stream,
        chunk_bins=args.chunk_bins,
        spill_dir=getattr(args, "spill_dir", None),
        spill_shard_bins=getattr(args, "spill_shard_bins", None),
    )


def _cmd_estimate(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args, dataset=args.dataset, prior=args.prior)
    runner = ScenarioRunner(baseline_prior=None if args.no_baseline else "gravity")
    result = runner.run(scenario)
    print(f"=== {scenario.label} ===")
    print(result.format_table())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _scenario_from_args(args, dataset=args.datasets[0], prior=args.priors[0])
    for prior in args.priors:
        base.replace(prior=prior).validate()
    for dataset in args.datasets:
        base.replace(dataset=dataset).validate()
    jobs = None if args.jobs == 0 else args.jobs
    if jobs is not None and jobs < 0:
        print("error: --jobs must be >= 0", file=sys.stderr)
        return USAGE_EXIT_CODE
    executor = args.executor
    spawned = None
    if executor == "remote":
        if not args.remote_workers:
            print("error: --executor remote requires --remote-workers HOST:PORT ... "
                  "(or spawn:N)", file=sys.stderr)
            return USAGE_EXIT_CODE
        from repro.scenarios import RemoteExecutor

        spawn_tokens = [w for w in args.remote_workers if w.startswith("spawn:")]
        if spawn_tokens:
            if len(args.remote_workers) > 1:
                print("error: --remote-workers spawn:N cannot be mixed with "
                      "explicit worker addresses", file=sys.stderr)
                return USAGE_EXIT_CODE
            try:
                count = int(spawn_tokens[0].split(":", 1)[1])
            except ValueError:
                count = 0
            if count < 1:
                print("error: --remote-workers spawn:N needs an integer N >= 1",
                      file=sys.stderr)
                return USAGE_EXIT_CODE
            from repro.scenarios import SpawnedWorkers

            spawned = SpawnedWorkers(count)
            executor = RemoteExecutor(spawned.addresses)
        else:
            executor = RemoteExecutor(args.remote_workers)
    elif args.remote_workers:
        print("error: --remote-workers only applies to --executor remote",
              file=sys.stderr)
        return USAGE_EXIT_CODE
    sink = None
    if args.stream_results:
        if not args.stream or not args.spill_dir:
            print("error: --stream-results requires --stream and --spill-dir "
                  "(the archive the cells stream into)", file=sys.stderr)
            if spawned is not None:
                spawned.close()
            return USAGE_EXIT_CODE
        from repro.marts import ArchiveResultSink

        sink = ArchiveResultSink(args.spill_dir)
    try:
        result = ScenarioRunner().sweep(
            priors=args.priors, datasets=args.datasets, base=base, jobs=jobs,
            executor=None if executor == "auto" else executor,
            result_sink=sink,
        )
    finally:
        if spawned is not None:
            spawned.close()
    grid = len(args.priors) * len(args.datasets)
    if sink is not None:
        import json

        cells_ok = result.timing.get("cells_ok", 0)
        print(f"=== sweep: {len(args.priors)} priors x {len(args.datasets)} datasets "
              f"({cells_ok}/{grid} cells ok, streamed to {args.spill_dir}) ===")
        print(json.dumps(sink.summary, indent=2))
        for cell, message in result.failures:
            print(f"failed: {cell.label}: {message}", file=sys.stderr)
        print(f"render marts with: repro report {args.spill_dir}", file=sys.stderr)
        return 0 if cells_ok else USAGE_EXIT_CODE
    print(f"=== sweep: {len(args.priors)} priors x {len(args.datasets)} datasets "
          f"({len(result.results)}/{grid} cells ok) ===")
    print(result.format_table())
    if args.timing:
        print(result.format_summary())
    if args.timing and result.results:
        print()
        print(result.format_timing())
    return 0 if result.results else USAGE_EXIT_CODE


def _cmd_sweep_worker(args: argparse.Namespace) -> int:
    from repro.scenarios import run_sweep_worker

    if args.port < 0:
        print("error: --port must be >= 0", file=sys.stderr)
        return USAGE_EXIT_CODE
    if args.max_connections < 0:
        print("error: --max-connections must be >= 0", file=sys.stderr)
        return USAGE_EXIT_CODE
    return run_sweep_worker(
        args.host,
        args.port,
        max_connections=args.max_connections if args.max_connections > 0 else None,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.ingest import FileReplaySource, IngestService, SyntheticFlowSource
    from repro.registry import ESTIMATORS
    from repro.topology.library import build_named_topology

    if args.source == "synthetic":
        from repro.synthesis.datasets import open_dataset_stream

        data = open_dataset_stream(
            args.dataset,
            n_weeks=max(args.n_weeks, 1),
            bins_per_week=args.bins_per_week,
            seed=args.dataset_seed,
            chunk_bins=args.chunk_bins,
        )
        topology = (
            build_named_topology(args.topology) if args.topology else data.topology
        )
        stream = data.full_stream(chunk_bins=args.chunk_bins)
        source = SyntheticFlowSource(stream)
        bin_seconds = args.bin_seconds or stream.bin_seconds
    else:
        if args.topology is None:
            raise ReproError("--topology is required for file sources")
        topology = build_named_topology(args.topology)
        bin_seconds = args.bin_seconds or 300.0
        source = FileReplaySource(
            args.source,
            topology.nodes,
            speedup=args.speedup,
            batch_records=args.batch_records,
        )

    status_path, checkpoint_path = args.status_file, args.checkpoint
    if args.sink not in (None, "-") and not str(args.sink).endswith(".jsonl"):
        from pathlib import Path

        sink_dir = Path(args.sink)
        status_path = status_path or sink_dir / "status.json"
        checkpoint_path = checkpoint_path or sink_dir / "checkpoint.json"

    estimator = ESTIMATORS.entry(args.estimator).obj()
    service = IngestService(
        source,
        topology,
        estimator=estimator,
        bin_seconds=bin_seconds,
        watermark_bins=args.watermark_bins,
        chunk_bins=args.chunk_bins,
        prior=args.prior,
        forward_fraction=args.forward_fraction,
        refit_every=args.refit_every,
        window_bins=args.window_bins,
        window_budget_bytes=int(args.window_budget_mb * 1024 * 1024),
        spill_dir=args.spill_dir,
        measurement_noise=args.measurement_noise,
        seed=args.seed,
        sink=args.sink,
        status_path=status_path,
        checkpoint_path=checkpoint_path,
        estimate_shards_dir=args.estimate_shards,
        max_bins=args.max_bins if args.max_bins > 0 else None,
    )
    previous = {
        sig: signal.signal(sig, service.request_stop)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        status = service.run()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    summary = status.to_dict()
    print(
        f"serve: published {summary['bins_published']} bins "
        f"({summary['records_seen']} records, "
        f"{summary['records_dropped_late']} dropped late, "
        f"prior {summary['prior']['mode']} v{summary['prior']['version']})"
        + (" [stopped by signal]" if status.stopped_by_signal else ""),
        file=sys.stderr,
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.marts import MART_REGISTRY, build_report, open_archive, render_report

    if args.help_marts:
        for name in sorted(MART_REGISTRY):
            spec = MART_REGISTRY[name]
            print(f"  {name:<18}[{spec.kind}]  {spec.description}")
        return 0
    if args.archive is None:
        print("error: report needs an archive (or --help-marts)", file=sys.stderr)
        return USAGE_EXIT_CODE
    options = {"top_k": args.top}
    if args.bins_per_hour is not None:
        options["bins_per_hour"] = args.bins_per_hour
    if args.epsilon is not None:
        options["epsilon"] = args.epsilon
    window = None
    if args.window is not None:
        start, stop = args.window
        if start < 0 or stop <= start:
            print("error: --window needs 0 <= START < STOP", file=sys.stderr)
            return USAGE_EXIT_CODE
        window = (start, stop)
    archive = open_archive(args.archive)
    report = build_report(
        archive,
        marts=args.marts,
        series=args.series,
        window=window,
        options=options,
    )
    print(render_report(report, args.format))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import (
        chrome_trace,
        load_trace_file,
        merge_trace_files,
        summarize_trace,
        write_trace_file,
    )

    try:
        events = (
            merge_trace_files(args.files)
            if len(args.files) > 1
            else load_trace_file(args.files[0])
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT_CODE
    if args.action == "summary":
        print(summarize_trace(events).format_table())
        return 0
    if args.action == "merge":
        if args.output is None:
            for event in events:
                print(json.dumps(event))
        else:
            write_trace_file(events, args.output)
            print(f"wrote {len(events)} events to {args.output}", file=sys.stderr)
        return 0
    payload = json.dumps(chrome_trace(events), indent=2)
    if args.output is None:
        print(payload)
    else:
        from pathlib import Path

        Path(args.output).write_text(payload + "\n")
        print(f"wrote Chrome trace to {args.output}", file=sys.stderr)
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    kinds = [args.kind] if args.kind else sorted(REGISTRIES)
    for index, kind in enumerate(kinds):
        registry = REGISTRIES[kind]
        if index:
            print()
        print(f"{kind}:")
        for entry in registry.entries():
            description = f"  {entry.description}" if entry.description else ""
            if kind == "datasets":
                from repro.synthesis.datasets import streamable_dataset_names

                state = (
                    "streamable"
                    if entry.name in streamable_dataset_names()
                    else "in-memory only"
                )
                description = f"{description}  [{state}]"
            print(f"  {entry.name:<14}{description}")
            if entry.metadata:
                hints = ", ".join(
                    f"{key}={_format_metadata_value(value)}"
                    for key, value in sorted(entry.metadata.items())
                )
                print(f"  {'':<14}  [{hints}]")
    if args.kind in (None, "datasets", "priors"):
        print()
        print("sweeps over these components run in parallel with "
              "`repro sweep --jobs N` (deterministic per-cell seeds).")
    return 0


def _format_metadata_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return "|".join(str(item) for item in value)
    return str(value)


_SUBCOMMANDS = frozenset(
    {"run", "estimate", "sweep", "sweep-worker", "serve", "report", "trace",
     "list", "-h", "--help"}
)


def _is_legacy_invocation(argv: list[str]) -> bool:
    """Whether ``argv`` is the seed-era form without a subcommand.

    The seed parser took the experiment as the only positional, and argparse
    accepted flags in any position (``--full-scale fig2``), so any invocation
    that skips the subcommand but names an experiment anywhere is legacy.
    """
    if not argv or argv[0] in _SUBCOMMANDS:
        return False
    return any(token == "all" or token in EXPERIMENTS_REGISTRY for token in argv)


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if _is_legacy_invocation(argv):
        # Legacy form: ``python -m repro.cli fig3 [--dataset ...]``.
        argv.insert(0, "run")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _observability(args, args.command):
            code = args.handler(args)
        sys.stdout.flush()
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT_CODE
    except BrokenPipeError:
        # The reader of stdout went away (``repro run fig3 | head``).  Point
        # stdout at devnull so the flush at interpreter exit cannot raise
        # again, and exit 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
