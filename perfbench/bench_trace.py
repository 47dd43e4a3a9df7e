"""Traced runs: time calls into repro's public functions from outside the program.

:class:`SpanRecorder` keeps spans in memory (name, start, end, parent, work
count) and :func:`instrument` swaps each function named in :data:`LAYERS`
for a wrapper that opens a span around the call.  A function is replaced at
every place that binds it by name: its defining module, every loaded
``repro`` module that imported it with ``from ... import``, and every
registry entry (datasets, priors) that holds it.  Generator functions get a
span per resumption, so a lazily parsed file is timed where the parsing
happens.  :func:`write_jsonl` writes the spans in the ``repro.obs`` trace
schema, which ``repro trace summary`` and ``repro trace export`` read.

Self time is a span's duration minus the part of it its child spans cover;
durations are integer nanoseconds, so a span's self time is exactly ``>= 0``
whenever its children nest inside it.  The recorder assumes one thread,
which holds for every workload of this benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Layer -> the public functions whose calls make up that layer's spans, as
# "module:qualname".  Names missing from the program under test are skipped,
# so the table outlives functions a later change deletes.
LAYERS: dict[str, tuple[str, ...]] = {
    "runner": ("repro.scenarios.runner:ScenarioRunner.run",),
    "serve": ("repro.ingest.service:IngestService.run",),
    "estimate": (
        "repro.estimation.pipeline:TMEstimator.estimate",
        "repro.estimation.pipeline:TMEstimator.estimate_stream",
    ),
    "refine": (
        "repro.estimation.tomogravity:tomogravity_estimate",
        "repro.estimation.entropy:entropy_estimate",
        "repro.estimation.fastpath:FactorizationCache.refine",
    ),
    "ipf": (
        "repro.estimation.ipf:iterative_proportional_fitting",
        "repro.estimation.ipf:iterative_proportional_fitting_series",
    ),
    "error_metrics": (
        "repro.core.metrics:rel_l2_temporal_error",
        "repro.core.metrics:rel_l2_spatial_error",
        "repro.core.metrics:mean_relative_error",
        "repro.core.metrics:percent_improvement",
        "repro.core.metrics:summarize_improvement",
    ),
    "prior": (
        "repro.core.priors:build_gravity_prior",
        "repro.core.priors:build_measured_prior",
        "repro.core.priors:build_stable_fp_prior",
        "repro.core.priors:build_stable_f_prior",
        "repro.core.priors:GravityPrior.series",
        "repro.core.priors:MeasuredParameterPrior.series",
        "repro.core.priors:StableFPPrior.series",
        "repro.core.priors:StableFPrior.series",
        "repro.core.gravity:gravity_series",
    ),
    "prior_fit": (
        "repro.core.fitting:fit_stable_fp",
        "repro.core.fitting:fit_stable_f",
        "repro.core.streaming:fit_stable_fp_streaming",
    ),
    "synthesis": (
        "repro.synthesis.datasets:make_geant_like_dataset",
        "repro.synthesis.datasets:make_totem_like_dataset",
        "repro.synthesis.generator:ICTMGenerator.generate",
        "repro.synthesis.generator:ICTMGenerator.plan",
    ),
    "measure": (
        "repro.estimation.linear_system:simulate_link_loads",
        "repro.estimation.linear_system:simulate_link_loads_streaming",
    ),
    "routing": ("repro.topology.routing:build_routing_matrix",),
    "ingest.parse": ("repro.ingest.records:read_flow_file",),
    "ingest.bin": (
        "repro.ingest.binner:FlowBinner.push",
        "repro.ingest.binner:FlowBinner.flush",
    ),
    "rolling.observe": ("repro.ingest.rolling:RollingFitManager.observe",),
    "rolling.prior": ("repro.ingest.rolling:RollingFitManager.prior_values",),
    "characterization": (
        "repro.characterization.stability:parameter_stability",
        "repro.characterization.stability:preference_stability",
        "repro.characterization.stability:correlation",
        "repro.characterization.activity_analysis:dominant_period",
        "repro.characterization.activity_analysis:weekend_ratio",
        "repro.characterization.activity_analysis:analyze_activity",
        "repro.characterization.distributions:empirical_ccdf",
        "repro.characterization.distributions:fit_exponential",
        "repro.characterization.distributions:fit_lognormal",
        "repro.characterization.distributions:compare_tail_fits",
    ),
}

# Modules imported before patching, so every ``from x import f`` binding
# that the workloads can reach already exists when the scan runs.
_PRELOAD = (
    "repro.cli",
    "repro.experiments",
    "repro.ingest",
    "repro.scenarios",
    "repro.characterization",
    "repro.core.streaming",
)

# Prefix of spans the benchmark itself opens (iterations, operations); they
# are not layers and do not count toward layer coverage.
BENCH_PREFIX = "bench."


def _leading_len(value) -> int | None:
    shape = getattr(value, "shape", None)
    if shape:
        return int(shape[0])
    return None


def _work_bins(layer: str, args: tuple) -> int | None:
    """Bins a call processes, read from its leading array argument."""
    if layer in ("refine", "ipf") and args:
        first = args[1] if layer == "refine" and not hasattr(args[0], "shape") else args[0]
        shape = getattr(first, "shape", ())
        if layer == "ipf" and len(shape) == 2:
            return 1  # a single (n, n) matrix
        return _leading_len(first)
    if layer == "estimate" and len(args) >= 2:
        return int(getattr(args[1], "n_timesteps", 0)) or None
    return None


@dataclass
class Span:
    name: str
    fn: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    bins: int | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """In-memory span store with a single-thread parent stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.active = False
        self.estimators: dict[int, object] = {}
        self._wall0 = time.time()
        self._perf0 = time.perf_counter_ns()

    def open(self, name: str, fn: str = "", bins: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, fn, time.perf_counter_ns(), parent=parent, bins=bins))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        else:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    @contextmanager
    def span(self, name: str, fn: str = ""):
        index = self.open(name, fn)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def unix(self, ns: int) -> float:
        return self._wall0 + (ns - self._perf0) / 1e9


def _call_wrapper(recorder: SpanRecorder, layer: str, label: str, original):
    if inspect.isgeneratorfunction(original):

        @functools.wraps(original)
        def generator_wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            if not recorder.active:
                return (yield from inner)
            while True:
                index = recorder.open(layer, label)
                try:
                    item = next(inner)
                except StopIteration as stop:
                    return stop.value
                finally:
                    recorder.close(index)
                yield item

        return generator_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return original(*args, **kwargs)
        if layer == "estimate" and args:
            recorder.estimators[id(args[0])] = args[0]
        index = recorder.open(layer, label, _work_bins(layer, args))
        try:
            return original(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def _resolve(target: str):
    """``(owner, attribute, original)`` for a "module:qualname", or None."""
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        original = owner.__dict__.get(attribute)
    else:
        original = getattr(owner, attribute, None)
    if not callable(original):
        return None
    return owner, attribute, original


@contextmanager
def instrument(recorder: SpanRecorder):
    """Swap every :data:`LAYERS` function for its span wrapper; restore on exit."""
    from repro.registry import REGISTRIES, ensure_populated

    for module_name in _PRELOAD:
        importlib.import_module(module_name)
    ensure_populated()
    undo: list = []
    try:
        for layer, targets in LAYERS.items():
            for target in targets:
                resolved = _resolve(target)
                if resolved is None:
                    continue
                owner, attribute, original = resolved
                wrapper = _call_wrapper(recorder, layer, target.split(":")[1], original)
                if inspect.isclass(owner):
                    setattr(owner, attribute, wrapper)
                    undo.append((setattr, owner, attribute, original))
                    continue
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if not name.startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            undo.append((setattr, module, key, original))
                for registry in REGISTRIES.values():
                    for entry in registry.entries():
                        if entry.obj is original:
                            registry.register(
                                entry.name, wrapper, description=entry.description,
                                metadata=entry.metadata, overwrite=True,
                            )
                            undo.append((_reregister, registry, entry, original))
        recorder.active = True
        yield recorder
    finally:
        recorder.active = False
        for action, owner, key, original in reversed(undo):
            action(owner, key, original)


def _reregister(registry, entry, original) -> None:
    registry.register(
        entry.name, original, description=entry.description,
        metadata=entry.metadata, overwrite=True,
    )


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.duration_ns
    return [span.duration_ns - covered for span, covered in zip(spans, child_ns)]


def check_nesting(spans: list[Span]) -> list[str]:
    """Problems with the span tree: children outside parents, open spans."""
    problems = []
    for index, span in enumerate(spans):
        if span.end_ns < span.start_ns:
            problems.append(f"span {index} ({span.name}) ends before it starts")
        if span.parent is None:
            continue
        parent = spans[span.parent]
        if span.parent >= index:
            problems.append(f"span {index} ({span.name}) precedes its parent")
        if span.start_ns < parent.start_ns or span.end_ns > parent.end_ns:
            problems.append(f"span {index} ({span.name}) escapes parent {parent.name}")
    return problems


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: busy seconds, self seconds, top-level calls and bins.

    ``busy_s`` sums the outermost spans of the layer (a layer re-entered
    from inside itself counts once); ``self_s`` sums every span's self time.
    """
    selfs = self_times_ns(spans)
    totals: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(
            span.name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "bins": 0}
        )
        entry["self_s"] += selfs[index] / 1e9
        if _has_ancestor(spans, index, span.name):
            continue
        entry["busy_s"] += span.duration_ns / 1e9
        entry["calls"] += 1
        entry["bins"] += span.bins or 0
    return totals


def layer_coverage(spans: list[Span]) -> float:
    """Share of the workload's operation time covered by at least one layer span.

    Operations (``bench.op`` spans) exclude the benchmark's own work between
    them: garbage collection, memo clearing and output checks.
    """
    roots = [s for s in spans if s.name == BENCH_PREFIX + "op"]
    total = sum(s.duration_ns for s in roots)
    if not total:
        return 0.0
    intervals = sorted(
        (s.start_ns, s.end_ns) for s in spans if not s.name.startswith(BENCH_PREFIX)
    )
    covered, cursor = 0, None
    for start, end in intervals:
        if cursor is None or start > cursor[1]:
            if cursor is not None:
                covered += cursor[1] - cursor[0]
            cursor = [start, end]
        else:
            cursor[1] = max(cursor[1], end)
    if cursor is not None:
        covered += cursor[1] - cursor[0]
    return covered / total


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one wrapped call over a plain one, in seconds."""

    def noop():
        return None

    recorder = SpanRecorder()
    wrapped = _call_wrapper(recorder, "calibration", "noop", noop)
    recorder.active = True
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(samples):
            noop()
        plain = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(samples):
            wrapped()
        traced = time.perf_counter() - started
        best = min(best, (traced - plain) / samples)
        recorder.spans.clear()
    return max(best, 0.0)


def write_jsonl(recorder: SpanRecorder, path, *, trace_id: str) -> None:
    """Write the spans as ``repro.obs`` JSONL trace events."""
    worker = "perfbench"
    ids = [f"{trace_id}-{index + 1}" for index in range(len(recorder.spans))]
    start = min((s.start_ns for s in recorder.spans), default=recorder._perf0)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "kind": "trace_start", "trace": trace_id, "worker": worker,
            "pid": os.getpid(), "start_unix": recorder.unix(start),
        }) + "\n")
        for index, span in enumerate(recorder.spans):
            attrs = {"fn": span.fn}
            if span.bins is not None:
                attrs["bins"] = span.bins
            handle.write(json.dumps({
                "kind": "span",
                "trace": trace_id,
                "span": ids[index],
                "parent": None if span.parent is None else ids[span.parent],
                "name": span.name,
                "worker": worker,
                "pid": os.getpid(),
                "start_unix": recorder.unix(span.start_ns),
                "duration_s": span.duration_ns / 1e9,
                "attrs": attrs,
            }) + "\n")
