"""Dataset factories standing in for the paper's D1 (Geant) and D2 (Totem) data.

The real datasets are multi-week series of PoP-level traffic matrices built
from sampled netflow.  These factories generate synthetic equivalents with
known ground truth:

* the **Geant-like** dataset: 22 PoPs, 5-minute bins, 2016 bins per week
  (exactly the D1 dimensions),
* the **Totem-like** dataset: 23 PoPs (German PoP split in two), 15-minute
  bins, 672 bins per week (the D2 dimensions), with occasional measurement
  anomalies injected because the public Totem data is documented to contain
  them.

Weeks share the same underlying ``f`` and preference vector (that is the
stability property the paper verifies) but evolve their activity levels and
contain fresh noise, so week-over-week experiments are meaningful.  The
experiments default to a reduced number of bins per week to stay fast; pass
``full_scale=True`` for the paper-sized series.

One class, :class:`StreamingDataset`, serves every access path.  Its weeks
come from one :class:`~repro.synthesis.generator.GenerationPlan` (one RNG
draw order), and it is either *lazy* — week streams are
:class:`repro.streaming.ChunkStream` objects regenerated chunk by chunk
from deterministic RNG state, month-scale series in O(chunk) memory — or
*materialised* — every week generated once, in order, and cached, so
week streams are views over the cached weeks.  Every dataset starts lazy:

* :func:`load_dataset` (and the registered ``make_*_like_dataset``
  factories behind it) return a lazy dataset from a fresh plan, which its
  first :meth:`StreamingDataset.week` call materialises;
* :func:`open_dataset_stream` returns a lazy one from a memoised plan.

:meth:`StreamingDataset.iter_weeks` generates the weeks in order, one
:meth:`ICTMGenerator.generate <repro.synthesis.generator.ICTMGenerator.generate>`
call each, and caches none of them, which is how the per-week fits of
Figs 5 and 6 hold one week at a time.  The same seed gives bit-identical
numbers every way.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ValidationError
from repro.registry import DATASETS, register_dataset
from repro.streaming import (
    ArrayChunkStream,
    ChunkStream,
    FunctionChunkStream,
    default_chunk_bins,
)
from repro.synthesis.generator import (
    GenerationPlan,
    GroundTruth,
    ICTMGenerator,
    SyntheticTMConfig,
)
from repro.topology.library import geant_topology, totem_topology
from repro.topology.topology import Topology

__all__ = [
    "StreamingDataset",
    "StreamingDatasetState",
    "make_geant_like_dataset",
    "make_totem_like_dataset",
    "load_dataset",
    "open_dataset_stream",
    "streaming_dataset_from_state",
    "streamable_dataset_names",
]

GEANT_BINS_PER_WEEK = 2016  # 5-minute bins
TOTEM_BINS_PER_WEEK = 672   # 15-minute bins


def _trimmed_bins(n_bins: int, max_bins: int | None) -> int:
    """A week's bin count after the ``max_bins`` cap of ``week_stream``."""
    if max_bins is None:
        return n_bins
    if max_bins < 1:
        raise ValidationError("max_bins must be >= 1")
    return min(n_bins, int(max_bins))


# ---------------------------------------------------------------------------
# anomaly planning
# ---------------------------------------------------------------------------

def _plan_anomalies(
    seed: int, n_weeks: int, bins_per_week: int, n_nodes: int, rate: float
) -> tuple[tuple[int, int, int, float], ...]:
    """Pre-draw the anomaly events of every week, in the historical RNG order.

    The public Totem dataset documents measurement anomalies; a small rate of
    per-bin disturbances keeps the synthetic stand-in honest about them.  The
    draws (bin, origin, destination, factor) happen week by week from one
    generator seeded ``seed + 7919``, exactly as the former per-week
    ``_inject_anomalies`` loop drew them, so applying the returned events in
    order reproduces its values bit for bit.  Bins are plan bins (the week's
    first bin plus the drawn offset), the form
    :attr:`~repro.synthesis.generator.GenerationPlan.events` applies.
    """
    if rate <= 0:
        return ()
    rng = np.random.default_rng(seed + 7919)
    n_anomalies = int(rate * bins_per_week)
    events: list[tuple[int, int, int, float]] = []
    for week in range(n_weeks):
        for _ in range(n_anomalies):
            bin_index = int(rng.integers(0, bins_per_week))
            i, j = int(rng.integers(0, n_nodes)), int(rng.integers(0, n_nodes))
            factor = float(rng.choice((0.0, 3.0, 5.0)))
            events.append((week * bins_per_week + bin_index, i, j, factor))
    return tuple(events)


# ---------------------------------------------------------------------------
# shared generation core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _DatasetSpec:
    """Everything needed to generate one named built-in dataset."""

    name: str
    topology_factory: Callable[[], Topology]
    bin_seconds: float
    full_scale_bins: int
    reduced_bins: int
    default_seed: int
    anomaly_rate: float
    config_factory: Callable[[], SyntheticTMConfig]


def _geant_config() -> SyntheticTMConfig:
    return SyntheticTMConfig(
        forward_fraction=0.22,
        mean_activity=2e7,
        spatial_bias_sigma=0.4,
        noise_sigma=0.28,
        f_jitter_sigma=0.06,
        f_responder_sigma=0.08,
    )


def _totem_config() -> SyntheticTMConfig:
    return SyntheticTMConfig(
        forward_fraction=0.20,
        mean_activity=5e7,
        spatial_bias_sigma=0.45,
        noise_sigma=0.30,
        f_jitter_sigma=0.08,
        f_responder_sigma=0.10,
    )


_DATASET_SPECS: dict[str, _DatasetSpec] = {
    "geant": _DatasetSpec(
        name="geant-like",
        topology_factory=geant_topology,
        bin_seconds=300.0,
        full_scale_bins=GEANT_BINS_PER_WEEK,
        reduced_bins=288,
        default_seed=11,
        anomaly_rate=0.0,
        config_factory=_geant_config,
    ),
    "totem": _DatasetSpec(
        name="totem-like",
        topology_factory=totem_topology,
        bin_seconds=900.0,
        full_scale_bins=TOTEM_BINS_PER_WEEK,
        reduced_bins=96,
        default_seed=23,
        anomaly_rate=0.02,
        config_factory=_totem_config,
    ),
}


def _resolve_scale(
    spec: _DatasetSpec, n_weeks: int, bins_per_week: int | None, full_scale: bool, seed: int | None
) -> tuple[int, int, int]:
    """``(n_weeks, bins_per_week, seed)`` with the spec's defaults filled in."""
    if bins_per_week is None:
        bins_per_week = spec.full_scale_bins if full_scale else spec.reduced_bins
    if n_weeks < 1:
        raise ValidationError("n_weeks must be >= 1")
    if bins_per_week < 2:
        raise ValidationError("bins_per_week must be >= 2")
    return int(n_weeks), int(bins_per_week), spec.default_seed if seed is None else int(seed)


def _week_truths(plan: GenerationPlan, forward_fraction: float, bins_per_week: int) -> list[GroundTruth]:
    """Per-week ground truths sharing the plan's spatial parameters."""
    truths = []
    for start in range(0, plan.n_bins, bins_per_week):
        truths.append(
            GroundTruth(
                forward_fraction=forward_fraction,
                forward_fraction_matrix=plan.forward_fraction_matrix,
                preference=plan.preference,
                activity=plan.activity[start : start + bins_per_week],
            )
        )
    return truths


def _plan_dataset(key: str, n_weeks: int, bins_per_week: int, seed: int):
    """Draw a built-in dataset's generation state; no traffic is generated yet.

    One plan covers all weeks, so the spatial parameters (f and preference)
    are exactly shared across weeks — the stability property the paper
    verifies — while activity noise is fresh in every bin and the
    diurnal/weekly waveform lines up with real week boundaries.
    """
    spec = _DATASET_SPECS[key]
    topology = spec.topology_factory()
    generator = ICTMGenerator(topology.nodes, spec.config_factory(), seed=seed)
    plan = generator.plan(
        n_weeks * bins_per_week, bin_seconds=spec.bin_seconds, start_seconds=0.0
    )
    plan.events = _plan_anomalies(
        seed, n_weeks, bins_per_week, len(topology.nodes), spec.anomaly_rate
    )
    return topology, generator, plan


# Memoised plans behind open_dataset_stream.  The factories (and so
# load_dataset) plan afresh instead: load_dataset's own cache is the one memo
# a caller clears to start from what a fresh process starts with.
_open_stream_core = lru_cache(maxsize=8)(_plan_dataset)


def _builtin_dataset(
    key: str,
    *,
    n_weeks: int,
    bins_per_week: int | None,
    full_scale: bool,
    seed: int | None,
    chunk_bins: int | None = None,
    memoised_plan: bool = False,
) -> "StreamingDataset":
    """A lazy :class:`StreamingDataset` of the built-in dataset ``key``."""
    spec = _DATASET_SPECS[key]
    n_weeks, bins_per_week, seed = _resolve_scale(spec, n_weeks, bins_per_week, full_scale, seed)
    planner = _open_stream_core if memoised_plan else _plan_dataset
    topology, generator, plan = planner(key, n_weeks, bins_per_week, seed)
    return StreamingDataset(
        name=spec.name,
        topology=topology,
        generator=generator,
        plan=plan,
        n_weeks=n_weeks,
        bins_per_week=bins_per_week,
        chunk_bins=chunk_bins,
    )


@register_dataset(
    "geant",
    description="Geant-like D1 stand-in: 22 PoPs, 5-minute bins, 2016 bins/week at full scale",
    metadata={"calibration_gap": 1, "n_nodes": 22, "bin_seconds": 300.0, "streaming": True},
)
def make_geant_like_dataset(
    n_weeks: int = 3,
    *,
    bins_per_week: int | None = None,
    full_scale: bool = False,
    seed: int | None = None,
) -> "StreamingDataset":
    """Synthetic stand-in for the D1 (Geant) dataset: 22 PoPs, 5-minute bins.

    Returns a lazy dataset: only the generation plan is drawn here.  The
    first :meth:`StreamingDataset.week` call generates and caches every
    week, once; :meth:`StreamingDataset.iter_weeks` walks them uncached.

    Parameters
    ----------
    n_weeks:
        Number of weeks to generate (the paper uses up to three from D1).
    bins_per_week:
        Number of bins per week.  Defaults to a reduced 288 (one day at
        5-minute bins) for fast experiments; ``full_scale=True`` selects the
        paper's 2016.
    full_scale:
        Generate the full 2016-bin weeks.
    seed:
        Dataset seed; ``None`` selects the published default (11).
    """
    return _builtin_dataset(
        "geant", n_weeks=n_weeks, bins_per_week=bins_per_week, full_scale=full_scale, seed=seed
    )


@register_dataset(
    "totem",
    description="Totem-like D2 stand-in: 23 PoPs, 15-minute bins, with injected anomalies",
    metadata={"calibration_gap": 2, "n_nodes": 23, "bin_seconds": 900.0, "streaming": True},
)
def make_totem_like_dataset(
    n_weeks: int = 7,
    *,
    bins_per_week: int | None = None,
    full_scale: bool = False,
    seed: int | None = None,
) -> "StreamingDataset":
    """Synthetic stand-in for the D2 (Totem) dataset: 23 PoPs, 15-minute bins.

    Returns a lazy dataset, like :func:`make_geant_like_dataset`; its first
    :meth:`StreamingDataset.week` call materialises it.  Defaults to a
    reduced 96 bins per week (one day at 15-minute bins);
    ``full_scale=True`` selects the paper's 672.
    ``seed=None`` selects the published default (23).  A small rate of
    measurement anomalies is injected, mirroring the documented artefacts in
    the public Totem data.
    """
    return _builtin_dataset(
        "totem", n_weeks=n_weeks, bins_per_week=bins_per_week, full_scale=full_scale, seed=seed
    )


@lru_cache(maxsize=16)
def load_dataset(
    name: str,
    *,
    n_weeks: int,
    bins_per_week: int | None = None,
    full_scale: bool = False,
    seed: int | None = None,
):
    """Build (and memoise) a registered dataset at the requested scale.

    This is the shared cache behind both the experiment drivers and the
    scenario runner, so a sweep over many priors reuses one synthesis run per
    dataset cell instead of regenerating the traffic for every scenario.
    The built-in datasets come back lazy: the memo holds their generation
    plan, and the weeks once the first :meth:`StreamingDataset.week` call
    (or an explicit :meth:`StreamingDataset.materialize`) has cached them.
    A caller that walks the weeks with :meth:`StreamingDataset.iter_weeks`
    leaves only the plan in the memo.

    Parameters
    ----------
    name:
        A name registered in :data:`repro.registry.DATASETS`.
    n_weeks, bins_per_week, full_scale, seed:
        Passed through to the dataset factory; ``seed=None`` keeps the
        factory default.
    """
    factory = DATASETS.get(name)
    kwargs: dict = {"bins_per_week": bins_per_week, "full_scale": full_scale}
    if seed is not None:
        kwargs["seed"] = seed
    return factory(n_weeks, **kwargs)


# ---------------------------------------------------------------------------
# the dataset class
# ---------------------------------------------------------------------------

class StreamingDataset:
    """A multi-week dataset generated from one plan, lazily or materialised.

    The dataset holds the ``O(n^2)`` spatial parameters and the ``O(T n)``
    activity series of its :class:`~repro.synthesis.generator.GenerationPlan`.
    While *lazy*, every ``(T_chunk, n, n)`` traffic block is regenerated on
    demand from cached noise-stream state; week streams are re-iterable, so
    multi-pass consumers (ALS fitting, prior + estimation passes) work
    without ever materialising a week, and :meth:`iter_weeks` yields each
    week as a cube, in order, without keeping any.  :meth:`materialize`
    (and the first :meth:`week` call) caches every week that walk yields;
    from then on :meth:`week_stream` serves views over the cached weeks and
    :meth:`iter_weeks` yields the cached weeks.  Both states hold
    bit-identical numbers.
    """

    def __init__(
        self,
        *,
        name: str,
        topology: Topology,
        generator: ICTMGenerator,
        plan: GenerationPlan,
        n_weeks: int,
        bins_per_week: int,
        chunk_bins: int | None = None,
    ):
        self.name = name
        self.topology = topology
        self._generator = generator
        self._plan = plan
        self._n_weeks = int(n_weeks)
        self._bins_per_week = int(bins_per_week)
        self._chunk_bins = (
            default_chunk_bins(len(topology.nodes)) if chunk_bins is None else int(chunk_bins)
        )
        self.ground_truths = _week_truths(
            plan, generator.config.forward_fraction, bins_per_week
        )
        self._weeks: list[TrafficMatrixSeries] | None = None

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.topology.nodes

    @property
    def n_weeks(self) -> int:
        return self._n_weeks

    @property
    def bins_per_week(self) -> int:
        return self._bins_per_week

    @property
    def bin_seconds(self) -> float:
        return self._plan.bin_seconds

    @property
    def n_bins(self) -> int:
        return self._plan.n_bins

    @property
    def chunk_bins(self) -> int:
        return self._chunk_bins

    @property
    def materialized(self) -> bool:
        """Whether every week is generated and cached."""
        return self._weeks is not None

    def _check_week(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self._n_weeks:
            raise ValidationError(
                f"week index {index} out of range for {self._n_weeks} generated weeks"
            )
        return index

    def iter_weeks(self) -> Iterator[TrafficMatrixSeries]:
        """Yield every week in order as a series, one at a time.

        A lazy dataset generates each week with one
        :meth:`ICTMGenerator.generate <repro.synthesis.generator.ICTMGenerator.generate>`
        call over its plan, each resuming the noise stream where the week
        before stopped, so no draw is made twice; it keeps none of them, and
        a caller that drops each week before asking for the next holds one
        week, not all.  A materialised dataset yields its cached weeks.
        """
        if self._weeks is not None:
            yield from self._weeks
            return
        per_week = self._bins_per_week
        for index in range(self._n_weeks):
            week, _ = self._generator.generate(
                per_week, plan=self._plan, start_bin=index * per_week
            )
            yield week

    def materialize(self) -> "StreamingDataset":
        """Cache every week :meth:`iter_weeks` yields (chainable; idempotent)."""
        if self._weeks is None:
            self._weeks = list(self.iter_weeks())
        return self

    def week(self, index: int) -> TrafficMatrixSeries:
        """Week ``index``, from the cache (materialises the dataset first)."""
        index = self._check_week(index)
        return self.materialize()._weeks[index]

    def week_stream(
        self,
        index: int,
        *,
        chunk_bins: int | None = None,
        max_bins: int | None = None,
    ) -> ChunkStream:
        """A re-iterable chunk stream over week ``index`` (optionally trimmed).

        ``max_bins`` trims the stream to its first bins, mirroring how the
        scenario runner caps the bins pushed through the estimation pipeline.
        A materialised dataset streams views over the cached week (nothing
        is copied); a lazy one regenerates the week chunk by chunk.
        """
        index = self._check_week(index)
        n_bins = _trimmed_bins(self._bins_per_week, max_bins)
        chunk_bins = self._chunk_bins if chunk_bins is None else chunk_bins
        if self._weeks is not None:
            week = self._weeks[index]
            return ArrayChunkStream(
                week.values[:n_bins], week.nodes, bin_seconds=week.bin_seconds,
                chunk_bins=chunk_bins,
            )
        start = index * self._bins_per_week
        stop = start + n_bins
        generator, plan = self._generator, self._plan

        def factory(resolved_chunk: int) -> Iterator[tuple[int, np.ndarray]]:
            return generator.iter_chunks(
                plan, chunk_bins=resolved_chunk, start_bin=start, stop_bin=stop
            )

        return FunctionChunkStream(
            factory,
            n_bins=n_bins,
            nodes=self.topology.nodes,
            bin_seconds=self._plan.bin_seconds,
            chunk_bins=chunk_bins,
        )

    @property
    def plan(self) -> GenerationPlan:
        """The generation plan backing every stream of this dataset."""
        return self._plan

    def checkpoint_noise(self) -> "StreamingDataset":
        """Eagerly populate the plan's noise-state checkpoints (chainable).

        After this, any chunk read — including a fresh worker's first read at
        an arbitrary week boundary — replays at most one state-cache stride
        of noise draws instead of the whole prefix.
        """
        self._plan.checkpoint_noise_states()
        return self

    def export_state(self) -> "StreamingDatasetState":
        """The complete, picklable generation state behind this dataset.

        The returned state is what the sweep scheduler ships to worker
        processes: the ``O(n^2)`` spatial parameters and ``O(T n)`` activity
        series (the only sizeable arrays), the noise-state checkpoints, the
        anomaly events and the scale knobs — never the cached weeks of a
        materialised dataset, which the receiver regenerates when it needs
        them.  Rebuilding with :func:`streaming_dataset_from_state` costs no
        RNG draws at all.
        """
        plan = self._plan
        return StreamingDatasetState(
            name=self.name,
            topology=self.topology,
            config=self._generator.config,
            seed=self._generator._seed,  # noqa: SLF001 - same-module round-trip
            n_weeks=self._n_weeks,
            bins_per_week=self._bins_per_week,
            chunk_bins=self._chunk_bins,
            n_bins=plan.n_bins,
            bin_seconds=plan.bin_seconds,
            noise_sigma=plan.noise_sigma,
            noise_states={k: copy.deepcopy(v) for k, v in plan.noise_states.items()},
            events=plan.events,
            preference=plan.preference,
            activity=plan.activity,
            forward_fraction_matrix=plan.forward_fraction_matrix,
            spatial_bias=plan.spatial_bias,
        )

    def full_stream(self, *, chunk_bins: int | None = None) -> ChunkStream:
        """All weeks as one continuous chunk stream, regenerated chunk by chunk."""
        generator, plan = self._generator, self._plan

        def factory(resolved_chunk: int) -> Iterator[tuple[int, np.ndarray]]:
            return generator.iter_chunks(plan, chunk_bins=resolved_chunk)

        return FunctionChunkStream(
            factory,
            n_bins=plan.n_bins,
            nodes=self.topology.nodes,
            bin_seconds=plan.bin_seconds,
            chunk_bins=self._chunk_bins if chunk_bins is None else chunk_bins,
        )


@dataclass
class StreamingDatasetState:
    """Everything needed to rebuild a :class:`StreamingDataset` elsewhere.

    The arrays are the plan's ``O(n^2)`` spatial parameters plus the
    ``O(T n)`` activity series; :func:`streaming_dataset_from_state` rejects
    a state that lacks any of them.
    """

    name: str
    topology: Topology
    config: SyntheticTMConfig
    seed: int
    n_weeks: int
    bins_per_week: int
    chunk_bins: int
    n_bins: int
    bin_seconds: float
    noise_sigma: float
    noise_states: dict[int, dict]
    events: tuple[tuple[int, int, int, float], ...]
    preference: np.ndarray | None = None
    activity: np.ndarray | None = None
    forward_fraction_matrix: np.ndarray | None = None
    spatial_bias: np.ndarray | None = None


def streaming_dataset_from_state(state: StreamingDatasetState) -> StreamingDataset:
    """Rebuild a lazy :class:`StreamingDataset` from shipped generation state.

    No RNG is consumed: chunk reads resume from the shipped noise-state
    checkpoints, so the rebuilt dataset is bit-identical to the one the
    state was exported from, whether that one was lazy or materialised.
    """
    arrays = ("preference", "activity", "forward_fraction_matrix", "spatial_bias")
    missing = sorted(name for name in arrays if getattr(state, name) is None)
    if missing:
        raise ValidationError(f"streaming dataset state is missing plan arrays: {missing}")
    plan = GenerationPlan(
        n_bins=state.n_bins,
        bin_seconds=state.bin_seconds,
        preference=state.preference,
        activity=state.activity,
        forward_fraction_matrix=state.forward_fraction_matrix,
        spatial_bias=state.spatial_bias,
        noise_sigma=state.noise_sigma,
        noise_states=state.noise_states,
        events=state.events,
    )
    generator = ICTMGenerator(state.topology.nodes, state.config, seed=state.seed)
    return StreamingDataset(
        name=state.name,
        topology=state.topology,
        generator=generator,
        plan=plan,
        n_weeks=state.n_weeks,
        bins_per_week=state.bins_per_week,
        chunk_bins=state.chunk_bins,
    )


def streamable_dataset_names() -> tuple[str, ...]:
    """Every dataset name :func:`open_dataset_stream` accepts, sorted."""
    return tuple(sorted(_DATASET_SPECS))


def open_dataset_stream(
    name: str,
    *,
    n_weeks: int,
    bins_per_week: int | None = None,
    full_scale: bool = False,
    seed: int | None = None,
    chunk_bins: int | None = None,
) -> StreamingDataset:
    """Open a registered dataset as a lazy, bounded-memory :class:`StreamingDataset`.

    Accepts the same scale knobs as :func:`load_dataset`.  The built-in
    ``geant``/``totem`` datasets stream through the shared generation specs
    (same seed ⇒ bit-identical to :func:`load_dataset`).  Any other
    registered dataset raises a :class:`ValidationError` naming every
    dataset that *does* stream.
    """
    entry = DATASETS.entry(name)  # canonicalises and reports valid choices
    if entry.name not in _DATASET_SPECS:
        raise ValidationError(
            f"dataset {name!r} has no streaming factory; registered datasets "
            f"that stream: {list(streamable_dataset_names())} (run without "
            "--stream)"
        )
    return _builtin_dataset(
        entry.name,
        n_weeks=n_weeks,
        bins_per_week=bins_per_week,
        full_scale=full_scale,
        seed=seed,
        chunk_bins=chunk_bins,
        memoised_plan=True,
    )
