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

Two access paths share one specification table (and therefore one RNG draw
order, so their numbers are bit-identical):

* :func:`load_dataset` materialises a :class:`SyntheticDataset` holding the
  whole multi-week cube (the historical path), while
* :func:`open_dataset_stream` returns a :class:`StreamingDataset` whose weeks
  are :class:`repro.streaming.ChunkStream` objects generated chunk by chunk
  from deterministic RNG state — month-scale series in O(chunk) memory.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import RegistryError, ValidationError
from repro.registry import DATASETS, canonical_name, register_dataset
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
    "SyntheticDataset",
    "StreamingDataset",
    "StreamingDatasetState",
    "make_geant_like_dataset",
    "make_totem_like_dataset",
    "load_dataset",
    "open_dataset_stream",
    "register_dataset_stream",
    "streaming_dataset_from_state",
    "streamable_dataset_names",
]

GEANT_BINS_PER_WEEK = 2016  # 5-minute bins
TOTEM_BINS_PER_WEEK = 672   # 15-minute bins


@dataclass
class SyntheticDataset:
    """A multi-week synthetic dataset with its topology and ground truth.

    Attributes
    ----------
    name:
        ``"geant-like"`` or ``"totem-like"``.
    topology:
        The PoP-level topology the traffic notionally flows over.
    weeks:
        One :class:`TrafficMatrixSeries` per week.
    ground_truths:
        The per-week generating parameters (same ``f`` and preference across
        weeks; per-week activity).
    bin_seconds:
        Bin width shared by all weeks.
    """

    name: str
    topology: Topology
    weeks: list[TrafficMatrixSeries]
    ground_truths: list[GroundTruth]
    bin_seconds: float

    @property
    def n_weeks(self) -> int:
        return len(self.weeks)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.topology.nodes

    def week(self, index: int) -> TrafficMatrixSeries:
        """The ``index``-th week of traffic."""
        return self.weeks[index]

    def week_stream(
        self,
        index: int,
        *,
        chunk_bins: int | None = None,
        max_bins: int | None = None,
    ) -> ChunkStream:
        """Week ``index`` as a chunk stream of views (no copy), optionally trimmed.

        The same access path :meth:`StreamingDataset.week_stream` offers, so
        the scenario runner drives materialised and streamed datasets
        through one body.
        """
        week = self.weeks[index]
        n_bins = _trimmed_bins(week.n_timesteps, max_bins)
        return ArrayChunkStream(
            week.values[:n_bins], week.nodes, bin_seconds=week.bin_seconds, chunk_bins=chunk_bins
        )

    def full_series(self) -> TrafficMatrixSeries:
        """All weeks concatenated into one series."""
        series = self.weeks[0]
        for week in self.weeks[1:]:
            series = series.concatenate(week)
        return series


def _trimmed_bins(n_bins: int, max_bins: int | None) -> int:
    """A week's bin count after the ``max_bins`` cap of ``week_stream``."""
    if max_bins is None:
        return n_bins
    if max_bins < 1:
        raise ValidationError("max_bins must be >= 1")
    return min(n_bins, int(max_bins))


# ---------------------------------------------------------------------------
# anomaly planning (shared by the cube and streaming paths)
# ---------------------------------------------------------------------------

def _plan_anomalies(
    seed: int, n_weeks: int, bins_per_week: int, n_nodes: int, rate: float
) -> list[list[tuple[int, int, int, float]]]:
    """Pre-draw the anomaly events of every week, in the historical RNG order.

    The public Totem dataset documents measurement anomalies; a small rate of
    per-bin disturbances keeps the synthetic stand-in honest about them.  The
    draws (bin, origin, destination, factor) happen week by week from one
    generator seeded ``seed + 7919``, exactly as the former per-week
    ``_inject_anomalies`` loop drew them, so applying the returned events in
    order reproduces its values bit for bit.
    """
    if rate <= 0:
        return [[] for _ in range(n_weeks)]
    rng = np.random.default_rng(seed + 7919)
    n_anomalies = int(rate * bins_per_week)
    events: list[list[tuple[int, int, int, float]]] = []
    for _ in range(n_weeks):
        week_events = []
        for _ in range(n_anomalies):
            bin_index = int(rng.integers(0, bins_per_week))
            i, j = int(rng.integers(0, n_nodes)), int(rng.integers(0, n_nodes))
            factor = float(rng.choice((0.0, 3.0, 5.0)))
            week_events.append((bin_index, i, j, factor))
        events.append(week_events)
    return events


def _apply_anomalies(
    block: np.ndarray, events: list[tuple[int, int, int, float]], start: int
) -> np.ndarray:
    """Apply the planned events that fall into ``block`` (bins ``start + k``)."""
    stop = start + block.shape[0]
    for bin_index, i, j, factor in events:
        if start <= bin_index < stop:
            block[bin_index - start, i, j] *= factor
    return block


# ---------------------------------------------------------------------------
# shared generation core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _DatasetSpec:
    """Everything both access paths need to generate one named dataset."""

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


def _validate_scale(n_weeks: int, bins_per_week: int) -> None:
    if n_weeks < 1:
        raise ValidationError("n_weeks must be >= 1")
    if bins_per_week < 2:
        raise ValidationError("bins_per_week must be >= 2")


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


def _make_dataset(
    name: str,
    topology: Topology,
    *,
    n_weeks: int,
    bins_per_week: int,
    bin_seconds: float,
    config: SyntheticTMConfig,
    seed: int,
    anomaly_rate: float = 0.0,
) -> SyntheticDataset:
    _validate_scale(n_weeks, bins_per_week)
    # One generation run covers all weeks, so the spatial parameters (f and
    # preference) are exactly shared across weeks — the stability property the
    # paper verifies — while activity noise is fresh in every bin and the
    # diurnal/weekly waveform lines up with real week boundaries.
    generator = ICTMGenerator(topology.nodes, config, seed=seed)
    full_series, full_truth = generator.generate(
        n_weeks * bins_per_week, bin_seconds=bin_seconds, start_seconds=0.0
    )
    anomalies = _plan_anomalies(seed, n_weeks, bins_per_week, len(topology.nodes), anomaly_rate)
    weeks: list[TrafficMatrixSeries] = []
    truths: list[GroundTruth] = []
    for week_index in range(n_weeks):
        start = week_index * bins_per_week
        stop = start + bins_per_week
        values = np.array(full_series.values[start:stop], copy=True)
        values = _apply_anomalies(values, anomalies[week_index], 0)
        weeks.append(TrafficMatrixSeries(values, topology.nodes, bin_seconds=bin_seconds))
        truths.append(
            GroundTruth(
                forward_fraction=full_truth.forward_fraction,
                forward_fraction_matrix=full_truth.forward_fraction_matrix,
                preference=full_truth.preference,
                activity=full_truth.activity[start:stop],
            )
        )
    return SyntheticDataset(
        name=name,
        topology=topology,
        weeks=weeks,
        ground_truths=truths,
        bin_seconds=bin_seconds,
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
    seed: int = 11,
    config: SyntheticTMConfig | None = None,
) -> SyntheticDataset:
    """Synthetic stand-in for the D1 (Geant) dataset: 22 PoPs, 5-minute bins.

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
        Dataset seed.
    config:
        Optional override of the generation parameters.
    """
    spec = _DATASET_SPECS["geant"]
    if bins_per_week is None:
        bins_per_week = spec.full_scale_bins if full_scale else spec.reduced_bins
    return _make_dataset(
        spec.name,
        spec.topology_factory(),
        n_weeks=n_weeks,
        bins_per_week=bins_per_week,
        bin_seconds=spec.bin_seconds,
        config=config or spec.config_factory(),
        seed=seed,
        anomaly_rate=spec.anomaly_rate,
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
    seed: int = 23,
    config: SyntheticTMConfig | None = None,
) -> SyntheticDataset:
    """Synthetic stand-in for the D2 (Totem) dataset: 23 PoPs, 15-minute bins.

    Defaults to a reduced 96 bins per week (one day at 15-minute bins);
    ``full_scale=True`` selects the paper's 672.  A small rate of measurement
    anomalies is injected, mirroring the documented artefacts in the public
    Totem data.
    """
    spec = _DATASET_SPECS["totem"]
    if bins_per_week is None:
        bins_per_week = spec.full_scale_bins if full_scale else spec.reduced_bins
    return _make_dataset(
        spec.name,
        spec.topology_factory(),
        n_weeks=n_weeks,
        bins_per_week=bins_per_week,
        bin_seconds=spec.bin_seconds,
        config=config or spec.config_factory(),
        seed=seed,
        anomaly_rate=spec.anomaly_rate,
    )


@lru_cache(maxsize=16)
def load_dataset(
    name: str,
    *,
    n_weeks: int,
    bins_per_week: int | None = None,
    full_scale: bool = False,
    seed: int | None = None,
) -> SyntheticDataset:
    """Build (and memoise) a registered dataset at the requested scale.

    This is the shared cache behind both the experiment drivers and the
    scenario runner, so a sweep over many priors reuses one synthesis run per
    dataset cell instead of regenerating the traffic for every scenario.

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
# the streaming access path
# ---------------------------------------------------------------------------

class StreamingDataset:
    """A multi-week dataset whose traffic is generated chunk by chunk.

    Shares the exact RNG draw order of the materialised
    :class:`SyntheticDataset` (same seed ⇒ bit-identical values), but holds
    only the ``O(n^2)`` spatial parameters and the ``O(T n)`` activity series
    in memory; every ``(T_chunk, n, n)`` traffic block is regenerated on
    demand from cached noise-stream state.  Week streams are re-iterable, so
    multi-pass consumers (ALS fitting, prior + estimation passes) work
    without ever materialising a week.
    """

    def __init__(
        self,
        *,
        name: str,
        topology: Topology,
        generator: ICTMGenerator,
        plan: GenerationPlan,
        anomalies: list[list[tuple[int, int, int, float]]],
        n_weeks: int,
        bins_per_week: int,
        chunk_bins: int | None = None,
    ):
        self.name = name
        self.topology = topology
        self._generator = generator
        self._plan = plan
        self._anomalies = anomalies
        self._n_weeks = int(n_weeks)
        self._bins_per_week = int(bins_per_week)
        self._chunk_bins = (
            default_chunk_bins(len(topology.nodes)) if chunk_bins is None else int(chunk_bins)
        )
        self.ground_truths = _week_truths(
            plan, generator.config.forward_fraction, bins_per_week
        )

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

    def _check_week(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self._n_weeks:
            raise ValidationError(
                f"week index {index} out of range for {self._n_weeks} generated weeks"
            )
        return index

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
        """
        index = self._check_week(index)
        start = index * self._bins_per_week
        n_bins = _trimmed_bins(self._bins_per_week, max_bins)
        stop = start + n_bins
        events = self._anomalies[index]
        generator, plan = self._generator, self._plan

        def factory(resolved_chunk: int) -> Iterator[tuple[int, np.ndarray]]:
            for t0, block in generator.iter_chunks(
                plan, chunk_bins=resolved_chunk, start_bin=start, stop_bin=stop
            ):
                yield t0, _apply_anomalies(block, events, t0)

        return FunctionChunkStream(
            factory,
            n_bins=n_bins,
            nodes=self.topology.nodes,
            bin_seconds=self._plan.bin_seconds,
            chunk_bins=self._chunk_bins if chunk_bins is None else chunk_bins,
        )

    def week(self, index: int) -> TrafficMatrixSeries:
        """Week ``index`` materialised (compatibility with the cube path)."""
        return self.week_stream(index).materialize()

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
        anomaly events and the scale knobs.  Rebuilding with
        :func:`streaming_dataset_from_state` costs no RNG draws at all.
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
            anomalies=self._anomalies,
            preference=plan.preference,
            activity=plan.activity,
            forward_fraction_matrix=plan.forward_fraction_matrix,
            spatial_bias=plan.spatial_bias,
        )

    def full_stream(self, *, chunk_bins: int | None = None) -> ChunkStream:
        """All weeks as one continuous chunk stream."""
        generator, plan = self._generator, self._plan
        bins_per_week = self._bins_per_week
        anomalies = self._anomalies

        def factory(resolved_chunk: int) -> Iterator[tuple[int, np.ndarray]]:
            for t0, block in generator.iter_chunks(plan, chunk_bins=resolved_chunk):
                # A chunk may straddle week boundaries; apply each week's
                # events against its own week-relative bin offsets.
                first_week = t0 // bins_per_week
                last_week = (t0 + block.shape[0] - 1) // bins_per_week
                for week_index in range(first_week, last_week + 1):
                    week_start = week_index * bins_per_week
                    _apply_anomalies(
                        block[max(week_start - t0, 0) :],
                        anomalies[week_index],
                        max(t0 - week_start, 0),
                    )
                yield t0, block

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
    ``O(T n)`` activity series; :data:`ARRAY_FIELDS` names them so transports
    (the sweep scheduler's shared-memory shipping) can move them out-of-band
    and reattach zero-copy views before calling
    :func:`streaming_dataset_from_state`.
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
    anomalies: list[list[tuple[int, int, int, float]]]
    preference: np.ndarray | None = None
    activity: np.ndarray | None = None
    forward_fraction_matrix: np.ndarray | None = None
    spatial_bias: np.ndarray | None = None

    ARRAY_FIELDS = ("preference", "activity", "forward_fraction_matrix", "spatial_bias")

    def strip_arrays(self) -> "StreamingDatasetState":
        """A copy with the array fields dropped (they travel out-of-band)."""
        import dataclasses as _dc

        return _dc.replace(
            self, preference=None, activity=None, forward_fraction_matrix=None, spatial_bias=None
        )


def streaming_dataset_from_state(
    state: StreamingDatasetState,
    arrays: dict[str, np.ndarray] | None = None,
) -> StreamingDataset:
    """Rebuild a :class:`StreamingDataset` from shipped generation state.

    ``arrays`` optionally supplies the plan arrays (e.g. shared-memory
    views); fields already present on ``state`` win.  No RNG is consumed:
    chunk reads resume from the shipped noise-state checkpoints, so the
    rebuilt dataset is bit-identical to the one the state was exported from.
    """
    arrays = arrays or {}
    resolved = {
        field_name: (
            getattr(state, field_name)
            if getattr(state, field_name) is not None
            else arrays.get(field_name)
        )
        for field_name in StreamingDatasetState.ARRAY_FIELDS
    }
    missing = sorted(name for name, value in resolved.items() if value is None)
    if missing:
        raise ValidationError(f"streaming dataset state is missing plan arrays: {missing}")
    plan = GenerationPlan(
        n_bins=state.n_bins,
        bin_seconds=state.bin_seconds,
        preference=resolved["preference"],
        activity=resolved["activity"],
        forward_fraction_matrix=resolved["forward_fraction_matrix"],
        spatial_bias=resolved["spatial_bias"],
        noise_sigma=state.noise_sigma,
        noise_states=state.noise_states,
    )
    generator = ICTMGenerator(state.topology.nodes, state.config, seed=state.seed)
    return StreamingDataset(
        name=state.name,
        topology=state.topology,
        generator=generator,
        plan=plan,
        anomalies=state.anomalies,
        n_weeks=state.n_weeks,
        bins_per_week=state.bins_per_week,
        chunk_bins=state.chunk_bins,
    )


# Chunk-stream openers for externally registered datasets, keyed by the
# canonical dataset name.  Built-in datasets stream through _DATASET_SPECS
# (shared RNG draw order with the cube path); third-party datasets opt in
# here with a factory of their own.
_STREAM_OPENERS: dict[str, Callable] = {}


def register_dataset_stream(name: str, opener: Callable | None = None, *, overwrite: bool = False):
    """Let an externally registered dataset opt into :func:`open_dataset_stream`.

    ``opener`` is called as ``opener(n_weeks=..., bins_per_week=...,
    full_scale=..., seed=..., chunk_bins=...)`` and must return an object
    with the :class:`StreamingDataset` surface — at minimum ``topology``,
    ``nodes``, ``n_weeks``, ``bin_seconds`` and ``week_stream(index,
    max_bins=...)`` returning a :class:`repro.streaming.ChunkStream` (the
    protocol is fully generic; :class:`repro.streaming.FunctionChunkStream`
    over your own chunk generator is usually all you need).  ``bins_per_week``
    and ``seed`` arrive as ``None`` when the caller kept the defaults.

    Usable as a decorator::

        @register_dataset_stream("my_dataset")
        def open_my_dataset_stream(*, n_weeks, bins_per_week, full_scale, seed, chunk_bins):
            ...

    The dataset itself must already be registered with
    :func:`repro.registry.register_dataset`; registering a stream opener for
    a built-in (spec-backed) dataset is rejected because those stream through
    the shared generation specs that keep them bit-identical to the cube path.
    """

    def decorate(target: Callable) -> Callable:
        key = canonical_name(name)
        if key in _DATASET_SPECS:
            raise RegistryError(
                f"dataset {name!r} is a built-in with a spec-backed stream; "
                "its opener cannot be replaced"
            )
        if key in _STREAM_OPENERS and not overwrite:
            raise RegistryError(
                f"dataset {name!r} already has a stream opener; "
                "pass overwrite=True to replace it"
            )
        _STREAM_OPENERS[key] = target
        return target

    if opener is None:
        return decorate
    return decorate(opener)


def streamable_dataset_names() -> tuple[str, ...]:
    """Every dataset name :func:`open_dataset_stream` accepts, sorted."""
    return tuple(sorted(set(_DATASET_SPECS) | set(_STREAM_OPENERS)))


@lru_cache(maxsize=8)
def _open_stream_core(
    name: str,
    n_weeks: int,
    bins_per_week: int,
    seed: int,
    config: SyntheticTMConfig | None,
):
    """Build (and memoise) the shared generation state behind a stream."""
    spec = _DATASET_SPECS[name]
    topology = spec.topology_factory()
    generator = ICTMGenerator(topology.nodes, config or spec.config_factory(), seed=seed)
    plan = generator.plan(
        n_weeks * bins_per_week, bin_seconds=spec.bin_seconds, start_seconds=0.0
    )
    anomalies = _plan_anomalies(
        seed, n_weeks, bins_per_week, len(topology.nodes), spec.anomaly_rate
    )
    return topology, generator, plan, anomalies


def open_dataset_stream(
    name: str,
    *,
    n_weeks: int,
    bins_per_week: int | None = None,
    full_scale: bool = False,
    seed: int | None = None,
    chunk_bins: int | None = None,
    config: SyntheticTMConfig | None = None,
) -> StreamingDataset:
    """Open a registered dataset as a bounded-memory :class:`StreamingDataset`.

    Accepts the same scale knobs as :func:`load_dataset`.  The built-in
    ``geant``/``totem`` datasets stream through the shared generation specs
    (same seed ⇒ bit-identical to the cube path); externally registered
    datasets stream through the chunk factory they registered with
    :func:`register_dataset_stream`.  A dataset with neither raises a
    :class:`ValidationError` naming every registered dataset that *does*
    stream.
    """
    entry = DATASETS.entry(name)  # canonicalises and reports valid choices
    if entry.name not in _DATASET_SPECS:
        opener = _STREAM_OPENERS.get(entry.name)
        if opener is None:
            raise ValidationError(
                f"dataset {name!r} has no streaming factory; registered datasets "
                f"that stream: {list(streamable_dataset_names())} (run without "
                "--stream, or register a chunk factory with "
                "repro.synthesis.register_dataset_stream)"
            )
        if config is not None:
            raise ValidationError(
                "config overrides only apply to the built-in spec-backed datasets"
            )
        data = opener(
            n_weeks=int(n_weeks),
            bins_per_week=bins_per_week,
            full_scale=full_scale,
            seed=seed,
            chunk_bins=chunk_bins,
        )
        if not hasattr(data, "week_stream"):
            raise ValidationError(
                f"stream opener for dataset {name!r} returned "
                f"{type(data).__name__}, which lacks the required week_stream method"
            )
        return data
    spec = _DATASET_SPECS[entry.name]
    _validate_scale(n_weeks, 2 if bins_per_week is None else bins_per_week)
    if bins_per_week is None:
        bins_per_week = spec.full_scale_bins if full_scale else spec.reduced_bins
    resolved_seed = spec.default_seed if seed is None else int(seed)
    topology, generator, plan, anomalies = _open_stream_core(
        entry.name, int(n_weeks), int(bins_per_week), resolved_seed, config
    )
    return StreamingDataset(
        name=spec.name,
        topology=topology,
        generator=generator,
        plan=plan,
        anomalies=anomalies,
        n_weeks=n_weeks,
        bins_per_week=bins_per_week,
        chunk_bins=chunk_bins,
    )
