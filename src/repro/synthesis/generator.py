"""Synthetic traffic-matrix generators.

:class:`ICTMGenerator` follows the recipe of Section 5.5: pick ``f`` (0.2-0.3),
draw long-tailed preferences, generate diurnal activity series and compose
them with the stable-fP equation.  Two realism knobs push the generated data
away from the *exact* stable-fP model, which matters when the generated data
is used as a stand-in for real measurements (otherwise the fitting step would
trivially achieve zero error):

* ``f_jitter_sigma`` perturbs the per-pair forward fraction around the network
  value (the general-IC deviation discussed in Section 5.6), and
* ``noise_sigma`` applies multiplicative lognormal measurement noise, standing
  in for netflow sampling and binning artefacts.

:class:`GravityTMGenerator` produces gravity-consistent synthetic matrices
(the approach of Roughan [17]); no figure uses it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro._validation import normalized, require_probability
from repro.core.ic_model import general_ic_series
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ValidationError
from repro.synthesis.activity import ActivityModel, DiurnalProfile
from repro.synthesis.preference import lognormal_preferences

__all__ = ["SyntheticTMConfig", "ICTMGenerator", "GenerationPlan", "GravityTMGenerator"]


@dataclass(frozen=True)
class SyntheticTMConfig:
    """Configuration of an IC-based synthetic traffic-matrix generator.

    Attributes
    ----------
    forward_fraction:
        Network-wide ``f``; the paper recommends 0.2-0.3.
    preference_mu, preference_sigma:
        Lognormal parameters of the preference draw (paper: -4.3, 1.7).
    mean_activity:
        Mean per-node activity level in bytes per bin.
    activity_heterogeneity:
        Lognormal sigma of per-node base activity spread.
    activity_noise_sigma:
        Per-bin multiplicative noise on activity.
    f_jitter_sigma:
        Standard deviation of the per-pair perturbation of ``f`` (0 gives the
        exact simplified model; > 0 gives general-IC structure).
    f_responder_sigma:
        Standard deviation of a per-*responder-node* offset added to ``f_ij``:
        the forward fraction of a connection depends on what is being served
        at the responder (a PoP hosting mostly web servers sees a lower ``f``
        toward it than one hosting p2p users).  Unlike pair-level jitter this
        does not average out in the node marginals, so it is what separates
        the stable-fP prior from the cruder stable-f closed form.
    spatial_bias_sigma:
        Sigma of a *static* per-pair lognormal bias factor applied to every
        bin.  This stands in for all the pair-specific structure real traffic
        has that neither the gravity model nor the simplified IC model can
        represent (peering relationships, content placement, routing policy);
        it is what keeps model fits away from zero error on real data.
    noise_sigma:
        Multiplicative lognormal measurement noise applied to the final
        matrices (0 disables) — netflow sampling and binning artefacts.
    diurnal:
        Shared diurnal profile for the activity model.
    """

    forward_fraction: float = 0.25
    preference_mu: float = -4.3
    preference_sigma: float = 1.7
    mean_activity: float = 1e7
    activity_heterogeneity: float = 1.2
    activity_noise_sigma: float = 0.15
    f_jitter_sigma: float = 0.03
    f_responder_sigma: float = 0.05
    spatial_bias_sigma: float = 0.25
    noise_sigma: float = 0.1
    diurnal: DiurnalProfile = field(default_factory=DiurnalProfile)

    def __post_init__(self):
        require_probability(self.forward_fraction, "forward_fraction")
        if min(self.f_jitter_sigma, self.noise_sigma, self.spatial_bias_sigma, self.f_responder_sigma) < 0:
            raise ValidationError("jitter, bias and noise sigmas must be non-negative")
        if self.mean_activity <= 0:
            raise ValidationError("mean_activity must be positive")


@dataclass(frozen=True)
class GroundTruth:
    """Ground-truth parameters behind a generated series (for validation)."""

    forward_fraction: float
    forward_fraction_matrix: np.ndarray
    preference: np.ndarray
    activity: np.ndarray
    spatial_bias: np.ndarray | None = None


@dataclass
class GenerationPlan:
    """Everything needed to (re)generate any chunk of a planned series.

    A plan materialises only the *small* state of a generation run — the
    spatial parameters (``O(n^2)``) and the activity series (``O(T n)``) —
    plus the measurement-noise RNG state captured right after the spatial
    draws.  The ``(T, n, n)`` traffic itself is produced chunk by chunk from
    that state, so the same plan backs both the in-memory cube (all chunks
    concatenated) and bounded-memory streaming, with bit-identical numbers.

    ``noise_states`` caches the RNG state at bin offsets already visited, so
    re-streaming from a week boundary does not replay the whole noise stream.
    ``events`` are measurement anomalies ``(bin, origin, destination,
    factor)``: each multiplies one entry of one bin after the noise, in
    order, whichever chunk the bin falls into.
    """

    n_bins: int
    bin_seconds: float
    preference: np.ndarray
    activity: np.ndarray
    forward_fraction_matrix: np.ndarray
    spatial_bias: np.ndarray
    noise_sigma: float
    noise_states: dict[int, dict] = field(default_factory=dict)
    events: tuple[tuple[int, int, int, float], ...] = ()

    @property
    def n_nodes(self) -> int:
        return self.preference.shape[0]

    def truth(self, forward_fraction: float) -> GroundTruth:
        """The ground truth behind the planned series."""
        return GroundTruth(
            forward_fraction=forward_fraction,
            forward_fraction_matrix=self.forward_fraction_matrix,
            preference=self.preference,
            activity=self.activity,
            spatial_bias=self.spatial_bias,
        )

    def _noise_rng_at(self, start_bin: int) -> np.random.Generator | None:
        """A generator positioned at ``start_bin`` of the noise stream.

        Noise values are drawn sequentially (``n^2`` per bin), so the state at
        an arbitrary offset is reached by replaying from the nearest cached
        state at or before it, discarding the skipped draws chunk-wise.
        """
        if self.noise_sigma <= 0:
            return None
        anchor = max((b for b in self.noise_states if b <= start_bin), default=None)
        if anchor is None:  # pragma: no cover - state 0 is always cached
            raise ValidationError("generation plan is missing its initial noise state")
        rng = np.random.default_rng(0)
        rng.bit_generator.state = copy.deepcopy(self.noise_states[anchor])
        self._replay_span(rng, anchor, start_bin)
        if start_bin not in self.noise_states:
            # Streams are multi-pass (fits, measurement, estimation) and
            # always resume at the same week boundaries; caching the exact
            # start state makes every pass after the first replay-free.
            self.noise_states[start_bin] = copy.deepcopy(rng.bit_generator.state)
        return rng

    def _replay_span(self, rng: np.random.Generator, start: int, stop: int) -> None:
        """Draw and discard the noise of bins ``[start, stop)``, caching states.

        This is the only place skipped noise draws are paid for, which is
        what the plan-cache regression tests instrument to prove that a
        checkpointed plan starts any chunk in ``O(chunk)`` draws.
        """
        n = self.n_nodes
        position = start
        while position < stop:
            # Stepping by the cache stride keeps the discard batches small
            # *and* lands on every stride anchor, so one replay (or one
            # checkpoint pass) caches all the states later reads resume from.
            step = min(stop - position, _STATE_CACHE_STRIDE - position % _STATE_CACHE_STRIDE)
            rng.lognormal(0.0, self.noise_sigma, size=(step, n, n))
            position += step
            self._maybe_cache_state(position, rng)

    def _maybe_cache_state(self, position: int, rng: np.random.Generator) -> None:
        """Cache the noise-stream state at coarse anchors (bounds dict growth)."""
        if position % _STATE_CACHE_STRIDE == 0 and position not in self.noise_states:
            self.noise_states[position] = copy.deepcopy(rng.bit_generator.state)

    def checkpoint_noise_states(self) -> "GenerationPlan":
        """Populate every noise-state checkpoint of the plan.

        Caches the RNG state at every :data:`_STATE_CACHE_STRIDE` boundary up
        to the end of the plan.  Each missing boundary is replayed from the
        nearest cached state below it, so the gaps a chunked read leaves
        (it caches only the chunk ends that land on a boundary) are filled
        too, and the whole walk draws each bin's noise at most once.
        Afterwards *any* chunk read — a worker's first, a resume from a week
        boundary — replays at most one stride of draws instead of the whole
        prefix.  The sweep scheduler calls this once per dataset column in
        the parent and ships the (small) state dict to the workers.

        Returns ``self`` so it chains; a no-op for noise-free plans and for
        plans already checkpointed.
        """
        if self.noise_sigma <= 0:
            return self
        for position in range(_STATE_CACHE_STRIDE, self.n_bins + 1, _STATE_CACHE_STRIDE):
            if position not in self.noise_states:
                self._noise_rng_at(position)
        return self


# Noise-stream RNG states are cached at multiples of this many bins; replaying
# to an arbitrary offset therefore discards at most a stride of draws.
_STATE_CACHE_STRIDE = 256


# Chunk length used when materialising a full cube: large enough to amortise
# kernel dispatch, small enough to keep the scale/noise temporaries in cache.
_GENERATE_CHUNK_BINS = 512


class ICTMGenerator:
    """Generate traffic-matrix series from the IC model (Section 5.5 recipe)."""

    def __init__(
        self,
        nodes,
        config: SyntheticTMConfig | None = None,
        *,
        seed: int = 0,
    ):
        self._nodes = tuple(str(node) for node in nodes)
        if len(self._nodes) < 2:
            raise ValidationError("need at least two nodes to generate traffic")
        self._config = config or SyntheticTMConfig()
        self._seed = int(seed)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def config(self) -> SyntheticTMConfig:
        return self._config

    def plan(
        self,
        n_bins: int,
        *,
        bin_seconds: float = 300.0,
        start_seconds: float = 0.0,
    ) -> GenerationPlan:
        """Draw the spatial parameters and activity; defer the per-bin traffic.

        The draws happen in exactly the order of the historical one-shot
        ``generate`` (preference, activity base levels, activity noise,
        responder offsets, pair jitter, spatial bias), and the RNG state is
        captured afterwards so the remaining measurement-noise stream can be
        consumed chunk by chunk — concatenated chunks are bit-identical to
        the single full-cube draw.
        """
        config = self._config
        n = len(self._nodes)
        rng = np.random.default_rng(self._seed)
        preference = lognormal_preferences(
            n, mu=config.preference_mu, sigma=config.preference_sigma, seed=rng
        )
        preference = normalized(preference, "preference")
        activity_model = ActivityModel(
            n,
            mean_level=config.mean_activity,
            heterogeneity_sigma=config.activity_heterogeneity,
            noise_sigma=config.activity_noise_sigma,
            profile=config.diurnal,
            seed=rng,
        )
        activity = activity_model.generate(
            n_bins, bin_seconds=bin_seconds, start_seconds=start_seconds
        )
        responder_offset = (
            rng.normal(0.0, config.f_responder_sigma, size=n)
            if config.f_responder_sigma > 0
            else np.zeros(n)
        )
        f_matrix = np.clip(
            config.forward_fraction
            + responder_offset[np.newaxis, :]
            + rng.normal(0.0, config.f_jitter_sigma, size=(n, n)),
            0.01,
            0.99,
        )
        spatial_bias = (
            rng.lognormal(0.0, config.spatial_bias_sigma, size=(n, n))
            if config.spatial_bias_sigma > 0
            else np.ones((n, n))
        )
        return GenerationPlan(
            n_bins=int(n_bins),
            bin_seconds=float(bin_seconds),
            preference=preference,
            activity=activity,
            forward_fraction_matrix=f_matrix,
            spatial_bias=spatial_bias,
            noise_sigma=float(config.noise_sigma),
            noise_states={0: copy.deepcopy(rng.bit_generator.state)},
        )

    def iter_chunks(
        self,
        plan: GenerationPlan,
        *,
        chunk_bins: int,
        start_bin: int = 0,
        stop_bin: int | None = None,
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(t0, (T_chunk, n, n))`` traffic blocks of a planned series.

        ``t0`` is relative to ``start_bin``, so a week sliced out of a longer
        plan streams with chunk offsets starting at zero.  Chunks carry the
        exact values the full cube would: the IC kernel is evaluated on the
        chunk's activity rows and the noise stream is resumed from the cached
        RNG state at ``start_bin``.  A read that ends before the plan does
        caches the state it stopped at, so a read resuming there (the next
        week of a walk) replays no draws.
        """
        stop = plan.n_bins if stop_bin is None else min(int(stop_bin), plan.n_bins)
        start = int(start_bin)
        if not 0 <= start < stop:
            raise ValidationError(
                f"chunk range [{start}, {stop}) is empty or outside the planned {plan.n_bins} bins"
            )
        if chunk_bins < 1:
            raise ValidationError("chunk_bins must be >= 1")
        rng = plan._noise_rng_at(start)
        for t0 in range(start, stop, chunk_bins):
            t1 = min(t0 + chunk_bins, stop)
            block = general_ic_series(
                plan.forward_fraction_matrix, plan.activity[t0:t1], plan.preference
            )
            block *= plan.spatial_bias
            if rng is not None:
                block *= rng.lognormal(0.0, plan.noise_sigma, size=block.shape)
                plan._maybe_cache_state(t1, rng)
            for bin_index, i, j, factor in plan.events:
                if t0 <= bin_index < t1:
                    block[bin_index - t0, i, j] *= factor
            yield t0 - start, block
        if rng is not None and stop < plan.n_bins and stop not in plan.noise_states:
            plan.noise_states[stop] = copy.deepcopy(rng.bit_generator.state)

    def generate(
        self,
        n_bins: int,
        *,
        bin_seconds: float = 300.0,
        start_seconds: float = 0.0,
        plan: GenerationPlan | None = None,
        start_bin: int = 0,
    ) -> tuple[TrafficMatrixSeries, GroundTruth]:
        """Generate ``n_bins`` of traffic together with the ground truth behind it.

        This is the materialised path: one plan, all chunks concatenated.  It
        is bit-identical to the historical per-bin loop (the chunked IC
        kernel and the chunk-split noise draws both reproduce the one-shot
        values exactly).

        Given a ``plan`` (one this generator drew), no new plan is drawn:
        the series is bins ``[start_bin, start_bin + n_bins)`` of ``plan``,
        at its bin width, and ``bin_seconds`` and ``start_seconds`` are
        unused.  That is how a dataset generates one week of its multi-week
        plan; weeks generated in order resume the noise stream where the
        previous one stopped.
        """
        if plan is None:
            plan = self.plan(n_bins, bin_seconds=bin_seconds, start_seconds=start_seconds)
        stop_bin = int(start_bin) + int(n_bins)
        if stop_bin > plan.n_bins:
            raise ValidationError(
                f"bins [{start_bin}, {stop_bin}) run past the planned {plan.n_bins} bins"
            )
        n = len(self._nodes)
        matrices = np.empty((n_bins, n, n))
        for t0, block in self.iter_chunks(
            plan, chunk_bins=_GENERATE_CHUNK_BINS, start_bin=start_bin, stop_bin=stop_bin
        ):
            matrices[t0 : t0 + block.shape[0]] = block
        series = TrafficMatrixSeries(matrices, self._nodes, bin_seconds=plan.bin_seconds)
        truth = plan.truth(self._config.forward_fraction)
        return series, replace(truth, activity=plan.activity[start_bin:stop_bin])


class GravityTMGenerator:
    """Generate gravity-consistent traffic matrices (Roughan-style baseline).

    Node loads are drawn from an exponential distribution (as suggested in
    the work the paper contrasts with) and modulated by the same diurnal
    waveform so the comparison with the IC generator isolates the *spatial*
    structure.
    """

    def __init__(
        self,
        nodes,
        *,
        mean_load: float = 1e7,
        diurnal: DiurnalProfile | None = None,
        noise_sigma: float = 0.1,
        seed: int = 0,
    ):
        self._nodes = tuple(str(node) for node in nodes)
        if len(self._nodes) < 2:
            raise ValidationError("need at least two nodes to generate traffic")
        if mean_load <= 0:
            raise ValidationError("mean_load must be positive")
        if noise_sigma < 0:
            raise ValidationError("noise_sigma must be non-negative")
        self._mean_load = float(mean_load)
        self._diurnal = diurnal or DiurnalProfile()
        self._noise_sigma = float(noise_sigma)
        self._seed = int(seed)

    def generate(
        self, n_bins: int, *, bin_seconds: float = 300.0, start_seconds: float = 0.0
    ) -> TrafficMatrixSeries:
        """Generate ``n_bins`` of gravity-structured traffic."""
        n = len(self._nodes)
        rng = np.random.default_rng(self._seed)
        ingress_base = rng.exponential(self._mean_load, n)
        egress_base = rng.exponential(self._mean_load, n)
        times = start_seconds + np.arange(n_bins) * bin_seconds
        waveform = self._diurnal.waveform(times)
        matrices = np.empty((n_bins, n, n))
        for t in range(n_bins):
            ingress = ingress_base * waveform[t]
            egress = egress_base * waveform[t]
            total = ingress.sum()
            matrices[t] = np.outer(ingress, egress) / max(total, 1e-12)
        if self._noise_sigma > 0:
            matrices = matrices * rng.lognormal(0.0, self._noise_sigma, size=matrices.shape)
        return TrafficMatrixSeries(matrices, self._nodes, bin_seconds=bin_seconds)
