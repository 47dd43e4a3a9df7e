"""Priors for traffic-matrix estimation (paper Section 6).

TM estimation (Section 6) follows a three-step blueprint: build a prior
traffic matrix, refine it against the link counts (tomogravity-style least
squares), then apply iterative proportional fitting.  This module implements
the *prior* builders; the refinement steps live in :mod:`repro.estimation`.

Four priors are provided, ordered by how much side information they assume:

* :class:`MeasuredParameterPrior` (Section 6.1) — ``f``, ``{P_i}`` and
  ``{A_i(t)}`` are all measured (in practice: fitted to the same week).
* :class:`StableFPPrior` (Section 6.2) — ``f`` and ``{P_i}`` come from a
  previous calibration week; ``{A_i(t)}`` is recovered from the current
  ingress/egress counts with the pseudo-inverse construction of Eqs. 7-9
  (matrices Φ, H, G, Q).
* :class:`StableFPrior` (Section 6.3) — only ``f`` is known; ``{A_i}`` and
  ``{P_i}`` are recovered per bin from the marginals via the closed forms of
  Eqs. 11-12.
* :class:`GravityPrior` — the gravity baseline used for comparison.

Each prior has one registered builder in :data:`repro.registry.PRIORS`: a
callable taking a :class:`PriorContext` and returning the prior as a
:class:`repro.streaming.ChunkStream` whose chunks mirror the target week's.
The same builder serves materialised runs (chunks are views over the
in-memory week) and streamed runs (chunks are regenerated on demand).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro._validation import (
    as_1d_array,
    normalized,
    require_nonnegative,
    require_probability,
)
from repro.core.gravity import gravity_series_values
from repro.core.ic_model import simplified_ic_series, time_varying_ic_series
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ShapeError, ValidationError
from repro.registry import register_prior

__all__ = [
    "GravityPrior",
    "MeasuredParameterPrior",
    "StableFPPrior",
    "StableFPrior",
    "PriorContext",
    "ic_design_matrix",
    "marginal_operators",
    "estimate_activity_from_marginals",
    "stable_f_closed_form",
]


# ---------------------------------------------------------------------------
# linear-algebra building blocks (Eqs. 7-9)
# ---------------------------------------------------------------------------

def ic_design_matrix(forward_fraction: float, preference) -> np.ndarray:
    """The ``(n^2, n)`` matrix Φ mapping an activity vector to a vectorised TM.

    With the stable-fP model, ``vec(X) = Φ A`` where
    ``Φ[(i, j), k] = f P_j δ_ik + (1 - f) P_i δ_jk`` (row-major OD ordering).
    """
    f = require_probability(forward_fraction, "forward_fraction")
    p = require_nonnegative(as_1d_array(preference, "preference"), "preference")
    p = normalized(p, "preference")
    n = p.shape[0]
    phi = np.zeros((n * n, n))
    rows_i, rows_j = np.divmod(np.arange(n * n), n)
    phi[np.arange(n * n), rows_i] += f * p[rows_j]
    phi[np.arange(n * n), rows_j] += (1.0 - f) * p[rows_i]
    return phi


def marginal_operators(n_nodes: int):
    """The 0-1 matrices ``H``, ``G`` and the stacked ``Q`` of Section 6.2.

    ``H`` (``n x n^2``) sums a vectorised TM into ingress counts, ``G`` into
    egress counts, and ``Q = [H; G]`` maps it onto the observable marginals.
    All three are ``scipy.sparse`` CSR matrices (each operator has exactly
    one non-zero per column).
    """
    if n_nodes < 1:
        raise ValidationError("n_nodes must be >= 1")
    n = int(n_nodes)
    pairs = np.arange(n * n)
    origins, destinations = np.divmod(pairs, n)
    ones = np.ones(n * n)
    h = sparse.csr_matrix((ones, (origins, pairs)), shape=(n, n * n))
    g = sparse.csr_matrix((ones, (destinations, pairs)), shape=(n, n * n))
    return h, g, sparse.vstack([h, g], format="csr")


def estimate_activity_from_marginals(
    forward_fraction: float, preference, ingress, egress
) -> np.ndarray:
    """Recover per-bin activity from ingress/egress counts (Eq. 8).

    Solves ``Ã = pinv(QΦ) [ingress; egress]`` in the least-squares sense and
    clips the result to be non-negative.  Accepts either single-bin vectors of
    length ``n`` or ``(T, n)`` series; the return shape mirrors the input.
    """
    return StableFPPrior(forward_fraction, preference).estimate_activity(ingress, egress)


def stable_f_closed_form(forward_fraction: float, ingress, egress) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form activity and preference from marginals (Eqs. 11-12).

    ``A_i = (f X_i* - (1-f) X_*i) / (2f - 1)`` and
    ``P_i ∝ (f X_*i - (1-f) X_i*) / (2f - 1)``.

    The construction is singular at ``f = 0.5`` (both directions of a
    connection carry the same volume, so the marginals carry no information
    about who initiated); a :class:`ValidationError` is raised near that point.
    Negative intermediate values — which arise from measurement noise — are
    clipped to zero, and the preference vector is normalised to sum to one.
    """
    f = require_probability(forward_fraction, "forward_fraction")
    if abs(2.0 * f - 1.0) < 1e-3:
        raise ValidationError(
            "stable-f closed form is singular at f = 0.5; measure f away from 0.5"
        )
    ingress = np.asarray(ingress, dtype=float)
    egress = np.asarray(egress, dtype=float)
    if ingress.shape != egress.shape:
        raise ShapeError(
            f"ingress and egress must have the same shape, got {ingress.shape} vs {egress.shape}"
        )
    denominator = 2.0 * f - 1.0
    activity = (f * ingress - (1.0 - f) * egress) / denominator
    preference_raw = (f * egress - (1.0 - f) * ingress) / denominator
    activity = np.clip(activity, 0.0, None)
    preference_raw = np.clip(preference_raw, 0.0, None)
    sums = preference_raw.sum(axis=-1, keepdims=True)
    safe = np.where(sums > 0, sums, 1.0)
    preference = np.where(sums > 0, preference_raw / safe, 1.0 / ingress.shape[-1])
    return activity, preference


# ---------------------------------------------------------------------------
# prior classes
# ---------------------------------------------------------------------------

class GravityPrior:
    """Gravity-model prior built from per-bin ingress/egress counts."""

    name = "gravity"

    def series(self, ingress, egress, *, nodes=None, bin_seconds: float = 300.0) -> TrafficMatrixSeries:
        """Prior series from ``(T, n)`` ingress and egress counts."""
        ingress = np.atleast_2d(np.asarray(ingress, dtype=float))
        egress = np.atleast_2d(np.asarray(egress, dtype=float))
        if ingress.shape != egress.shape:
            raise ShapeError("ingress and egress series must have the same shape")
        matrices = gravity_series_values(ingress, egress)
        return TrafficMatrixSeries(matrices, nodes, bin_seconds=bin_seconds)


class MeasuredParameterPrior:
    """Section 6.1 prior: all IC parameters are measured/known.

    Typically the parameters come from a :class:`repro.core.fitting.FitResult`
    on the same week of data ("thought experiment" bounding the achievable
    gain), or from direct per-access-point measurement infrastructure.
    """

    name = "ic-measured"

    def __init__(self, forward_fraction: float, preference, activity):
        self._forward = require_probability(forward_fraction, "forward_fraction")
        p = require_nonnegative(as_1d_array(preference, "preference"), "preference")
        self._preference = normalized(p, "preference")
        activity = np.asarray(activity, dtype=float)
        if activity.ndim == 1:
            activity = activity[np.newaxis, :]
        if activity.ndim != 2 or activity.shape[1] != self._preference.shape[0]:
            raise ShapeError(
                f"activity must have shape (T, n={self._preference.shape[0]}), got {activity.shape}"
            )
        self._activity = np.clip(activity, 0.0, None)

    @classmethod
    def from_fit(cls, fit) -> "MeasuredParameterPrior":
        """Build the prior directly from a stable-fP :class:`FitResult`."""
        if fit.model != "stable-fP":
            raise ValidationError("MeasuredParameterPrior.from_fit expects a stable-fP fit")
        return cls(float(fit.forward_fraction), fit.preference, fit.activity)

    def series(self, *, nodes=None, bin_seconds: float = 300.0) -> TrafficMatrixSeries:
        """The prior traffic-matrix series implied by the measured parameters."""
        matrices = simplified_ic_series(self._forward, self._activity, self._preference)
        return TrafficMatrixSeries(matrices, nodes, bin_seconds=bin_seconds)


class StableFPPrior:
    """Section 6.2 prior: ``f`` and ``P`` from a calibration week, ``A(t)`` inferred.

    The activity series of the target week is recovered from its ingress and
    egress counts using the pseudo-inverse construction of Eqs. 7-9; the
    operator ``pinv(QΦ)ᵀ`` is built once, at construction, and every chunk
    of marginals is one product with it.
    """

    name = "ic-stable-fP"

    def __init__(self, forward_fraction: float, preference):
        self._forward = require_probability(forward_fraction, "forward_fraction")
        p = require_nonnegative(as_1d_array(preference, "preference"), "preference")
        self._preference = normalized(p, "preference")
        phi = ic_design_matrix(self._forward, self._preference)
        _, _, q = marginal_operators(self._preference.shape[0])
        self._pinv_t = np.linalg.pinv(q @ phi).T

    @classmethod
    def from_fit(cls, fit) -> "StableFPPrior":
        """Calibrate the prior from a stable-fP fit of a previous week."""
        if fit.model != "stable-fP":
            raise ValidationError("StableFPPrior.from_fit expects a stable-fP fit")
        return cls(float(fit.forward_fraction), fit.preference)

    @property
    def forward_fraction(self) -> float:
        return self._forward

    @property
    def preference(self) -> np.ndarray:
        return self._preference.copy()

    def estimate_activity(self, ingress, egress) -> np.ndarray:
        """Recover the activity series from the target week's marginals (Eq. 8)."""
        ingress = np.asarray(ingress, dtype=float)
        egress = np.asarray(egress, dtype=float)
        if ingress.shape != egress.shape:
            raise ShapeError(
                f"ingress and egress must have the same shape, got {ingress.shape} vs {egress.shape}"
            )
        if ingress.shape[-1] != self._preference.shape[0]:
            raise ShapeError(
                f"marginals have {ingress.shape[-1]} nodes but the preference has "
                f"{self._preference.shape[0]}"
            )
        marginals = np.concatenate([np.atleast_2d(ingress), np.atleast_2d(egress)], axis=1)
        activity = np.clip(marginals @ self._pinv_t, 0.0, None)
        return activity[0] if ingress.ndim == 1 else activity

    def values(self, ingress, egress) -> np.ndarray:
        """``(T, n, n)`` prior values for one chunk of ``(T, n)`` marginals (Eq. 9)."""
        activity = np.atleast_2d(self.estimate_activity(ingress, egress))
        return simplified_ic_series(self._forward, activity, self._preference)

    def series(self, ingress, egress, *, nodes=None, bin_seconds: float = 300.0) -> TrafficMatrixSeries:
        """Prior series for a target week given its ``(T, n)`` marginal counts (Eq. 9)."""
        return TrafficMatrixSeries(self.values(ingress, egress), nodes, bin_seconds=bin_seconds)


class StableFPrior:
    """Section 6.3 prior: only ``f`` is known; ``A`` and ``P`` from marginals per bin."""

    name = "ic-stable-f"

    def __init__(self, forward_fraction: float):
        self._forward = require_probability(forward_fraction, "forward_fraction")
        if abs(2.0 * self._forward - 1.0) < 1e-3:
            raise ValidationError("stable-f prior is undefined at f = 0.5")

    @property
    def forward_fraction(self) -> float:
        return self._forward

    def values(self, ingress, egress) -> np.ndarray:
        """``(T, n, n)`` prior values for one chunk of ``(T, n)`` marginals.

        Every bin has a usable preference: :func:`stable_f_closed_form`
        falls back to a uniform one where the clipped estimate is empty, so
        an all-zero bin yields an all-zero matrix.
        """
        activity, preference = stable_f_closed_form(
            self._forward,
            np.atleast_2d(np.asarray(ingress, dtype=float)),
            np.atleast_2d(np.asarray(egress, dtype=float)),
        )
        return time_varying_ic_series(self._forward, activity, preference)

    def series(self, ingress, egress, *, nodes=None, bin_seconds: float = 300.0) -> TrafficMatrixSeries:
        """Prior series built from the marginal counts (vectorised over bins)."""
        return TrafficMatrixSeries(self.values(ingress, egress), nodes, bin_seconds=bin_seconds)


# ---------------------------------------------------------------------------
# registered prior builders (the Scenario API surface)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriorContext:
    """Everything a registered prior builder may draw on.

    Materialised and streamed scenarios hand builders the same context; only
    where the chunks of ``target`` (and of the dataset's weeks) come from
    differs — views over an in-memory week, or blocks regenerated on demand.

    Attributes
    ----------
    dataset:
        The dataset the scenario runs on, normally a
        :class:`repro.synthesis.datasets.StreamingDataset`: materialised for
        in-memory runs (week streams are views over the cached weeks), lazy
        for streamed runs (week streams regenerate).  Builders use only
        ``week_stream(index)`` and ``ground_truths``.
    target:
        Re-iterable ground-truth :class:`repro.streaming.ChunkStream` of the
        week being estimated, already trimmed to the scenario's bin budget.
        Only the ``measured`` prior reads it (its Section 6.1 thought
        experiment fits the target week itself).
    system:
        The simulated measurements
        (:class:`repro.estimation.linear_system.LinkLoadSystem`): link loads
        plus ingress/egress marginals — the only observables an operator
        would have.
    calibration_week, target_week:
        Week indices into ``dataset``.
    measured_forward_fraction:
        Optional externally measured ``f`` (e.g. from a Figure 4 trace
        study); builders that only need ``f`` prefer it over the dataset's
        generating value.
    fit_cache_bytes:
        Replay-cache budget (``cache_bytes``) handed to the multi-pass
        :func:`repro.core.fitting.fit_stable_fp` of a stream: the ALS
        passes of the ``stable_fp``/``measured`` priors regenerate a
        generative stream's chunks once instead of once per pass, within
        this many bytes.  ``None`` keeps fits strictly chunk-bounded.
    fit_memo:
        Optional ``memo(suffix, build)`` callable the sweep scheduler
        installs (closing over its
        :class:`~repro.scenarios.runner.SweepSharedState` and the pinned
        dataset identity): :meth:`fit_streamed` routes stable-fP fits
        through it so cells sharing a fitted window reuse one fit.  ``None``
        (single runs) fits unconditionally.
    """

    dataset: object
    target: object
    system: object
    calibration_week: int
    target_week: int
    measured_forward_fraction: float | None = None
    fit_cache_bytes: int | None = None
    fit_memo: object = None

    def fit_streamed(self, source, *, week: int):
        """Chunk-wise stable-fP fit of ``source``, memoised across sweep cells.

        The fit is deterministic in (the chunks of) ``source`` and the fit
        knobs, so two cells fitting the same week of the same dataset at
        the same bin count receive the identical
        :class:`~repro.core.fitting.FitResult` — reuse is bit-identical to
        re-fitting.  The ``(week, n_bins, cache_budget)`` suffix completes
        the scheduler's dataset/scale key: it separates a full
        calibration week from the same week trimmed by ``max_bins``, and
        different replay-cache budgets (which cannot change the result, but
        keeping them distinct makes the key a pure function of the call).
        """
        from repro.core.fitting import fit_stable_fp

        def build():
            return fit_stable_fp(source, cache_bytes=self.fit_cache_bytes)

        if self.fit_memo is None:
            return build()
        return self.fit_memo((int(week), int(source.n_bins), self.fit_cache_bytes), build)

    def bin_chunk_stream(self, range_values):
        """A prior stream whose chunks mirror the target stream's.

        ``range_values(start, stop)`` returns the ``(stop - start, n, n)``
        prior values of bins ``[start, stop)``; chunk boundaries follow the
        target stream's so the estimation pass can zip the two.
        """
        from repro.streaming import FunctionChunkStream

        target = self.target

        def factory(resolved_chunk: int):
            for start in range(0, target.n_bins, resolved_chunk):
                stop = min(start + resolved_chunk, target.n_bins)
                yield start, range_values(start, stop)

        return FunctionChunkStream(
            factory,
            n_bins=target.n_bins,
            nodes=target.nodes,
            bin_seconds=target.bin_seconds,
            chunk_bins=target.chunk_bins,
        )

    def marginal_chunk_stream(self, chunk_values):
        """A prior stream computed chunk-wise from the system marginals.

        ``chunk_values(ingress_chunk, egress_chunk)`` maps one chunk's noisy
        marginals to that chunk's ``(T_chunk, n, n)`` prior values.
        """
        ingress, egress = self.system.ingress, self.system.egress
        return self.bin_chunk_stream(
            lambda start, stop: chunk_values(ingress[start:stop], egress[start:stop])
        )


# Each builder is a callable ``context -> ChunkStream`` registered under the
# prior's public name.  The ``week_mode`` metadata tells the scenario runner
# how to resolve a missing ``target_week``: ``"same"`` estimates the
# calibration week itself, ``"next"`` the following week, and ``"gap"`` the
# dataset-specific calibration gap (which must be non-zero).

@register_prior(
    "gravity",
    description="Gravity baseline prior built from the per-bin ingress/egress marginals",
    metadata={"display": "gravity", "week_mode": "same", "side_information": "none"},
)
def build_gravity_prior(context: PriorContext):
    """Gravity prior from the measured marginals (the Section 6 baseline)."""
    return context.marginal_chunk_stream(gravity_series_values)


@register_prior(
    "measured",
    description="All IC parameters measured on the target week (Section 6.1 thought experiment)",
    metadata={"display": "measured", "week_mode": "same", "side_information": "f, P, A(t)"},
)
def build_measured_prior(context: PriorContext):
    """Fit stable-fP parameters to the target week itself and compose the prior."""
    fit = context.fit_streamed(context.target, week=context.target_week)
    forward = float(fit.forward_fraction)
    preference = normalized(np.clip(fit.preference, 0.0, None), "preference")
    activity = fit.activity
    return context.bin_chunk_stream(
        lambda start, stop: simplified_ic_series(forward, activity[start:stop], preference)
    )


@register_prior(
    "stable_fp",
    description="f and P fitted to a previous calibration week; A(t) recovered from marginals (Section 6.2)",
    metadata={"display": "stable-fP", "week_mode": "gap", "side_information": "f, P"},
)
def build_stable_fp_prior(context: PriorContext):
    """Calibrate ``f``/``P`` on an earlier week, infer activity via Eqs. 7-9.

    Inside a sweep the calibration fit goes through
    :meth:`PriorContext.fit_streamed`, so overlapping-window grids pay each
    calibration-week fit once per worker.
    """
    calibration = context.dataset.week_stream(context.calibration_week)
    fit = context.fit_streamed(calibration, week=context.calibration_week)
    return context.marginal_chunk_stream(StableFPPrior.from_fit(fit).values)


@register_prior(
    "stable_f",
    description="Only f is known; A and P recovered per bin from the marginals (Section 6.3)",
    metadata={"display": "stable-f", "week_mode": "next", "side_information": "f"},
)
def build_stable_f_prior(context: PriorContext):
    """Use a trace-measured ``f`` and the closed forms of Eqs. 11-12."""
    forward = context.measured_forward_fraction
    if forward is None:
        truth = context.dataset.ground_truths[context.calibration_week]
        forward = float(truth.forward_fraction)
    return context.marginal_chunk_stream(StableFPrior(float(forward)).values)
