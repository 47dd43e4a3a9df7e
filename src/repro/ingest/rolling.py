"""The rolling-fit plane: sliding bin window, periodic re-fit, atomic prior.

A live service cannot calibrate its stable-fP prior on a frozen calibration
week — the paper's parameters drift, and the rolling-prediction literature
(Stoev/Michailidis/Vaughan) re-estimates on a sliding window instead.  Two
classes implement that here:

* :class:`RollingWindow` keeps the most recent ``window_bins`` closed bins.
  In-memory bins past ``budget_bytes`` are spilled as ``.npz`` shards
  through the scenario layer's :class:`~repro.scenarios.spill.SpillStore`,
  and :meth:`RollingWindow.as_stream` re-exposes the whole window as a
  re-iterable :class:`~repro.streaming.ChunkStream` — exactly what the
  multi-pass streaming ALS fit consumes.
* :class:`RollingFitManager` owns the active prior.  Every ``refit_every``
  closed bins it re-runs
  :func:`~repro.core.fitting.fit_stable_fp` over the window's stream,
  warm-starting the ALS from the previous fit's ``(f, P)``, and swaps the
  resulting :class:`ActivePrior` in a single assignment — consumers always
  see either the old prior or the new one, never a half-updated state.

Prior modes mirror the batch registry: ``gravity`` (no parameters),
``stable_f`` (pinned ``f``, per-bin closed form) and ``stable_fp`` (fitted
``f`` and ``P``, activity recovered per bin from the marginals through the
``pinv(QΦ)`` operator a :class:`~repro.core.priors.StableFPPrior` builds
once per fit).  With ``refit_every=0`` the manager never fits —
the pinned-prior mode the service-equals-batch equivalence proof uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.gravity import gravity_series_values
from repro.core.priors import StableFPPrior, StableFPrior
from repro.errors import ValidationError
from repro.streaming import FunctionChunkStream

__all__ = ["RollingWindow", "RollingFitManager", "ActivePrior", "PRIOR_MODES"]

PRIOR_MODES = ("gravity", "stable_f", "stable_fp")

# Default in-memory budget for the rolling window before bins spill to disk.
DEFAULT_WINDOW_BUDGET_BYTES = 64 * 1024 * 1024


@dataclass
class _Segment:
    """A contiguous run of window bins, in memory or spilled."""

    start_bin: int
    n_bins: int
    data: object  # np.ndarray | SpilledSeries

    @property
    def in_memory(self) -> bool:
        return isinstance(self.data, np.ndarray)

    def load(self) -> np.ndarray:
        return np.asarray(self.data)


class RollingWindow:
    """A sliding window of recent bins with disk spill past a memory budget.

    Bins arrive through :meth:`append` as ``(T_chunk, n, n)`` blocks and age
    out automatically once the window exceeds ``window_bins``.  When the
    in-memory blocks exceed ``budget_bytes`` the oldest are written as
    ``.npz`` shards via :class:`~repro.scenarios.spill.SpillStore` (lazy
    handles, loaded only when a fit pass reads them) and the files are
    deleted as their bins age out of the window.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        *,
        bin_seconds: float,
        window_bins: int,
        budget_bytes: int = DEFAULT_WINDOW_BUDGET_BYTES,
        spill_dir=None,
    ):
        self._nodes = tuple(str(node) for node in nodes)
        if window_bins < 1:
            raise ValidationError("window_bins must be >= 1")
        if budget_bytes < 0:
            raise ValidationError("budget_bytes must be >= 0")
        self._bin_seconds = float(bin_seconds)
        self._window_bins = int(window_bins)
        self._budget = int(budget_bytes)
        self._spill_dir = spill_dir
        self._store = None
        self._segments: list[_Segment] = []
        self._memory_bytes = 0
        self.spilled_segments = 0

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def window_bins(self) -> int:
        return self._window_bins

    @property
    def n_bins(self) -> int:
        """Bins currently held (grows to ``window_bins`` then stays there)."""
        return sum(segment.n_bins for segment in self._segments)

    @property
    def start_bin(self) -> int:
        """Global index of the oldest bin in the window."""
        if not self._segments:
            raise ValidationError("the rolling window is empty")
        return self._segments[0].start_bin

    @property
    def memory_bytes(self) -> int:
        """Bytes currently held in memory (excludes spilled shards)."""
        return self._memory_bytes

    def _ensure_store(self):
        if self._store is None:
            from repro.scenarios.spill import SpillStore

            if self._spill_dir is None:
                import tempfile

                self._spill_dir = tempfile.mkdtemp(prefix="repro-ingest-window-")
            self._store = SpillStore(self._spill_dir)
        return self._store

    def append(self, start_bin: int, block: np.ndarray) -> None:
        """Add one closed ``(T_chunk, n, n)`` block; evict and spill as needed."""
        block = np.asarray(block, dtype=float)
        if block.ndim != 3 or block.shape[1:] != (len(self._nodes),) * 2:
            raise ValidationError(
                f"window blocks must have shape (T, {len(self._nodes)}, "
                f"{len(self._nodes)}), got {block.shape}"
            )
        if self._segments:
            expected = self._segments[-1].start_bin + self._segments[-1].n_bins
            if start_bin != expected:
                raise ValidationError(
                    f"window blocks must be contiguous: expected bin {expected}, "
                    f"got {start_bin}"
                )
        self._segments.append(_Segment(int(start_bin), block.shape[0], block))
        self._memory_bytes += block.nbytes
        self._evict()
        self._spill()

    def _evict(self) -> None:
        while self.n_bins - self._segments[0].n_bins >= self._window_bins:
            segment = self._segments.pop(0)
            if segment.in_memory:
                self._memory_bytes -= segment.data.nbytes
            else:
                for path in segment.data.paths:
                    try:
                        path.unlink()
                    except OSError:
                        pass

    def _spill(self) -> None:
        index = 0
        while self._memory_bytes > self._budget and index < len(self._segments) - 1:
            segment = self._segments[index]
            if segment.in_memory:
                store = self._ensure_store()
                handle = store.add_series(f"window-{segment.start_bin}", segment.data)
                self._memory_bytes -= segment.data.nbytes
                self._segments[index] = _Segment(segment.start_bin, segment.n_bins, handle)
                self.spilled_segments += 1
            index += 1

    def as_stream(self, *, chunk_bins: int | None = None) -> FunctionChunkStream:
        """The current window as a re-iterable chunk stream (t0 counted from 0).

        The stream snapshots the segment list, so a fit pass keeps reading a
        consistent window even if bins keep arriving meanwhile — the atomic
        swap the fit manager relies on.
        """
        segments = list(self._segments)
        if not segments:
            raise ValidationError("the rolling window is empty")
        n_bins = sum(segment.n_bins for segment in segments)
        base = segments[0].start_bin

        def factory(resolved_chunk: int) -> Iterator[tuple[int, np.ndarray]]:
            for segment in segments:
                yield segment.start_bin - base, segment.load()

        return FunctionChunkStream(
            factory,
            n_bins=n_bins,
            nodes=self._nodes,
            bin_seconds=self._bin_seconds,
            chunk_bins=chunk_bins or max(segment.n_bins for segment in segments),
        )


@dataclass(frozen=True)
class ActivePrior:
    """The immutable prior state consumers read — swapped in one assignment.

    Attributes
    ----------
    mode:
        The effective prior recipe: ``gravity``, ``stable_f`` or
        ``stable_fp``.  A ``stable_fp`` manager reports ``gravity`` here
        until its first window fit lands.
    forward_fraction, preference:
        IC parameters; ``preference`` is only set once a stable-fP fit
        produced it.
    stable_fp:
        The :class:`~repro.core.priors.StableFPPrior` built from that fit
        (its Eq. 8 operator is computed once, when the fit is installed).
    version:
        Increments on every swap (0 = the pre-fit fallback).
    fitted_at_bin:
        Global bin index the producing fit's window ended at.
    """

    mode: str
    forward_fraction: float | None = None
    preference: np.ndarray | None = None
    stable_fp: StableFPPrior | None = None
    version: int = 0
    fitted_at_bin: int | None = None

    def values(self, ingress: np.ndarray, egress: np.ndarray) -> np.ndarray:
        """Per-bin prior matrices for one chunk of marginals."""
        if self.mode == "gravity":
            return gravity_series_values(ingress, egress)
        if self.mode == "stable_f":
            return StableFPrior(float(self.forward_fraction)).values(ingress, egress)
        return self.stable_fp.values(ingress, egress)


class RollingFitManager:
    """Maintain the active prior over a live feed, re-fitting on a window.

    Parameters
    ----------
    nodes, bin_seconds:
        The binned feed's geometry.
    mode:
        Prior recipe (``gravity``/``stable_f``/``stable_fp``).
    forward_fraction:
        Pinned ``f`` for ``stable_f`` (required) and the warm start of the
        first ``stable_fp`` fit (optional).
    refit_every:
        Re-fit period in closed bins; ``0`` disables fitting entirely
        (``stable_fp`` then falls back to gravity until told otherwise —
        pass a pinned prior via :meth:`pin` instead).
    window_bins:
        Sliding fit window length.
    window_budget_bytes, spill_dir:
        Memory budget and spill location of the window.
    fit_kwargs:
        Extra keyword arguments forwarded to ``fit_stable_fp``
        (iteration caps for latency-sensitive deployments).
    """

    def __init__(
        self,
        nodes: Sequence[str],
        *,
        bin_seconds: float,
        mode: str = "gravity",
        forward_fraction: float | None = None,
        refit_every: int = 0,
        window_bins: int = 96,
        window_budget_bytes: int = DEFAULT_WINDOW_BUDGET_BYTES,
        spill_dir=None,
        min_fit_bins: int = 8,
        fit_kwargs: dict | None = None,
    ):
        if mode not in PRIOR_MODES:
            raise ValidationError(
                f"unknown prior mode {mode!r}; choose from {PRIOR_MODES}"
            )
        if mode == "stable_f" and forward_fraction is None:
            raise ValidationError("stable_f needs a pinned --forward-fraction")
        if refit_every < 0:
            raise ValidationError("refit_every must be >= 0 (0 disables re-fitting)")
        self._mode = mode
        self._bin_seconds = float(bin_seconds)
        self._refit_every = int(refit_every)
        self._min_fit_bins = max(int(min_fit_bins), 2)
        self._fit_kwargs = dict(fit_kwargs or {})
        self._needs_fit = mode == "stable_fp" and refit_every > 0
        self._window = (
            RollingWindow(
                nodes,
                bin_seconds=bin_seconds,
                window_bins=window_bins,
                budget_bytes=window_budget_bytes,
                spill_dir=spill_dir,
            )
            if self._needs_fit
            else None
        )
        self._bins_since_fit = 0
        self._last_observed_bin: int | None = None
        self.refits = 0
        if mode == "stable_fp":
            # Gravity fallback until the first window fit (or a pin) lands.
            self._active = ActivePrior(mode="gravity", forward_fraction=forward_fraction)
        else:
            self._active = ActivePrior(mode=mode, forward_fraction=forward_fraction)

    @property
    def active(self) -> ActivePrior:
        return self._active

    @property
    def window(self) -> RollingWindow | None:
        return self._window

    def pin(self, *, forward_fraction: float, preference) -> None:
        """Install a fixed stable-fP prior (no fitting): the pinned mode."""
        self._install_fit(float(forward_fraction), np.asarray(preference, dtype=float), None)

    def _install_fit(self, forward: float, preference: np.ndarray, fitted_at: int | None):
        prior = StableFPPrior(forward, np.clip(preference, 0.0, None))
        # One assignment: readers see the old prior or the new one, whole.
        self._active = ActivePrior(
            mode="stable_fp",
            forward_fraction=forward,
            preference=prior.preference,
            stable_fp=prior,
            version=self._active.version + 1,
            fitted_at_bin=fitted_at,
        )

    def observe(self, start_bin: int, block: np.ndarray) -> bool:
        """Feed closed bins into the window; re-fit when the period elapses.

        Returns ``True`` when this call swapped the active prior.  Call it
        *after* the bins' own estimates are published so a swap only ever
        affects subsequent bins.
        """
        block = np.asarray(block, dtype=float)
        self._last_observed_bin = int(start_bin) + block.shape[0]
        if not self._needs_fit:
            return False
        self._window.append(int(start_bin), block)
        self._bins_since_fit += block.shape[0]
        window_full_enough = self._window.n_bins >= min(
            self._min_fit_bins, self._window.window_bins
        )
        due = (
            self._active.preference is None and window_full_enough
        ) or (self._bins_since_fit >= self._refit_every and window_full_enough)
        if not due:
            return False
        from repro.core.fitting import fit_stable_fp

        kwargs = dict(self._fit_kwargs)
        if self._active.forward_fraction is not None:
            kwargs.setdefault("initial_forward_fraction", float(self._active.forward_fraction))
        if self._active.preference is not None:
            kwargs.setdefault("initial_preference", self._active.preference)
        fit = fit_stable_fp(self._window.as_stream(), **kwargs)
        fitted_at = self._window.start_bin + self._window.n_bins
        self._install_fit(float(fit.forward_fraction), np.asarray(fit.preference), fitted_at)
        self._bins_since_fit = 0
        self.refits += 1
        return True

    def fit_age_bins(self) -> int | None:
        """Closed bins since the active fit's window ended (None before one)."""
        if self._active.fitted_at_bin is None or self._last_observed_bin is None:
            return None
        return max(self._last_observed_bin - self._active.fitted_at_bin, 0)

    def prior_values(self, ingress: np.ndarray, egress: np.ndarray) -> np.ndarray:
        """Prior matrices for one chunk of marginals under the active prior."""
        return self._active.values(ingress, egress)
