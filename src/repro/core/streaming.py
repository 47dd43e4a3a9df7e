"""Chunk-wise accumulators: single-pass reductions over traffic streams.

Everything the fitting and evaluation layers need from a ``(T, n, n)`` series
reduces to a handful of per-bin or per-OD statistics — per-bin norms and
marginals (``O(T n)``), per-OD totals and sums of squares (``O(n^2)``), and
contractions of each bin with small parameter vectors.  This module computes
those statistics chunk by chunk over the :mod:`repro.streaming` protocol, so

* :class:`SeriesAccumulator` gives gravity baselines and summary statistics
  in one pass,
* :func:`streaming_rel_l2_temporal_error` / :func:`streaming_rel_l2_spatial_error`
  evaluate the paper's error metrics between two streams without
  materialising either.

Peak memory is ``O(chunk * n^2 + T * n)`` throughout — the ``(T, n)`` state
(marginals, norms) is kept, the ``n^2`` cubes never are.  The stable-fP fit
of a stream is :func:`repro.core.fitting.fit_stable_fp`, which reads a
stream chunk by chunk the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.gravity import gravity_series_values
from repro.core.metrics import rel_l2_temporal_error
from repro.errors import ValidationError
from repro.streaming import as_chunk_stream, zip_chunks

__all__ = [
    "SeriesAccumulator",
    "sequential_bin_fold",
    "streaming_rel_l2_temporal_error",
    "streaming_rel_l2_spatial_error",
    "streaming_gravity_errors",
]


def sequential_bin_fold(into: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Fold ``block`` into ``into`` bin by bin, in place.

    Numpy's reduction over the leading axis of a C-contiguous cube is a
    plain sequential loop (pairwise summation only kicks in for contiguous
    last-axis reductions), so adding the bins one at a time — in order —
    produces *bitwise* the same array as ``cube.sum(axis=0)`` over the
    whole series no matter how the series is chunked.  Chunk-level partial sums
    (``into += block.sum(axis=0)``) do not have this property: they
    re-associate the additions at chunk boundaries.  Every streamed
    reduction that promises bit-identity with its materialised oracle
    (:class:`SeriesAccumulator`, the exact marts of :mod:`repro.marts`)
    folds through this helper.
    """
    for plane in block:
        into += plane
    return into


@dataclass
class SeriesAccumulator:
    """Single-pass per-bin and per-OD statistics of a traffic stream.

    Feed chunks with :meth:`update` (or build from a source with
    :meth:`from_source`); afterwards the accumulator answers the questions
    the fitting/baseline code asks of a materialised cube: per-OD totals and
    second moments, per-bin marginals, norms and totals.
    """

    n_nodes: int
    n_bins: int = 0
    od_sum: np.ndarray = field(default=None)
    od_sumsq: np.ndarray = field(default=None)
    _ingress: list = field(default_factory=list)
    _egress: list = field(default_factory=list)
    _norms: list = field(default_factory=list)

    def __post_init__(self):
        if self.od_sum is None:
            self.od_sum = np.zeros((self.n_nodes, self.n_nodes))
        if self.od_sumsq is None:
            self.od_sumsq = np.zeros((self.n_nodes, self.n_nodes))

    @classmethod
    def from_source(cls, source, *, chunk_bins: int | None = None) -> "SeriesAccumulator":
        """Accumulate a cube or stream in one pass through the shared adapter."""
        stream = as_chunk_stream(source, chunk_bins=chunk_bins)
        accumulator = cls(n_nodes=stream.n_nodes)
        for _, block in stream.chunks():
            accumulator.update(block)
        return accumulator

    def update(self, block: np.ndarray) -> None:
        """Fold one ``(T_chunk, n, n)`` block into the running statistics."""
        if block.ndim != 3 or block.shape[1:] != (self.n_nodes, self.n_nodes):
            raise ValidationError(
                f"expected a (T, {self.n_nodes}, {self.n_nodes}) block, got {block.shape}"
            )
        self.n_bins += block.shape[0]
        # Folding bin by bin keeps the per-OD sums independent of the
        # chunking: any partition of the series accumulates to bitwise the
        # same totals as one shot over the materialised cube.
        sequential_bin_fold(self.od_sum, block)
        sequential_bin_fold(self.od_sumsq, block**2)
        self._ingress.append(block.sum(axis=2))
        self._egress.append(block.sum(axis=1))
        self._norms.append(np.sqrt((block**2).sum(axis=(1, 2))))

    def merge(self, other: "SeriesAccumulator") -> "SeriesAccumulator":
        """Fold another accumulator covering the bins that follow ours.

        Shard-parallel reductions build one accumulator per shard and merge
        them in bin order; per-bin state concatenates and the per-OD sums
        add, so the merged statistics match a single sequential pass up to
        the chunk-boundary re-association of the OD sums.
        """
        if other.n_nodes != self.n_nodes:
            raise ValidationError(
                f"cannot merge accumulators over {other.n_nodes} and "
                f"{self.n_nodes} nodes"
            )
        self.n_bins += other.n_bins
        self.od_sum += other.od_sum
        self.od_sumsq += other.od_sumsq
        self._ingress.extend(other._ingress)
        self._egress.extend(other._egress)
        self._norms.extend(other._norms)
        return self

    # -- derived statistics --------------------------------------------------

    @property
    def ingress(self) -> np.ndarray:
        """Per-bin ingress marginals, shape ``(T, n)``."""
        return np.concatenate(self._ingress) if self._ingress else np.zeros((0, self.n_nodes))

    @property
    def egress(self) -> np.ndarray:
        """Per-bin egress marginals, shape ``(T, n)``."""
        return np.concatenate(self._egress) if self._egress else np.zeros((0, self.n_nodes))

    @property
    def bin_norms(self) -> np.ndarray:
        """Per-bin Frobenius norms ``||X(t)||``, shape ``(T,)``."""
        return np.concatenate(self._norms) if self._norms else np.zeros(0)

    @property
    def bin_totals(self) -> np.ndarray:
        """Per-bin total traffic ``X_{**}(t)``, shape ``(T,)``."""
        return self.ingress.sum(axis=1)

    def mean_matrix(self) -> np.ndarray:
        """Time-averaged ``(n, n)`` traffic matrix."""
        if self.n_bins == 0:
            raise ValidationError("no chunks accumulated yet")
        return self.od_sum / self.n_bins

    def od_variance(self) -> np.ndarray:
        """Per-OD variance across time (population), shape ``(n, n)``."""
        if self.n_bins == 0:
            raise ValidationError("no chunks accumulated yet")
        mean = self.od_sum / self.n_bins
        return np.maximum(self.od_sumsq / self.n_bins - mean**2, 0.0)


def streaming_rel_l2_temporal_error(actual, estimate, *, chunk_bins: int | None = None) -> np.ndarray:
    """Per-bin relative L2 temporal error (Eq. 6) between two streams.

    Accepts any mix of cubes and streams; each bin's error involves only that
    bin, so the chunked evaluation is bit-identical to the materialised one.
    """
    actual_stream = as_chunk_stream(actual, chunk_bins=chunk_bins)
    estimate_stream = as_chunk_stream(estimate, chunk_bins=chunk_bins or actual_stream.chunk_bins)
    parts = [
        rel_l2_temporal_error(actual_block, estimate_block)
        for _, (actual_block, estimate_block) in zip_chunks(actual_stream, estimate_stream)
    ]
    return np.concatenate(parts)


def streaming_rel_l2_spatial_error(actual, estimate, *, chunk_bins: int | None = None) -> np.ndarray:
    """Per-OD relative L2 spatial error between two streams, shape ``(n, n)``."""
    actual_stream = as_chunk_stream(actual, chunk_bins=chunk_bins)
    estimate_stream = as_chunk_stream(estimate, chunk_bins=chunk_bins or actual_stream.chunk_bins)
    n = actual_stream.n_nodes
    diff_sq = np.zeros((n, n))
    norm_sq = np.zeros((n, n))
    for _, (actual_block, estimate_block) in zip_chunks(actual_stream, estimate_stream):
        diff_sq += ((actual_block - estimate_block) ** 2).sum(axis=0)
        norm_sq += (actual_block**2).sum(axis=0)
    diff = np.sqrt(diff_sq)
    norm = np.sqrt(norm_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            norm > 0, diff / np.where(norm > 0, norm, 1.0), np.where(diff > 0, np.inf, 0.0)
        )


def streaming_gravity_errors(source, *, chunk_bins: int | None = None) -> np.ndarray:
    """Per-bin error of the gravity reconstruction of a stream's own marginals.

    The Section 5.1 baseline as a single-pass reduction: every bin's gravity
    estimate depends only on that bin's marginals, so the streamed evaluation
    matches :func:`repro.core.gravity.gravity_series` exactly.
    """
    stream = as_chunk_stream(source, chunk_bins=chunk_bins)
    parts = []
    for _, block in stream.chunks():
        gravity = gravity_series_values(block.sum(axis=2), block.sum(axis=1))
        parts.append(rel_l2_temporal_error(block, gravity))
    return np.concatenate(parts)
