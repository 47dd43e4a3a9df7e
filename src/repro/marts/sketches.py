"""Streaming sketches: quantiles, log-binned CCDFs, top-K.

The exact marts reduce to sums that fit in ``O(n^2)``; everything
distributional — error quantiles, per-OD flow CCDFs, top talkers — needs a
summary whose size is independent of the number of bins.  Three primitives
cover the catalogue:

* :class:`QuantileSketch` — a Greenwald–Khanna ε-approximate quantile
  summary: any rank query is answered within ``epsilon * count`` ranks
  from ``O((1/ε) log(εn))`` stored tuples.  Sketches merge; the merged
  summary's guaranteed bound is the *sum* of the operands' bounds (tracked
  on the instance as :attr:`~QuantileSketch.rank_error_epsilon`), and the
  merge is deterministic, so ``merge(a, b)`` and ``merge(b, a)`` answer
  every query identically.  Its JSON-able :meth:`~QuantileSketch.to_state`
  is what the archive sink writes into ``marts.json``.
* :class:`CCDFSketch` — exact integer counts over globally fixed
  log-spaced bins (``10^(k / bins_per_decade)``), so the empirical CCDF
  evaluated at any bin edge is *exact* for values that do not sit on an
  edge.
* :class:`TopK` — a bounded min-heap of ``(score, key)`` pairs; with
  distinct keys the retained set is order-independent.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.errors import ValidationError

__all__ = ["QuantileSketch", "CCDFSketch", "TopK"]


class QuantileSketch:
    """Greenwald–Khanna ε-approximate quantile summary over a value stream.

    Stores sorted tuples ``(value, g, delta)`` where ``g`` is the gap in
    minimum rank to the previous tuple and ``delta`` the rank uncertainty;
    the GK invariant ``g + delta <= 2 * eps * n`` guarantees every quantile
    query is within ``eps * n`` ranks of exact.  NaNs are counted and
    excluded.  Updates are batched (buffered and merged in sorted runs) so
    feeding chunk-sized arrays stays cheap.
    """

    def __init__(self, epsilon: float = 0.005):
        if not 0.0 < epsilon < 0.5:
            raise ValidationError(f"epsilon must be in (0, 0.5), got {epsilon}")
        self.epsilon = float(epsilon)
        # Guaranteed rank-error bound as a fraction of count; grows when
        # sketches built with their own budgets merge.
        self.rank_error_epsilon = float(epsilon)
        self._count = 0
        self.nan_count = 0
        self._entries: list[list] = []  # [value, g, delta], sorted by value
        self._pending: list[np.ndarray] = []
        self._pending_count = 0
        self._flush_at = max(64, int(math.ceil(1.0 / epsilon)))

    @property
    def count(self) -> int:
        """Non-NaN values folded so far (including any still buffered)."""
        return self._count + self._pending_count

    def update(self, values) -> None:
        """Fold an array of values (any shape) into the sketch."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        nan_mask = np.isnan(values)
        nans = int(nan_mask.sum())
        if nans:
            self.nan_count += nans
            values = values[~nan_mask]
        if values.size == 0:
            return
        self._pending.append(values)
        self._pending_count += values.size
        if self._pending_count >= self._flush_at:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        batch = np.sort(np.concatenate(self._pending))
        self._pending = []
        self._pending_count = 0
        merged: list[list] = []
        entries = self._entries
        i = j = 0
        threshold = 2.0 * self.rank_error_epsilon
        while i < len(entries) or j < batch.size:
            if j >= batch.size or (i < len(entries) and entries[i][0] <= batch[j]):
                merged.append(entries[i])
                i += 1
                continue
            value = float(batch[j])
            # A new observation has exact rank relative to its neighbours
            # (g=1); its uncertainty is the standard floor(2 eps n) - 1,
            # zero at the extremes so min/max stay exact.
            if not merged or (i >= len(entries) and j == batch.size - 1):
                delta = 0
            else:
                delta = max(0, int(threshold * self._count) - 1)
            merged.append([value, 1, delta])
            self._count += 1
            j += 1
        self._entries = merged
        self._compress()

    def _compress(self) -> None:
        """Merge adjacent tuples while the GK invariant allows it."""
        entries = self._entries
        if len(entries) < 3:
            return
        threshold = 2.0 * self.rank_error_epsilon * self.count
        compressed = [entries[-1]]
        # Sweep right-to-left, folding each tuple into its right neighbour
        # when the combined uncertainty stays within the invariant; the
        # first and last tuples (exact min/max) are never folded away.
        for entry in reversed(entries[1:-1]):
            head = compressed[-1]
            if entry[1] + head[1] + head[2] <= threshold:
                head[1] += entry[1]
            else:
                compressed.append(entry)
        compressed.append(entries[0])
        compressed.reverse()
        self._entries = compressed

    def query(self, q: float) -> float:
        """The value at quantile ``q`` (0..1), within the tracked rank bound."""
        self._flush()
        if self.count == 0:
            return float("nan")
        q = min(max(float(q), 0.0), 1.0)
        target = q * (self.count - 1) + 1.0
        allowance = self.rank_error_epsilon * self.count
        rank_min = 0
        best = self._entries[0][0]
        for value, g, delta in self._entries:
            rank_min += g
            if rank_min + delta - target <= allowance and target - rank_min <= allowance:
                return float(value)
            if rank_min <= target:
                best = value
        return float(best)

    def quantiles(self, qs) -> list:
        return [self.query(q) for q in qs]

    @property
    def minimum(self) -> float:
        self._flush()
        return float(self._entries[0][0]) if self._entries else float("nan")

    @property
    def maximum(self) -> float:
        self._flush()
        return float(self._entries[-1][0]) if self._entries else float("nan")

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold another sketch into this one (deterministic, commutative).

        The merged entries are the union of both summaries with each
        tuple's ``delta`` widened by the other summary's local rank spread
        at that value (``g + delta - 1`` of the other's next tuple) — a
        value's rank in the combined stream inherits the uncertainty of
        *both* summaries, so keeping the original deltas would underclaim.
        The construction is a symmetric function of the operands and the
        guaranteed bound becomes the sum of the operands' bounds, so
        ``a.merge(b)`` answers every query exactly as ``b.merge(a)`` would.
        """
        self._flush()
        other._flush()
        merged: list[list] = []
        for own, foreign in (
            (self._entries, other._entries),
            (other._entries, self._entries),
        ):
            j = 0
            for value, g, delta in own:
                while j < len(foreign) and foreign[j][0] <= value:
                    j += 1
                spread = (
                    foreign[j][1] + foreign[j][2] - 1 if j < len(foreign) else 0
                )
                merged.append([value, g, delta + max(spread, 0)])
        merged.sort()
        self._entries = merged
        self._count += other._count
        self.nan_count += other.nan_count
        self.rank_error_epsilon += other.rank_error_epsilon
        self._compress()
        return self

    def to_state(self) -> dict:
        self._flush()
        return {
            "epsilon": self.epsilon,
            "rank_error_epsilon": self.rank_error_epsilon,
            "count": self.count,
            "nan_count": self.nan_count,
            "entries": [list(entry) for entry in self._entries],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantileSketch(count={self.count}, entries={len(self._entries)}, "
            f"eps={self.rank_error_epsilon:g})"
        )


class CCDFSketch:
    """Exact counts of positive values over fixed log-spaced bins.

    Bin ``k`` covers ``[10^(k/bins_per_decade), 10^((k+1)/bins_per_decade))``
    — the edges are global constants, shared by every sketch.  The CCDF
    evaluated *at a bin edge* is exact for values strictly inside bins; any
    quantile is recovered within one bin, i.e. a relative value error of
    ``10^(1/bins_per_decade) - 1``.  Zeros, negatives and NaNs are counted
    separately (log bins cannot hold them).
    """

    def __init__(self, bins_per_decade: int = 20):
        if bins_per_decade < 1:
            raise ValidationError("bins_per_decade must be >= 1")
        self.bins_per_decade = int(bins_per_decade)
        self.counts: dict[int, int] = {}
        self.zero_count = 0
        self.negative_count = 0
        self.nan_count = 0

    @property
    def positive_count(self) -> int:
        return sum(self.counts.values())

    @property
    def count(self) -> int:
        return self.positive_count + self.zero_count + self.negative_count

    def update(self, values) -> None:
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        nan_mask = np.isnan(values)
        self.nan_count += int(nan_mask.sum())
        values = values[~nan_mask]
        self.negative_count += int((values < 0).sum())
        self.zero_count += int((values == 0).sum())
        positive = values[values > 0]
        if positive.size == 0:
            return
        bins = np.floor(self.bins_per_decade * np.log10(positive)).astype(np.int64)
        base = int(bins.min())
        frequencies = np.bincount(bins - base)
        for offset in np.nonzero(frequencies)[0]:
            key = base + int(offset)
            self.counts[key] = self.counts.get(key, 0) + int(frequencies[offset])

    def edge(self, k: int) -> float:
        """The lower edge of bin ``k``: ``10^(k / bins_per_decade)``."""
        return float(10.0 ** (k / self.bins_per_decade))

    def ccdf(self) -> list:
        """``[(edge, count_ge, fraction_ge), ...]`` over the occupied range.

        ``count_ge`` at edge ``e_k`` counts the positive values ``>= e_k``
        — exact whenever no value sits numerically on an edge.  Fractions
        are of the positive population.
        """
        if not self.counts:
            return []
        total = self.positive_count
        keys = sorted(self.counts)
        rows = []
        remaining = total
        for key in keys:
            rows.append((self.edge(key), remaining, remaining / total))
            remaining -= self.counts[key]
        return rows

    def quantile(self, q: float) -> float:
        """Approximate quantile of the positive values (within one bin)."""
        total = self.positive_count
        if total == 0:
            return float("nan")
        q = min(max(float(q), 0.0), 1.0)
        target = q * total
        cumulative = 0
        for key in sorted(self.counts):
            cumulative += self.counts[key]
            if cumulative >= target:
                # Geometric midpoint of the bin.
                return float(10.0 ** ((key + 0.5) / self.bins_per_decade))
        return self.edge(max(self.counts) + 1)


class TopK:
    """Bounded min-heap of the ``k`` largest ``(score, key)`` pairs.

    With distinct keys the retained set is a pure function of the inputs,
    so the order of updates does not matter.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.k = int(k)
        self._heap: list[tuple] = []

    def update(self, items) -> None:
        """Fold ``(score, key)`` pairs into the heap."""
        for score, key in items:
            entry = (float(score), key)
            if len(self._heap) < self.k:
                heapq.heappush(self._heap, entry)
            elif entry > self._heap[0]:
                heapq.heapreplace(self._heap, entry)

    def result(self) -> list:
        """``(score, key)`` pairs, largest first."""
        return sorted(self._heap, reverse=True)
