"""The mart catalogue: single-pass reducers over ``(t0, block)`` streams.

A mart consumes a series chunk by chunk (`update`) and renders a
JSON-able summary (`result`).  Cube marts reduce ``(T, n, n)`` estimate
archives; series marts reduce per-bin scalar series (errors,
improvements).  :class:`ErrorQuantilesMart` also merges with a mart built
over other cells (`merge`) and writes its state (`to_state`): the archive
sink folds per-cell partials into the archive-level ``marts.json``, which
`repro report` does not read back (it re-reduces from the shards).

Exactness contract: every statistic that can be exact, is.  Per-OD totals
fold bin by bin through
:func:`repro.core.streaming.sequential_bin_fold`, making them *bitwise*
equal to ``cube.sum(axis=0)`` on the materialised series regardless of the
shard partition; ingress/egress/top-K/overview totals derive from those
sums.  Hourly rollups accumulate with ``np.add.at`` (unbuffered, in bin
order — the same sequential fold).  Only the distributional marts
(quantiles, CCDFs) are sketched, and they carry tested accuracy bounds
(:mod:`repro.marts.sketches`).
"""

from __future__ import annotations

import numpy as np

from repro.core.streaming import sequential_bin_fold
from repro.errors import ValidationError
from repro.marts.sketches import CCDFSketch, QuantileSketch, TopK

__all__ = [
    "Mart",
    "OverviewMart",
    "TopTalkersMart",
    "TrafficByHourMart",
    "OdCcdfMart",
    "ErrorQuantilesMart",
    "MartSpec",
    "MART_REGISTRY",
    "build_mart",
]

_QUANTILES = (0.5, 0.9, 0.95, 0.99)


class Mart:
    """One streaming reduction; subclasses set ``name`` and ``kind``.

    ``kind`` is ``"cube"`` for ``(T, n, n)`` consumers and ``"series"``
    for per-bin scalar consumers; the report layer routes archive series
    accordingly.
    """

    name: str = ""
    kind: str = "cube"

    def update(self, t0: int, block: np.ndarray) -> None:
        raise NotImplementedError

    def result(self) -> dict:
        raise NotImplementedError

    def consume(self, blocks) -> "Mart":
        """Fold an iterable of ``(t0, block)`` pairs and return self."""
        for t0, block in blocks:
            self.update(t0, np.asarray(block))
        return self


class _CubeMart(Mart):
    """Shared per-OD accumulation for the cube marts."""

    def __init__(self):
        self._od_sum: np.ndarray | None = None
        self._n_bins = 0

    def _fold(self, block: np.ndarray) -> None:
        if block.ndim != 3 or block.shape[1] != block.shape[2]:
            raise ValidationError(f"expected a (T, n, n) block, got {block.shape}")
        if self._od_sum is None:
            self._od_sum = np.zeros(block.shape[1:])
        elif block.shape[1:] != self._od_sum.shape:
            raise ValidationError(
                f"block item shape {block.shape[1:]} does not match "
                f"accumulated {self._od_sum.shape}"
            )
        sequential_bin_fold(self._od_sum, block)
        self._n_bins += block.shape[0]


class OverviewMart(_CubeMart):
    """Archive-wide totals: bins, nodes, total/mean/extreme bin traffic."""

    name = "overview"
    kind = "cube"

    def __init__(self):
        super().__init__()
        self._max_bin_total = -np.inf
        self._min_bin_total = np.inf

    def update(self, t0: int, block: np.ndarray) -> None:
        self._fold(block)
        totals = block.sum(axis=(1, 2))
        self._max_bin_total = max(self._max_bin_total, float(totals.max()))
        self._min_bin_total = min(self._min_bin_total, float(totals.min()))

    def result(self) -> dict:
        if self._n_bins == 0:
            return {"n_bins": 0}
        total = float(self._od_sum.sum())
        return {
            "n_bins": self._n_bins,
            "n_nodes": int(self._od_sum.shape[0]),
            "total_traffic": total,
            "mean_bin_total": total / self._n_bins,
            "max_bin_total": self._max_bin_total,
            "min_bin_total": self._min_bin_total,
        }


class TopTalkersMart(_CubeMart):
    """The K heaviest OD flows by total traffic, with ingress/egress totals.

    The ranking reads off the exact per-OD sums, so it matches the
    materialised ``cube.sum(axis=0)`` oracle bit for bit; the bounded heap
    only enters at result time.
    """

    name = "top_talkers"
    kind = "cube"

    def __init__(self, k: int = 10):
        super().__init__()
        if k < 1:
            raise ValidationError("top_talkers needs k >= 1")
        self.k = int(k)

    def update(self, t0: int, block: np.ndarray) -> None:
        self._fold(block)

    def result(self) -> dict:
        if self._n_bins == 0:
            return {"n_bins": 0, "rows": []}
        top = TopK(self.k)
        n = self._od_sum.shape[0]
        top.update(
            (float(self._od_sum[i, j]), (int(i), int(j)))
            for i in range(n)
            for j in range(n)
        )
        grand = float(self._od_sum.sum())
        ingress = self._od_sum.sum(axis=1)  # traffic originated per node
        egress = self._od_sum.sum(axis=0)  # traffic received per node
        rows = [
            {
                "origin": key[0],
                "destination": key[1],
                "total": score,
                "mean_per_bin": score / self._n_bins,
                "share": score / grand if grand else 0.0,
            }
            for score, key in top.result()
        ]
        return {
            "n_bins": self._n_bins,
            "rows": rows,
            "ingress_totals": ingress.tolist(),
            "egress_totals": egress.tolist(),
        }


class TrafficByHourMart(Mart):
    """Hour-of-day rollup of per-bin traffic totals.

    Archives carry bin indices, not wall clocks, so the mapping is
    ``hour = (bin // bins_per_hour) % 24`` — with the paper's 300 s bins,
    ``bins_per_hour=12``.  Accumulation uses ``np.add.at`` (unbuffered,
    element-by-element in bin order), so the hourly sums are bitwise equal
    to a sequential loop over the materialised series.
    """

    name = "traffic_by_hour"
    kind = "cube"

    def __init__(self, bins_per_hour: int = 12):
        if bins_per_hour < 1:
            raise ValidationError("bins_per_hour must be >= 1")
        self.bins_per_hour = int(bins_per_hour)
        self._sums = np.zeros(24)
        self._counts = np.zeros(24, dtype=np.int64)

    def update(self, t0: int, block: np.ndarray) -> None:
        if block.ndim != 3:
            raise ValidationError(f"expected a (T, n, n) block, got {block.shape}")
        totals = block.sum(axis=(1, 2))
        hours = ((int(t0) + np.arange(block.shape[0])) // self.bins_per_hour) % 24
        np.add.at(self._sums, hours, totals)
        np.add.at(self._counts, hours, 1)

    def result(self) -> dict:
        rows = [
            {
                "hour": hour,
                "bins": int(self._counts[hour]),
                "total": float(self._sums[hour]),
                "mean_bin_total": (
                    float(self._sums[hour] / self._counts[hour])
                    if self._counts[hour]
                    else 0.0
                ),
            }
            for hour in range(24)
            if self._counts[hour]
        ]
        return {"bins_per_hour": self.bins_per_hour, "rows": rows}


class OdCcdfMart(Mart):
    """CCDF of per-OD per-bin traffic values over fixed log-spaced bins.

    The heavy-tail shape the IC model is about: exact counts per log bin,
    so the rendered CCDF points are exact and any quantile is within one
    bin (relative error ``10^(1/bins_per_decade) - 1``).
    """

    name = "od_ccdf"
    kind = "cube"

    def __init__(self, bins_per_decade: int = 20, max_points: int = 40):
        self._sketch = CCDFSketch(bins_per_decade=bins_per_decade)
        self.max_points = int(max_points)

    def update(self, t0: int, block: np.ndarray) -> None:
        if block.ndim != 3:
            raise ValidationError(f"expected a (T, n, n) block, got {block.shape}")
        self._sketch.update(block)

    def result(self) -> dict:
        points = self._sketch.ccdf()
        if len(points) > self.max_points:
            stride = -(-len(points) // self.max_points)
            points = points[::stride]
        return {
            "values": self._sketch.count,
            "zero_values": self._sketch.zero_count,
            "negative_values": self._sketch.negative_count,
            "nan_values": self._sketch.nan_count,
            "bins_per_decade": self._sketch.bins_per_decade,
            "quantiles": {
                f"p{int(q * 100)}": self._sketch.quantile(q) for q in _QUANTILES
            },
            "rows": [
                {"edge": edge, "count_ge": count, "fraction_ge": fraction}
                for edge, count, fraction in points
            ],
        }


class ErrorQuantilesMart(Mart):
    """Distribution of a per-bin scalar series (errors, improvements).

    Min/max/counts are exact, the mean is exact up to float summation
    order; the quantiles come from the GK sketch and report their
    guaranteed rank-error bound alongside.
    """

    name = "error_quantiles"
    kind = "series"

    def __init__(self, epsilon: float = 0.005):
        self._sketch = QuantileSketch(epsilon=epsilon)
        self._sum = 0.0
        self._count = 0

    def update(self, t0: int, block: np.ndarray) -> None:
        values = np.asarray(block, dtype=float).ravel()
        finite = values[~np.isnan(values)]
        self._sum += float(finite.sum())
        self._count += int(finite.size)
        self._sketch.update(values)

    def merge(self, other: Mart) -> "ErrorQuantilesMart":
        if type(other) is not type(self):
            raise ValidationError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        self._sum += other._sum
        self._count += other._count
        self._sketch.merge(other._sketch)
        return self

    def result(self) -> dict:
        quantiles = {
            f"p{int(q * 100)}": self._sketch.query(q) for q in _QUANTILES
        }
        return {
            "bins": self._count,
            "nan_bins": self._sketch.nan_count,
            "mean": self._sum / self._count if self._count else float("nan"),
            "min": self._sketch.minimum,
            "max": self._sketch.maximum,
            "quantiles": quantiles,
            "rank_error_bound": self._sketch.rank_error_epsilon,
        }

    def to_state(self) -> dict:
        return {"sum": self._sum, "count": self._count, "sketch": self._sketch.to_state()}


class MartSpec:
    """Registry entry: how `repro report` builds and describes a mart."""

    def __init__(self, factory, kind: str, description: str):
        self.factory = factory
        self.kind = kind
        self.description = description


MART_REGISTRY: dict[str, MartSpec] = {
    "overview": MartSpec(
        lambda options: OverviewMart(),
        "cube",
        "archive-wide totals: bins, nodes, total and per-bin traffic",
    ),
    "top_talkers": MartSpec(
        lambda options: TopTalkersMart(k=options.get("top_k", 10)),
        "cube",
        "K heaviest OD flows by total traffic, plus node ingress/egress",
    ),
    "traffic_by_hour": MartSpec(
        lambda options: TrafficByHourMart(
            bins_per_hour=options.get("bins_per_hour", 12)
        ),
        "cube",
        "hour-of-day rollup of per-bin traffic totals",
    ),
    "od_ccdf": MartSpec(
        lambda options: OdCcdfMart(),
        "cube",
        "CCDF of per-OD per-bin traffic over log-spaced bins",
    ),
    "error_quantiles": MartSpec(
        lambda options: ErrorQuantilesMart(
            epsilon=options.get("epsilon", 0.005)
        ),
        "series",
        "quantiles/mean/extremes of a per-bin error series (GK sketch)",
    ),
}


def build_mart(name: str, options: dict | None = None) -> Mart:
    """Instantiate a registered mart with the report-level options."""
    if name not in MART_REGISTRY:
        known = ", ".join(sorted(MART_REGISTRY))
        raise ValidationError(f"unknown mart {name!r} (registered: {known})")
    return MART_REGISTRY[name].factory(options or {})
