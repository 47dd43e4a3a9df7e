"""Traffic-matrix containers.

The paper works with origin-destination (OD) traffic matrices: during a fixed
time interval, ``X[i, j]`` is the number of bytes entering the network at
access point ``i`` and leaving it at access point ``j``.  Two containers are
provided:

* :class:`TrafficMatrix` — a single ``(n, n)`` matrix with node names and the
  marginals used throughout the paper (ingress ``X_{i*}``, egress ``X_{*j}``,
  total ``X_{**}``).
* :class:`TrafficMatrixSeries` — a ``(T, n, n)`` time series of matrices with
  the same marginals as time series, plus slicing, resampling and persistence
  helpers.

Both are thin, validated wrappers around ``numpy`` arrays; the numerical
machinery in the rest of the package operates on the underlying arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro._validation import (
    as_series_array,
    as_square_matrix,
    node_names,
    require_nonnegative,
)
from repro.errors import ShapeError, ValidationError

__all__ = ["TrafficMatrix", "TrafficMatrixSeries", "od_pairs"]


def od_pairs(n: int) -> list[tuple[int, int]]:
    """Return the OD pairs of an ``n``-node network in row-major order.

    Row-major (origin-major) order is the vectorisation convention used by
    every routine in this package that flattens a traffic matrix, including
    the routing-matrix construction in :mod:`repro.topology.routing`.
    """
    return [(i, j) for i in range(n) for j in range(n)]


@dataclass(frozen=True)
class TrafficMatrix:
    """A single origin-destination traffic matrix.

    Parameters
    ----------
    values:
        Square array-like where entry ``(i, j)`` is the traffic volume (bytes)
        from origin ``i`` to destination ``j``.  A float array with no
        negative entry is not copied: :attr:`values` is a read-only view of
        the caller's buffer.
    nodes:
        Optional node names; defaults to ``node00``, ``node01``, ...
    """

    values: np.ndarray
    nodes: tuple[str, ...]

    def __init__(self, values, nodes: Sequence[str] | None = None):
        matrix = as_square_matrix(values, "traffic matrix")
        matrix = require_nonnegative(matrix, "traffic matrix", tolerance=1e-9).view()
        matrix.flags.writeable = False
        object.__setattr__(self, "values", matrix)
        object.__setattr__(self, "nodes", node_names(nodes, matrix.shape[0]))

    # -- basic properties -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of access points (PoPs) in the network."""
        return self.values.shape[0]

    @property
    def ingress(self) -> np.ndarray:
        """Per-node ingress totals ``X_{i*}`` (all traffic entering at node i)."""
        return self.values.sum(axis=1)

    @property
    def egress(self) -> np.ndarray:
        """Per-node egress totals ``X_{*j}`` (all traffic leaving at node j)."""
        return self.values.sum(axis=0)

    @property
    def total(self) -> float:
        """Total network traffic ``X_{**}``."""
        return float(self.values.sum())

    # -- conversions ------------------------------------------------------

    def to_vector(self) -> np.ndarray:
        """Flatten to a length ``n*n`` vector in row-major (origin-major) order."""
        return self.values.reshape(-1)

    @classmethod
    def from_vector(cls, vector, nodes: Sequence[str] | None = None) -> "TrafficMatrix":
        """Build a matrix from a row-major vector of length ``n*n``."""
        vector = np.asarray(vector, dtype=float)
        if vector.ndim != 1:
            raise ShapeError(f"expected a 1-D vector, got shape {vector.shape}")
        n = int(round(np.sqrt(vector.shape[0])))
        if n * n != vector.shape[0]:
            raise ShapeError(f"vector length {vector.shape[0]} is not a perfect square")
        return cls(vector.reshape(n, n), nodes)

    def node_index(self, name: str) -> int:
        """Return the index of the node called ``name``."""
        try:
            return self.nodes.index(name)
        except ValueError as exc:
            raise ValidationError(f"unknown node {name!r}") from exc

    def flow(self, origin: str, destination: str) -> float:
        """Return the OD flow volume from ``origin`` to ``destination`` by name."""
        return float(self.values[self.node_index(origin), self.node_index(destination)])

    # -- simple arithmetic -------------------------------------------------

    def scaled(self, factor: float) -> "TrafficMatrix":
        """Return a copy with every entry multiplied by ``factor`` (must be >= 0)."""
        if factor < 0:
            raise ValidationError("scaling factor must be non-negative")
        return TrafficMatrix(self.values * float(factor), self.nodes)

    def without_self_traffic(self) -> "TrafficMatrix":
        """Return a copy with the diagonal (intra-PoP traffic) zeroed."""
        values = self.values.copy()
        np.fill_diagonal(values, 0.0)
        return TrafficMatrix(values, self.nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        return self.nodes == other.nodes and np.array_equal(self.values, other.values)

    def allclose(self, other: "TrafficMatrix", *, rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        """Whether two matrices agree element-wise within tolerances."""
        return self.nodes == other.nodes and bool(
            np.allclose(self.values, other.values, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrafficMatrix(n_nodes={self.n_nodes}, total={self.total:.3e})"


class TrafficMatrixSeries:
    """A time series of traffic matrices sampled at a fixed bin size.

    Parameters
    ----------
    values:
        Array-like of shape ``(T, n, n)``; a single ``(n, n)`` matrix is
        promoted to ``T = 1``.  A float array with no negative entry is
        wrapped without a copy, so the series shares the caller's buffer
        (:attr:`values` is a read-only view of it); entries within the
        ``-1e-9`` tolerance are clipped to zero in a copy.
    nodes:
        Optional node names shared by every timestep.
    bin_seconds:
        Duration of each time bin.  The paper uses 300 s (Geant, D1) and
        900 s (Totem, D2).
    """

    def __init__(
        self,
        values,
        nodes: Sequence[str] | None = None,
        *,
        bin_seconds: float = 300.0,
    ):
        array = as_series_array(values, "traffic matrix series")
        array = require_nonnegative(array, "traffic matrix series", tolerance=1e-9)
        if bin_seconds <= 0:
            raise ValidationError("bin_seconds must be positive")
        self._values = array
        self._nodes = node_names(nodes, array.shape[1])
        self._bin_seconds = float(bin_seconds)

    # -- basic properties -------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The underlying ``(T, n, n)`` array (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def nodes(self) -> tuple[str, ...]:
        """Node names shared by every timestep."""
        return self._nodes

    @property
    def bin_seconds(self) -> float:
        """Duration of one time bin in seconds."""
        return self._bin_seconds

    @property
    def n_timesteps(self) -> int:
        """Number of time bins ``T``."""
        return self._values.shape[0]

    @property
    def n_nodes(self) -> int:
        """Number of access points ``n``."""
        return self._values.shape[1]

    def __len__(self) -> int:
        return self.n_timesteps

    def __iter__(self) -> Iterator[TrafficMatrix]:
        for t in range(self.n_timesteps):
            yield self[t]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TrafficMatrixSeries(
                self._values[index], self._nodes, bin_seconds=self._bin_seconds
            )
        t = int(index)
        return TrafficMatrix(self.values[t], self._nodes)

    # -- marginals ---------------------------------------------------------

    @property
    def ingress(self) -> np.ndarray:
        """Ingress time series, shape ``(T, n)``: ``X_{i*}(t)``."""
        return self._values.sum(axis=2)

    @property
    def egress(self) -> np.ndarray:
        """Egress time series, shape ``(T, n)``: ``X_{*j}(t)``."""
        return self._values.sum(axis=1)

    @property
    def totals(self) -> np.ndarray:
        """Total traffic per time bin, shape ``(T,)``."""
        return self._values.sum(axis=(1, 2))

    def mean_matrix(self) -> TrafficMatrix:
        """The time-averaged traffic matrix."""
        return TrafficMatrix(self._values.mean(axis=0), self._nodes)

    # -- reshaping ---------------------------------------------------------

    def to_vectors(self) -> np.ndarray:
        """Flatten each timestep to a row vector; result has shape ``(T, n*n)``.

        Like :attr:`values`, the result is a read-only view.
        """
        t, n, _ = self._values.shape
        return self.values.reshape(t, n * n)

    @classmethod
    def from_vectors(
        cls,
        vectors,
        nodes: Sequence[str] | None = None,
        *,
        bin_seconds: float = 300.0,
    ) -> "TrafficMatrixSeries":
        """Build a series from an array of row-major OD vectors, shape ``(T, n*n)``."""
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2:
            raise ShapeError(f"expected (T, n*n) array, got shape {vectors.shape}")
        n = int(round(np.sqrt(vectors.shape[1])))
        if n * n != vectors.shape[1]:
            raise ShapeError(f"row length {vectors.shape[1]} is not a perfect square")
        return cls(vectors.reshape(vectors.shape[0], n, n), nodes, bin_seconds=bin_seconds)

    def subsample(self, step: int) -> "TrafficMatrixSeries":
        """Keep every ``step``-th bin (useful for cheaper experiments)."""
        if step < 1:
            raise ValidationError("subsample step must be >= 1")
        return TrafficMatrixSeries(
            self._values[::step], self._nodes, bin_seconds=self._bin_seconds * step
        )

    def aggregate(self, factor: int) -> "TrafficMatrixSeries":
        """Sum consecutive groups of ``factor`` bins into coarser bins.

        Trailing bins that do not fill a complete group are dropped, mirroring
        how per-week datasets are cut to whole weeks in the paper.
        """
        if factor < 1:
            raise ValidationError("aggregation factor must be >= 1")
        t = (self.n_timesteps // factor) * factor
        if t == 0:
            raise ValidationError("series is shorter than one aggregation window")
        trimmed = self._values[:t]
        grouped = trimmed.reshape(t // factor, factor, self.n_nodes, self.n_nodes).sum(axis=1)
        return TrafficMatrixSeries(grouped, self._nodes, bin_seconds=self._bin_seconds * factor)

    def split_weeks(self, bins_per_week: int | None = None) -> list["TrafficMatrixSeries"]:
        """Split the series into whole weeks.

        When ``bins_per_week`` is omitted it is derived from the bin size
        (7 days / bin_seconds).  Trailing bins not filling a week are dropped.
        """
        if bins_per_week is None:
            bins_per_week = int(round(7 * 24 * 3600 / self._bin_seconds))
        if bins_per_week < 1:
            raise ValidationError("bins_per_week must be >= 1")
        weeks = self.n_timesteps // bins_per_week
        return [
            self[w * bins_per_week : (w + 1) * bins_per_week] for w in range(weeks)
        ]

    def concatenate(self, other: "TrafficMatrixSeries") -> "TrafficMatrixSeries":
        """Append ``other`` (same nodes and bin size) after this series."""
        if other.nodes != self.nodes:
            raise ValidationError("cannot concatenate series with different nodes")
        if abs(other.bin_seconds - self.bin_seconds) > 1e-9:
            raise ValidationError("cannot concatenate series with different bin sizes")
        return TrafficMatrixSeries(
            np.concatenate([self._values, other._values], axis=0),
            self._nodes,
            bin_seconds=self._bin_seconds,
        )

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the series to an ``.npz`` file plus embedded metadata."""
        path = Path(path)
        metadata = json.dumps({"nodes": list(self._nodes), "bin_seconds": self._bin_seconds})
        np.savez_compressed(path, values=self._values, metadata=np.array(metadata))

    @classmethod
    def load(cls, path: str | Path) -> "TrafficMatrixSeries":
        """Load a series previously written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            values = data["values"]
            metadata = json.loads(str(data["metadata"]))
        return cls(values, metadata["nodes"], bin_seconds=metadata["bin_seconds"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrafficMatrixSeries(T={self.n_timesteps}, n_nodes={self.n_nodes}, "
            f"bin_seconds={self._bin_seconds:g})"
        )
