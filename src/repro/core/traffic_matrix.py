"""The traffic-matrix series container.

The paper works with origin-destination (OD) traffic matrices: during a fixed
time interval, ``X[i, j]`` is the number of bytes entering the network at
access point ``i`` and leaving it at access point ``j``.
:class:`TrafficMatrixSeries` is a validated ``(T, n, n)`` time series of
them, with node names, the marginals used throughout the paper as time
series (ingress ``X_{i*}``, egress ``X_{*j}``, total ``X_{**}``), slicing and
an ``.npz`` writer.  The numerical machinery in the rest of the package
operates on the underlying array.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from repro._validation import as_series_array, node_names, require_nonnegative
from repro.errors import ValidationError

__all__ = ["TrafficMatrixSeries"]


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

    def __getitem__(self, index):
        """A slice gives a series sharing this buffer; an int the ``(n, n)`` view."""
        if isinstance(index, slice):
            return TrafficMatrixSeries(
                self._values[index], self._nodes, bin_seconds=self._bin_seconds
            )
        return self.values[int(index)]

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

    # -- reshaping ---------------------------------------------------------

    def to_vectors(self) -> np.ndarray:
        """Flatten each timestep to a row vector; result has shape ``(T, n*n)``.

        Like :attr:`values`, the result is a read-only view.
        """
        t, n, _ = self._values.shape
        return self.values.reshape(t, n * n)

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the series to an ``.npz`` file plus embedded metadata.

        The file holds ``values`` and a JSON ``metadata`` string (``nodes``,
        ``bin_seconds``); read it back with :func:`numpy.load`.
        """
        path = Path(path)
        metadata = json.dumps({"nodes": list(self._nodes), "bin_seconds": self._bin_seconds})
        np.savez_compressed(path, values=self._values, metadata=np.array(metadata))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrafficMatrixSeries(T={self.n_timesteps}, n_nodes={self.n_nodes}, "
            f"bin_seconds={self._bin_seconds:g})"
        )
