"""The chunked dataset protocol: bounded-memory traffic-matrix streams.

The paper's method is defined per 15-minute bin over multi-week series, but
until this module every consumer materialised whole ``(T, n, n)`` cubes.  A
:class:`ChunkStream` instead yields ``(t0, block)`` pairs where ``block`` is
the ``(T_chunk, n, n)`` traffic of bins ``[t0, t0 + T_chunk)``, together with
the metadata (``n_bins``, ``n_nodes``, node names, bin width) consumers need
up front.  Streams are **re-iterable**: every call to :meth:`ChunkStream.chunks`
starts a fresh pass, so multi-pass algorithms (ALS fitting, prior + estimate
passes) work without ever holding more than one chunk of ``n^2``-sized data.

Two concrete streams cover the common cases:

* :class:`ArrayChunkStream` adapts an in-memory array or
  :class:`~repro.core.traffic_matrix.TrafficMatrixSeries` (chunks are views,
  nothing is copied), and
* :class:`FunctionChunkStream` wraps a factory of chunk iterators (used by
  the synthesis layer, where chunks are generated on the fly from
  deterministic per-chunk RNG state).

:func:`as_chunk_stream` is the one shared adapter through which every
consumer — fitting, metrics, estimators, the scenario runner — accepts either
a cube or a stream.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ShapeError, ValidationError

__all__ = [
    "ChunkStream",
    "ArrayChunkStream",
    "FunctionChunkStream",
    "CachedChunkStream",
    "as_chunk_stream",
    "cache_chunks",
    "default_chunk_bins",
    "zip_chunks",
]

# Default working-set budget for one chunk of (T_chunk, n, n) traffic.  At
# Geant scale (n=22) this is ~540 bins per chunk; at n=100 it is ~26 bins.
_DEFAULT_CHUNK_BYTES = 2 * 1024 * 1024


def default_chunk_bins(n_nodes: int, *, budget_bytes: int = _DEFAULT_CHUNK_BYTES) -> int:
    """Chunk length (in bins) whose ``(chunk, n, n)`` block fits the budget."""
    if n_nodes < 1:
        raise ValidationError("n_nodes must be >= 1")
    per_bin = max(int(n_nodes) * int(n_nodes) * 8, 1)
    return max(int(budget_bytes) // per_bin, 1)


class ChunkStream:
    """Base class of the chunked dataset protocol.

    Attributes
    ----------
    n_bins, n_nodes:
        Total number of time bins and network size, known before iteration.
    nodes:
        Node names shared by every chunk.
    bin_seconds:
        Bin width shared by every chunk.
    chunk_bins:
        Nominal chunk length; the final chunk of a pass may be shorter.
    """

    def __init__(
        self,
        *,
        n_bins: int,
        nodes: Sequence[str],
        bin_seconds: float,
        chunk_bins: int | None = None,
    ):
        if n_bins < 1:
            raise ValidationError("a chunk stream needs at least one bin")
        if bin_seconds <= 0:
            raise ValidationError("bin_seconds must be positive")
        self._n_bins = int(n_bins)
        self._nodes = tuple(str(node) for node in nodes)
        self._bin_seconds = float(bin_seconds)
        chunk = default_chunk_bins(len(self._nodes)) if chunk_bins is None else int(chunk_bins)
        if chunk < 1:
            raise ValidationError("chunk_bins must be >= 1")
        self._chunk_bins = min(chunk, self._n_bins)

    @property
    def n_bins(self) -> int:
        return self._n_bins

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def bin_seconds(self) -> float:
        return self._bin_seconds

    @property
    def chunk_bins(self) -> int:
        return self._chunk_bins

    def chunk_bounds(self) -> Iterator[tuple[int, int]]:
        """The ``(start, stop)`` bin ranges a pass will yield, in order."""
        for start in range(0, self._n_bins, self._chunk_bins):
            yield start, min(start + self._chunk_bins, self._n_bins)

    def chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(t0, (T_chunk, n, n))`` blocks covering ``[0, n_bins)``."""
        raise NotImplementedError

    # -- derived conveniences ------------------------------------------------

    def materialize(self) -> TrafficMatrixSeries:
        """Assemble the whole stream into an in-memory series (O(T) memory)."""
        values = np.empty((self._n_bins, self.n_nodes, self.n_nodes))
        for t0, block in self.chunks():
            values[t0 : t0 + block.shape[0]] = block
        return TrafficMatrixSeries(values, self._nodes, bin_seconds=self._bin_seconds)

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """One-pass ``(ingress, egress)`` series, each of shape ``(T, n)``."""
        n = self.n_nodes
        ingress = np.empty((self._n_bins, n))
        egress = np.empty((self._n_bins, n))
        for t0, block in self.chunks():
            stop = t0 + block.shape[0]
            ingress[t0:stop] = block.sum(axis=2)
            egress[t0:stop] = block.sum(axis=1)
        return ingress, egress


class ArrayChunkStream(ChunkStream):
    """Adapter exposing an in-memory cube through the chunk protocol.

    Chunks are views into the underlying array — adapting a cube costs no
    copies, which is what lets batch and streaming code share one code path.
    """

    def __init__(
        self,
        values,
        nodes: Sequence[str] | None = None,
        *,
        bin_seconds: float = 300.0,
        chunk_bins: int | None = None,
    ):
        if isinstance(values, TrafficMatrixSeries):
            nodes = values.nodes if nodes is None else nodes
            bin_seconds = values.bin_seconds
            values = values.values
        array = np.asarray(values, dtype=float)
        if array.ndim != 3 or array.shape[1] != array.shape[2]:
            raise ShapeError(f"chunk stream values must have shape (T, n, n), got {array.shape}")
        if nodes is None:
            nodes = tuple(f"node{i:02d}" for i in range(array.shape[1]))
        if len(tuple(nodes)) != array.shape[1]:
            raise ShapeError("nodes must match the array dimension")
        super().__init__(
            n_bins=array.shape[0], nodes=nodes, bin_seconds=bin_seconds, chunk_bins=chunk_bins
        )
        self._values = array

    def chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        for start, stop in self.chunk_bounds():
            yield start, self._values[start:stop]


class FunctionChunkStream(ChunkStream):
    """A re-iterable stream backed by a factory of chunk iterators.

    ``factory`` is called once per pass with the resolved ``chunk_bins`` and
    must return an iterator of ``(t0, block)`` pairs covering ``[0, n_bins)``
    in order.  The synthesis layer uses this to regenerate chunks from
    deterministic RNG state on every pass.
    """

    def __init__(
        self,
        factory: Callable[[int], Iterable[tuple[int, np.ndarray]]],
        *,
        n_bins: int,
        nodes: Sequence[str],
        bin_seconds: float,
        chunk_bins: int | None = None,
    ):
        super().__init__(
            n_bins=n_bins, nodes=nodes, bin_seconds=bin_seconds, chunk_bins=chunk_bins
        )
        self._factory = factory

    def chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        covered = 0
        for t0, block in self._factory(self._chunk_bins):
            if t0 != covered:
                raise ValidationError(
                    f"chunk stream skipped bins: expected chunk at t0={covered}, got t0={t0}"
                )
            covered += block.shape[0]
            yield t0, block
        if covered != self._n_bins:
            raise ValidationError(
                f"chunk stream ended early: covered {covered} of {self._n_bins} bins"
            )


class CachedChunkStream(ChunkStream):
    """A budget-bounded replay cache in front of a generative stream.

    Multi-pass consumers (the streaming ALS fit makes one pass per
    iteration) otherwise regenerate every chunk on every pass.  This wrapper
    stores the blocks of the first pass — verbatim, so replayed passes are
    bit-identical — until ``budget_bytes`` is reached; blocks beyond the
    budget are regenerated from the inner stream on every pass.  Peak memory
    is therefore bounded by ``budget_bytes`` plus one chunk, never by the
    series length.

    Wrapping an :class:`ArrayChunkStream` is a no-op at the
    :func:`cache_chunks` level (its chunks are already free views); wrapping
    copies nothing eagerly — the cache fills as the first pass progresses.

    Passes may be interleaved: a second iterator started while the first is
    mid-pass serves whatever prefix is cached and regenerates the rest from
    the inner stream without ever appending to the cache itself (only one
    in-flight pass fills), so concurrent multi-pass readers see complete,
    duplicate-free, bit-identical sequences.
    """

    def __init__(self, inner: ChunkStream, *, budget_bytes: int):
        if budget_bytes < 0:
            raise ValidationError("budget_bytes must be non-negative")
        super().__init__(
            n_bins=inner.n_bins,
            nodes=inner.nodes,
            bin_seconds=inner.bin_seconds,
            chunk_bins=inner.chunk_bins,
        )
        self._inner = inner
        self._budget = int(budget_bytes)
        self._cached: list[tuple[int, np.ndarray]] = []
        self._cached_bytes = 0
        self._cached_bins = 0
        self._full = self._budget == 0
        self._filling = False

    @property
    def cached_bins(self) -> int:
        """Number of leading bins currently held by the cache."""
        return self._cached_bins

    def chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        # ``served`` tracks what THIS pass has yielded; concurrent passes may
        # grow the shared cache underneath us, and a pass must never use the
        # global high-water mark to decide what it may skip.
        served = 0
        for t0, block in self._cached:
            served = t0 + block.shape[0]
            yield t0, block
        if served >= self._n_bins:
            return
        # Only one in-flight pass extends the cache: a concurrent second
        # reader regenerating the same chunks must not append duplicates.
        fill = not self._filling
        if fill:
            self._filling = True
        try:
            for t0, block in self._inner.chunks():
                if t0 + block.shape[0] <= served:
                    continue  # already served from the cache by this pass
                if fill and not self._full and t0 >= self._cached_bins:
                    if (
                        t0 == self._cached_bins
                        and self._cached_bytes + block.nbytes <= self._budget
                    ):
                        self._cached.append((t0, block))
                        self._cached_bytes += block.nbytes
                        self._cached_bins = t0 + block.shape[0]
                    else:
                        self._full = True
                served = t0 + block.shape[0]
                yield t0, block
        finally:
            if fill:
                self._filling = False


def cache_chunks(source, *, budget_bytes: int | None) -> ChunkStream:
    """Wrap ``source`` in a :class:`CachedChunkStream` when it would help.

    ``budget_bytes=None`` (or 0) disables caching; array-backed streams are
    returned untouched because their chunks are already zero-cost views.
    """
    stream = as_chunk_stream(source)
    if not budget_bytes or isinstance(stream, (ArrayChunkStream, CachedChunkStream)):
        return stream
    return CachedChunkStream(stream, budget_bytes=budget_bytes)


def as_chunk_stream(
    source,
    *,
    chunk_bins: int | None = None,
    bin_seconds: float | None = None,
) -> ChunkStream:
    """The shared adapter: coerce ``source`` into a :class:`ChunkStream`.

    Accepts an existing stream (re-wrapped only if ``chunk_bins`` differs and
    the stream is an array adapter), a :class:`TrafficMatrixSeries`, or a
    ``(T, n, n)`` array.  This is the single entry point through which every
    consumer of traffic accepts either a cube or a stream.
    """
    if isinstance(source, ChunkStream):
        if chunk_bins is not None and chunk_bins != source.chunk_bins:
            if isinstance(source, ArrayChunkStream):
                return ArrayChunkStream(
                    source._values,
                    source.nodes,
                    bin_seconds=source.bin_seconds,
                    chunk_bins=chunk_bins,
                )
            raise ValidationError(
                "cannot re-chunk a generative stream; pass chunk_bins where it is created"
            )
        return source
    if isinstance(source, TrafficMatrixSeries):
        return ArrayChunkStream(source, chunk_bins=chunk_bins)
    return ArrayChunkStream(
        source,
        bin_seconds=300.0 if bin_seconds is None else bin_seconds,
        chunk_bins=chunk_bins,
    )


def _stream_label(streams, index: int) -> str:
    return f"stream #{index} ({type(streams[index]).__name__})"


def zip_chunks(*streams: ChunkStream) -> Iterator[tuple[int, tuple[np.ndarray, ...]]]:
    """Iterate several equal-length streams in lock step.

    All streams must agree on ``n_bins`` and on chunk boundaries (wrap array
    sources with the same ``chunk_bins``); yields ``(t0, (block, ...))``.
    Disagreements raise :class:`ValidationError` (a ``ValueError``) naming
    the offending streams — including a stream whose iterator ends before
    the others, which a plain ``zip`` would silently truncate to.
    """
    import itertools

    if not streams:
        raise ValidationError("zip_chunks needs at least one stream")
    lengths = {stream.n_bins for stream in streams}
    if len(lengths) != 1:
        raise ValidationError(f"streams disagree on n_bins: {sorted(lengths)}")
    iterators = [stream.chunks() for stream in streams]
    exhausted = object()
    for parts in itertools.zip_longest(*iterators, fillvalue=exhausted):
        done = [i for i, part in enumerate(parts) if part is exhausted]
        if done:
            alive = [i for i in range(len(parts)) if i not in done]
            raise ValidationError(
                "streams ended at different chunk counts: "
                + ", ".join(_stream_label(streams, i) for i in done)
                + " exhausted while "
                + ", ".join(_stream_label(streams, i) for i in alive)
                + " still yields chunks; refusing to truncate the longer stream(s)"
            )
        t0 = parts[0][0]
        size = parts[0][1].shape[0]
        for index, (other_t0, block) in enumerate(parts[1:], start=1):
            if other_t0 != t0 or block.shape[0] != size:
                raise ValidationError(
                    f"streams disagree on chunk boundaries: {_stream_label(streams, 0)} "
                    f"yields bins [{t0}, {t0 + size}) but {_stream_label(streams, index)} "
                    f"yields [{other_t0}, {other_t0 + block.shape[0]}); create them "
                    "with the same chunk_bins"
                )
        yield t0, tuple(block for _, block in parts)
