"""Out-of-core scenario results: ``.npz`` shard spilling and lazy loading.

Month-scale streamed runs keep only ``O(T)`` per-bin series in memory — but
"only O(T)" stops being small once sweeps stack many cells of many-week
series, and the ``(T, n, n)`` estimate cube cannot be materialised at all.
This module gives the scenario runner an out-of-core results plane:

* :class:`SpillStore` manages one run directory and writes any per-bin
  series (error vectors, estimate cubes) as ``.npz`` shards of a bounded
  number of bins each, either from a complete array or chunk by chunk
  through a :class:`ShardWriter` sink;
* :class:`SpilledSeries` is the lazy handle stored on
  :class:`~repro.scenarios.runner.ScenarioResult` — it knows its shape and
  shard paths up front, answers integer/slice indexing and
  :meth:`~SpilledSeries.iter_blocks` by reading only the shards the request
  overlaps, loads (and caches) the concatenated array only when a consumer
  asks for everything, and pickles as paths, so sweep workers hand results
  to the parent without shipping the data;
* :func:`discover_spilled_series` rebuilds the lazy handles from a bare
  shard directory — shapes come from the ``.npy`` headers inside each
  archive member, so discovery never decompresses a shard.

Shards are plain ``numpy.savez_compressed`` files named
``<series>-<start>.npz`` with a single ``values`` array, so they are usable
with nothing but numpy.
"""

from __future__ import annotations

import re
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.errors import ValidationError
from repro.obs import get_metrics

__all__ = [
    "SpilledSeries",
    "ShardWriter",
    "SpillStore",
    "SPILL_AUTO_MIN_BINS",
    "discover_spilled_series",
]

_SHARD_NAME = re.compile(r"^(?P<name>.+)-(?P<start>\d{8})\.npz$")


def _shard_shape(path) -> tuple:
    """Shape of a shard's ``values`` array, read from the ``.npy`` header.

    ``savez_compressed`` archives are zip files of ``.npy`` members; the
    member header carries the shape, so sizing a shard costs a few hundred
    bytes of I/O instead of a decompression.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            with archive.open("values.npy") as member:
                version = np.lib.format.read_magic(member)
                if version == (1, 0):
                    shape, _, _ = np.lib.format.read_array_header_1_0(member)
                elif version == (2, 0):
                    shape, _, _ = np.lib.format.read_array_header_2_0(member)
                else:  # pragma: no cover - future numpy header revisions
                    raise KeyError(version)
        return shape
    except (KeyError, ValueError, OSError, zipfile.BadZipFile):
        # Unrecognised layout: fall back to actually loading the shard.
        return _read_values(path).shape


def _read_values(path) -> np.ndarray:
    """A shard's ``values`` array; a torn or corrupt shard raises naming its path."""
    try:
        # np.load leaves its own handle open when NpzFile rejects the file.
        with open(path, "rb") as handle, np.load(handle) as payload:
            return payload["values"]
    except (zipfile.BadZipFile, zlib.error, ValueError, KeyError, EOFError) as exc:
        raise ValidationError(f"cannot read spill shard {path}: {exc}") from exc

# A streamed run whose per-bin series reach this many bins spills them to
# disk automatically (an explicit spill directory always spills).
SPILL_AUTO_MIN_BINS = 4096


class SpilledSeries:
    """A lazy, picklable handle over a series spilled to ``.npz`` shards.

    Behaves like an array where it matters (``shape``, ``len``,
    ``np.asarray`` / any numpy reduction via ``__array__``, indexing) while
    costing no memory until the values are first consumed.  Integer and
    slice access along the bin axis read only the shards they overlap (one
    decompressed shard is kept as a cursor for repeated nearby access), and
    :meth:`iter_blocks` walks the series one shard at a time — the marts
    layer reduces month-scale archives through it in bounded memory.  A
    full :meth:`load` caches the concatenated array on the instance but is
    excluded from pickling.
    """

    def __init__(self, paths: list, shape: tuple, starts: list | None = None):
        self._paths = [Path(path) for path in paths]
        self._shape = tuple(int(axis) for axis in shape)
        self._loaded: np.ndarray | None = None
        self._starts = None if starts is None else [int(start) for start in starts]
        self._shard_cursor: tuple[int, np.ndarray] | None = None

    @property
    def paths(self) -> tuple:
        """The shard files backing this series, in bin order."""
        return tuple(self._paths)

    @property
    def shape(self) -> tuple:
        return self._shape

    def __len__(self) -> int:
        return self._shape[0]

    # -- shard geometry ------------------------------------------------------

    def _shard_starts(self) -> list:
        """Start bin of each shard (series-relative), derived lazily.

        Shard names embed their absolute start bin; when the handle was not
        built by a :class:`ShardWriter` (discovery, unpickling) the starts
        are recovered from the filenames, falling back to header reads for
        foreign names.
        """
        if self._starts is None:
            starts = []
            for path in self._paths:
                match = _SHARD_NAME.match(path.name)
                if match is None:
                    starts = None
                    break
                starts.append(int(match.group("start")))
            if starts is None:
                lengths = [int(_shard_shape(path)[0]) for path in self._paths]
                starts = [0]
                for length in lengths[:-1]:
                    starts.append(starts[-1] + length)
            else:
                base = starts[0]
                starts = [start - base for start in starts]
            if sorted(starts) != starts or len(set(starts)) != len(starts):
                raise ValidationError(
                    f"spilled shards are not in bin order: {self._paths}"
                )
            self._starts = starts
        return self._starts

    def _shard_index(self, bin_index: int) -> int:
        """Index of the shard containing the (series-relative) bin."""
        starts = self._shard_starts()
        position = int(np.searchsorted(starts, bin_index, side="right")) - 1
        return max(position, 0)

    def _load_shard(self, index: int) -> np.ndarray:
        """Decompress one shard, keeping a single-shard cursor cache."""
        if self._loaded is not None:
            starts = self._shard_starts()
            stop = starts[index + 1] if index + 1 < len(starts) else self._shape[0]
            return self._loaded[starts[index] : stop]
        if self._shard_cursor is not None and self._shard_cursor[0] == index:
            return self._shard_cursor[1]
        values = _read_values(self._paths[index])
        self._shard_cursor = (index, values)
        return values

    def iter_blocks(self, start: int = 0, stop: int | None = None):
        """Yield ``(t0, block)`` pairs covering ``[start, stop)`` shard by shard.

        Only shards overlapping the window are read, one at a time; blocks
        at the window edges are trimmed.  This is the streaming access path
        of :mod:`repro.marts` — peak memory is one decompressed shard.
        """
        n_bins = self._shape[0]
        start, stop, _ = slice(start, stop).indices(n_bins)
        if stop <= start:
            return
        starts = self._shard_starts()
        first = self._shard_index(start)
        for index in range(first, len(self._paths)):
            shard_start = starts[index]
            if shard_start >= stop:
                break
            values = self._load_shard(index)
            lo = max(start - shard_start, 0)
            hi = min(stop - shard_start, values.shape[0])
            if hi <= lo:
                continue
            yield shard_start + lo, values[lo:hi]

    def _read_range(self, start: int, stop: int) -> np.ndarray:
        """Materialise the ``[start, stop)`` window from overlapping shards."""
        parts = [block for _, block in self.iter_blocks(start, stop)]
        if not parts:
            return np.empty((0, *self._shape[1:]))
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=0)

    def load(self) -> np.ndarray:
        """Read and concatenate the shards (cached after the first call)."""
        if self._loaded is None:
            parts = [_read_values(path) for path in self._paths]
            values = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
            if values.shape != self._shape:
                raise ValidationError(
                    f"spilled shards reassemble to shape {values.shape}, "
                    f"expected {self._shape}; was the spill directory modified?"
                )
            self._loaded = values
        return self._loaded

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        values = self.load()
        if dtype is not None and values.dtype != dtype:
            return values.astype(dtype)
        return values

    def __getitem__(self, item):
        """Index the series, reading only the shards the request overlaps.

        Integer and slice access along the bin axis (alone or as the leading
        element of a tuple) stay shard-local; anything fancier (boolean or
        integer-array indexing) falls back to a full :meth:`load`.
        """
        if self._loaded is not None:
            return self._loaded[item]
        if isinstance(item, tuple):
            if not item:
                return self.load()[item]
            lead, rest = item[0], item[1:]
            if isinstance(lead, (int, np.integer)):
                return self[lead][rest] if rest else self[lead]
            if isinstance(lead, slice):
                block = self[lead]
                return block[(slice(None), *rest)] if rest else block
            return self.load()[item]
        if isinstance(item, (int, np.integer)):
            index = int(item)
            n_bins = self._shape[0]
            if index < 0:
                index += n_bins
            if not 0 <= index < n_bins:
                raise IndexError(
                    f"bin {int(item)} out of range for {n_bins}-bin spilled series"
                )
            shard = self._shard_index(index)
            return self._load_shard(shard)[index - self._shard_starts()[shard]]
        if isinstance(item, slice):
            start, stop, step = item.indices(self._shape[0])
            indices = range(start, stop, step)
            if len(indices) == 0:
                return np.empty((0, *self._shape[1:]))
            if step == 1:
                return self._read_range(start, stop)
            low, high = min(indices), max(indices) + 1
            window = self._read_range(low, high)
            adjusted_stop: int | None = stop - low
            if step < 0 and adjusted_stop < 0:
                adjusted_stop = None
            return window[start - low : adjusted_stop : step]
        return self.load()[item]

    def __getstate__(self):
        return {"paths": [str(path) for path in self._paths], "shape": self._shape}

    def __setstate__(self, state):
        self.__init__(state["paths"], state["shape"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpilledSeries(shape={self._shape}, shards={len(self._paths)})"


class ShardWriter:
    """Chunk sink that persists ``(t0, block)`` pairs as bounded shards.

    Blocks are buffered until ``shard_bins`` bins accumulate, then flushed as
    one ``.npz`` shard; peak memory is one shard, never the series.  Chunks
    must arrive in bin order (which is how every streaming stage produces
    them).  Call :meth:`finish` to flush the tail and obtain the
    :class:`SpilledSeries` handle.

    ``start_bin`` shifts the expected first chunk (and the shard file names)
    to an absolute bin offset — a resumed :mod:`repro.ingest` service
    appends new shards after the ones a previous run left behind, and
    :func:`discover_spilled_series` reassembles the contiguous whole.
    :meth:`flush` persists the buffered tail early (as a short shard)
    without closing the writer, so long-running sinks can bound data loss
    at their checkpoint cadence.
    """

    def __init__(self, directory: Path, name: str, *, shard_bins: int, start_bin: int = 0):
        if shard_bins < 1:
            raise ValidationError("shard_bins must be >= 1")
        if start_bin < 0:
            raise ValidationError("start_bin must be >= 0")
        self._directory = Path(directory)
        self._name = str(name)
        self._shard_bins = int(shard_bins)
        self._buffer: list[np.ndarray] = []
        self._buffered = 0
        self._start = int(start_bin)
        self._written = int(start_bin)
        self._paths: list[Path] = []
        self._starts: list[int] = []
        self._item_shape: tuple | None = None

    def __call__(self, t0: int, block: np.ndarray) -> None:
        block = np.asarray(block)
        if t0 != self._written + self._buffered:
            raise ValidationError(
                f"spill writer for {self._name!r} expected a chunk at bin "
                f"{self._written + self._buffered}, got {t0}"
            )
        if self._item_shape is None:
            self._item_shape = block.shape[1:]
        self._buffer.append(block)
        self._buffered += block.shape[0]
        while self._buffered >= self._shard_bins:
            self._flush(self._shard_bins)

    def _flush(self, n_bins: int) -> None:
        stacked = np.concatenate(self._buffer, axis=0) if len(self._buffer) > 1 else self._buffer[0]
        shard, rest = stacked[:n_bins], stacked[n_bins:]
        path = self._directory / f"{self._name}-{self._written:08d}.npz"
        np.savez_compressed(path, values=shard)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("repro_spill_bytes_total").inc(path.stat().st_size)
            metrics.counter("repro_spill_shards_total").inc()
        self._paths.append(path)
        self._starts.append(self._written - self._start)
        self._written += shard.shape[0]
        self._buffer = [rest] if rest.shape[0] else []
        self._buffered = rest.shape[0]

    def flush(self) -> None:
        """Persist the buffered tail now, as a (possibly short) shard."""
        if self._buffered:
            self._flush(self._buffered)

    def finish(self) -> SpilledSeries:
        """Flush any buffered tail and return the lazy series handle."""
        self.flush()
        if self._written == self._start:
            raise ValidationError(f"spill writer for {self._name!r} received no chunks")
        return SpilledSeries(
            self._paths,
            (self._written - self._start, *(self._item_shape or ())),
            starts=self._starts,
        )


class SpillStore:
    """One run directory of spilled series shards.

    Parameters
    ----------
    directory:
        Where the shards live; created (including parents) if missing.
    shard_bins:
        Bins per shard for both :meth:`add_series` and :meth:`writer`.
    """

    def __init__(self, directory, *, shard_bins: int = 2048):
        if shard_bins < 1:
            raise ValidationError("shard_bins must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._shard_bins = int(shard_bins)

    def writer(self, name: str, *, start_bin: int = 0) -> ShardWriter:
        """A chunk sink persisting the named series shard by shard."""
        return ShardWriter(
            self.directory, name, shard_bins=self._shard_bins, start_bin=start_bin
        )

    def add_series(self, name: str, values) -> SpilledSeries:
        """Spill a complete array and return its lazy handle."""
        values = np.asarray(values)
        if values.ndim < 1 or values.shape[0] < 1:
            raise ValidationError("spilled series need at least one bin")
        writer = self.writer(name)
        for start in range(0, values.shape[0], self._shard_bins):
            writer(start, values[start : start + self._shard_bins])
        return writer.finish()


def discover_spilled_series(directory) -> dict:
    """Rebuild ``{name: SpilledSeries}`` from a bare shard directory.

    Finds every ``<name>-<start>.npz`` shard, groups by series name, sizes
    each shard from its ``.npy`` header (no decompression) and validates
    that the shards tile the bin axis contiguously — a gap (e.g. a sidecar
    writer that was killed before flushing) raises, so callers can fall
    back to a slower source of truth instead of reporting over holes.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ValidationError(f"spill directory {directory} does not exist")
    grouped: dict[str, list] = {}
    for path in sorted(directory.iterdir()):
        match = _SHARD_NAME.match(path.name)
        if match is None or not path.is_file():
            continue
        grouped.setdefault(match.group("name"), []).append(
            (int(match.group("start")), path)
        )
    series: dict[str, SpilledSeries] = {}
    for name, shards in grouped.items():
        shards.sort()
        paths = [path for _, path in shards]
        shapes = [_shard_shape(path) for path in paths]
        item_shape = shapes[0][1:]
        if any(shape[1:] != item_shape for shape in shapes):
            raise ValidationError(
                f"spilled series {name!r} mixes item shapes: {shapes}"
            )
        base = shards[0][0]
        starts, expected = [], base
        for (start, path), shape in zip(shards, shapes):
            if start != expected:
                raise ValidationError(
                    f"spilled series {name!r} has a gap: expected a shard at "
                    f"bin {expected}, found {path.name}"
                )
            starts.append(start - base)
            expected = start + shape[0]
        series[name] = SpilledSeries(
            paths, (expected - base, *item_shape), starts=starts
        )
    return series
