"""Archive readers: uniform ``(t0, block)`` access over spilled results.

Two on-disk layouts feed the marts:

* a **sweep archive** — the ``--spill-dir`` of a streamed sweep: one
  subdirectory of ``.npz`` shards per cell (named after the scenario
  label), or a flat directory of shards for a single run, optionally with
  the ``manifest.jsonl`` / per-cell mart partials an
  :class:`~repro.marts.sink.ArchiveResultSink` leaves behind;
* a **serve archive** — a ``repro serve`` sink directory: the
  ``estimate-*.npz`` sidecar shards if the service wrote them, falling
  back to re-parsing ``estimates.jsonl`` chunk by chunk (slower, but the
  JSONL is the source of truth and survives an unflushed sidecar).

Both expose cells as :class:`ArchiveCell` — named series iterated shard by
shard — so the report layer never materialises a series.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import ValidationError
from repro.scenarios.spill import SpilledSeries, discover_spilled_series

__all__ = ["ArchiveCell", "SweepArchive", "ServeArchive", "open_archive"]

_SERVE_JSONL = "estimates.jsonl"


class ArchiveCell:
    """One reducible unit of an archive: a labelled set of series."""

    def __init__(self, label: str, series: dict, metadata: dict | None = None):
        self.label = str(label)
        self._series = dict(series)
        self.metadata = dict(metadata or {})

    @property
    def series_names(self) -> tuple:
        return tuple(sorted(self._series))

    def series(self, name: str):
        if name not in self._series:
            raise ValidationError(
                f"cell {self.label!r} has no series {name!r} "
                f"(available: {', '.join(self.series_names) or 'none'})"
            )
        return self._series[name]

    def has_series(self, name: str) -> bool:
        return name in self._series

    def iter_blocks(self, name: str, start: int = 0, stop: int | None = None):
        """Yield ``(t0, block)`` pairs of the named series over the window."""
        series = self.series(name)
        if isinstance(series, SpilledSeries):
            yield from series.iter_blocks(start, stop)
            return
        yield from series(start, stop)

    def n_bins(self, name: str) -> int | None:
        series = self._series.get(name)
        if isinstance(series, SpilledSeries):
            return series.shape[0]
        return None


class SweepArchive:
    """A streamed sweep's ``--spill-dir``: one cell per subdirectory."""

    kind = "sweep"

    def __init__(self, directory):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise ValidationError(f"sweep archive {self.directory} does not exist")
        manifest = self._read_manifest()
        cells = []
        root_series = discover_spilled_series(self.directory)
        if root_series:
            cells.append(
                ArchiveCell(self.directory.name, root_series, manifest.get(self.directory.name))
            )
        for child in sorted(self.directory.iterdir()):
            if not child.is_dir():
                continue
            series = discover_spilled_series(child)
            if series:
                cells.append(ArchiveCell(child.name, series, manifest.get(child.name)))
        if not cells:
            raise ValidationError(
                f"no spilled series found under {self.directory} — is this a "
                "sweep --spill-dir archive?"
            )
        self.cells = cells

    def _read_manifest(self) -> dict:
        path = self.directory / "manifest.jsonl"
        if not path.is_file():
            return {}
        entries = {}
        with path.open() as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    label = entry.get("label", "").replace("/", "-").replace(" ", "_")
                except (ValueError, AttributeError) as exc:
                    raise ValidationError(
                        f"{path}:{number}: not a manifest entry ({exc})"
                    ) from exc
                entries[label] = entry
        return entries


class ServeArchive:
    """A ``repro serve`` sink directory (or bare ``estimates.jsonl``)."""

    kind = "serve"

    def __init__(self, path):
        path = Path(path)
        if path.is_file():
            directory, jsonl = path.parent, path
        else:
            directory, jsonl = path, path / _SERVE_JSONL
        self.directory = directory
        self._jsonl = jsonl if jsonl.is_file() else None
        self._sidecar = self._discover_sidecar()
        if self._sidecar is None and self._jsonl is None:
            raise ValidationError(
                f"{path} holds neither estimate shards nor {_SERVE_JSONL}"
            )
        series: dict = {}
        if self._sidecar is not None:
            series["estimate"] = self._sidecar
        else:
            series["estimate"] = self._iter_jsonl_blocks
        self.cells = [ArchiveCell(self.directory.name or "serve", series)]

    @property
    def used_sidecar(self) -> bool:
        return self._sidecar is not None

    def _discover_sidecar(self) -> SpilledSeries | None:
        """The ``estimate-*.npz`` sidecar series, if complete and coherent.

        Shards are looked for in the sink directory itself and in its
        conventional ``shards/`` subdirectory (where ``repro serve
        --estimate-shards <sink>/shards`` puts them).  A killed service may
        leave the sidecar short of the JSONL (the tail was never flushed)
        or gappy; any such incoherence falls back to the JSONL source of
        truth.
        """
        series = None
        for candidate in (self.directory, self.directory / "shards"):
            if not candidate.is_dir():
                continue
            try:
                series = discover_spilled_series(candidate).get("estimate")
            except ValidationError:
                continue
            if series is not None:
                break
        if series is None:
            return None
        if self._jsonl is not None:
            with self._jsonl.open() as handle:
                published = sum(1 for line in handle if line.strip())
            if series.shape[0] != published:
                return None
        return series

    def _iter_jsonl_blocks(self, start: int = 0, stop: int | None = None, chunk_bins: int = 64):
        """Re-parse the JSONL sink into ``(t0, block)`` chunks."""
        buffer: list = []
        buffer_start: int | None = None
        expected: int | None = None
        with self._jsonl.open() as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    bin_index = int(record["bin"])
                    estimate = record["estimate"]
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValidationError(
                        f"{self._jsonl}:{number}: not an estimate record ({exc})"
                    ) from exc
                if expected is not None and bin_index != expected:
                    raise ValidationError(
                        f"{self._jsonl} is not bin-contiguous: expected bin "
                        f"{expected}, found {bin_index}"
                    )
                expected = bin_index + 1
                if bin_index < start or (stop is not None and bin_index >= stop):
                    continue
                if buffer_start is None:
                    buffer_start = bin_index
                buffer.append(estimate)
                if len(buffer) >= chunk_bins:
                    yield buffer_start, np.asarray(buffer, dtype=float)
                    buffer, buffer_start = [], None
        if buffer:
            yield buffer_start, np.asarray(buffer, dtype=float)


def open_archive(path):
    """Auto-detect the archive flavour at ``path``.

    A directory holding ``estimates.jsonl`` or ``estimate-*.npz`` shards
    (and no cell subdirectories) is a serve sink; a ``.jsonl`` file is a
    bare serve sink; anything else is treated as a sweep spill directory.
    """
    path = Path(path)
    if path.is_file():
        return ServeArchive(path)
    if not path.is_dir():
        raise ValidationError(f"archive path {path} does not exist")
    if (path / _SERVE_JSONL).is_file():
        return ServeArchive(path)
    return SweepArchive(path)
