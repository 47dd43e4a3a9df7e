"""Columnar flow-record batches and the flow-file formats they replay from.

Every :class:`~repro.ingest.sources.FlowSource` hands the binner
:class:`RecordBatch` objects — four parallel numpy columns (timestamp,
source node index, destination node index, byte volume) — and the binner
reduces each batch with vectorised ``bincount`` scatters.  Node names are
resolved to indices once, as a file is parsed, against the topology's node
ordering.

Two on-disk formats are supported for replay, chosen by file suffix:

* ``.csv`` — a ``time,src,dst,bytes`` header followed by one record per
  line (the bundled ``examples/sample_flows.csv`` trace uses this);
* ``.jsonl`` — one JSON object per line with the same four keys.

Both are plain text so traces can be produced by anything from a netflow
exporter shim to a five-line script.

:func:`read_flow_file` reads a file as bytes in blocks of whole lines.  A
CSV block of plain records — no comment, padding or lone ``\\r``, four
fields a line, ``\\n`` or ``\\r\\n`` line ends, known nodes, finite
non-negative numbers — takes the fast path: the whole block is split at
once and each column converted with one ``np.fromiter``.  Any other
block, and every JSONL block, is parsed one line at a time under the same
rules, which reject a bad record with ``path:line``.  Both paths give the
same columns bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ValidationError

__all__ = ["RecordBatch", "read_flow_file", "write_flow_csv", "write_flow_jsonl"]

CSV_HEADER = "time,src,dst,bytes"
_CSV_HEADER_LINES = ((CSV_HEADER + "\n").encode(), (CSV_HEADER + "\r\n").encode())

# Bytes per read of a flow file.  On the serve-replay benchmark, 1 MiB
# blocks raised peak RSS from 87 to 99 MiB and p98 bin latency from 38 to
# 58 ms against 128 KiB (2-CPU container, one BLAS thread).
_BLOCK_BYTES = 128 * 1024
# Deleting every other byte from a block leaves ``,,,\n`` per plain record
# line; a comment, padding, a lone ``\r`` or a wrong field count breaks the
# pattern.
_NOT_LAYOUT = bytes(b for b in range(256) if b not in b",\n# \t\r")


@dataclass(frozen=True)
class RecordBatch:
    """One batch of flow records in columnar form.

    Attributes
    ----------
    timestamps:
        Record times in seconds from the stream origin, shape ``(k,)``.
        Batches need not be sorted — the binner's watermark handles
        out-of-order arrival.
    src, dst:
        Source/destination node indices into the topology's node ordering,
        shape ``(k,)``.
    volumes:
        Byte volumes, shape ``(k,)``, non-negative.

    Timestamps and volumes must be finite: a ``nan`` or ``inf`` is rejected
    here, naming the column, before it can reach the binner.
    """

    timestamps: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    volumes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=float))
        object.__setattr__(self, "src", np.asarray(self.src, dtype=np.intp))
        object.__setattr__(self, "dst", np.asarray(self.dst, dtype=np.intp))
        object.__setattr__(self, "volumes", np.asarray(self.volumes, dtype=float))
        k = self.timestamps.shape
        for name in ("src", "dst", "volumes"):
            if getattr(self, name).shape != k:
                raise ValidationError(
                    f"record batch columns must share one shape; timestamps is {k} "
                    f"but {name} is {getattr(self, name).shape}"
                )
        if self.timestamps.ndim != 1:
            raise ValidationError("record batch columns must be one-dimensional")
        for name in ("timestamps", "volumes"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(
                    f"record batch column {name!r} must contain only finite values"
                )
        if self.volumes.size and float(self.volumes.min()) < 0:
            raise ValidationError("record volumes must be non-negative")

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])


class _CsvLines:
    """The per-line CSV rules: a header, then one ``time,src,dst,bytes`` record a line."""

    def __init__(self, path: Path, index: dict):
        self.path = path
        self.index = index
        self.seen_header = False

    def __call__(self, line: str, lineno: int):
        line = line.strip()
        if not line or line.startswith("#"):
            return None
        if not self.seen_header:
            self.seen_header = True
            if line.replace(" ", "") != CSV_HEADER:
                raise ValidationError(
                    f"{self.path}: expected CSV header {CSV_HEADER!r}, got {line!r}"
                )
            return None
        parts = line.split(",")
        if len(parts) != 4:
            raise ValidationError(
                f"{self.path}:{lineno}: expected 4 CSV fields, got {len(parts)}"
            )
        try:
            time, volume = float(parts[0]), float(parts[3])
        except ValueError as exc:
            raise ValidationError(
                f"{self.path}:{lineno}: malformed CSV flow record: {exc}"
            ) from exc
        return _checked_record(
            self.path, lineno, self.index, time, parts[1].strip(), parts[2].strip(), volume
        )


def _jsonl_record(path: Path, index: dict, line: str, lineno: int):
    """The per-line JSONL rules: one JSON object per non-blank line."""
    line = line.strip()
    if not line:
        return None
    try:
        payload = json.loads(line)
        time, src, dst, volume = (
            float(payload["time"]),
            str(payload["src"]),
            str(payload["dst"]),
            float(payload["bytes"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}:{lineno}: malformed JSONL flow record: {exc}") from exc
    return _checked_record(path, lineno, index, time, src, dst, volume)


def _checked_record(path, lineno, index, time, src, dst, volume):
    """Resolve one record's node names and check its numbers, naming ``path:line``."""
    src_index, dst_index = index.get(src), index.get(dst)
    if (
        src_index is not None
        and dst_index is not None
        and math.isfinite(time)
        and math.isfinite(volume)
        and volume >= 0
    ):
        return time, src_index, dst_index, volume
    where = f"{path}:{lineno}: flow record"
    for name in (src, dst):
        if name not in index:
            raise ValidationError(
                f"{where} references unknown node {name!r}; "
                f"the topology defines {len(index)} nodes"
            )
    if not math.isfinite(time):
        raise ValidationError(f"{where} time must be finite, got {time!r}")
    if not math.isfinite(volume):
        raise ValidationError(f"{where} bytes must be finite, got {volume!r}")
    raise ValidationError(f"{where} bytes must be non-negative, got {volume!r}")


def _line_blocks(handle) -> Iterator[bytes]:
    """Read ``handle`` in ``_BLOCK_BYTES`` reads, cut into blocks of whole lines.

    Every block ends with ``\\n`` (one is appended to a last line that has
    none), so no record, ``\\r\\n`` pair or multibyte UTF-8 character
    straddles two blocks.
    """
    carry: list[bytes] = []
    while chunk := handle.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            carry.append(chunk[:cut])
            yield b"".join(carry)
            carry = [chunk[cut:]]
        else:
            carry.append(chunk)
    tail = b"".join(carry)
    if tail:
        yield tail + b"\n"


def _fast_csv_block(block: bytes, index: dict):
    """Columns of a block of plain ``time,src,dst,bytes`` lines, or ``None``.

    ``None`` sends the block to the per-line rules: a comment, padding or a
    ``\\r`` outside a ``\\r\\n`` line end, a line without exactly four
    fields, a field that does not convert, an unknown node name, or a value
    the per-line rules reject.
    """
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
    layout = block.translate(None, _NOT_LAYOUT)
    k = len(layout) // 4
    if layout != b",,,\n" * k:
        return None
    fields = block.replace(b"\n", b",").split(b",")
    try:
        times = np.fromiter(map(float, fields[0::4]), float, k)
        src = np.fromiter(map(index.__getitem__, fields[1::4]), np.intp, k)
        dst = np.fromiter(map(index.__getitem__, fields[2::4]), np.intp, k)
        volumes = np.fromiter(map(float, fields[3::4]), float, k)
    except (KeyError, ValueError):
        return None
    if not (np.isfinite(times).all() and np.isfinite(volumes).all()) or (volumes < 0).any():
        return None
    return times, src, dst, volumes


def _per_line_block(block: bytes, lineno: int, parse_line, path: Path):
    """Parse ``block`` line by line; yield its records' columns, return the next line number.

    The records before a rejected line are still yielded, so every full
    batch ahead of it reaches the consumer before the error does.
    """
    rows = []
    error = None
    try:
        for raw in block.splitlines():
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: flow record is not UTF-8: {exc}") from exc
            record = parse_line(line, lineno)
            if record is not None:
                rows.append(record)
            lineno += 1
    except ValidationError as exc:
        error = exc
    if rows:
        times, src, dst, volumes = zip(*rows)
        yield (
            np.array(times, dtype=float),
            np.array(src, dtype=np.intp),
            np.array(dst, dtype=np.intp),
            np.array(volumes, dtype=float),
        )
    if error is not None:
        raise error
    return lineno


def _column_chunks(handle, path: Path, nodes: Sequence[str], csv: bool):
    """Yield ``(times, src, dst, volumes)`` columns, one chunk per block."""
    index = {name: i for i, name in enumerate(nodes)}
    parse_line = _CsvLines(path, index) if csv else partial(_jsonl_record, path, index)
    # The per-line rules strip names, so only stripped names may match raw bytes.
    fast_index = {name.encode("utf-8"): i for name, i in index.items() if name == name.strip()}
    lineno = 1
    for block in _line_blocks(handle):
        if csv and not parse_line.seen_header and block.startswith(_CSV_HEADER_LINES):
            parse_line.seen_header = True
            block = block[block.index(b"\n") + 1:]
            lineno += 1
        columns = _fast_csv_block(block, fast_index) if csv and parse_line.seen_header else None
        if columns is None:
            lineno = yield from _per_line_block(block, lineno, parse_line, path)
        else:
            lineno += len(columns[0])
            yield columns


def _batches(chunks, batch_records: int) -> Iterator[RecordBatch]:
    """Regroup column chunks into batches of ``batch_records`` rows; the last may be short."""
    pending: list[tuple] = []
    have = 0
    for chunk in chunks:
        pending.append(chunk)
        have += len(chunk[0])
        if have < batch_records:
            continue
        columns = [np.concatenate(column) for column in zip(*pending)]
        start = 0
        while have - start >= batch_records:
            yield RecordBatch(*(column[start:start + batch_records] for column in columns))
            start += batch_records
        pending = [tuple(column[start:] for column in columns)]
        have -= start
    if have:
        yield RecordBatch(*(np.concatenate(column) for column in zip(*pending)))


def read_flow_file(
    path,
    nodes: Sequence[str],
    *,
    batch_records: int = 8192,
) -> Iterator[RecordBatch]:
    """Stream a ``.csv``/``.jsonl`` flow file as :class:`RecordBatch` objects.

    Yields batches of exactly ``batch_records`` records (the last may be
    shorter), reading the file a block at a time, so arbitrarily long
    traces replay in bounded memory.  A record that breaks the format,
    names a node outside ``nodes``, has a non-finite number or a negative
    byte count, or is not UTF-8 raises :class:`ValidationError` naming its
    ``path:line``.
    """
    path = Path(path)
    if batch_records < 1:
        raise ValidationError("batch_records must be >= 1")
    suffix = path.suffix.lower()
    if suffix not in (".csv", ".jsonl", ".ndjson"):
        raise ValidationError(
            f"unsupported flow-file suffix {suffix!r} for {path}; use .csv or .jsonl"
        )
    with path.open("rb") as handle:
        yield from _batches(_column_chunks(handle, path, nodes, suffix == ".csv"), batch_records)


def write_flow_csv(path, rows) -> int:
    """Write ``(time, src, dst, bytes)`` rows as a replayable CSV trace."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        handle.write(CSV_HEADER + "\n")
        for time, src, dst, volume in rows:
            handle.write(f"{float(time):.6g},{src},{dst},{float(volume):.10g}\n")
            count += 1
    return count


def write_flow_jsonl(path, rows) -> int:
    """Write ``(time, src, dst, bytes)`` rows as a replayable JSONL trace."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for time, src, dst, volume in rows:
            handle.write(
                json.dumps(
                    {"time": float(time), "src": str(src), "dst": str(dst), "bytes": float(volume)}
                )
                + "\n"
            )
            count += 1
    return count
