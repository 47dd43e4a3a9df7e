"""The time binner: flow records in, per-bin OD matrices out.

:class:`FlowBinner` turns an unordered record feed into the ordered per-bin
``(n, n)`` matrices the estimation pipeline consumes.  Its contract is the
standard watermark semantics of streaming systems:

* a record at time ``t`` lands in bin ``floor((t - origin) / bin_seconds)``;
* a bin stays *open* — still accepting records — until the maximum event
  time seen has advanced ``watermark_bins`` whole bins past it; the highest
  bin touched so far (the partial trailing bin) is therefore always held
  back, and ``watermark_bins`` extra bins of grace absorb out-of-order
  arrival;
* once a bin closes it is emitted exactly once, in index order, with empty
  bins emitted as zero matrices so the published series never has gaps;
* records targeting an already-closed bin are *dropped and counted*
  (``records_dropped_late``) — a late record must never mutate a published
  matrix.

Each batch is reduced with one vectorised ``bincount`` scatter per open bin
it touches, which is what sustains >100k records/sec in pure numpy (see
``ingest.records``/``ingest.bin_s`` of perfbench's ``serve-replay``).

The service loop of :mod:`repro.ingest.service` takes the closed bins in
order and estimates them ``chunk_bins`` at a time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.ingest.records import RecordBatch

__all__ = ["FlowBinner"]


class FlowBinner:
    """Aggregate flow-record batches into ordered per-bin OD matrices.

    Parameters
    ----------
    nodes:
        Node ordering defining the matrix indices (record ``src``/``dst``
        columns index into it).
    bin_seconds:
        Bin width.
    watermark_bins:
        Out-of-order tolerance: how many whole bins behind the maximum seen
        event time a bin keeps accepting records.  ``0`` closes a bin as
        soon as any record lands past it; larger values trade publication
        latency for late-record tolerance.
    origin:
        Timestamp of the left edge of bin 0.
    start_bin:
        First bin index to emit — everything earlier is treated as already
        published (the resume path) and counted in ``records_skipped``.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        *,
        bin_seconds: float,
        watermark_bins: int = 1,
        origin: float = 0.0,
        start_bin: int = 0,
    ):
        self._nodes = tuple(str(node) for node in nodes)
        if not self._nodes:
            raise ValidationError("a binner needs at least one node")
        if bin_seconds <= 0:
            raise ValidationError("bin_seconds must be positive")
        if watermark_bins < 0:
            raise ValidationError("watermark_bins must be >= 0")
        if start_bin < 0:
            raise ValidationError("start_bin must be >= 0")
        self._n = len(self._nodes)
        self._bin_seconds = float(bin_seconds)
        self._watermark_bins = int(watermark_bins)
        self._origin = float(origin)
        self._start_bin = int(start_bin)
        self._frontier = int(start_bin)  # next bin index to emit
        self._open: dict[int, np.ndarray] = {}
        self._max_bin_seen = int(start_bin) - 1
        self.records_seen = 0
        self.records_binned = 0
        self.records_dropped_late = 0
        self.records_skipped = 0
        self.bins_closed = 0

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def bin_seconds(self) -> float:
        return self._bin_seconds

    @property
    def watermark_bins(self) -> int:
        return self._watermark_bins

    @property
    def origin(self) -> float:
        return self._origin

    @property
    def frontier(self) -> int:
        """Index of the next bin this binner will emit."""
        return self._frontier

    @property
    def open_bins(self) -> int:
        """Number of bins currently accumulating records."""
        return len(self._open)

    def counters(self) -> dict:
        """The ingestion counters, as published in the status snapshot."""
        return {
            "records_seen": self.records_seen,
            "records_binned": self.records_binned,
            "records_dropped_late": self.records_dropped_late,
            "records_skipped": self.records_skipped,
            "bins_closed": self.bins_closed,
            "open_bins": len(self._open),
            "frontier": self._frontier,
            "max_bin_seen": self._max_bin_seen,
        }

    def _bin_of(self, timestamps: np.ndarray) -> np.ndarray:
        return np.floor((timestamps - self._origin) / self._bin_seconds).astype(np.int64)

    def push(self, batch: RecordBatch) -> list[tuple[int, np.ndarray]]:
        """Ingest one batch; return the bins it closed as ``(index, matrix)``.

        Closed bins come back in index order and include zero matrices for
        empty bins, so concatenating the results of successive pushes yields
        a gapless series starting at ``start_bin``.
        """
        k = len(batch)
        self.records_seen += k
        if k == 0:
            return []
        bins = self._bin_of(batch.timestamps)
        if int(bins.min()) < 0:
            raise ValidationError(
                "record timestamps precede the stream origin; "
                f"origin={self._origin}, earliest record bin={int(bins.min())}"
            )
        skipped = bins < self._start_bin
        late = (bins < self._frontier) & ~skipped
        self.records_skipped += int(skipped.sum())
        self.records_dropped_late += int(late.sum())
        keep = ~(skipped | late)
        if np.any(keep):
            kept_bins = bins[keep]
            src = batch.src[keep]
            dst = batch.dst[keep]
            vols = batch.volumes[keep]
            if int(src.max()) >= self._n or int(dst.max()) >= self._n:
                raise ValidationError(
                    f"record node index out of range for {self._n} nodes"
                )
            flat = src * self._n + dst
            for bin_index in np.unique(kept_bins):
                mask = kept_bins == bin_index
                matrix = self._open.get(int(bin_index))
                if matrix is None:
                    matrix = np.zeros((self._n, self._n))
                    self._open[int(bin_index)] = matrix
                matrix += np.bincount(
                    flat[mask], weights=vols[mask], minlength=self._n * self._n
                ).reshape(self._n, self._n)
            self.records_binned += int(keep.sum())
        self._max_bin_seen = max(self._max_bin_seen, int(bins.max()))
        return self._close_until(self._max_bin_seen - self._watermark_bins)

    def _close_until(self, limit: int) -> list[tuple[int, np.ndarray]]:
        """Emit every unpublished bin with index below ``limit``, in order."""
        closed: list[tuple[int, np.ndarray]] = []
        while self._frontier < limit:
            index = self._frontier
            matrix = self._open.pop(index, None)
            if matrix is None:
                matrix = np.zeros((self._n, self._n))
            closed.append((index, matrix))
            self._frontier += 1
            self.bins_closed += 1
        return closed

    def flush(self) -> list[tuple[int, np.ndarray]]:
        """Close every remaining bin, including the partial trailing bin.

        Call only at end of stream — after a flush the watermark guarantees
        no longer hold for the flushed bins (any further record targeting
        them would be dropped as late).
        """
        return self._close_until(self._max_bin_seen + 1)

