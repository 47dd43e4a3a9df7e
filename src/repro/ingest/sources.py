"""Flow-record sources: the feeds a live ingestion service can run on.

A :class:`FlowSource` is anything that names its node ordering and yields
:class:`~repro.ingest.records.RecordBatch` batches.  Two adapters cover
the spectrum from offline experiment to load test:

* :class:`FileReplaySource` replays a ``.csv``/``.jsonl`` trace file with a
  configurable speed-up, optionally pacing emission against the wall clock
  so a week of records can exercise the service in minutes;
* :class:`SyntheticFlowSource` decomposes the chunks of any ground-truth
  :class:`~repro.streaming.ChunkStream` (e.g. a
  :class:`~repro.synthesis.datasets.StreamingDataset` week driven by
  :meth:`ICTMGenerator.plan <repro.synthesis.generator.ICTMGenerator.plan>`)
  into per-bin OD records — one record per OD pair by default, so binning
  the feed reconstructs the ground-truth matrices *exactly*, which is what
  the service-equals-batch equivalence proof rests on.
"""

from __future__ import annotations

import time as _time
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.ingest.records import RecordBatch, read_flow_file

__all__ = [
    "FlowSource",
    "FileReplaySource",
    "SyntheticFlowSource",
]


class FlowSource:
    """Base class of the flow-record source protocol.

    Subclasses define ``nodes`` (the node ordering record indices refer to)
    and :meth:`batches`, a single-pass iterator of record batches.  Sources
    are *not* required to be re-iterable — a live feed cannot be replayed —
    so consumers must make their one pass count.
    """

    def __init__(self, nodes: Sequence[str]):
        self._nodes = tuple(str(node) for node in nodes)
        if not self._nodes:
            raise ValidationError("a flow source needs at least one node")

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def batches(self) -> Iterator[RecordBatch]:
        """One pass of record batches, in arrival order."""
        raise NotImplementedError


class FileReplaySource(FlowSource):
    """Replay a ``.csv``/``.jsonl`` flow trace, optionally paced.

    ``speedup`` controls pacing: ``0`` (the default) replays as fast as the
    file can be parsed; any positive value makes record time advance at
    ``speedup`` times the wall clock (``speedup=3600`` replays an hour of
    trace per wall-clock second), sleeping between batches as needed — the
    knob that turns an archived trace into a live feed.
    """

    def __init__(
        self,
        path,
        nodes: Sequence[str],
        *,
        speedup: float = 0.0,
        batch_records: int = 8192,
    ):
        super().__init__(nodes)
        if speedup < 0:
            raise ValidationError("speedup must be >= 0 (0 replays unpaced)")
        self._path = path
        self._speedup = float(speedup)
        self._batch_records = int(batch_records)

    def batches(self) -> Iterator[RecordBatch]:
        origin_record: float | None = None
        origin_wall = _time.monotonic()
        for batch in read_flow_file(self._path, self._nodes, batch_records=self._batch_records):
            if self._speedup > 0 and len(batch):
                latest = float(batch.timestamps.max())
                if origin_record is None:
                    origin_record = float(batch.timestamps.min())
                due = origin_wall + (latest - origin_record) / self._speedup
                delay = due - _time.monotonic()
                if delay > 0:
                    _time.sleep(delay)
            yield batch


class SyntheticFlowSource(FlowSource):
    """Decompose a ground-truth chunk stream into per-bin OD records.

    With the default ``records_per_pair=1`` every bin emits exactly one
    record per OD pair carrying that pair's full volume, so binning the feed
    rebuilds the stream's matrices bit-for-bit (a single addition into a
    zero matrix).  ``records_per_pair > 1`` splits each volume evenly across
    several records spread through the bin — the load-testing mode, which
    multiplies the record rate without changing the per-bin totals beyond
    float re-association.  ``jitter_seconds`` perturbs timestamps inside
    each bin (never across bins), which makes batches arrive out of order —
    fuel for watermark tests.
    """

    def __init__(
        self,
        stream,
        *,
        records_per_pair: int = 1,
        jitter_seconds: float = 0.0,
        seed: int = 0,
    ):
        super().__init__(stream.nodes)
        if records_per_pair < 1:
            raise ValidationError("records_per_pair must be >= 1")
        if jitter_seconds < 0:
            raise ValidationError("jitter_seconds must be >= 0")
        if jitter_seconds >= stream.bin_seconds:
            raise ValidationError(
                f"jitter_seconds must stay below one bin ({stream.bin_seconds}s); "
                "cross-bin displacement would change the ground truth being replayed"
            )
        self._stream = stream
        self._per_pair = int(records_per_pair)
        self._jitter = float(jitter_seconds)
        self._seed = int(seed)

    @property
    def n_bins(self) -> int:
        return int(self._stream.n_bins)

    @property
    def bin_seconds(self) -> float:
        return float(self._stream.bin_seconds)

    def batches(self) -> Iterator[RecordBatch]:
        n = self.n_nodes
        bin_seconds = float(self._stream.bin_seconds)
        pairs = n * n
        src_template = np.repeat(np.arange(n, dtype=np.intp), n)
        dst_template = np.tile(np.arange(n, dtype=np.intp), n)
        rng = np.random.default_rng(self._seed) if self._jitter > 0 else None
        for t0, block in self._stream.chunks():
            t_chunk = block.shape[0]
            bin_starts = (np.arange(t0, t0 + t_chunk, dtype=float) * bin_seconds)
            volumes = block.reshape(t_chunk, pairs)
            if self._per_pair == 1:
                times = np.repeat(bin_starts, pairs)
                vols = volumes.reshape(-1)
                src = np.tile(src_template, t_chunk)
                dst = np.tile(dst_template, t_chunk)
            else:
                r = self._per_pair
                offsets = (np.arange(r, dtype=float) / r) * bin_seconds
                times = np.broadcast_to(
                    bin_starts[:, None, None] + offsets[None, None, :], (t_chunk, pairs, r)
                ).reshape(-1)
                vols = np.broadcast_to(
                    (volumes / r)[:, :, None], (t_chunk, pairs, r)
                ).reshape(-1)
                src = np.repeat(np.tile(src_template, t_chunk), r)
                dst = np.repeat(np.tile(dst_template, t_chunk), r)
            if rng is not None:
                times = times + rng.uniform(0.0, self._jitter, size=times.shape)
            yield RecordBatch(times, src, dst, vols)
