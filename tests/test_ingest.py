"""Tests for the live flow-ingestion subsystem behind ``repro serve``.

The contract under test is the one the service advertises:

* the binner implements watermark semantics exactly — out-of-order records
  inside the watermark land in their bins, late records are dropped and
  counted, the published series is gapless and a published matrix is never
  mutated;
* decomposing a ground-truth stream into records and binning the feed
  reconstructs the stream **bit for bit**, which makes the headline
  equivalence provable: a served replay with a pinned prior reproduces the
  batch ``estimate_stream`` numbers through the JSONL sink with **zero**
  difference (budget 1e-12);
* the rolling window spills past its memory budget without changing the
  fitted numbers, re-fits swap the active prior atomically, and a
  checkpointed service resumes into a byte-identical published series.
"""

from __future__ import annotations

import json
import tempfile
from time import perf_counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ic_model import simplified_ic_series
from repro.core.priors import StableFPrior
from repro.errors import ValidationError
from repro.estimation.linear_system import simulate_link_loads
from repro.estimation.pipeline import TMEstimator
from repro.ingest import records as records_module
from repro.ingest import (
    CHECKPOINT_FORMAT,
    FileReplaySource,
    FlowBinner,
    FlowSource,
    IngestService,
    RecordBatch,
    RollingFitManager,
    RollingWindow,
    SyntheticFlowSource,
    read_flow_file,
    write_flow_csv,
)
from repro.streaming import ArrayChunkStream, FunctionChunkStream, cache_chunks
from repro.synthesis.datasets import open_dataset_stream


def write_flow_jsonl(path, rows) -> int:
    """Write ``(time, src, dst, bytes)`` rows as a replayable JSONL trace."""
    lines = [
        json.dumps({"time": float(t), "src": str(a), "dst": str(b), "bytes": float(v)}) + "\n"
        for t, a, b, v in rows
    ]
    Path(path).write_text("".join(lines), encoding="utf-8")
    return len(lines)


# Node names that exercise multibyte UTF-8 across block boundaries.
_TRACE_NODES = ["a", "bb", "\u00c4\u00d6", "\u65e5\u672c\u8a9e"]


def _number_text(value: float, style: int) -> str:
    return (repr(value), f"{value:.6g}", f"{value:.3e}", f"{value:.4E}")[style]


@st.composite
def _csv_traces(draw, crlf=False):
    """A CSV trace with the per-line rules' corner cases, and its expected columns.

    ``crlf=True`` draws a trace of plain records only, every line ending in
    ``\\r\\n``.
    """
    if crlf:
        lines = ["time,src,dst,bytes"]
    else:
        lines = [draw(st.sampled_from(["time,src,dst,bytes", "time, src, dst, bytes"]))]
        if draw(st.booleans()):
            lines.insert(0, "# exported trace")
    expected = {"timestamps": [], "src": [], "dst": [], "volumes": []}
    n_records = draw(st.integers(0, 40))
    for _ in range(n_records):
        if crlf:
            extra = "plain"
        else:
            extra = draw(st.sampled_from(["plain"] * 6 + ["comment", "blank", "padded"]))
        if extra == "comment":
            lines.append("# a comment, with, commas")
        elif extra == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        time = draw(st.floats(0, 1e9, allow_nan=False))
        volume = draw(st.floats(0, 1e12, allow_nan=False))
        time_text = _number_text(time, draw(st.integers(0, 3)))
        volume_text = _number_text(volume, draw(st.integers(0, 3)))
        src, dst = draw(st.sampled_from(range(4))), draw(st.sampled_from(range(4)))
        fields = [time_text, _TRACE_NODES[src], _TRACE_NODES[dst], volume_text]
        if extra == "padded":
            fields = [f" {field}\t" for field in fields]
        lines.append(",".join(fields))
        expected["timestamps"].append(float(time_text))
        expected["src"].append(src)
        expected["dst"].append(dst)
        expected["volumes"].append(float(volume_text))
    ending = st.just("\r\n") if crlf else st.sampled_from(["\n"] * 3 + ["\r\n"])
    endings = draw(st.lists(ending, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, expected


# ---------------------------------------------------------------------------
# record batches and flow files
# ---------------------------------------------------------------------------

class TestRecordBatch:
    def test_columns_must_share_shape(self):
        with pytest.raises(ValidationError, match="share one shape"):
            RecordBatch([0.0, 1.0], [0], [1], [5.0, 5.0])

    def test_volumes_must_be_non_negative(self):
        with pytest.raises(ValidationError, match="non-negative"):
            RecordBatch([0.0], [0], [1], [-1.0])

    @pytest.mark.parametrize("column", ["timestamps", "volumes"])
    def test_non_finite_values_rejected_naming_the_column(self, column):
        columns = {"timestamps": [0.0, 1.0], "volumes": [5.0, 5.0]}
        columns[column] = [0.0, float("nan")]
        with pytest.raises(ValidationError, match=f"'{column}' must contain only finite"):
            RecordBatch(columns["timestamps"], [0, 1], [1, 0], columns["volumes"])


class TestFlowFiles:
    ROWS = [(0.0, "a", "b", 10.0), (3.0, "b", "a", 7.5), (9.0, "a", "b", 1.25)]

    @pytest.mark.parametrize("writer,suffix", [(write_flow_csv, ".csv"), (write_flow_jsonl, ".jsonl")])
    def test_round_trip(self, tmp_path, writer, suffix):
        path = tmp_path / f"trace{suffix}"
        assert writer(path, self.ROWS) == 3
        batches = list(read_flow_file(path, ["a", "b"], batch_records=2))
        assert [len(b) for b in batches] == [2, 1]
        merged = np.concatenate([b.volumes for b in batches])
        np.testing.assert_array_equal(merged, [10.0, 7.5, 1.25])

    def test_csv_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("when,from,to,size\n0,a,b,1\n")
        with pytest.raises(ValidationError, match="expected CSV header"):
            list(read_flow_file(path, ["a", "b"]))

    def test_csv_non_numeric_field_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,src,dst,bytes\n0,a,b,1\n# comment\n3,b,a,abc\n")
        with pytest.raises(ValidationError, match=r"bad\.csv:4: malformed CSV flow record"):
            list(read_flow_file(path, ["a", "b"]))

    def test_jsonl_non_numeric_field_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"time": 0, "src": "a", "dst": "b", "bytes": 1}\n'
            '{"time": 3, "src": "b", "dst": "a", "bytes": "abc"}\n'
        )
        with pytest.raises(ValidationError, match=r"bad\.jsonl:2: malformed JSONL flow record"):
            list(read_flow_file(path, ["a", "b"]))

    def test_serve_rejects_nan_byte_count_with_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "nan.csv"
        path.write_text("time,src,dst,bytes\n0,STTL,SNVA,10\n60,SNVA,STTL,nan\n")
        exit_code = main(
            ["serve", "--source", str(path), "--topology", "abilene",
             "--sink", str(tmp_path / "sink")]
        )
        assert exit_code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {path}:3: flow record bytes must be finite, got nan"]

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "trace.parquet"
        path.write_text("")
        with pytest.raises(ValidationError, match="suffix"):
            list(read_flow_file(path, ["a", "b"]))

    @pytest.mark.parametrize(
        "line,message",
        [
            ("60,b,ZZZ,5",
             "flow record references unknown node 'ZZZ'; the topology defines 2 nodes"),
            ("inf,b,a,5", "flow record time must be finite, got inf"),
            ("60,b,a,-5", "flow record bytes must be non-negative, got -5.0"),
        ],
    )
    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_bad_record_names_path_and_line(self, tmp_path, suffix, line, message):
        rows = [(0.0, "a", "b", 1.0), (3.0, "b", "a", 2.0)]
        time, src, dst, volume = line.split(",")
        rows.append((float(time), src, dst, float(volume)))
        path = tmp_path / f"bad{suffix}"
        (write_flow_csv if suffix == ".csv" else write_flow_jsonl)(path, rows)
        first_line = 4 if suffix == ".csv" else 3
        with pytest.raises(ValidationError) as info:
            list(read_flow_file(path, ["a", "b"]))
        assert str(info.value) == f"{path}:{first_line}: {message}"

    @pytest.mark.parametrize(
        "suffix,text",
        [
            (".csv", b"time,src,dst,bytes\n0,STTL,SNVA,1\n3,\xffSNVA,STTL,2\n"),
            (".jsonl", b'{"time": 0, "src": "STTL", "dst": "SNVA", "bytes": 1}\n'
                       b'{"time": 3, "src": "\xffSNVA", "dst": "STTL", "bytes": 2}\n'),
        ],
    )
    def test_serve_rejects_invalid_utf8_with_exit_2(self, tmp_path, capsys, suffix, text):
        from repro.cli import main

        path = tmp_path / f"bad{suffix}"
        path.write_bytes(text)
        exit_code = main(
            ["serve", "--source", str(path), "--topology", "abilene",
             "--sink", str(tmp_path / "sink")]
        )
        assert exit_code == 2
        line = 3 if suffix == ".csv" else 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{line}: flow record is not UTF-8")

    def test_error_after_a_block_boundary_names_its_absolute_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(records_module, "_BLOCK_BYTES", 64)
        lines = ["time,src,dst,bytes"] + [f"{t},a,b,{t + 1}" for t in range(40)]
        lines[30] = "30,a,b,abc"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        batches = []
        with pytest.raises(ValidationError, match=r"bad\.csv:31: malformed CSV flow record"):
            for batch in read_flow_file(path, ["a", "b"], batch_records=4):
                batches.append(batch)
        # Every full batch ahead of the bad line still reaches the consumer.
        assert [len(b) for b in batches] == [4] * 7
        np.testing.assert_array_equal(np.concatenate([b.timestamps for b in batches]), range(28))

    def test_short_and_long_lines_do_not_pair_up_into_records(self, tmp_path):
        # Split together, these two lines give 8 fields that would all convert.
        path = tmp_path / "bad.csv"
        path.write_text("time,src,dst,bytes\n0,a,b,1\n1,a,b\n5,2,a,b,3\n")
        with pytest.raises(ValidationError, match=r"bad\.csv:3: expected 4 CSV fields, got 3"):
            list(read_flow_file(path, ["a", "b"]))

    @given(
        data=st.data(),
        crlf=st.booleans(),
        batch_records=st.integers(1, 9),
        block=st.sampled_from([7, 64, 4096]),
    )
    @settings(max_examples=150, deadline=None)
    def test_block_reader_equals_per_line_reader(self, data, crlf, batch_records, block):
        text, expected = data.draw(_csv_traces(crlf=crlf))
        per_line_blocks = []
        per_line_block = records_module._per_line_block

        def counted(*args):
            per_line_blocks.append(args[1])
            return per_line_block(*args)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.object(records_module, "_BLOCK_BYTES", block), \
                    mock.patch.object(records_module, "_per_line_block", counted):
                batches = list(read_flow_file(path, _TRACE_NODES, batch_records=batch_records))
            with mock.patch.object(records_module, "_fast_csv_block", lambda *args: None):
                per_line = list(read_flow_file(path, _TRACE_NODES, batch_records=batch_records))
        if crlf:
            # An all-CRLF trace of plain records takes the fast path in every block.
            assert per_line_blocks == []
        lengths = [len(b) for b in batches]
        assert lengths == [len(b) for b in per_line]
        assert all(k == batch_records for k in lengths[:-1])
        assert not lengths or 0 < lengths[-1] <= batch_records
        columns = (("timestamps", float), ("src", np.intp), ("dst", np.intp), ("volumes", float))
        for name, dtype in columns:
            column = np.concatenate([getattr(b, name) for b in batches] or [np.empty(0, dtype)])
            reference = np.concatenate([getattr(b, name) for b in per_line] or [column])
            assert column.dtype == dtype
            assert column.tobytes() == np.asarray(expected[name], dtype=dtype).tobytes()
            assert column.tobytes() == reference.tobytes()


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

def _total_matrix(source) -> np.ndarray:
    binner = FlowBinner(source.nodes, bin_seconds=1e9, watermark_bins=0)
    total = np.zeros((source.n_nodes,) * 2)
    for batch in source.batches():
        for _, matrix in binner.push(batch):
            total += matrix
    for _, matrix in binner.flush():
        total += matrix
    return total


class TestSyntheticFlowSource:
    def test_single_record_per_pair_reconstructs_bitwise(self):
        data = open_dataset_stream("geant", n_weeks=1, bins_per_week=12, seed=5)
        stream = data.week_stream(0)
        truth = np.stack([b for _, b in stream.chunks()]).reshape(-1, 22, 22)
        source = SyntheticFlowSource(stream)
        binner = FlowBinner(stream.nodes, bin_seconds=stream.bin_seconds)
        got = [m for batch in source.batches() for _, m in binner.push(batch)]
        got += [m for _, m in binner.flush()]
        assert np.array_equal(np.stack(got), truth)

    def test_record_splitting_preserves_bin_totals(self):
        data = open_dataset_stream("geant", n_weeks=1, bins_per_week=6, seed=5)
        stream = data.week_stream(0)
        truth = np.concatenate([b for _, b in stream.chunks()])
        source = SyntheticFlowSource(stream, records_per_pair=3)
        binner = FlowBinner(stream.nodes, bin_seconds=stream.bin_seconds)
        got = [m for batch in source.batches() for _, m in binner.push(batch)]
        got += [m for _, m in binner.flush()]
        np.testing.assert_allclose(np.stack(got), truth, rtol=1e-12)

    def test_jitter_must_stay_inside_one_bin(self):
        data = open_dataset_stream("geant", n_weeks=1, bins_per_week=6, seed=5)
        stream = data.week_stream(0)
        with pytest.raises(ValidationError, match="below one bin"):
            SyntheticFlowSource(stream, jitter_seconds=stream.bin_seconds)


class TestFileReplaySource:
    def test_replays_written_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_flow_jsonl(path, [(0.0, "a", "b", 4.0), (0.5, "b", "a", 6.0)])
        total = _total_matrix(FileReplaySource(path, ["a", "b"]))
        np.testing.assert_array_equal(total, [[0.0, 4.0], [6.0, 0.0]])

    def test_negative_speedup_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="speedup"):
            FileReplaySource(tmp_path / "t.csv", ["a"], speedup=-1)


# ---------------------------------------------------------------------------
# the binner
# ---------------------------------------------------------------------------

class TestFlowBinner:
    NODES = ("a", "b", "c")

    def _batch(self, rows):
        times, srcs, dsts, vols = zip(*rows)
        return RecordBatch(list(times), list(srcs), list(dsts), list(vols))

    def test_trailing_bin_held_until_flush(self):
        binner = FlowBinner(self.NODES, bin_seconds=10.0, watermark_bins=0)
        closed = binner.push(self._batch([(1.0, 0, 1, 5.0), (12.0, 1, 2, 7.0)]))
        assert [index for index, _ in closed] == [0]
        assert closed[0][1][0, 1] == 5.0
        assert binner.open_bins == 1
        flushed = binner.flush()
        assert [index for index, _ in flushed] == [1]
        assert flushed[0][1][1, 2] == 7.0

    def test_out_of_order_within_watermark_lands_in_its_bin(self):
        binner = FlowBinner(self.NODES, bin_seconds=10.0, watermark_bins=1)
        binner.push(self._batch([(25.0, 0, 1, 1.0)]))  # bin 2 seen first
        closed = binner.push(self._batch([(15.0, 1, 0, 9.0)]))  # bin 1, still open
        assert closed == []
        flushed = {index: m for index, m in binner.flush()}
        assert flushed[1][1, 0] == 9.0
        assert binner.records_dropped_late == 0

    def test_late_records_dropped_and_counted_not_applied(self):
        binner = FlowBinner(self.NODES, bin_seconds=10.0, watermark_bins=0)
        closed = binner.push(self._batch([(5.0, 0, 1, 2.0), (15.0, 0, 1, 3.0)]))
        published = closed[0][1].copy()
        late = binner.push(self._batch([(6.0, 2, 0, 99.0)]))  # bin 0 already closed
        assert late == []
        assert binner.records_dropped_late == 1
        np.testing.assert_array_equal(published, closed[0][1])  # never mutated

    def test_empty_bins_emitted_as_zeros_gapless(self):
        binner = FlowBinner(self.NODES, bin_seconds=10.0, watermark_bins=0)
        closed = binner.push(self._batch([(2.0, 0, 1, 1.0), (45.0, 0, 1, 1.0)]))
        assert [index for index, _ in closed] == [0, 1, 2, 3]
        assert all(m.sum() == 0 for index, m in closed if index in (1, 2, 3))

    def test_start_bin_skips_replayed_records(self):
        binner = FlowBinner(self.NODES, bin_seconds=10.0, start_bin=2, watermark_bins=0)
        closed = binner.push(self._batch([(5.0, 0, 1, 1.0), (25.0, 1, 2, 4.0), (35.0, 0, 2, 2.0)]))
        assert binner.records_skipped == 1
        assert binner.records_dropped_late == 0
        assert [index for index, _ in closed] == [2]
        assert closed[0][1][1, 2] == 4.0

    def test_pre_origin_timestamps_rejected(self):
        binner = FlowBinner(self.NODES, bin_seconds=10.0, origin=100.0)
        with pytest.raises(ValidationError, match="precede the stream origin"):
            binner.push(self._batch([(5.0, 0, 1, 1.0)]))

    def test_ingest_throughput_benchmark_meets_slo(self):
        """The service SLO: the binner sustains >= 100k records/s on a pre-built feed."""
        bins, records_per_pair = 16, 4
        data = open_dataset_stream("geant", n_weeks=1, bins_per_week=bins, chunk_bins=16)
        stream = data.week_stream(0)
        batches = list(SyntheticFlowSource(stream, records_per_pair=records_per_pair).batches())
        records = sum(len(batch) for batch in batches)
        assert records == bins * 22 * 22 * records_per_pair
        seconds = []
        for _ in range(3):
            started = perf_counter()
            binner = FlowBinner(stream.nodes, bin_seconds=stream.bin_seconds, watermark_bins=1)
            for batch in batches:
                binner.push(batch)
            binner.flush()
            seconds.append(perf_counter() - started)
        assert records / min(seconds) >= 100_000


class TestLiveChunkStream:
    def test_cache_chunks_makes_it_replayable(self):
        # A live feed cannot rewind: its factory raises on a second pass.
        data = open_dataset_stream("geant", n_weeks=1, bins_per_week=12, seed=9)
        stream = data.week_stream(0, chunk_bins=5)
        passes = []

        def factory(chunk_bins):
            if passes:
                raise ValidationError("live feeds are single-pass")
            passes.append(chunk_bins)
            return stream.chunks()

        live = FunctionChunkStream(
            factory, n_bins=stream.n_bins, nodes=stream.nodes,
            bin_seconds=stream.bin_seconds, chunk_bins=stream.chunk_bins,
        )
        cached = cache_chunks(live, budget_bytes=1 << 30)
        first = np.concatenate([b for _, b in cached.chunks()])
        second = np.concatenate([b for _, b in cached.chunks()])
        assert len(passes) == 1
        assert np.array_equal(first, np.concatenate([b for _, b in stream.chunks()]))
        assert np.array_equal(first, second)
        with pytest.raises(ValidationError, match="single-pass"):
            list(live.chunks())


# ---------------------------------------------------------------------------
# the rolling window and fit manager
# ---------------------------------------------------------------------------

class TestRollingWindow:
    def test_evicts_past_window_bins(self):
        window = RollingWindow(("a", "b"), bin_seconds=60.0, window_bins=4)
        for start in range(0, 8, 2):
            window.append(start, np.full((2, 2, 2), float(start)))
        assert window.n_bins == 4
        assert window.start_bin == 4

    def test_spills_past_budget_and_replays_identically(self, tmp_path):
        rng = np.random.default_rng(11)
        blocks = [rng.random((4, 3, 3)) for _ in range(4)]
        budget = blocks[0].nbytes + 1  # at most one block stays in memory
        window = RollingWindow(
            ("a", "b", "c"), bin_seconds=60.0, window_bins=16,
            budget_bytes=budget, spill_dir=tmp_path,
        )
        for i, block in enumerate(blocks):
            window.append(4 * i, block)
        assert window.spilled_segments >= 2
        assert window.memory_bytes <= budget + blocks[0].nbytes
        replay = np.concatenate([b for _, b in window.as_stream().chunks()])
        assert np.array_equal(replay, np.concatenate(blocks))

    def test_spilled_shards_deleted_on_eviction(self, tmp_path):
        window = RollingWindow(
            ("a", "b"), bin_seconds=60.0, window_bins=4, budget_bytes=0, spill_dir=tmp_path,
        )
        for start in range(0, 12, 2):
            window.append(start, np.ones((2, 2, 2)))
        remaining = list(tmp_path.rglob("*.npz"))
        assert len(remaining) <= 2  # only the live window's shards survive

    def test_blocks_must_be_contiguous(self):
        window = RollingWindow(("a", "b"), bin_seconds=60.0, window_bins=8)
        window.append(0, np.zeros((2, 2, 2)))
        with pytest.raises(ValidationError, match="contiguous"):
            window.append(5, np.zeros((2, 2, 2)))


class TestRollingFitManager:
    def test_stable_f_requires_forward_fraction(self):
        with pytest.raises(ValidationError, match="forward"):
            RollingFitManager(("a", "b"), bin_seconds=60.0, mode="stable_f")

    def test_stable_fp_starts_on_gravity_fallback_then_swaps(self, clean_ic_series):
        series, forward, preference, _ = clean_ic_series
        nodes = tuple(f"n{i}" for i in range(series.values.shape[1]))
        manager = RollingFitManager(
            nodes, bin_seconds=300.0, mode="stable_fp",
            refit_every=10, window_bins=30, min_fit_bins=20,
        )
        assert manager.active.mode == "gravity"
        assert manager.active.version == 0
        swapped_at = []
        for start in range(0, 30, 10):
            if manager.observe(start, series.values[start:start + 10]):
                swapped_at.append(start)
        assert swapped_at  # at least one re-fit landed
        active = manager.active
        assert active.mode == "stable_fp"
        assert active.version >= 1
        assert manager.refits == len(swapped_at)
        # The noiseless stable-fP window recovers the generating parameters.
        assert active.forward_fraction == pytest.approx(forward, rel=1e-3)
        np.testing.assert_allclose(active.preference, preference, rtol=1e-2)
        assert manager.fit_age_bins() is not None

    def test_pinned_prior_without_fitting(self):
        manager = RollingFitManager(("a", "b", "c"), bin_seconds=60.0, mode="stable_fp")
        manager.pin(forward_fraction=0.3, preference=[0.2, 0.3, 0.5])
        active = manager.active
        assert active.mode == "stable_fp" and active.version == 1
        ingress = np.array([[3.0, 2.0, 1.0]])
        values = active.values(ingress, ingress.copy())
        assert values.shape == (1, 3, 3)
        assert np.all(np.isfinite(values))

    def test_prior_values_match_batch_recipes(self):
        manager = RollingFitManager(("a", "b"), bin_seconds=60.0, mode="stable_f",
                                    forward_fraction=0.25)
        ingress = np.array([[4.0, 6.0]])
        egress = np.array([[5.0, 5.0]])
        expected = StableFPrior(0.25).series(ingress, egress).values
        np.testing.assert_array_equal(manager.prior_values(ingress, egress), expected)


# ---------------------------------------------------------------------------
# the service: equivalence, churn liveness, checkpoint/resume, clean stop
# ---------------------------------------------------------------------------

def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestServiceEquivalence:
    def test_served_replay_equals_batch_estimate_stream(self, tmp_path):
        """Acceptance: pinned prior + re-fit disabled ≡ batch path (≤ 1e-12)."""
        forward = 0.3
        chunk = 8
        # Same chunk_bins on both sides, so the two paths refine the same
        # blocks and agree bit for bit, not merely closely.
        data = open_dataset_stream("geant", n_weeks=1, bins_per_week=24, seed=17,
                                   chunk_bins=chunk)
        service = IngestService(
            SyntheticFlowSource(data.week_stream(0)),
            data.topology,
            bin_seconds=data.week_stream(0).bin_seconds,
            chunk_bins=chunk,
            prior="stable_f",
            forward_fraction=forward,
            sink=tmp_path / "estimates.jsonl",
        )
        status = service.run()
        assert status.bins_published == 24
        served = np.array([r["estimate"] for r in _read_jsonl(tmp_path / "estimates.jsonl")])

        stream = data.week_stream(0)
        system = simulate_link_loads(data.topology, stream)
        prior = ArrayChunkStream(
            StableFPrior(forward).series(system.ingress, system.egress).values,
            data.topology.nodes,
            bin_seconds=stream.bin_seconds,
            chunk_bins=chunk,
        )
        batch = TMEstimator().estimate_stream(system, prior, collect_estimate=True)
        diff = np.max(np.abs(served - batch.estimate.values))
        assert diff <= 1e-12  # in practice exactly 0.0 through the JSONL sink

    def test_served_chunk_never_reads_the_dense_routing_matrix(
        self, tmp_path, abilene, monkeypatch
    ):
        from repro.topology.routing import RoutingMatrix

        monkeypatch.setattr(
            RoutingMatrix, "matrix", property(lambda self: pytest.fail("dense R read"))
        )
        status = IngestService(
            FileReplaySource("examples/sample_flows.csv", abilene.nodes), abilene,
            chunk_bins=4, max_bins=4, measurement_noise=0.01,
            sink=tmp_path / "estimates.jsonl",
        ).run()
        assert status.bins_published == 4
        records = _read_jsonl(tmp_path / "estimates.jsonl")
        assert [r["bin"] for r in records] == [0, 1, 2, 3]
        assert np.all(np.isfinite([r["estimate"] for r in records]))

    def test_source_topology_node_mismatch_rejected(self, tmp_path, abilene, geant):
        data = open_dataset_stream("geant", n_weeks=1, bins_per_week=6, seed=1)
        with pytest.raises(ValidationError, match="disagree on node ordering"):
            IngestService(SyntheticFlowSource(data.week_stream(0)), abilene)


class _ChurnSource(FlowSource):
    """A feed with out-of-order arrival inside the watermark plus stale records."""

    def __init__(self, stream, *, late_every: int = 4):
        super().__init__(stream.nodes)
        self._inner = SyntheticFlowSource(stream)
        self._bin_seconds = float(stream.bin_seconds)
        self._late_every = late_every
        self.late_injected = 0

    def batches(self):
        previous = None
        for index, batch in enumerate(self._inner.batches()):
            # Swap the emission order of each consecutive pair of batches:
            # bins arrive out of order but stay inside watermark_bins=1.
            if previous is None:
                previous = batch
                continue
            yield batch
            yield previous
            previous = None
            if index % self._late_every == 1 and index > 3:
                # A record far behind the frontier: must be dropped, counted.
                self.late_injected += 1
                yield RecordBatch([0.0], [0], [1], [1e9])
        if previous is not None:
            yield previous


class TestServiceChurn:
    def test_liveness_under_out_of_order_and_late_records(self, tmp_path):
        """Acceptance: churn feed stays gapless, drops counted, re-fit swaps live."""
        data = open_dataset_stream("geant", n_weeks=1, bins_per_week=24, seed=23)
        stream = data.full_stream(chunk_bins=1)  # one batch per bin => real churn
        source = _ChurnSource(stream)
        status_path = tmp_path / "status.json"
        service = IngestService(
            source,
            data.topology,
            bin_seconds=stream.bin_seconds,
            chunk_bins=4,
            watermark_bins=1,
            prior="stable_fp",
            refit_every=8,
            window_bins=16,
            sink=tmp_path / "estimates.jsonl",
            status_path=status_path,
        )
        status = service.run()
        records = _read_jsonl(tmp_path / "estimates.jsonl")
        # Gapless publication despite out-of-order arrival and a mid-feed swap.
        assert [r["bin"] for r in records] == list(range(24))
        assert all(np.all(np.isfinite(r["estimate"])) for r in records)
        assert source.late_injected > 0
        assert status.records_dropped_late == source.late_injected
        # The rolling fit landed mid-feed and flipped the published prior mode
        # without interrupting publication.
        modes = [r["prior"] for r in records]
        assert modes[0] == "gravity"
        assert modes[-1] == "stable_fp"
        versions = [r["prior_version"] for r in records]
        assert versions == sorted(versions)  # swaps only move forward
        snapshot = json.loads(status_path.read_text())
        assert snapshot["records_dropped_late"] == source.late_injected
        assert snapshot["prior"]["refits"] >= 1


class TestServiceCheckpointResume:
    def test_stop_resume_matches_uninterrupted_run(self, tmp_path, abilene):
        trace = "examples/sample_flows.csv"
        common = dict(bin_seconds=300.0, chunk_bins=4)

        full_sink = tmp_path / "full.jsonl"
        IngestService(
            FileReplaySource(trace, abilene.nodes), abilene, sink=full_sink, **common
        ).run()

        sink = tmp_path / "resumed.jsonl"
        checkpoint = tmp_path / "checkpoint.json"
        first = IngestService(
            FileReplaySource(trace, abilene.nodes), abilene,
            sink=sink, checkpoint_path=checkpoint, max_bins=8, **common,
        ).run()
        assert first.bins_published == 8
        payload = json.loads(checkpoint.read_text())
        assert payload["format"] == CHECKPOINT_FORMAT
        assert payload["next_bin"] == 8

        second = IngestService(
            FileReplaySource(trace, abilene.nodes), abilene,
            sink=sink, checkpoint_path=checkpoint, **common,
        ).run()
        assert second.records_skipped > 0  # replayed records before bin 8 skipped
        assert _read_jsonl(sink) == _read_jsonl(full_sink)  # byte-identical series

    def test_checkpoint_noise_mismatch_rejected(self, tmp_path, abilene):
        checkpoint = tmp_path / "c.json"
        checkpoint.write_text(json.dumps({
            "format": CHECKPOINT_FORMAT, "next_bin": 4,
            "noise": {"std": 0.05, "seed": 0},
        }))
        with pytest.raises(ValidationError, match="noise std"):
            IngestService(
                FileReplaySource("examples/sample_flows.csv", abilene.nodes),
                abilene, checkpoint_path=checkpoint,
            )


    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.01])
    def test_non_finite_or_negative_noise_rejected(self, tmp_path, abilene, noise):
        with pytest.raises(ValidationError, match="measurement_noise"):
            IngestService(
                FileReplaySource("examples/sample_flows.csv", abilene.nodes),
                abilene, measurement_noise=noise,
                checkpoint_path=tmp_path / "checkpoint.json",
            )
        assert not (tmp_path / "checkpoint.json").exists()

    def test_checkpoint_with_nan_noise_rejected(self, tmp_path, abilene):
        checkpoint = tmp_path / "c.json"
        checkpoint.write_text(json.dumps({
            "format": CHECKPOINT_FORMAT, "next_bin": 4,
            "noise": {"std": float("nan"), "seed": 0},
        }))
        with pytest.raises(ValidationError, match="noise std"):
            IngestService(
                FileReplaySource("examples/sample_flows.csv", abilene.nodes),
                abilene, checkpoint_path=checkpoint,
            )


class _StoppingSource(FlowSource):
    """Wraps a source and requests a service stop after ``stop_after`` batches."""

    def __init__(self, inner, stop_after: int):
        super().__init__(inner.nodes)
        self._inner = inner
        self._stop_after = stop_after
        self.service = None

    def batches(self):
        for index, batch in enumerate(self._inner.batches()):
            yield batch
            if index + 1 == self._stop_after:
                self.service.request_stop()


class TestServiceCleanStop:
    def test_request_stop_publishes_closed_bins_and_checkpoints(self, tmp_path, abilene):
        source = _StoppingSource(
            FileReplaySource("examples/sample_flows.csv", abilene.nodes, batch_records=220),
            stop_after=6,
        )
        checkpoint = tmp_path / "checkpoint.json"
        service = IngestService(
            source, abilene, bin_seconds=300.0, chunk_bins=2,
            sink=tmp_path / "out.jsonl", checkpoint_path=checkpoint,
            status_path=tmp_path / "status.json",
        )
        source.service = service
        status = service.run()
        assert status.stopped_by_signal
        assert 0 < status.bins_published < 24
        records = _read_jsonl(tmp_path / "out.jsonl")
        assert [r["bin"] for r in records] == list(range(status.bins_published))
        payload = json.loads(checkpoint.read_text())
        assert payload["next_bin"] == status.bins_published
        snapshot = json.loads((tmp_path / "status.json").read_text())
        assert snapshot["stopped_by_signal"] is True


class TestBackPressureMetrics:
    def test_fully_drained_run_reports_zero_lag_and_latency_quantiles(self, tmp_path):
        data = open_dataset_stream("geant", n_weeks=1, bins_per_week=24, seed=11)
        status_path = tmp_path / "status.json"
        service = IngestService(
            SyntheticFlowSource(data.week_stream(0)),
            data.topology,
            bin_seconds=data.week_stream(0).bin_seconds,
            chunk_bins=4,
            sink=tmp_path / "estimates.jsonl",
            status_path=status_path,
        )
        status = service.run()
        assert status.bins_published == 24
        # Everything the watermark released was published: no lag, no queue.
        assert status.bins_behind_watermark == 0
        assert status.queue_depth == 0
        snapshot = json.loads(status_path.read_text())
        assert snapshot["backpressure"] == {
            "queue_depth": 0,
            "bins_behind_watermark": 0,
            "feed_lag_seconds": 0.0,
        }
        latency = snapshot["stage_latency_seconds"]
        # Every pipeline stage that ran reports an ordered quantile pair.
        for stage in ("bin", "measure", "prior", "estimate", "publish"):
            assert latency[stage]["samples"] >= 1
            assert 0.0 <= latency[stage]["p50"] <= latency[stage]["p99"]

    def test_budget_stop_reports_queue_depth_and_watermark_lag(self, tmp_path):
        # A 4-bin publication budget halts the service while the binner has
        # already closed more bins than it may publish; the remainder stays
        # queued behind the watermark, which is what the gauges must show.
        data = open_dataset_stream("geant", n_weeks=1, bins_per_week=24, seed=11)
        stream = data.week_stream(0)
        service = IngestService(
            SyntheticFlowSource(stream),
            data.topology,
            bin_seconds=stream.bin_seconds,
            chunk_bins=4,
            max_bins=4,
            sink=tmp_path / "estimates.jsonl",
            status_path=tmp_path / "status.json",
        )
        status = service.run()
        assert status.bins_published == 4
        assert status.queue_depth > 0
        assert status.bins_behind_watermark > 0
        snapshot = json.loads((tmp_path / "status.json").read_text())
        assert snapshot["backpressure"]["queue_depth"] == status.queue_depth
        assert (
            snapshot["backpressure"]["bins_behind_watermark"]
            == status.bins_behind_watermark
        )
        assert snapshot["backpressure"]["feed_lag_seconds"] == pytest.approx(
            status.bins_behind_watermark * stream.bin_seconds, rel=1e-3
        )
