"""Tests for the spill-aware analytics marts (:mod:`repro.marts`).

The contract under test is the one ``repro report`` advertises:

* exact marts (top talkers, hourly rollups, totals) are **bit-identical**
  to the materialised numpy oracle under any shard/chunk geometry,
* sketched marts (quantiles, CCDF) honour their committed error bounds on
  adversarial inputs, and quantile sketches merge commutatively,
* archives are reduced one shard at a time — peak memory is bounded by
  the shard size, not the series length (asserted via ``tracemalloc``),
* the slice-aware :class:`SpilledSeries` indexing reads only overlapping
  shards.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.errors import ValidationError
from repro.marts import (
    CCDFSketch,
    ErrorQuantilesMart,
    OdCcdfMart,
    OverviewMart,
    QuantileSketch,
    TopK,
    TopTalkersMart,
    TrafficByHourMart,
    build_report,
    open_archive,
    render_report,
)
from repro.marts.archive import ServeArchive, SweepArchive
from repro.scenarios.spill import SpillStore, discover_spilled_series


def _spilled(tmp_path, name, values, shard_bins):
    store = SpillStore(tmp_path, shard_bins=shard_bins)
    return store.add_series(name, values)


# ---------------------------------------------------------------------------
# sketches
# ---------------------------------------------------------------------------

def _rank_error(sketch, values, quantiles):
    """Worst observed rank error of the sketch's answers over ``values``."""
    ordered = np.sort(values)
    n = len(ordered)
    worst = 0.0
    for q in quantiles:
        answer = sketch.query(q)
        target = q * (n - 1)
        positions = np.where(ordered == answer)[0]
        assert positions.size, "sketch answered with a value not in the stream"
        error = min(abs(float(p) - target) for p in positions)
        worst = max(worst, error / n)
    return worst


ADVERSARIAL = {
    "uniform": lambda rng, n: rng.uniform(0, 1, n),
    "lognormal": lambda rng, n: rng.lognormal(3, 2, n),
    "constant": lambda rng, n: np.full(n, 7.25),
    "heavy_tail": lambda rng, n: rng.pareto(1.1, n) + 1.0,
    "sorted": lambda rng, n: np.sort(rng.normal(size=n)),
    "reverse_sorted": lambda rng, n: np.sort(rng.normal(size=n))[::-1],
}


class TestQuantileSketch:
    QUANTILES = (0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0)

    @pytest.mark.parametrize("shape", sorted(ADVERSARIAL))
    def test_rank_error_within_committed_bound(self, shape):
        rng = np.random.default_rng(11)
        values = ADVERSARIAL[shape](rng, 20_000)
        sketch = QuantileSketch(epsilon=0.01)
        for start in range(0, len(values), 1111):  # awkward chunking
            sketch.update(values[start : start + 1111])
        assert sketch.count == len(values)
        assert sketch.rank_error_epsilon == pytest.approx(0.01)
        assert _rank_error(sketch, values, self.QUANTILES) <= sketch.rank_error_epsilon

    def test_extremes_are_exact(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=5000)
        sketch = QuantileSketch(epsilon=0.02)
        sketch.update(values)
        assert sketch.minimum == values.min()
        assert sketch.maximum == values.max()

    def test_nan_values_counted_not_folded(self):
        values = np.array([1.0, np.nan, 3.0, np.nan, 5.0])
        sketch = QuantileSketch(epsilon=0.1)
        sketch.update(values)
        assert sketch.count == 3
        assert sketch.nan_count == 2
        assert sketch.query(0.5) == 3.0

    def test_merge_is_commutative_and_bound_widens(self):
        rng = np.random.default_rng(29)
        for seed in range(4):
            parts = np.split(rng.lognormal(2, 1.5, 16_000), [7000])
            a1, b1 = QuantileSketch(epsilon=0.01), QuantileSketch(epsilon=0.01)
            a2, b2 = QuantileSketch(epsilon=0.01), QuantileSketch(epsilon=0.01)
            for s in (a1, a2):
                s.update(parts[0])
            for s in (b1, b2):
                s.update(parts[1])
            ab = a1.merge(b1)
            ba = b2.merge(a2)
            assert ab.count == ba.count == 16_000
            assert ab.rank_error_epsilon == ba.rank_error_epsilon == pytest.approx(0.02)
            all_values = np.concatenate(parts)
            for q in self.QUANTILES:
                assert ab.query(q) == ba.query(q)
            assert _rank_error(ab, all_values, self.QUANTILES) <= ab.rank_error_epsilon

    def test_eight_way_shard_merge_stays_within_summed_bound(self):
        rng = np.random.default_rng(5)
        values = rng.gamma(2.0, 10.0, 24_000)
        shards = np.split(values, 8)
        merged = None
        for shard in shards:
            sketch = QuantileSketch(epsilon=0.005)
            sketch.update(shard)
            merged = sketch if merged is None else merged.merge(sketch)
        assert merged.rank_error_epsilon == pytest.approx(0.04)
        assert _rank_error(merged, values, self.QUANTILES) <= merged.rank_error_epsilon

    def test_memory_is_bounded_by_epsilon_not_stream_length(self):
        sketch = QuantileSketch(epsilon=0.01)
        rng = np.random.default_rng(1)
        chunk = rng.normal(size=1000)
        tracemalloc.start()
        for _ in range(200):  # 200k values through an eps=0.01 sketch
            sketch.update(chunk)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # State is O(1/eps log(eps n)) tuples; 1 MiB is far above that but
        # far below what retaining the 200k-value stream would need.
        assert peak < 1 << 20


class TestCCDFSketch:
    def test_ccdf_counts_exact_at_edges(self):
        rng = np.random.default_rng(23)
        values = rng.lognormal(4, 2, 30_000)
        sketch = CCDFSketch(bins_per_decade=20)
        sketch.update(values)
        rows = sketch.ccdf()
        assert rows, "occupied sketch must render CCDF points"
        for edge, count_ge, fraction_ge in rows:
            assert count_ge == int((values >= edge).sum())
            assert fraction_ge == count_ge / len(values)

    def test_zero_negative_nan_counted_separately(self):
        sketch = CCDFSketch()
        sketch.update(np.array([0.0, -1.0, np.nan, 2.0, 3.0]))
        assert sketch.zero_count == 1
        assert sketch.negative_count == 1
        assert sketch.nan_count == 1
        assert sketch.positive_count == 2
        assert sketch.count == 4  # NaNs excluded, zeros/negatives included

    def test_quantile_within_one_log_bin(self):
        rng = np.random.default_rng(13)
        values = rng.pareto(1.2, 50_000) + 1.0
        sketch = CCDFSketch(bins_per_decade=20)
        sketch.update(values)
        bin_ratio = 10.0 ** (1.0 / 20.0)
        for q in (0.5, 0.9, 0.99):
            exact = np.quantile(values, q)
            assert exact / bin_ratio <= sketch.quantile(q) <= exact * bin_ratio


class TestTopK:
    def test_keeps_the_k_largest_in_order(self):
        top = TopK(3)
        top.update((float(v), str(v)) for v in [5, 1, 9, 7, 3, 8])
        assert top.result() == [(9.0, "9"), (8.0, "8"), (7.0, "7")]

    def test_heap_never_exceeds_k(self):
        top = TopK(4)
        top.update((float(i), i) for i in range(10_000))
        assert len(top.result()) == 4
        assert top.result()[0] == (9999.0, 9999)


# ---------------------------------------------------------------------------
# exact cube marts: bit-identity against the materialised oracle
# ---------------------------------------------------------------------------

def _cube(bins=96, n=6, seed=0):
    return np.random.default_rng(seed).gamma(2.0, 1000.0, size=(bins, n, n))


CHUNKINGS = [1, 7, 13, 50, 96]


class TestExactMartsBitIdentity:
    @pytest.mark.parametrize("chunk", CHUNKINGS)
    def test_top_talkers_match_cube_sum_bitwise(self, chunk):
        cube = _cube()
        mart = TopTalkersMart(k=5)
        for t0 in range(0, len(cube), chunk):
            mart.update(t0, cube[t0 : t0 + chunk])
        od_sum = cube.sum(axis=0)
        result = mart.result()
        assert np.array_equal(np.asarray(result["ingress_totals"]), od_sum.sum(axis=1))
        assert np.array_equal(np.asarray(result["egress_totals"]), od_sum.sum(axis=0))
        order = np.argsort(od_sum, axis=None)[::-1][:5]
        assert [row["total"] for row in result["rows"]] == [
            float(od_sum.flat[i]) for i in order
        ]

    @pytest.mark.parametrize("chunk", CHUNKINGS)
    def test_hourly_rollup_matches_sequential_oracle(self, chunk):
        cube = _cube()
        mart = TrafficByHourMart(bins_per_hour=4)
        for t0 in range(0, len(cube), chunk):
            mart.update(t0, cube[t0 : t0 + chunk])
        bin_totals = cube.sum(axis=(1, 2))
        oracle = np.zeros(24)
        np.add.at(oracle, (np.arange(len(cube)) // 4) % 24, bin_totals)
        rows = {row["hour"]: row["total"] for row in mart.result()["rows"]}
        for hour in range(24):
            if oracle[hour]:
                assert rows[hour] == oracle[hour]

    def test_overview_totals_match_oracle(self):
        cube = _cube()
        mart = OverviewMart()
        for t0 in range(0, len(cube), 13):
            mart.update(t0, cube[t0 : t0 + 13])
        result = mart.result()
        bin_totals = cube.sum(axis=(1, 2))
        assert result["total_traffic"] == cube.sum(axis=0).sum()
        assert result["max_bin_total"] == bin_totals.max()
        assert result["min_bin_total"] == bin_totals.min()


class TestErrorQuantilesMart:
    def test_mean_extremes_and_bound(self):
        rng = np.random.default_rng(2)
        series = rng.uniform(0.1, 0.9, 500)
        mart = ErrorQuantilesMart(epsilon=0.01)
        for t0 in range(0, 500, 37):
            mart.update(t0, series[t0 : t0 + 37])
        result = mart.result()
        assert result["bins"] == 500
        assert result["min"] == series.min()
        assert result["max"] == series.max()
        assert result["mean"] == pytest.approx(series.mean(), rel=1e-12)
        assert result["rank_error_bound"] == pytest.approx(0.01)

    def test_nan_bins_reported(self):
        mart = ErrorQuantilesMart()
        mart.update(0, np.array([0.5, np.nan, 0.7]))
        result = mart.result()
        assert result["bins"] == 2  # finite bins only
        assert result["nan_bins"] == 1
        assert result["mean"] == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# spilled-series slicing and iter_blocks
# ---------------------------------------------------------------------------

class TestSpilledSeriesAccess:
    def test_getitem_matches_numpy_semantics(self, tmp_path):
        values = np.random.default_rng(0).normal(size=(101, 3))
        series = _spilled(tmp_path, "s", values, shard_bins=17)
        for key in [
            5,
            -1,
            slice(None),
            slice(10, 40),
            slice(30, 90, 7),
            slice(90, 10, -3),
            slice(None, None, -1),
            (slice(20, 55), 1),
        ]:
            assert np.array_equal(series[key], values[key]), key

    def test_slice_reads_only_overlapping_shards(self, tmp_path):
        values = np.random.default_rng(1).normal(size=(4096, 8, 8))  # 2 MiB
        series = _spilled(tmp_path, "big", values, shard_bins=128)
        tracemalloc.start()
        window = series[256:384]
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert np.array_equal(window, values[256:384])
        # One 128-bin shard is 64 KiB; full materialisation would be 2 MiB.
        assert peak < 600 * 1024

    def test_iter_blocks_covers_window_in_order(self, tmp_path):
        values = np.random.default_rng(2).normal(size=201)
        series = _spilled(tmp_path, "s", values, shard_bins=31)
        rebuilt = []
        expected_t0 = 40
        for t0, block in series.iter_blocks(40, 170):
            assert t0 == expected_t0
            expected_t0 += len(block)
            rebuilt.append(block)
        assert np.array_equal(np.concatenate(rebuilt), values[40:170])

    def test_discover_rejects_gaps(self, tmp_path):
        values = np.arange(60, dtype=float)
        _spilled(tmp_path, "s", values, shard_bins=20)
        (tmp_path / "s-00000020.npz").unlink()
        with pytest.raises(ValidationError, match="expected a shard"):
            discover_spilled_series(tmp_path)


# ---------------------------------------------------------------------------
# archives and the report layer
# ---------------------------------------------------------------------------

def _sweep_archive(tmp_path, bins=60, n=5):
    rng = np.random.default_rng(9)
    cubes = {}
    for label in ("geant-gravity", "geant-measured"):
        cell = tmp_path / label
        store = SpillStore(cell, shard_bins=16)
        cube = rng.gamma(2.0, 500.0, size=(bins, n, n))
        errors = rng.uniform(0.2, 0.5, size=bins)
        store.add_series("estimate", cube)
        store.add_series("errors", errors)
        cubes[label] = (cube, errors)
    return cubes


class TestSweepArchiveReport:
    def test_report_matches_materialised_oracle(self, tmp_path):
        cubes = _sweep_archive(tmp_path)
        report = build_report(open_archive(tmp_path), marts=["top_talkers", "overview"])
        assert report["archive_kind"] == "sweep"
        assert len(report["cells"]) == 2
        for cell in report["cells"]:
            cube, _ = cubes[cell["cell"]]
            od_sum = cube.sum(axis=0)
            top = cell["marts"]["top_talkers"]
            assert np.array_equal(np.asarray(top["ingress_totals"]), od_sum.sum(axis=1))
            assert cell["marts"]["overview"]["total_traffic"] == od_sum.sum()

    def test_window_restricts_the_reduction(self, tmp_path):
        cubes = _sweep_archive(tmp_path)
        report = build_report(
            open_archive(tmp_path), marts=["overview"], window=(16, 48)
        )
        for cell in report["cells"]:
            cube, _ = cubes[cell["cell"]]
            assert cell["marts"]["overview"]["n_bins"] == 32
            assert (
                cell["marts"]["overview"]["total_traffic"]
                == cube[16:48].sum(axis=0).sum()
            )

    def test_unknown_mart_rejected(self, tmp_path):
        _sweep_archive(tmp_path)
        with pytest.raises(ValidationError, match="unknown mart"):
            build_report(open_archive(tmp_path), marts=["nope"])

    def test_missing_series_skips_with_note(self, tmp_path):
        store = SpillStore(tmp_path / "cell", shard_bins=8)
        store.add_series("errors", np.random.default_rng(0).uniform(size=24))
        report = build_report(open_archive(tmp_path), marts=["overview", "error_quantiles"])
        (cell,) = report["cells"]
        assert "error_quantiles" in cell["marts"]
        assert "overview" in cell["skipped"]

    def test_report_memory_bounded_by_shard_not_series(self, tmp_path):
        rng = np.random.default_rng(4)
        store = SpillStore(tmp_path / "cell", shard_bins=64)
        cube = rng.gamma(2.0, 100.0, size=(2048, 12, 12))  # 2.25 MiB materialised
        store.add_series("estimate", cube)
        store.add_series("errors", rng.uniform(size=2048))
        archive = open_archive(tmp_path)
        tracemalloc.start()
        build_report(archive)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < cube.nbytes / 2  # one 72 KiB shard + sketches, not the cube

    def test_render_formats(self, tmp_path):
        _sweep_archive(tmp_path)
        report = build_report(open_archive(tmp_path), marts=["overview"])
        table = render_report(report, "table")
        assert "== geant-gravity ==" in table
        parsed = json.loads(render_report(report, "json"))
        assert parsed["archive_kind"] == "sweep"
        csv_text = render_report(report, "csv")
        assert csv_text.splitlines()[0] == "cell,mart,field,value"
        with pytest.raises(ValidationError, match="unknown report format"):
            render_report(report, "yaml")


class TestServeArchive:
    def _serve_sink(self, tmp_path, bins=40, n=4, sidecar=True):
        rng = np.random.default_rng(31)
        cube = rng.gamma(2.0, 100.0, size=(bins, n, n))
        jsonl = tmp_path / "estimates.jsonl"
        with jsonl.open("w") as handle:
            for index in range(bins):
                handle.write(
                    json.dumps(
                        {
                            "bin": index,
                            "time": index * 300.0,
                            "prior": "gravity",
                            "prior_version": 0,
                            "estimate": cube[index].tolist(),
                        }
                    )
                    + "\n"
                )
        if sidecar:
            writer = SpillStore(tmp_path, shard_bins=16).writer("estimate")
            for start in range(0, bins, 8):
                writer(start, cube[start : start + 8])
            writer.finish()
        return cube

    def test_sidecar_preferred_and_equal_to_jsonl(self, tmp_path):
        cube = self._serve_sink(tmp_path, sidecar=True)
        archive = open_archive(tmp_path)
        assert isinstance(archive, ServeArchive)
        assert archive.used_sidecar
        report = build_report(archive, marts=["overview", "top_talkers"])

        jsonl_only = tmp_path / "jsonl-only"
        jsonl_only.mkdir()
        (tmp_path / "estimates.jsonl").rename(jsonl_only / "estimates.jsonl")
        fallback = open_archive(jsonl_only)
        assert not fallback.used_sidecar
        via_jsonl = build_report(fallback, marts=["overview", "top_talkers"])
        assert json.dumps(report["cells"][0]["marts"], sort_keys=True) == json.dumps(
            via_jsonl["cells"][0]["marts"], sort_keys=True
        )
        od_sum = cube.sum(axis=0)
        overview = report["cells"][0]["marts"]["overview"]
        assert overview["total_traffic"] == od_sum.sum()

    def test_short_sidecar_falls_back_to_jsonl(self, tmp_path):
        self._serve_sink(tmp_path, sidecar=True)
        # Simulate an unflushed tail: drop the last shard so the sidecar is
        # shorter than the published JSONL.
        shards = sorted(tmp_path.glob("estimate-*.npz"))
        shards[-1].unlink()
        archive = open_archive(tmp_path)
        assert not archive.used_sidecar
        report = build_report(archive, marts=["overview"])
        assert report["cells"][0]["marts"]["overview"]["n_bins"] == 40

    def test_service_sidecar_matches_jsonl(self, tmp_path):
        """End-to-end: `repro serve --estimate-shards` writes a coherent sidecar."""
        from repro.ingest import IngestService, SyntheticFlowSource
        from repro.synthesis.datasets import open_dataset_stream

        data = open_dataset_stream("geant", n_weeks=1, bins_per_week=24, seed=5,
                                   chunk_bins=8)
        sink = tmp_path / "sink"
        sink.mkdir()
        service = IngestService(
            SyntheticFlowSource(data.week_stream(0)),
            data.topology,
            bin_seconds=data.week_stream(0).bin_seconds,
            chunk_bins=8,
            sink=sink / "estimates.jsonl",
            estimate_shards_dir=sink / "shards",
            max_bins=24,
        )
        status = service.run()
        assert status.bins_published == 24
        archive = open_archive(sink)
        assert archive.used_sidecar
        published = np.array(
            [
                json.loads(line)["estimate"]
                for line in (sink / "estimates.jsonl").read_text().splitlines()
            ]
        )
        shards = discover_spilled_series(sink / "shards")["estimate"]
        assert np.array_equal(shards.load(), published)


class TestReportCli:
    def test_cli_json_matches_materialised_oracle(self, tmp_path, capsys):
        cubes = _sweep_archive(tmp_path)
        assert cli_main(["report", str(tmp_path), "--marts", "overview",
                         "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        for cell in report["cells"]:
            cube, _ = cubes[cell["cell"]]
            assert cell["marts"]["overview"]["total_traffic"] == cube.sum(axis=0).sum()

    def test_cli_help_marts_and_missing_archive(self, capsys):
        assert cli_main(["report", "--help-marts"]) == 0
        assert "top_talkers" in capsys.readouterr().out
        assert cli_main(["report"]) == 2

    def test_cli_bad_window_rejected(self, tmp_path):
        assert cli_main(["report", str(tmp_path), "--window", "5", "5"]) == 2

    def test_cli_nonexistent_archive_errors_cleanly(self, tmp_path, capsys):
        assert cli_main(["report", str(tmp_path / "missing")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact", ["shard", "shard_body", "manifest", "serve_jsonl"])
    def test_cli_torn_file_exits_2_naming_it(self, tmp_path, capsys, artifact):
        """A half-written shard, manifest or sink is an error naming the file."""
        if artifact == "serve_jsonl":
            torn = tmp_path / "estimates.jsonl"
            torn.write_text("".join(
                json.dumps({"bin": index, "estimate": [[1.0, 2.0], [3.0, 4.0]]}) + "\n"
                for index in range(3)
            ))
        else:
            _sweep_archive(tmp_path)
            torn = tmp_path / "geant-gravity" / "estimate-00000000.npz"
            if artifact == "manifest":
                torn = tmp_path / "manifest.jsonl"
                torn.write_text(
                    json.dumps({"label": "geant-gravity", "ok": True, "bins": 60}) + "\n"
                )
        size = torn.stat().st_size
        with torn.open("r+b") as handle:
            if artifact == "shard_body":
                # The zip directory survives, so only decompression fails.
                handle.seek(size // 2)
                handle.write(b"\0" * 64)
            else:
                handle.truncate(size // 2 if artifact == "shard" else size - 30)
        assert cli_main(["report", str(tmp_path), "--format", "json"]) == 2
        err = capsys.readouterr().err
        assert str(torn) in err
        assert "Traceback" not in err
