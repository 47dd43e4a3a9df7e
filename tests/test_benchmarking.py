"""Tests for the benchmark harness, the BENCH JSON format and `repro bench`."""

from __future__ import annotations

import json

import pytest

from repro.benchmarking import (
    BenchmarkRecord,
    bench_ic_series_kernel,
    bench_ipf_series,
    bench_routing_matrix,
    bench_tomogravity_batch,
    current_revision,
    environment_info,
    format_records,
    run_benchmarks,
    write_bench_json,
)
from repro import benchmarking
from repro.cli import main


@pytest.fixture
def small_sweep_grid(monkeypatch):
    """Point the quick set's sweep benches at seconds-scale workloads."""

    original = benchmarking.bench_sweep_grid
    original_executor = benchmarking.bench_sweep_executor

    def tiny(**_ignored):
        return original(
            priors=("gravity", "stable_f"),
            datasets=("geant",),
            bins_per_week=48,
            max_bins=4,
            jobs=2,
            repeat=1,
        )

    def tiny_executor(**_ignored):
        return original_executor(
            n_targets=2, bins_per_week=48, max_bins=4, pool_jobs=2, repeat=1
        )

    monkeypatch.setattr(benchmarking, "bench_sweep_grid", tiny)
    monkeypatch.setattr(benchmarking, "bench_sweep_executor", tiny_executor)
    return tiny


class TestRecordsAndWriter:
    def test_record_roundtrip(self):
        record = BenchmarkRecord("x", 0.5, {"speedup": 2.0})
        assert record.to_dict() == {
            "name": "x",
            "wall_seconds": 0.5,
            "extra_info": {"speedup": 2.0},
        }

    def test_write_bench_json_schema(self, tmp_path):
        records = [BenchmarkRecord("a", 0.1, {"k": 1}), BenchmarkRecord("b", 0.2)]
        path = write_bench_json(records, directory=tmp_path, revision="deadbee")
        assert path.name == "BENCH_deadbee.json"
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-bench-v1"
        assert payload["revision"] == "deadbee"
        assert {"python", "numpy", "platform"} <= set(payload["environment"])
        assert [bench["name"] for bench in payload["benchmarks"]] == ["a", "b"]
        assert payload["benchmarks"][0]["extra_info"] == {"k": 1}

    def test_write_bench_json_explicit_path(self, tmp_path):
        target = tmp_path / "sub" / "custom.json"
        path = write_bench_json([BenchmarkRecord("a", 0.1)], path=target, revision="r")
        assert path == target and target.exists()

    def test_current_revision_is_nonempty(self):
        assert current_revision()

    def test_environment_info_keys(self):
        info = environment_info()
        assert set(info) == {"python", "numpy", "platform"}

    def test_format_records_tabulates(self):
        table = format_records([BenchmarkRecord("kernel", 0.25, {"speedup": 3.0})])
        assert "kernel" in table and "0.25" in table and "speedup=3" in table


class TestMicroBenchmarks:
    def test_ic_series_kernel_headline(self):
        """The acceptance headline: batched kernel >= 5x the per-bin loop."""
        record = bench_ic_series_kernel(n=50, timesteps=288, repeat=3)
        assert record.extra_info["matches_loop_bitwise"] is True
        assert record.extra_info["speedup_vs_loop"] >= 5.0
        assert record.wall_seconds > 0

    def test_ipf_series_benchmark_matches(self):
        record = bench_ipf_series(bins=8, repeat=1)
        assert record.extra_info["matches_loop_bitwise"] is True

    def test_tomogravity_benchmark_matches(self):
        record = bench_tomogravity_batch(bins=4, repeat=1)
        assert record.extra_info["matches_loop_bitwise"] is True

    def test_routing_benchmark_reports_sparsity(self):
        record = bench_routing_matrix(repeat=1)
        assert 0 < record.extra_info["nnz_density"] < 1

    def test_run_benchmarks_quick_set(self, small_sweep_grid):
        records = run_benchmarks(quick=True, repeat=1)
        names = [record.name for record in records]
        assert names == [
            "ic_series_kernel",
            "routing_matrix",
            "ipf_series",
            "tomogravity_batch",
            "streaming_synthesis",
            "ingest_throughput",
            "sweep_grid",
            "sweep_executor",
            "report_marts",
            "obs_overhead",
        ]

    def test_bench_sweep_grid_record(self, small_sweep_grid):
        record = small_sweep_grid()
        assert record.name == "sweep_grid"
        extra = record.extra_info
        assert extra["matches_serial_bitwise"] is True
        assert extra["cells"] == 2
        assert extra["serial_stream_seconds"] > 0

    def test_bench_sweep_executor_record(self):
        record = benchmarking.bench_sweep_executor(
            n_targets=2, bins_per_week=48, max_bins=4, pool_jobs=2, repeat=1
        )
        assert record.name == "sweep_executor"
        extra = record.extra_info
        assert extra["matches_serial_bitwise"] is True
        assert extra["cells"] == 2
        assert extra["memoisation_speedup"] > 0
        assert extra["pool_unmemoised_seconds"] > 0
        assert extra["speedup_vs_serial"] > 0

    def test_bench_obs_overhead_record(self):
        record = benchmarking.bench_obs_overhead(bins=48, chunk_bins=16, repeat=1)
        assert record.name == "obs_overhead"
        extra = record.extra_info
        assert extra["matches_seed_bitwise"] is True
        assert extra["seed_seconds"] > 0
        assert extra["budget_pct"] == 2.0


class TestBenchCLI:
    def test_bench_quick_writes_file(self, tmp_path, capsys, small_sweep_grid):
        exit_code = main(
            ["bench", "--quick", "--repeat", "1", "--output", str(tmp_path), "--rev", "test"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "ic_series_kernel" in out
        payload = json.loads((tmp_path / "BENCH_test.json").read_text())
        assert len(payload["benchmarks"]) == 10
        by_name = {bench["name"]: bench for bench in payload["benchmarks"]}
        assert by_name["sweep_grid"]["extra_info"]["matches_serial_bitwise"] is True
        assert payload["obs"]["overhead_pct"] is not None

    def test_bench_explicit_json_path(self, tmp_path, small_sweep_grid):
        target = tmp_path / "snapshot.json"
        exit_code = main(
            ["bench", "--quick", "--repeat", "1", "--output", str(target), "--rev", "x"]
        )
        assert exit_code == 0
        assert target.exists()


class TestBenchUtilsSharedFormat:
    def test_emit_records_into_shared_format(self, tmp_path, monkeypatch):
        import importlib.util
        import pathlib
        import sys

        bench_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
        spec = importlib.util.spec_from_file_location(
            "_bench_utils_under_test", bench_dir / "_bench_utils.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)

        class FakeStatsInner:
            mean = 0.125

        class FakeStats:
            stats = FakeStatsInner()

        class FakeBenchmark:
            name = "test_fake_benchmark"
            stats = FakeStats()

            def __init__(self):
                self.extra_info = {}

        class FakeResult:
            @staticmethod
            def format_table():
                return "quantity value"

        benchmark = FakeBenchmark()
        module.emit(benchmark, FakeResult(), dataset="geant", score=1.5)
        assert benchmark.extra_info == {"dataset": "geant", "score": 1.5}
        assert module._collected[-1].name == "test_fake_benchmark"
        assert module._collected[-1].wall_seconds == pytest.approx(0.125)
        assert module._collected[-1].extra_info == {"dataset": "geant", "score": 1.5}

        target = tmp_path / "BENCH_adhoc.json"
        monkeypatch.setenv("REPRO_BENCH_JSON", str(target))
        module._flush_collected()
        payload = json.loads(target.read_text())
        assert payload["benchmarks"][-1]["name"] == "test_fake_benchmark"


class TestBenchCompare:
    def _write(self, tmp_path, name, times, revision):
        records = [
            benchmarking.BenchmarkRecord(name=bench, wall_seconds=seconds)
            for bench, seconds in times.items()
        ]
        return benchmarking.write_bench_json(
            records, path=tmp_path / name, revision=revision
        )

    def test_no_regression_within_threshold(self, tmp_path):
        old = self._write(tmp_path, "a.json", {"k1": 1.0, "k2": 0.5}, "aaa")
        new = self._write(tmp_path, "b.json", {"k1": 1.1, "k2": 0.45}, "bbb")
        comparison = benchmarking.compare_bench_files(old, new, threshold=0.25)
        assert not comparison.has_regressions
        assert comparison.old_revision == "aaa"
        assert comparison.new_revision == "bbb"
        table = comparison.format_table()
        assert "no regressions" in table
        assert "aaa -> bbb" in table

    def test_regression_beyond_threshold_is_flagged(self, tmp_path):
        old = self._write(tmp_path, "a.json", {"k1": 1.0, "k2": 0.5}, "aaa")
        new = self._write(tmp_path, "b.json", {"k1": 1.5, "k2": 0.5}, "bbb")
        comparison = benchmarking.compare_bench_files(old, new, threshold=0.25)
        assert comparison.has_regressions
        assert [row[0] for row in comparison.regressions] == ["k1"]
        assert "REGRESSED" in comparison.format_table()

    def test_disjoint_benchmarks_are_reported_not_compared(self, tmp_path):
        old = self._write(tmp_path, "a.json", {"k1": 1.0, "gone": 2.0}, "aaa")
        new = self._write(tmp_path, "b.json", {"k1": 1.0, "fresh": 2.0}, "bbb")
        comparison = benchmarking.compare_bench_files(old, new)
        assert comparison.only_old == ["gone"]
        assert comparison.only_new == ["fresh"]
        assert [row[0] for row in comparison.rows] == ["k1"]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="repro-bench-v1"):
            benchmarking.load_bench_json(path)

    def test_cli_compare_exit_codes(self, tmp_path, capsys):
        old = self._write(tmp_path, "a.json", {"k1": 1.0}, "aaa")
        new = self._write(tmp_path, "b.json", {"k1": 1.0}, "bbb")
        slow = self._write(tmp_path, "c.json", {"k1": 2.0}, "ccc")
        assert main(["bench", "--compare", str(old), str(new)]) == 0
        assert main(["bench", "--compare", str(old), str(slow)]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        assert main(["bench", "--compare", str(old), str(tmp_path / "missing.json")]) == 2
        assert main(["bench", "--compare", str(old), str(new), "--threshold", "-1"]) == 2

    def test_streaming_synthesis_benchmark_bounds_memory(self):
        record = benchmarking.bench_streaming_synthesis(bins=96, repeat=1)
        assert record.name == "streaming_synthesis"
        assert record.extra_info["peak_memory_ratio"] > 1.0

    def test_ingest_throughput_benchmark_meets_slo(self):
        record = benchmarking.bench_ingest_throughput(bins=16, repeat=1)
        assert record.name == "ingest_throughput"
        extra = record.extra_info
        assert extra["records"] == extra["bins"] * 22 * 22 * extra["records_per_pair"]
        # The service SLO: the pure-numpy binner sustains >= 100k records/sec.
        assert extra["records_per_sec"] >= 100_000
