"""Tests for the subcommand command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS
from repro.registry import DATASETS, PRIORS

SMALL = ["--bins-per-week", "36", "--max-bins", "6"]


def _run_fresh(code: str) -> None:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})


def test_cli_import_needs_no_networkx():
    """A fresh interpreter imports the CLI without pulling in networkx."""
    _run_fresh("import repro.cli, sys; assert 'networkx' not in sys.modules")


def test_cli_start_loads_no_scipy_stats_or_optimize():
    """Parser and registry set-up leave the fitting-only scipy modules unloaded."""
    _run_fresh(
        "import sys, repro.cli, repro.registry\n"
        "repro.cli.build_parser()\n"
        "repro.registry.ensure_populated()\n"
        "loaded = [m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


def test_cli_start_imports_no_http_server():
    """Only ``--metrics-port`` serves HTTP, so no other start loads ``http.server``."""
    _run_fresh(
        "import sys, repro.cli, repro.registry\n"
        "repro.cli.build_parser()\n"
        "repro.registry.ensure_populated()\n"
        "assert 'http.server' not in sys.modules\n"
    )


def test_closed_stdout_pipe_exits_quietly():
    """``repro run fig3 | head`` exits 1 with no traceback when the reader goes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command prints
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "fig3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=300,
        )
    finally:
        os.close(write_end)
    stderr = completed.stderr.decode()
    assert "Traceback" not in stderr, stderr
    assert completed.returncode == 1


class TestParser:
    def test_run_experiment_choices_cover_registry(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig2"])
        assert args.experiment == "fig2"
        for name in list(EXPERIMENTS) + ["all"]:
            assert parser.parse_args(["run", name]).experiment == name

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig2"])
        assert args.dataset is None
        assert not args.full_scale
        assert args.bins_per_week is None

    def test_rejects_unknown_experiment_with_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "fig99"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_rejects_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["frobnicate"])
        assert excinfo.value.code == 2

    def test_estimate_requires_prior_and_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--prior", "gravity"])


class TestRun:
    def test_runs_fig2(self, capsys):
        assert main(["run", "fig2"]) == 0
        output = capsys.readouterr().out
        assert "fig2" in output
        assert "P[E=A]" in output

    def test_runs_fig3_with_dataset_and_bins(self, capsys):
        assert main(["run", "fig3", "--dataset", "geant", "--bins-per-week", "24"]) == 0
        assert "mean improvement %" in capsys.readouterr().out

    def test_runs_fig10(self, capsys):
        assert main(["run", "fig10"]) == 0
        assert "asymmetry level" in capsys.readouterr().out

    def test_legacy_positional_form_still_works(self, capsys):
        assert main(["fig2"]) == 0
        assert "P[E=A]" in capsys.readouterr().out

    def test_legacy_form_accepts_flags_before_experiment(self, capsys):
        assert main(["--bins-per-week", "24", "fig3"]) == 0
        assert "mean improvement %" in capsys.readouterr().out

    def test_newly_registered_experiment_is_runnable(self, capsys):
        from repro.registry import EXPERIMENTS_REGISTRY

        class _Result:
            @staticmethod
            def format_table():
                return "custom-table"

        EXPERIMENTS_REGISTRY.register(
            "figtest", lambda: _Result(), description="test", metadata={"accepts": ()}
        )
        try:
            assert main(["run", "figtest"]) == 0
            assert "custom-table" in capsys.readouterr().out
        finally:
            EXPERIMENTS_REGISTRY.unregister("figtest")

    def test_unknown_dataset_exits_2_naming_choices(self, capsys):
        assert main(["run", "fig3", "--dataset", "nonesuch"]) == 2
        err = capsys.readouterr().err
        assert "nonesuch" in err
        for name in DATASETS.names():
            assert name in err


class TestEstimate:
    def test_estimate_smoke(self, capsys):
        code = main(["estimate", "--prior", "stable_f", "--dataset", "geant", *SMALL])
        assert code == 0
        output = capsys.readouterr().out
        assert "mean improvement %" in output
        assert "stable-f" in output

    def test_unknown_prior_exits_2_naming_choices(self, capsys):
        assert main(["estimate", "--prior", "bogus", "--dataset", "geant"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        for name in PRIORS.names():
            assert name in err

    def test_unknown_dataset_exits_2(self, capsys):
        assert main(["estimate", "--prior", "gravity", "--dataset", "bogus"]) == 2
        assert "registered datasets" in capsys.readouterr().err

    def test_incompatible_weeks_exit_2(self, capsys):
        code = main([
            "estimate", "--prior", "stable_fp", "--dataset", "geant",
            "--target-week", "0", *SMALL,
        ])
        assert code == 2
        assert "target_week" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_measurement_noise_exits_2(self, capsys, noise):
        code = main([
            "estimate", "--prior", "gravity", "--dataset", "geant",
            "--bins-per-week", "36", "--max-bins", "4", "--measurement-noise", noise,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "measurement_noise" in err

    def test_no_baseline_skips_comparison(self, capsys):
        code = main([
            "estimate", "--prior", "gravity", "--dataset", "geant",
            "--no-baseline", *SMALL,
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "mean estimation error" in output
        assert "mean improvement %" not in output


class TestSweep:
    def test_sweep_smoke(self, capsys):
        code = main([
            "sweep", "--priors", "stable_f", "gravity",
            "--datasets", "geant", "totem", *SMALL,
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "geant" in output
        assert "totem" in output
        assert "stable_f" in output
        assert "4/4 cells ok" in output

    def test_sweep_unknown_prior_exits_2(self, capsys):
        code = main(["sweep", "--priors", "bogus", "--datasets", "geant", *SMALL])
        assert code == 2
        assert "registered priors" in capsys.readouterr().err

    def test_sweep_parallel_jobs_matches_serial(self, capsys):
        args = ["sweep", "--priors", "stable_f", "gravity", "--datasets", "geant", *SMALL]
        assert main(args) == 0
        serial_output = capsys.readouterr().out
        assert main([*args, "--jobs", "2"]) == 0
        parallel_output = capsys.readouterr().out
        assert parallel_output == serial_output

    def test_sweep_help_documents_jobs_semantics(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--help"])
        output = capsys.readouterr().out
        assert "--jobs" in output
        assert "deterministic" in output

    def test_sweep_negative_jobs_exits_2(self, capsys):
        code = main(["sweep", "--priors", "stable_f", "--datasets", "geant",
                     "--jobs", "-3", *SMALL])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_worker_negative_max_connections_exits_2(self, capsys):
        # Negative used to mean "serve forever"; it is rejected like --port.
        assert main(["sweep-worker", "--max-connections", "-1"]) == 2
        assert "--max-connections must be >= 0" in capsys.readouterr().err


class TestList:
    def test_list_priors_names_all_registered(self, capsys):
        assert main(["list", "priors"]) == 0
        output = capsys.readouterr().out
        for name in ("gravity", "measured", "stable_f", "stable_fp"):
            assert name in output

    def test_list_everything(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for kind in ("priors:", "estimators:", "datasets:", "topologies:", "experiments:"):
            assert kind in output

    @pytest.mark.parametrize("kind", ["widgets", "models"])
    def test_list_rejects_unknown_kind(self, kind):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["list", kind])
        assert excinfo.value.code == 2

    def test_list_shows_prior_metadata(self, capsys):
        assert main(["list", "priors"]) == 0
        output = capsys.readouterr().out
        assert "week_mode=gap" in output
        assert "side_information=f, P" in output

    def test_list_mentions_parallel_sweep_discovery(self, capsys):
        assert main(["list", "priors"]) == 0
        assert "--jobs" in capsys.readouterr().out

    def test_list_datasets_marks_streamable(self, capsys):
        assert main(["list", "datasets"]) == 0
        output = capsys.readouterr().out
        assert "[streamable]" in output
        streamable = [line for line in output.splitlines() if "[streamable]" in line]
        assert any("geant" in line for line in streamable)

    def test_bench_subcommand_registered(self, capsys):
        """``bench`` is no subcommand: the timing harness is ``perfbench/run.py``."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestStreaming:
    """The --stream/--chunk-bins knobs on run, estimate and sweep."""

    def test_estimate_stream_reports_chunking_and_rss(self, capsys):
        code = main(
            ["estimate", "--prior", "stable_f", "--dataset", "geant",
             "--stream", "--chunk-bins", "4", *SMALL]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streamed chunk bins" in out
        assert "4" in out
        assert "peak RSS" in out

    def test_estimate_stream_matches_in_memory_numbers(self, capsys):
        assert main(["estimate", "--prior", "stable_f", "--dataset", "geant", *SMALL]) == 0
        in_memory = capsys.readouterr().out
        assert main(
            ["estimate", "--prior", "stable_f", "--dataset", "geant",
             "--stream", "--chunk-bins", "3", *SMALL]
        ) == 0
        streamed = capsys.readouterr().out

        def mean_error(output: str) -> str:
            for line in output.splitlines():
                if line.startswith("mean estimation error "):
                    return line.split()[-1]
            raise AssertionError(f"no error line in {output!r}")

        assert mean_error(in_memory) == mean_error(streamed)

    def test_run_fig_experiments_accept_stream(self, capsys):
        code = main(["run", "fig13", "--bins-per-week", "36", "--stream", "--chunk-bins", "6"])
        assert code == 0
        assert "stable-f" in capsys.readouterr().out

    def test_run_rejects_stream_for_unsupported_experiment(self, capsys):
        code = main(["run", "fig5", "--stream"])
        assert code == 2
        err = capsys.readouterr().err
        assert "does not support --stream" in err
        assert "fig11" in err and "fig13" in err

    def test_sweep_accepts_stream(self, capsys):
        code = main(
            ["sweep", "--priors", "stable_f", "--datasets", "geant",
             "--stream", "--chunk-bins", "4", *SMALL]
        )
        assert code == 0
        assert "1 priors x 1 datasets" in capsys.readouterr().out

    def test_stream_rejects_invalid_chunk_bins(self, capsys):
        code = main(
            ["estimate", "--prior", "stable_f", "--dataset", "geant",
             "--stream", "--chunk-bins", "0", *SMALL]
        )
        assert code == 2
        assert "chunk_bins" in capsys.readouterr().err


class TestServe:
    def test_serve_replays_bundled_trace(self, tmp_path, capsys):
        sink = tmp_path / "out"
        code = main([
            "serve", "--source", "examples/sample_flows.csv", "--topology", "abilene",
            "--sink", str(sink), "--chunk-bins", "4", "--max-bins", "8",
        ])
        assert code == 0
        lines = (sink / "estimates.jsonl").read_text().splitlines()
        assert len(lines) == 8
        first = json.loads(lines[0])
        assert first["bin"] == 0 and first["prior"] == "gravity"
        assert np.all(np.isfinite(first["estimate"]))
        status = json.loads((sink / "status.json").read_text())
        assert status["bins_published"] == 8
        assert json.loads((sink / "checkpoint.json").read_text())["next_bin"] == 8
        assert "published 8 bins" in capsys.readouterr().err

    def test_serve_synthetic_source_with_rolling_fit(self, tmp_path, capsys):
        sink = tmp_path / "out"
        code = main([
            "serve", "--source", "synthetic", "--dataset", "geant",
            "--bins-per-week", "24", "--sink", str(sink), "--chunk-bins", "8",
            "--prior", "stable_fp", "--refit-every", "8", "--window-bins", "16",
        ])
        assert code == 0
        records = [json.loads(line) for line in (sink / "estimates.jsonl").read_text().splitlines()]
        assert len(records) == 24
        assert records[-1]["prior"] == "stable_fp"
        assert json.loads((sink / "status.json").read_text())["prior"]["refits"] >= 1

    def test_serve_non_finite_measurement_noise_exits_2(self, tmp_path, capsys):
        sink = tmp_path / "out"
        code = main([
            "serve", "--source", "examples/sample_flows.csv", "--topology", "abilene",
            "--sink", str(sink), "--measurement-noise", "nan",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "measurement_noise" in err
        assert not (sink / "checkpoint.json").exists()

    def test_serve_file_source_requires_topology(self, capsys):
        code = main(["serve", "--source", "examples/sample_flows.csv"])
        assert code == 2
        assert "--topology" in capsys.readouterr().err
