"""Small-size self-test of the benchmark.

Runs every workload at a reduced size (the CLI workload at its only size),
traced and untraced, and checks that

* each correctness check passes on real outputs and fails on corrupted ones;
* tracing does not change any output;
* traced spans nest, every self time is >= 0, layer spans cover the
  in-process workloads, and ``repro trace summary`` reads the span file;
* the instrumented functions are restored afterwards;
* ``spec.json`` and the traced run cover every metric of ``BENCHMARK.json``;
* without the program's sources the benchmark exits non-zero and prints no
  result.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402


def _run_small(name: str, seed: int = 3):
    """(traced outputs, untraced outputs, recorder, workload) of one small run."""
    workload = bench_workloads.WORKLOADS[name](seed, run.ROOT, small=True)
    try:
        workload.setup()
        recorder = bench_trace.SpanRecorder()
        with bench_trace.instrument(recorder):
            with recorder.span(bench_trace.BENCH_PREFIX + "iteration", name):
                traced = workload.iteration(recorder)
        untraced = workload.iteration()
    finally:
        workload.close()
    return traced, untraced, recorder, workload


class WorkloadChecks(unittest.TestCase):
    results: dict = {}

    @classmethod
    def setUpClass(cls):
        for name in bench_workloads.WORKLOADS:
            cls.results[name] = _run_small(name)

    def test_outputs_pass_their_own_check_and_tracing_changes_nothing(self):
        for name, (traced, untraced, _, _) in self.results.items():
            with self.subTest(workload=name):
                self.assertTrue(traced.outputs)
                for outputs in (traced.outputs, untraced.outputs):
                    self.assertFalse([o for o in outputs.values() if "error" in o])
                failures = bench_workloads.check_outputs(untraced.outputs, traced.outputs)
                self.assertEqual(failures, {})

    def test_operation_names_match_the_recorded_reference(self):
        reference = json.loads((run.HERE / "reference.json").read_text())["workloads"]
        for name, (traced, _, _, workload) in self.results.items():
            with self.subTest(workload=name):
                key = str(workload.variant) if workload.seeded else "*"
                self.assertEqual(set(reference[name][key]), set(traced.outputs))

    def test_cli_outputs_match_the_recorded_reference(self):
        reference = json.loads((run.HERE / "reference.json").read_text())
        expected = reference["workloads"]["cli-cold-start"]["*"]
        traced = self.results["cli-cold-start"][0]
        self.assertEqual(bench_workloads.check_outputs(traced.outputs, expected), {})

    def test_corrupted_outputs_count_as_failed(self):
        for name, (traced, _, _, _) in self.results.items():
            reference = traced.outputs
            op, fields = next(iter(reference.items()))
            for key, value in fields.items():
                with self.subTest(workload=name, field=key):
                    bad = copy.deepcopy(reference)
                    if isinstance(value, bool):
                        bad[op][key] = not value
                    elif isinstance(value, str):
                        bad[op][key] = value + "x"
                    else:
                        bad[op][key] = value * (1 + 1e-4) + 1e-3
                    self.assertIn(op, bench_workloads.check_outputs(bad, reference))
            with self.subTest(workload=name, corruption="missing and raised"):
                bad = copy.deepcopy(reference)
                del bad[op]
                self.assertEqual(bench_workloads.check_outputs(bad, reference)[op], "missing")
                bad[op] = {"error": "RuntimeError: boom"}
                self.assertIn(op, bench_workloads.check_outputs(bad, reference))

    def test_tolerance_accepts_last_digit_noise(self):
        for name, (traced, _, _, _) in self.results.items():
            with self.subTest(workload=name):
                noisy = copy.deepcopy(traced.outputs)
                for fields in noisy.values():
                    for key, value in fields.items():
                        if isinstance(value, float):
                            fields[key] = value * (1 + 1e-12)
                self.assertEqual(bench_workloads.check_outputs(noisy, traced.outputs), {})

    def test_spans_nest_and_self_times_are_non_negative(self):
        for name, (_, _, recorder, workload) in self.results.items():
            with self.subTest(workload=name):
                spans = recorder.spans
                self.assertTrue(spans)
                self.assertEqual(bench_trace.check_nesting(spans), [])
                self.assertTrue(all(t >= 0 for t in bench_trace.self_times_ns(spans)))
                if workload.in_process:
                    self.assertGreaterEqual(bench_trace.layer_coverage(spans), 0.85)

    def test_repro_trace_summary_reads_the_span_file(self):
        from repro.cli import main
        from repro.obs.export import load_trace_file, summarize_trace

        for name, (_, _, recorder, workload) in self.results.items():
            with self.subTest(workload=name):
                path = workload.out_dir / f"selftest-{name}.jsonl"
                try:
                    bench_trace.write_jsonl(recorder, path, trace_id=f"selftest-{name}")
                    summary = summarize_trace(load_trace_file(path))
                    self.assertEqual(summary.spans, len(recorder.spans))
                    self.assertEqual(main(["trace", "summary", str(path)]), 0)
                finally:
                    path.unlink(missing_ok=True)

    def test_instrumented_functions_are_restored(self):
        from repro.core import fitting
        from repro.experiments import fig3_model_fit
        from repro.ingest.service import IngestService
        from repro.registry import PRIORS

        self.assertIs(fig3_model_fit.fit_stable_fp, fitting.fit_stable_fp)
        self.assertFalse(hasattr(fitting.fit_stable_fp, "__wrapped__"))
        self.assertFalse(hasattr(IngestService.run, "__wrapped__"))
        self.assertFalse(hasattr(PRIORS.get("stable_fp"), "__wrapped__"))


class ContractChecks(unittest.TestCase):
    def test_spec_and_traced_run_cover_every_metric(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        spec = json.loads((run.HERE / "spec.json").read_text())
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(spec["workloads"]))
        self.assertEqual(set(spec["workloads"]) | set(spec["extra_workloads"]),
                         set(bench_workloads.WORKLOADS))
        self.assertEqual({m["name"] for m in bench["per_layer"]}, set(spec["layers"]))
        self.assertLessEqual({m["name"] for m in bench["end_to_end"]}, set(spec["end_to_end"]))
        for layer in spec["layers"].values():
            self.assertLessEqual(set(layer["moves"]), {m["name"] for m in bench["end_to_end"]})

        workload = bench_workloads.WORKLOADS["fig-estimate"](0, run.ROOT, small=True)
        try:
            workload.setup()
            recorder = bench_trace.SpanRecorder()
            with bench_trace.instrument(recorder):
                workload.iteration(recorder)
            values, failures, checked = run._per_layer(recorder, workload, 1, 1.0)
        finally:
            workload.close()
        self.assertEqual(set(values), {m["name"] for m in bench["per_layer"]})
        # The CLI commands are timed and checked in the traced run.
        self.assertEqual(failures, {})
        self.assertEqual(checked, 3)
        self.assertGreater(values["cli.list_s"], 0.0)

    def test_fails_without_program_sources(self):
        bare = run.ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fig-estimate",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
