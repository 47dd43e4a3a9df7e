"""Record the reference outputs the benchmark checks each workload against.

Runs one iteration of every workload for every input variant and writes
``perfbench/reference.json``.  Regenerate it only when a change is meant to
alter the numbers; review the diff before committing it::

    python3 perfbench/record_reference.py [workload ...]
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))

import bench_workloads  # noqa: E402

PATH = run.HERE / "reference.json"


def record(name: str) -> dict:
    cls = bench_workloads.WORKLOADS[name]
    variants = range(bench_workloads.VARIANTS) if cls.seeded else [None]
    recorded = {}
    for variant in variants:
        workload = cls(variant or 0, run.ROOT)
        try:
            workload.setup()
            outputs = workload.iteration().outputs
        finally:
            workload.close()
        errors = {op: out["error"] for op, out in outputs.items() if "error" in out}
        if errors:
            raise SystemExit(f"{name} variant {variant}: operations failed: {errors}")
        recorded["*" if variant is None else str(variant)] = outputs
        print(f"recorded {name} variant {variant}: {len(outputs)} operations", file=sys.stderr)
    return recorded


def main(argv: list[str]) -> int:
    names = argv or list(bench_workloads.WORKLOADS)
    data = json.loads(PATH.read_text()) if PATH.is_file() else {}
    data["rtol"] = bench_workloads.RTOL
    data.setdefault("workloads", {})
    for name in names:
        data["workloads"][name] = record(name)
    PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
