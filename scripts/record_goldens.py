"""Rewrite the figure goldens, ``tests/golden/figures.json``, from the current code.

    PYTHONPATH=src python scripts/record_goldens.py

Runs every case of ``tests/figure_goldens.py``, prints each key whose value
changed with its relative change (and each key added or dropped), then
writes the file.  This script is the only way the file is rewritten: name
every regeneration and its cause in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from figure_goldens import CASES, GOLDEN_PATH, relative_change  # noqa: E402


def main() -> int:
    try:
        old = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        old = {}
    new = {}
    for name, case in CASES.items():
        new[name] = summary = case.summary(case.run())
        before = old.get(name, {})
        for key, value in summary.items():
            if key not in before:
                print(f"{name} {key}: added {value!r}")
            elif value != before[key]:
                change = relative_change(value, before[key])
                print(f"{name} {key}: {before[key]!r} -> {value!r} (relative change {change:.3g})")
        for key in before.keys() - summary.keys():
            print(f"{name} {key}: dropped")
        sys.stdout.flush()
    for name in old.keys() - new.keys():
        print(f"{name}: case dropped")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(new, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(new)} cases to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
