"""Helpers shared by the benchmark modules.

:func:`emit` prints the experiment table and attaches the headline numbers
to the pytest-benchmark fixture's ``extra_info``.  The timing harness of
record is ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""

from __future__ import annotations


def emit(benchmark, result, **extra) -> None:
    """Print the experiment table and attach headline numbers to the fixture."""
    table = result.format_table()
    print("\n" + table)
    for key, value in extra.items():
        benchmark.extra_info[key] = value
