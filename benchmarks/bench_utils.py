"""Importable helpers for the benchmark harness.

Every module in this directory regenerates one of the paper's figures,
tables or quantitative claims.  Each test uses the pytest-benchmark fixture
for timing and prints the reproduced rows/series so the output can be
compared side by side with the paper; ``docs/performance.md`` records the
measured speedups and how to run the harness.

These helpers live outside ``conftest.py`` so that benchmark modules never
need a bare ``from conftest import ...`` (which shadows other conftest
modules when tests and benchmarks are collected together).
"""

from __future__ import annotations


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Print a small aligned table under a banner (the reproduced figure/table)."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(headers[i])), max((len(str(row[i])) for row in rows), default=0))
        for i in range(len(headers))
    ]
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths, strict=True))
    print(header_line)
    print("-" * len(header_line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths, strict=True)))


def run_once(benchmark, function, *args, **kwargs):
    """Run an expensive experiment exactly once under the benchmark fixture."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
