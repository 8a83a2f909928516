"""Regenerate every paper table and figure in one run.

Run:
    python -m repro.experiments.run_all

Prints the text rendering of every experiment — the paper figures and
tables in paper order, then the beyond-the-paper studies (multi-chip
scaling, fleet serving) — each under a ``=== key (N.Ns) ===`` banner.
Experiments render one after another in this process, so they share
the harness memos of :mod:`repro.experiments.common`.  This is the
human-readable counterpart of ``pytest benchmarks/``.
"""

from __future__ import annotations

import argparse
import time

from repro.experiments import ALL_EXPERIMENTS

_ORDER = ("maxbatch", "fig04", "fig05", "fig07", "table1", "fig13",
          "fig14", "fig15", "fig16", "table3", "fig17", "sensitivity",
          "ppu_traffic", "scaling", "serve", "capacity")


def main(argv: list[str] | None = None) -> None:
    argparse.ArgumentParser(
        description="regenerate every paper table/figure").parse_args(argv)
    for key in _ORDER:
        start = time.perf_counter()
        text = ALL_EXPERIMENTS[key].render()
        print(f"=== {key} ({time.perf_counter() - start:.1f}s) ===")
        print(text)
        print()


if __name__ == "__main__":
    main()
