#!/usr/bin/env python3
"""In-process A/B timing of the bi-phase search in two checkouts.

Usage (from the root of a checkout; ``taskset -c 1`` pins it to one CPU):

    python3 scripts/search_ab.py --parent /path/to/parent/checkout [--change .] [--reps 9]

Loads each checkout's ``src/forgepulse`` under a module name of its own, so
both run in one process.  The cases are the three shipped noisy series
(tests/data) and seeded two-episode series of 240, 400 and 480 months with
3% multiplicative noise, each searched with both models.  For each case the
parent's and the change's ``detect_biphase`` calls alternate, the parent
first in even rounds and the change first in odd ones, each timed with
``time.process_time`` (this process's CPU time, so other processes on the
machine do not count).  Prints each case's median milliseconds and the
change's wins (pairs where its call took less time), then the summed
medians.  Exits 1 if any two entries of a case differ: the change must
report the parent's entries bit for bit.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ("biphase_noisy", "gompertz_noisy", "logistic_noisy")
GENERATED_MONTHS = (240, 400, 480)


def load_growth(checkout: Path, alias: str):
    """``forgepulse.growth`` of ``checkout``, imported as ``alias.growth``."""
    package = checkout / "src" / "forgepulse"
    spec = importlib.util.spec_from_file_location(alias, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.growth")


def two_episodes(n: int) -> np.ndarray:
    """Two logistic episodes centred at a quarter and at 70% of n months, with 3% noise (seed n)."""
    t = np.arange(n, dtype=float)
    values = 40 / (1 + np.exp(-0.12 * (t - 0.25 * n))) + 60 / (1 + np.exp(-0.12 * (t - 0.7 * n)))
    return values * (1.0 + 0.03 * np.random.default_rng(n).standard_normal(n))


def cases() -> dict[str, np.ndarray]:
    shipped = {name: np.asarray(json.loads((ROOT / "tests" / "data" / f"{name}.json").read_text())["values"],
                                dtype=float) for name in SHIPPED}
    return {**shipped, **{f"two_episodes_{n}": two_episodes(n) for n in GENERATED_MONTHS}}


def timed(growth, values: np.ndarray, model: str) -> tuple[float, str]:
    """(CPU milliseconds, repr of the entry) of one ``detect_biphase`` call."""
    start = time.process_time()
    entry = growth.detect_biphase(values, growth.GrowthModel(model))
    return 1e3 * (time.process_time() - start), repr(entry)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent side")
    parser.add_argument("--change", default=ROOT, type=Path, help="checkout of the change side (default: this one)")
    parser.add_argument("--reps", type=int, default=9, help="pairs of calls per case")
    args = parser.parse_args(argv)

    sides = {"parent": load_growth(args.parent.resolve(), "parent_forgepulse"),
             "change": load_growth(args.change.resolve(), "change_forgepulse")}
    totals, all_wins, all_pairs, differ = {"parent": 0.0, "change": 0.0}, 0, 0, []
    print(f"{'case':<36}{'parent ms':>10}{'change ms':>10}{'ratio':>8}{'wins':>7}")
    for name, values in cases().items():
        for model in ("gompertz", "logistic"):
            times, entries = {"parent": [], "change": []}, set()
            for rep in range(args.reps):
                for side in ("parent", "change") if rep % 2 == 0 else ("change", "parent"):
                    ms, entry = timed(sides[side], values, model)
                    times[side].append(ms)
                    entries.add(entry)
            medians = {side: statistics.median(runs) for side, runs in times.items()}
            wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
            for side in totals:
                totals[side] += medians[side]
            all_wins, all_pairs = all_wins + wins, all_pairs + args.reps
            case = f"{name} {model}"
            if len(entries) > 1:
                differ.append(case)
            print(f"{case:<36}{medians['parent']:>10.1f}{medians['change']:>10.1f}"
                  f"{medians['change'] / medians['parent']:>8.3f}{wins:>4}/{args.reps}")
    print(f"{'summed medians':<36}{totals['parent']:>10.1f}{totals['change']:>10.1f}"
          f"{totals['change'] / totals['parent']:>8.3f}{all_wins:>4}/{all_pairs}")
    if differ:
        print(f"entries differ: {', '.join(differ)}", file=sys.stderr)
        return 1
    print("entries: equal on every case")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
