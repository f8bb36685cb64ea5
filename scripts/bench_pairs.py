"""Paired benchmark runs of two commits, written as a BENCH_*.json entry.

Usage (from the root of a checkout):

    python3 scripts/bench_pairs.py --parent 7ae1c6f --change HEAD --workload large_log \\
        --pairs 10 --first-seed 100 --seconds 25 --out BENCH_20.json

Each side is a fresh ``git archive`` copy of its commit, in a new
temporary directory, with no ``__pycache__``.  Pair k runs
``python3 perfbench/run.py --workload W --seed first_seed+k --seconds S --trace 0``
once in each copy, with PYTHONDONTWRITEBYTECODE=1, the parent first in
even pairs and the change first in odd ones.  For every end-to-end metric
of BENCHMARK.json the entry holds both sides' quartiles (numpy.percentile,
linear, over the runs' values) and runs, ``change_wins`` (pairs where the
change is better), ``parent_iqr``, ``median_ratio`` (change over parent)
and ``within_bound`` (the change's median is no worse than the parent's
by more than the metric's bound).  ``all_correct_failed_0`` says that
every run was correct with no failed operation.

The entry goes under ``end_to_end.<workload>`` of ``--out``; the file's
other keys are kept, so runs of several workloads build up one file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def archive(commit: str, dest: Path) -> Path:
    """A fresh copy of ``commit``'s files under ``dest``."""
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in ``copy``."""
    for cache in copy.rglob("__pycache__"):
        shutil.rmtree(cache)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {copy} failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": round(float(q1), 4), "median": round(float(median), 4), "q3": round(float(q3), 4)}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sides = {"parent": quartiles(parent), "change": quartiles(change)}
    lower = better == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    p_median, c_median = sides["parent"]["median"], sides["change"]["median"]
    within = c_median <= p_median * (1 + bound) if lower else c_median >= p_median * (1 - bound)
    return {
        **sides,
        "change_wins": wins,
        "parent_iqr": round(sides["parent"]["q3"] - sides["parent"]["q1"], 4),
        "median_ratio": round(c_median / p_median, 4) if p_median else None,
        "within_bound": bool(within),
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--change", required=True, help="commit of the change side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", required=True, type=Path, help="BENCH_*.json file to write or extend")
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        copies = {"parent": archive(args.parent, work / "parent"), "change": archive(args.change, work / "change")}
        seeds = list(range(args.first_seed, args.first_seed + args.pairs))
        results: dict[str, list[dict]] = {"parent": [], "change": []}
        runs_first = {}
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            runs_first[str(seed)] = order[0]
            for side in order:
                results[side].append(run_once(copies[side], args.workload, seed, args.seconds))
                value = results[side][-1]["metrics"]["wall_s"]["value"]
                print(f"pair {k + 1}/{args.pairs} seed {seed} {side}: wall_s {value:.4f}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    entry = {
        "seeds": seeds,
        "pairs": args.pairs,
        "runs_first": runs_first,
        "all_correct_failed_0": all(r["correct"] and r["failed"] == 0 for side in results.values() for r in side),
        "attempted": {side: sum(r["attempted"] for r in runs) for side, runs in results.items()},
    }
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs] for side, runs in results.items()}
        entry[name] = compare(values["parent"], values["change"], metric["better"], metric["bound"])

    data = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    data["command"] = (f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0, "
                       "in fresh copies of the parent and of the change (git archive) with no __pycache__, "
                       "PYTHONDONTWRITEBYTECODE=1; pairs alternate which side runs first")
    data["machine"] = (f"{os.cpu_count()}-vCPU {platform.machine()}, Python {platform.python_version()}, "
                       f"numpy {np.__version__}; end-to-end times are the benchmark's speed-scaled medians; "
                       "quartiles are numpy.percentile (linear) over the runs' values")
    data["parent"], data["change"] = args.parent, args.change
    data.setdefault("end_to_end", {})[args.workload] = entry
    args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    wall = entry["wall_s"]
    print(f"{args.workload}: wall_s median {wall['parent']['median']} -> {wall['change']['median']}, "
          f"change wins {wall['change_wins']}/{args.pairs}, parent IQR {wall['parent_iqr']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
