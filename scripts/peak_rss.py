#!/usr/bin/env python3
"""Peak memory and page faults of one ``run_pipeline`` over a generated log.

Usage (from the root of a checkout):

    python3 scripts/peak_rss.py --commits 1000000 --seed 41

Generates one log shaped like the benchmark's ``LARGE_LOG`` (its authors and
growth episodes) with N commits, using perfbench/gen.py; generating is not
timed.  Then runs the log through ``run_pipeline`` in a fresh child
process that imports forgepulse from this checkout's ``src``, and prints
one JSON line: the run's wall time, the child's ``ru_maxrss`` (its peak
resident memory, imports included) and its ``ru_minflt`` (minor page
faults), in total and during ``run_pipeline`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Writes a LARGE_LOG-shaped log of argv[2] commits and seed argv[3] to argv[1].
GENERATE = """
import dataclasses, sys
from pathlib import Path
from gen import generate_log
from workloads import LARGE_LOG

generate_log(dataclasses.replace(LARGE_LOG, commits=int(sys.argv[2])), int(sys.argv[3]), Path(sys.argv[1]))
"""

# One run_pipeline over the log argv[1] into argv[2].
RUN = """
import json, resource, sys, time
from pathlib import Path
from forgepulse.pipeline import ProjectSource, RunConfig, run_pipeline

config = RunConfig(projects=(ProjectSource(name="large", log=Path(sys.argv[1])),), out_dir=Path(sys.argv[2]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
outcome = run_pipeline(config)
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
if outcome.exit_code:
    sys.exit(f"run_pipeline failed: {[r.error for r in outcome.results]}")
print(json.dumps({"wall_s": round(wall, 4), "maxrss_mb": round(usage.ru_maxrss / 1024, 1),
                  "minflt": usage.ru_minflt, "run_minflt": usage.ru_minflt - before}))
"""


def _child(code: str, path: Path, *args) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``path`` on its module path."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env={**os.environ, "PYTHONPATH": str(path)},
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"peak_rss: a child failed ({proc.returncode}): {proc.stderr.strip()}")
    return proc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commits", type=int, required=True, help="non-blank lines of the generated log")
    parser.add_argument("--seed", type=int, default=41)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="peak-rss-") as tmp:
        log = Path(tmp) / "large.log"
        # Both steps run in children: Linux carries a process's peak memory
        # across exec, so the run's child must be started by a small process.
        _child(GENERATE, ROOT / "perfbench", log, args.commits, args.seed)
        proc = _child(RUN, ROOT / "src", log, Path(tmp) / "out")
    result = {"commits": args.commits, "seed": args.seed, **json.loads(proc.stdout)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
