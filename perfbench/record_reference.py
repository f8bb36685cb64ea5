"""Record the reference artifact digests that run.py checks against.

Usage (from the root of a checkout):

    python3 perfbench/record_reference.py --seeds 0-15 [--workloads large_log,stages]

For each workload and seed it runs one untraced sample, requires every
invariant to hold, and stores the sha256 of each generated input and each
artifact in reference.json, together with the Python, numpy and machine
they were made on.  run.py compares every sample against them when the seed
and the environment match.  Re-record only for a change that is meant to
alter the artifacts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from run import REFERENCE, BenchRun, env_fingerprint
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-15 or 1,4,9")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()

    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if data.get("env") != env_fingerprint():
        data = {"env": env_fingerprint(), "workloads": {}}
    for name in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            run = BenchRun(WORKLOADS[name], seed, time.monotonic(), reference=None)
            try:
                sample = run.spawn(traced=False)
            finally:
                shutil.rmtree(run.work, ignore_errors=True)
            if sample.problems:
                sys.stderr.write(f"{name} seed {seed}: not recorded: {sample.problems}\n")
                return 1
            data["workloads"].setdefault(name, {})[str(seed)] = {
                "inputs": {log_name: log.sha256 for log_name, log in run.logs.items()},
                "artifacts": run.first_digests,
            }
            print(f"{name} seed {seed}: {len(run.first_digests)} artifacts", flush=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
