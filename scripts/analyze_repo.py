#!/usr/bin/env python3
"""Analyze one or more local git repositories end to end and print the
summary table.

    python scripts/analyze_repo.py /path/to/repo [/path/to/other ...] \
        --out results/ [--model both] [--biphase]

Equivalent to writing a run config by hand and calling `forgepulse run`,
for quick experiments.
"""

import argparse
import sys
from pathlib import Path

from forgepulse import ConfigError, ForgepulseError, ProjectSource, RunConfig, run_pipeline
from forgepulse.pipeline import summary_text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("repos", nargs="+", help="git repository paths")
    parser.add_argument("--out", default="forgepulse-out")
    parser.add_argument("--model", choices=["gompertz", "logistic", "both"], default="both")
    parser.add_argument("--biphase", action="store_true")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    try:
        projects = tuple(
            ProjectSource(name=Path(path).resolve().name, repo=Path(path)) for path in args.repos
        )
        config = RunConfig(
            projects=projects,
            out_dir=Path(args.out),
            model=args.model,
            biphase=args.biphase,
            workers=args.workers,
        )
        outcome = run_pipeline(config)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except ForgepulseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    rows = sorted((r.summary for r in outcome.results if r.summary), key=lambda row: row["project"])
    sys.stdout.write(summary_text(rows))
    for result in outcome.results:
        if result.error:
            sys.stderr.write(f"error: {result.name}: {result.error}\n")
    print(f"\nartifacts written under {config.out_dir}/")
    return outcome.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
