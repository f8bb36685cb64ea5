#!/usr/bin/env python3
"""Analyze one or more local git repositories end to end and print the
summary table.

    python scripts/analyze_repo.py /path/to/repo [/path/to/other ...] \
        --out results/ [--model both] [--biphase]

Writes a run config (absolute paths, each project named after its
repository's directory) and runs `forgepulse run --config` on it, so its
messages and exit status are `run`'s.  The table is `out/summary.txt`,
printed only when this run wrote it.
"""

import argparse
import contextlib
import json
import sys
import tempfile
from pathlib import Path

from forgepulse.cli import main as forgepulse_main


def _stamp(path: Path) -> tuple[int, int] | None:
    """The file's (inode, mtime); each atomic write of it gives a new inode."""
    with contextlib.suppress(OSError):
        stat = path.stat()
        return stat.st_ino, stat.st_mtime_ns
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("repos", nargs="+", help="git repository paths")
    parser.add_argument("--out", default="forgepulse-out")
    parser.add_argument("--model", choices=["gompertz", "logistic", "both"], default="both")
    parser.add_argument("--biphase", action="store_true")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    out = Path(args.out).resolve()
    config = {
        "projects": [{"name": Path(path).resolve().name, "repo": str(Path(path).resolve())} for path in args.repos],
        "out_dir": str(out),
        "model": args.model,
        "biphase": args.biphase,
        "workers": args.workers,
    }
    summary, before = out / "summary.txt", _stamp(out / "summary.txt")
    with tempfile.TemporaryDirectory(prefix="analyze-repo-") as work:
        path = Path(work) / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = forgepulse_main(["run", "--config", str(path)])
    if _stamp(summary) not in (None, before):
        sys.stdout.write(summary.read_text(encoding="utf-8"))
        print(f"\nartifacts written under {out}/")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
