"""One measured unit of work, run in a fresh process by ``run.py``.

Usage: python3 work.py JOB.json   (run from the run's work directory)

The job file names the mode ("pipeline" or "stages"), the inputs and the
output directory, all relative to the working directory so that artifacts
never embed a checkout path.  The process imports forgepulse from the
checkout's ``src/`` only, builds the run configuration, and stamps the end
of set-up with ``time.monotonic()`` (a clock shared by every process on the
machine, so the parent can subtract its spawn time).  It then runs the unit
of work once and prints one JSON line with its timings and outcome.  CPU
time and peak memory include any child processes the unit starts and
reaps.  A traced run also writes its spans, one JSON object a line, to
the job's ``spans_out`` file.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_forgepulse() -> None:
    sys.path.insert(0, str(SRC))
    import forgepulse

    if Path(forgepulse.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"forgepulse imported from {forgepulse.__file__}, not from {SRC}")


def _usage() -> tuple:
    """Resource use of this process and of its reaped children (a process
    pool's workers are reaped when it shuts down)."""
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)


def _run_pipeline(config) -> list[dict]:
    from forgepulse.pipeline import run_pipeline

    outcome = run_pipeline(config)
    return [{"op": r.name, "ok": r.error is None, "error": r.error} for r in outcome.results]


def _run_stages(argvs: list[list[str]], tracer) -> tuple[list[dict], str]:
    from forgepulse import cli

    ops, captured = [], io.StringIO()
    for argv in argvs:
        span = tracer.enter(f"cli.{argv[0]}") if tracer else None
        try:
            with redirect_stderr(captured if argv[0] == "ingest" else io.StringIO()) as err:
                code = cli.main(argv)
            ops.append({"op": argv[0], "ok": code == 0, "error": None if code == 0 else err.getvalue()[-500:]})
        except Exception as exc:  # one failed call is one failed operation
            ops.append({"op": argv[0], "ok": False, "error": f"{type(exc).__name__}: {exc}"})
        finally:
            if tracer:
                tracer.exit(span)
    return ops, captured.getvalue()


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    _import_forgepulse()
    from forgepulse.pipeline import ProjectSource, RunConfig

    if job["mode"] == "pipeline":
        config = RunConfig(
            projects=tuple(ProjectSource(name, log=Path(log)) for name, log in job["projects"]),
            out_dir=Path(job["out_dir"]),
            model="both",
            biphase=job["biphase"],
            workers=job["workers"],
        )
    else:
        Path(job["out_dir"]).mkdir(parents=True, exist_ok=True)
        argvs = job["argv"]

    tracer = None
    if job["trace"]:
        from spans import Tracer, calibrate, install_hooks

        tracer = Tracer(run=job["run_id"], costs=calibrate())
        install_hooks(tracer)
    setup_end = time.monotonic()
    if job.get("setup_only"):
        print(json.dumps({"setup_end": setup_end}))
        return

    ingest_stderr = None
    before = _usage()
    root = tracer.enter("unit") if tracer else None
    unit_start = time.monotonic()
    start = time.perf_counter()
    try:
        if job["mode"] == "pipeline":
            ops = _run_pipeline(config)
        else:
            ops, ingest_stderr = _run_stages(argvs, tracer)
    except Exception as exc:  # the whole run failed; every operation counts
        ops = [{"op": "*", "ok": False, "error": f"{type(exc).__name__}: {exc}"}]
    wall = time.perf_counter() - start
    if tracer:
        tracer.exit(root)
    after = _usage()

    result = {
        "setup_end": setup_end,
        "unit_start": unit_start,
        "wall_s": wall,
        "cpu_s": sum(a.ru_utime + a.ru_stime - b.ru_utime - b.ru_stime for a, b in zip(after, before)),
        "maxrss_kb": max(usage.ru_maxrss for usage in after),
        "ops": ops,
        "ingest_stderr": ingest_stderr,
    }
    if tracer:
        from spans import hook_counts

        with Path(job["spans_out"]).open("w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
        result["counts"] = hook_counts(tracer)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
