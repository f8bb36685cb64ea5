"""forgepulse benchmark: one workload, one seed, a fixed measuring time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload large_log --seed 1 --seconds 25 --trace 0

The script generates the workload's logs from the seed (untimed), then runs
the unit of work again and again, each time in a fresh process (work.py),
until ``--seconds`` have passed.  Every sample's artifacts are checked
(check.py).  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced samples and reports the
per-layer metrics from the traced ones (spans.py).

On a shared host other tenants slow each vCPU on its own, to about half
speed, in phases of a second to tens of seconds, so the same unit of work
can take twice as long from one sample to the next.  So every time is
scaled to a fixed CPU speed.  While a sample runs, this process wakes every
PROBE_PERIOD_S on the sample's CPU and takes the CPU time of a fixed
Python loop; a sample's times are multiplied by REFERENCE_PROBE_S over
the mean loop time during it.  Raw times are printed next to the scaled
ones.  ``wall_s``, ``cpu_s``, ``setup_s`` and ``peak_rss_mb`` are medians
over the run's samples.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from check import INGEST_STDERR, check_pipeline, check_stages, digest_mismatches, digest_tree
from gen import GeneratedLog
from spans import LAYER_SPANS, load_spans, summarize
from workloads import STAGE_WINDOW, WORKLOADS, Workload, generate_inputs, nproc, workers_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"

MIN_SAMPLES = 2  # per kind; two samples also prove reruns byte-identical
SETUP_PROBES = 7  # extra set-up-only processes, so setup_s is a median of many
RUN_LIMIT_S = 170.0  # a run never outlives this, children included
PROBE_LOOPS = 150
# What the probe takes on an unloaded vCPU of a 2.0 GHz Xeon (the fastest
# 1% of 3861 probes), so scaled times read as seconds on that vCPU.
REFERENCE_PROBE_S = 0.00031
PROBE_PERIOD_S = 0.025  # the probes take ~3% of the sample's CPU

END_TO_END = {
    "wall_s": "s",
    "commits_per_s": "commits/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
COUNTS = {
    "ingest.lines": "count", "ingest.records": "count", "ingest.skipped": "count",
    "identity.unique_emails": "count", "identity.units": "count",
    "identity.class.corporate": "count", "identity.class.provider": "count",
    "identity.class.virtual_org": "count", "identity.class.unknown": "count",
    "series.months": "count", "series.contributors": "count", "series.units": "count",
    "jsonio.records_bytes": "bytes", "jsonio.artifact_bytes": "bytes",
    "growth.fit_calls": "count", "growth.lm_iterations": "count",
    "growth.biphase_fit_calls": "count", "growth.biphase_breakpoints": "count",
}
CLI_CALLS = ("ingest", "series", "metrics", "fit")


def env_fingerprint() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine()}


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference digests recorded for this seed on a matching environment."""
    if not REFERENCE.is_file():
        return None
    data = json.loads(REFERENCE.read_text())
    if data.get("env") != env_fingerprint():
        return None
    return data["workloads"].get(workload, {}).get(str(seed))


def _probe() -> float:
    """CPU time of a fixed piece of pure-Python work on the calling CPU.

    CPU time, not wall time, so that being preempted by the sample does not
    count; a vCPU slowed by other tenants runs the loop in more CPU time.
    """
    start = time.thread_time()
    table: dict[str, int] = {}
    for i in range(PROBE_LOOPS):
        key = f"k{i % 50}"
        table[key] = table.get(key, 0) + len(json.dumps([i, key]))
    return time.thread_time() - start


def _pin(cpus: set[int]) -> None:
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def watch(proc: subprocess.Popen, cpus: list[int], timeout: float) -> list[tuple[float, float]]:
    """Probe the speed of ``cpus`` in turn every PROBE_PERIOD_S until
    ``proc`` exits: (monotonic time, probe CPU time) pairs.  The probe runs
    twice and the second, warm, run is kept, so the caches the sample
    filled do not count."""
    allowed = os.sched_getaffinity(0)
    deadline = time.monotonic() + timeout
    speeds: list[tuple[float, float]] = []
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(proc.args, timeout)
            time.sleep(PROBE_PERIOD_S)
            _pin({cpus[len(speeds) % len(cpus)]})
            _probe()
            speeds.append((time.monotonic(), _probe()))
    finally:
        _pin(allowed)
    return speeds


def speed_scale(speeds: list[tuple[float, float]], low: float, high: float) -> float:
    """REFERENCE_PROBE_S over the mean probe time within [low, high], or
    of the probe nearest to it when none fell inside."""
    inside = [took for at, took in speeds if low <= at <= high]
    if not inside:
        inside = [min(speeds, key=lambda s: abs(s[0] - (low + high) / 2))[1]]
    return REFERENCE_PROBE_S / statistics.fmean(inside)


def fastest_cpu() -> int | None:
    """The allowed CPU that runs the probe fastest right now, or None.

    On a shared host each vCPU is slowed by other tenants on its own: one
    can run the same Python at half the speed of the other for tens of
    seconds.  A one-worker sample is pinned to the CPU that is fast at its
    start, and the probes taken while it runs time that CPU.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            return None
        speeds = {}
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                speeds[cpu] = min(_probe() for _ in range(3))
        finally:
            os.sched_setaffinity(0, set(cpus))
    except OSError:
        return None
    return min(speeds, key=speeds.get)


@dataclass
class Sample:
    traced: bool
    setup_s: float | None = None  # scaled, like the times below
    result: dict | None = None
    scale: float = 1.0  # reference speed over the CPU's speed during the unit
    elapsed: float = 0.0
    problems: dict[str, list[str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


def _merge(into: dict[str, list[str]], more: dict[str, list[str]]) -> None:
    for op, items in more.items():
        into.setdefault(op, []).extend(items)


class BenchRun:
    """Inputs, work directory and samples of one (workload, seed) run."""

    def __init__(self, workload: Workload, seed: int, started: float, reference: dict | None):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.reference = reference
        self.work = WORK_ROOT / f"{workload.name}-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.logs: dict[str, GeneratedLog] = generate_inputs(workload, seed, self.work / "inputs")
        self.lines = sum(log.lines for log in self.logs.values())
        self.first_digests: dict[str, str] | None = None
        self.count = 0

    def ops(self) -> list[str]:
        return list(CLI_CALLS) if self.workload.mode == "stages" else list(self.logs)

    def job(self, out: str, traced: bool, setup_only: bool) -> dict:
        job = {
            "mode": self.workload.mode,
            "out_dir": out,
            "trace": traced,
            "setup_only": setup_only,
            "run_id": f"{self.workload.name}-{self.seed}-{self.count}",
            "spans_out": f"spans-{self.count}.jsonl",
        }
        if self.workload.mode == "pipeline":
            job["projects"] = [[name, f"inputs/{name}.log"] for name in self.logs]
            job["biphase"] = self.workload.biphase
            job["workers"] = workers_for(self.workload)
        else:
            (log_name,) = self.logs
            job["argv"] = [
                ["ingest", "--log", f"inputs/{log_name}.log", "--out", f"{out}/records.jsonl"],
                ["series", "--in", f"{out}/records.jsonl", "--out", f"{out}/series.json"],
                ["metrics", "--series", f"{out}/series.json", "--window", STAGE_WINDOW, "--out", f"{out}/metrics.json"],
                ["fit", "--series", f"{out}/series.json", "--out", f"{out}/fit.json"],
            ]
        return job

    def spawn(self, traced: bool, setup_only: bool = False) -> Sample:
        """Run work.py once in a fresh process and parse its result line."""
        self.count += 1
        out = f"s{self.count}"
        job = self.job(out, traced, setup_only)
        job_path = self.work / f"job-{self.count}.json"
        job_path.write_text(json.dumps(job))
        sample = Sample(traced=traced)
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        cpu = fastest_cpu() if workers_for(self.workload) == 1 else None
        cpus = sorted(os.sched_getaffinity(0)) if cpu is None else [cpu]
        stdout, stderr = self.work / f"out-{self.count}.txt", self.work / f"err-{self.count}.txt"
        spawned = time.monotonic()
        speeds: list[tuple[float, float]] = []
        with stdout.open("w") as out_file, stderr.open("w") as err_file:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "work.py"), job_path.name], cwd=self.work,
                stdout=out_file, stderr=err_file, preexec_fn=None if cpu is None else (lambda: _pin({cpu})),
            )
            try:
                speeds = watch(proc, cpus, timeout)
            except subprocess.TimeoutExpired:
                sample.problems["*"] = [f"work.py still running after {timeout:.0f} s"]
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        sample.elapsed = time.monotonic() - spawned
        lines = stdout.read_text().strip().splitlines()
        if not sample.problems:
            if proc.returncode == 0 and lines:
                sample.result = json.loads(lines[-1])
            else:
                sample.problems["*"] = [f"work.py exited {proc.returncode}: {stderr.read_text().strip()[-400:]}"]
        if sample.result is not None:
            setup_end = sample.result["setup_end"]
            sample.setup_s = (setup_end - spawned) * speed_scale(speeds, spawned, setup_end)
            if not setup_only:
                start = sample.result["unit_start"]
                sample.scale = speed_scale(speeds, start, start + sample.result["wall_s"])
        if not setup_only:
            self._check(sample, self.work / out, self.work / job["spans_out"])
            shutil.rmtree(self.work / out, ignore_errors=True)
        return sample

    def _check(self, sample: Sample, out_dir: Path, spans_path: Path) -> None:
        mode = self.workload.mode
        if sample.result is not None:
            for op in sample.result["ops"]:
                if not op["ok"]:
                    _merge(sample.problems, {op["op"]: [f"reported error: {op['error']}"]})
            stderr = sample.result.get("ingest_stderr")
            try:
                if mode == "stages":
                    _merge(sample.problems, check_stages(out_dir, next(iter(self.logs.values())), stderr))
                else:
                    _merge(sample.problems, check_pipeline(out_dir, self.logs, self.workload.biphase))
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                _merge(sample.problems, {"*": [f"output check failed: {type(exc).__name__}: {exc}"]})
            digests = digest_tree(out_dir, {INGEST_STDERR: stderr} if mode == "stages" else None)
            if sample.traced:
                sample.result["trace"] = summarize(load_spans(spans_path))
            if self.first_digests is None:
                self.first_digests = digests
            else:
                _merge(sample.problems, digest_mismatches(mode, self.first_digests, digests, "rerun"))
            if self.reference is not None:
                if self.reference["inputs"] != {name: log.sha256 for name, log in self.logs.items()}:
                    _merge(sample.problems, {"*": ["generated inputs differ from the reference"]})
                _merge(sample.problems, digest_mismatches(mode, self.reference["artifacts"], digests, "reference"))
            if sample.traced:
                sizes = {path: path.stat().st_size for path in out_dir.rglob("*") if path.is_file()}
                records = sum(size for path, size in sizes.items() if path.name == "records.jsonl")
                counts = sample.result["counts"]
                counts["jsonio.records_bytes"] = records
                counts["jsonio.artifact_bytes"] = sum(sizes.values()) - records
        ops = self.ops()
        sample.attempted = len(ops)
        sample.failed = len(ops) if "*" in sample.problems else sum(1 for op in ops if op in sample.problems)


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} min={min(values):.4f} q1={q1:.4f} median={median:.4f} q3={q3:.4f}"


def measure(run: BenchRun, seconds: float, trace: bool) -> list[Sample]:
    """Samples until ``seconds`` have passed: untraced only, or alternating
    untraced and traced.  A round is not started if it would mostly run
    past the deadline."""
    kinds = (False, True) if trace else (False,)
    samples: list[Sample] = []
    deadline = time.monotonic() + seconds
    while True:
        for traced in kinds:
            samples.append(run.spawn(traced))
        enough = min(sum(1 for s in samples if s.traced == k) for k in kinds) >= MIN_SAMPLES
        round_time = sum(s.elapsed for s in samples[-len(kinds):])
        now = time.monotonic()
        if enough and now + round_time / 2 > deadline:
            return samples
        if now - run.started > RUN_LIMIT_S - 2 * round_time:
            return samples


def end_to_end(run: BenchRun, samples: list[Sample], probes: list[Sample]) -> dict[str, tuple[float, list[float]]]:
    """Each end-to-end metric's value and the per-sample figures it comes from."""
    timed = [s for s in samples if s.result is not None]
    wall = [s.result["wall_s"] * s.scale for s in timed]
    cpu = [s.result["cpu_s"] * s.scale for s in timed]
    rss = [s.result["maxrss_kb"] / 1024.0 for s in timed]
    setup = [s.setup_s for s in probes + samples if s.setup_s is not None]
    return {
        "wall_s": (_median(wall), wall),
        "commits_per_s": (run.lines / _median(wall), [run.lines / w for w in wall]),
        "cpu_s": (_median(cpu), cpu),
        "peak_rss_mb": (_median(rss), rss),
        "setup_s": (_median(setup), setup),
    }


def per_layer(run: BenchRun, samples: list[Sample]) -> tuple[dict[str, tuple[float, str]], float]:
    """Per-layer metrics from the fastest traced sample, the overhead as
    the difference of the scaled median walls; and that sample's traced
    busy time."""
    traced = min((s for s in samples if s.traced and s.result is not None), key=lambda s: s.result["wall_s"])
    untraced = min((s for s in samples if not s.traced and s.result is not None), key=lambda s: s.result["wall_s"])
    trace = traced.result["trace"]
    projects = trace["projects"]
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYER_SPANS:
        out[f"{layer}_s"] = (trace["layers"][layer], "s")
    out["pipeline.project_s.median"] = (_median(projects), "s")
    out["pipeline.project_s.max"] = (max(projects, default=0.0), "s")
    # From CPU time, not from the projects' wall spans: a thread waiting for
    # the GIL is inside its span but not running.
    workers = workers_for(run.workload)
    out["pipeline.parallel_efficiency"] = (untraced.result["cpu_s"] / (untraced.result["wall_s"] * workers), "ratio")
    out["pipeline.untraced_s"] = (trace["untraced"], "s")
    for call in CLI_CALLS:
        out[f"cli.{call}_s"] = (trace["cli"].get(f"cli.{call}", 0.0), "s")
    scaled = {kind: [s.result["wall_s"] * s.scale for s in samples if s.traced == kind and s.result] for kind in (False, True)}
    out["trace.overhead_s"] = (_median(scaled[True]) - _median(scaled[False]), "s")
    out["trace.hook_cost_s"] = (trace["hook_cost"], "s")
    out["trace.coverage"] = (trace["coverage"], "ratio")
    counts = traced.result["counts"]
    for name, unit in COUNTS.items():
        out[name] = (counts.get(name, 0), unit)
    return out, trace["busy"]


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    # On SIGTERM, unwind so that subprocess.run kills the running sample.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "forgepulse" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no forgepulse sources under {ROOT / 'src'}\n")
        return 2

    reference = load_reference(args.workload, args.seed)
    run = BenchRun(WORKLOADS[args.workload], args.seed, started, reference)
    try:
        for name, log in run.logs.items():
            print(f"input {name}: {log.lines} lines, {log.merges} merges, skips {log.skip_reasons}, sha256 {log.sha256}")
        probes = [] if args.trace else [run.spawn(False, setup_only=True) for _ in range(SETUP_PROBES)]
        broken = [p.problems for p in probes if p.setup_s is None]
        if broken:
            sys.stderr.write(f"perfbench: set-up failed: {broken[0]}\n")
            return 1
        samples = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    for traced in {s.traced for s in samples}:
        kind = [s for s in samples if s.traced == traced]
        if not any(s.result for s in kind):
            name = "traced" if traced else "untraced"
            sys.stderr.write(f"perfbench: no {name} sample produced timings: {kind[0].problems}\n")
            return 1

    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    for k, sample in enumerate(samples):
        for op, items in sample.problems.items():
            print(f"FAILED sample {k} ({'traced' if sample.traced else 'untraced'}) {op}: {'; '.join(items)}")
    print(f"env nproc={nproc()} workers={workers_for(run.workload)} python={platform.python_version()} "
          f"numpy={np.__version__} machine={platform.machine()}")
    identical = not any("(rerun)" in item for s in samples for items in s.problems.values() for item in items)
    print(f"checks: invariants; {len(samples)} runs byte-identical: {'yes' if identical else 'no'}; "
          f"reference digests: {'seed ' + str(args.seed) if reference else 'none for this seed and env'}")
    print(f"error_rate {failed / attempted:.6f} ratio ({failed} of {attempted} operations failed)")

    metrics: dict[str, dict] = {}
    if args.trace:
        values, busy = per_layer(run, samples)
        for name, (value, unit) in values.items():
            share = f"  share={value / busy:.3f}" if name.removesuffix("_s") in LAYER_SPANS and busy else ""
            print(f"{name} {value:.6g} {unit}{share}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, (value, series) in end_to_end(run, samples, probes).items():
            print(f"{name} {value:.6g} {END_TO_END[name]} (samples: {_quartiles(series)})")
            metrics[name] = {"value": value, "unit": END_TO_END[name]}
        timed = [s for s in samples if s.result is not None]
        print(f"unscaled wall_s samples: {_quartiles([s.result['wall_s'] for s in timed])}; "
              f"speed scale: {_quartiles([s.scale for s in timed])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
