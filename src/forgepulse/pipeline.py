"""End-to-end project processing and the summary report.

For each configured project: ingest -> monthly series -> metrics -> growth
fits -> summary row.  Per-project artifacts are JSON/CSV files written
atomically; a combined summary table (CSV plus aligned text) collects the
rows.  Eligibility failures are warnings; only processing failures make the
run exit nonzero.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import re
from contextlib import closing, suppress
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import growth, metrics
from .errors import ConfigError, ForgepulseError, MetricError
from .identity import IdentityConfig, load_identity_config
from .ingest import IngestReport, RecordBlock, acquire_repo_log, open_text, parse_log_stream, ref_state
from .jsonio import atomic_writer, csv_text, remove_temp_files, write_json_atomic, write_text_atomic
from .series import (
    EligibilityThresholds,
    MonthlySeries,
    build_monthly_series,
    check_eligibility,
    moving_average,
    series_to_dict,
)

CACHE_ENV_VAR = "FORGEPULSE_CACHE"

MERGE_POLICY = "excluded"  # `ingest` drops merges; summary.json still says so


def _is_number(value) -> bool:
    """An int (not a bool) below 2**63 in size or a finite float: ``json.loads``
    also reads ``NaN``, ``Infinity`` and ints no float can hold."""
    return (type(value) is int and abs(value) < 2**63) or (type(value) is float and math.isfinite(value))


def _is_range(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value))


# summary.json field -> (check of its value[, the value when it is absent]):
# every field but ``merge_policy`` and ``eligibility``, which no table shows.
_SUMMARY_FIELDS = {
    "project": (lambda v: isinstance(v, str) and v.isprintable(),),  # printed in the table
    "total_contributors": (lambda v: type(v) is int,),
    "total_orgs": (lambda v: type(v) is int,),
    "mean_monthly_commits": (_is_number,),
    "active_contrib_range": (_is_range,),
    "monthly_commit_range": (_is_range,),
    "active_org_range": (_is_range,),
    "spearman": (lambda v: v is None or _is_number(v),),
    "spearman_reason": (lambda v: v is None or isinstance(v, str), None),
    "diversity": (lambda v: v is None or _is_number(v),),
    "diversity_reason": (lambda v: v is None or isinstance(v, str), None),
    "notes": (lambda v: isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v), ()),
}


def read_summary_row(data) -> dict:
    """The summary row of a loaded summary.json; an absent ``*_reason`` or
    ``notes`` takes its default.  Raises ForgepulseError for any other
    missing or bad field."""
    if not isinstance(data, dict):
        raise ForgepulseError(f"summary must be a JSON object, got {type(data).__name__}")
    missing = object()  # passes no check
    row = {}
    for name, (check, *default) in _SUMMARY_FIELDS.items():
        row[name] = data.get(name, default[0] if default else missing)
        if not check(row[name]):
            raise ForgepulseError(f"missing or bad field {name!r}")
    return row


def compute_metrics(series: MonthlySeries, window: int | str = "all") -> dict:
    """The metrics.json payload: all four statistics, each independently
    degrading to null plus a ``NAME_reason``."""
    actives = series.values("active_contributors")
    commits = series.values("commits")
    computations = {
        "spearman": lambda: metrics.spearman(actives, commits),
        "trend": lambda: metrics.linear_trend(actives, commits),
        "diversity": lambda: metrics.diversity(metrics.org_shares(series, window)),
        "tail": lambda: metrics.contribution_tail(list(series.contributor_commits.values())),
    }
    payload: dict = {"window": str(window)}
    for name, compute in computations.items():
        try:
            payload[name] = compute()
        except MetricError as exc:
            payload[name], payload[f"{name}_reason"] = None, exc.reason
    return payload


def _percentile_range(values: list[int]) -> tuple[float, float]:
    """The 5th and 95th percentiles of ``values`` by ``np.percentile``'s
    default (linear) rule, bit for bit, without the ``numpy.ma`` import its
    first call costs."""
    xs = sorted(map(float, values))

    def at(q: float) -> float:
        v = (len(xs) - 1) * q
        i = math.floor(v)
        g, a, b = v - i, xs[i], xs[min(i + 1, len(xs) - 1)]
        return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)

    return at(0.05), at(0.95)


def summarize(series: MonthlySeries, metrics_payload: dict, fit_payload: dict | None = None, project: str = "") -> dict:
    """The report row, from precomputed metrics.json and fit.json payloads:
    life-span totals, typical monthly ranges, the two headline statistics
    and the fits' notes.

    Monthly ranges are 5th/95th percentiles: the reproducible analogue of
    eyeballed typical ranges, excluding outlier months.
    """
    fits = fit_payload["model_fits"].values() if fit_payload else ()
    notes = [note for fit in fits if fit is not None for note in fit["notes"]]
    spearman = metrics_payload["spearman"]
    diversity = metrics_payload["diversity"]
    return {
        "project": project,
        "total_contributors": series.total_contributors,
        "total_orgs": series.total_orgs,
        "mean_monthly_commits": series.mean_monthly_commits,
        "active_contrib_range": _percentile_range(series.values("active_contributors")),
        "monthly_commit_range": _percentile_range(series.values("commits")),
        "active_org_range": _percentile_range(series.values("active_orgs")),
        "spearman": None if spearman is None else spearman["rho"],
        "spearman_reason": metrics_payload.get("spearman_reason"),
        "diversity": None if diversity is None else diversity["diversity"],
        "diversity_reason": metrics_payload.get("diversity_reason"),
        "notes": list(dict.fromkeys(notes)),
        "merge_policy": MERGE_POLICY,
    }


@dataclass(frozen=True)
class ProjectSource:
    name: str
    repo: Path | None = None
    log: Path | None = None

    def __post_init__(self):
        # The name is the project's directory under out_dir, beside the files
        # that run_pipeline writes there.
        name = self.name
        if not isinstance(name, str) or not name.isprintable() or "/" in name or name in ("", ".", ".."):
            raise ConfigError(f"project name must be a file name, got {name!r}")
        if name in ("summary.csv", "summary.txt", "run_report.json"):
            raise ConfigError(f"project name {name!r} is reserved: the run writes a file of that name")
        if (self.repo is None) == (self.log is None):
            raise ConfigError(f"project {self.name!r} needs exactly one of repo or log")


@dataclass(frozen=True)
class RunConfig:
    projects: tuple[ProjectSource, ...]
    out_dir: Path
    identity: IdentityConfig = IdentityConfig()
    thresholds: EligibilityThresholds = EligibilityThresholds()
    smoothing_window: int = 3
    model: str = "both"  # gompertz | logistic | both
    strict: bool = False
    biphase: bool = False
    metrics_window: int | str = "all"
    workers: int = 1

    def __post_init__(self):
        for key, kind, what in (("smoothing_window", int, "an integer"), ("strict", bool, "true or false"),
                                ("biphase", bool, "true or false"), ("workers", int, "an integer")):
            value = getattr(self, key)
            if type(value) is not kind:  # an int is not a bool, nor a float that int() would cut
                raise ConfigError(f"{key} must be {what}, got {value!r}")
        if not self.projects:
            raise ConfigError("config lists no projects")
        names = [source.name for source in self.projects]
        if len(set(names)) < len(names):  # each name is a directory under out_dir
            duplicate = next(name for i, name in enumerate(names) if name in names[:i])
            raise ConfigError(f"duplicate project name {duplicate!r}")
        if self.model not in ("gompertz", "logistic", "both"):
            raise ConfigError(f"unknown model {self.model!r}")
        check_smoothing_window(self.smoothing_window)
        object.__setattr__(self, "metrics_window", parse_window(self.metrics_window))
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.workers > 1 and not hasattr(os, "fork"):
            raise ConfigError("workers above 1 need os.fork, which this platform lacks")


def check_smoothing_window(window: int, key: str = "smoothing_window") -> int:
    """``window`` when it is odd and positive; otherwise ConfigError naming ``key``."""
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"{key} must be odd and positive, got {window}")
    return window


def parse_window(value, key: str = "metrics_window") -> int | str:
    """A diversity window: "all", "lastN", or (from a run config) an integer
    N, with N >= 1.  Returns "all" or N; raises ConfigError naming ``key``."""
    if value == "all":
        return "all"
    match = re.fullmatch(r"last([0-9]+)", value) if isinstance(value, str) else None
    months = int(match[1]) if match else value
    if type(months) is not int or months < 1:
        raise ConfigError(f"bad {key} {value!r}: use 'all' or 'lastN' with N >= 1")
    return months


# Run-config keys that set the RunConfig field of the same name, which checks
# their values.  An absent key leaves the field's default.
_RUN_FIELDS = {"smoothing_window", "model", "strict", "biphase", "metrics_window", "workers"}
_RUN_KEYS = {"projects", "out_dir", "identity_config", "thresholds", "include_merges", *_RUN_FIELDS}
_PROJECT_KEYS = {"name", "repo", "log"}
_THRESHOLD_KEYS = {f.name for f in fields(EligibilityThresholds)}


def _reject_unknown_keys(table: dict, known: set[str], what: str) -> None:
    unknown = [key for key in table if key not in known]
    if unknown:
        raise ConfigError(f"unknown {what} key {unknown[0]!r}")


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown_keys(data, _RUN_KEYS, "run config")
    base = path.parent

    def resolve(table: dict, key: str) -> Path | None:
        """The path at ``key``, relative to the config's directory; None when absent."""
        if key not in table:
            return None
        raw = table[key]
        if not isinstance(raw, str) or not raw.isprintable():
            raise ConfigError(f"{key} must be a path string, got {raw!r}")
        p = Path(raw)
        return p if p.is_absolute() else base / p

    entries = data.get("projects", [])
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise ConfigError("projects must be a list of objects")
    projects = []
    for entry in entries:
        _reject_unknown_keys(entry, _PROJECT_KEYS, "project")
        projects.append(ProjectSource(name=entry.get("name"), repo=resolve(entry, "repo"), log=resolve(entry, "log")))
    identity = IdentityConfig()
    if "identity_config" in data:
        identity = load_identity_config(resolve(data, "identity_config"))
    thresholds = data.get("thresholds", {})
    if not isinstance(thresholds, dict) or not thresholds.keys() <= _THRESHOLD_KEYS:
        raise ConfigError(f"bad thresholds {thresholds!r}: use an object with keys {sorted(_THRESHOLD_KEYS)}")
    thresholds = EligibilityThresholds(**thresholds)
    for name, value in asdict(thresholds).items():
        if not _is_number(value):
            raise ConfigError(f"threshold {name} must be a finite number, got {value!r}")
    if data.get("include_merges"):
        raise ConfigError("include_merges is not supported: merges are always excluded")
    return RunConfig(
        projects=tuple(projects),
        out_dir=resolve(data, "out_dir") or base / "forgepulse-out",
        identity=identity,
        thresholds=thresholds,
        **{key: data[key] for key in _RUN_FIELDS if key in data},
    )


def cached_repo_lines(repo: Path) -> Iterator[str]:
    """Acquire a repository log, honoring the FORGEPULSE_CACHE directory,
    whose entries are keyed on the repository's path and ref state.  The
    state is read again once git has exited: when a ref moved meanwhile,
    this run reads the log it wrote and the entry is removed.  Keeping a
    repository's new entry deletes its superseded ones."""
    cache_dir = os.environ.get(CACHE_ENV_VAR)
    if not cache_dir:
        return acquire_repo_log(repo)
    import hashlib  # only the cache needs it; it costs start-up time

    repo_digest = hashlib.sha1(str(Path(repo).resolve()).encode()).hexdigest()
    state = ref_state(repo)
    cache_path = Path(cache_dir) / f"{repo_digest}-{state}.log"
    if cache_path.exists():
        return open_text(cache_path)
    Path(cache_dir).mkdir(parents=True, exist_ok=True)
    with atomic_writer(cache_path) as handle:  # git's bytes, as git wrote them
        handle.writelines(line.encode("utf-8", "surrogateescape") for line in acquire_repo_log(repo))
    if ref_state(repo) != state:  # a ref moved while git ran: read the log, keep no entry
        acquired = open_text(cache_path)
        cache_path.unlink(missing_ok=True)  # the open handle still reads it
        return acquired
    for stale in Path(cache_dir).glob(f"{repo_digest}-*.log"):
        if stale != cache_path:
            stale.unlink(missing_ok=True)
    return open_text(cache_path)


def ingest(
    repo: str | Path | None, log: str | Path | None, strict: bool = False
) -> tuple[Iterator[RecordBlock], IngestReport]:
    """Merge-free blocks of records of a repository, or else of a canonical
    log file, plus the parse report (complete once the blocks are
    exhausted).  This is the program's only merge filter: the parse drops
    merges with the skipped lines, and records_parsed still counts them.
    The log is opened here, and closed when the blocks end or fail, or when
    they are closed or dropped, also before the first."""
    lines = cached_repo_lines(Path(repo)) if repo is not None else open_text(log)
    source = str(repo if repo is not None else log)
    parsed, report = parse_log_stream(lines, strict=strict, source=source, blocks=True, _merges=False)

    def merge_free() -> Iterator[RecordBlock]:
        with closing(lines):
            yield
            yield from parsed

    blocks = merge_free()
    next(blocks)  # into the ``with``, so that closing or dropping the blocks closes the log
    return blocks, report


def tee_records(blocks: Iterable[RecordBlock], sink) -> Iterator[RecordBlock]:
    """Pass blocks through, writing each to the binary ``sink`` as records.jsonl lines."""
    for block in blocks:
        sink.write(block.jsonl())
        yield block


def fit_report(
    series: MonthlySeries,
    smoothing_window: int,
    model_selection: str,
    biphase: bool,
) -> tuple[dict, str]:
    """Fit the selected models; returns (FIT.json payload, CSV sidecar text).

    The sidecar has one row per month: t, month, observed and smoothed active
    contributors, and the fitted value of each model, ready for plotting.
    """
    observed = series.values("active_contributors")
    smoothed = moving_average(observed, smoothing_window)
    payload: dict = {
        "field": "active_contributors",
        "smoothing_window": smoothing_window,
        "t_offset": str(series.origin),
        "model_fits": {},
        "phase": None,
        "phase_reason": None,
        "biphase": None,
    }
    fits: dict[str, growth.GrowthFit] = {}
    models = list(growth.GrowthModel) if model_selection == "both" else [growth.GrowthModel(model_selection)]
    for model in models:
        try:
            fits[model.value] = growth.fit_growth(smoothed, model, t_offset=series.origin)
            payload["model_fits"][model.value] = asdict(fits[model.value])
        except growth.GrowthFitError as exc:
            payload["model_fits"][model.value] = None
            payload[f"{model.value}_reason"] = str(exc)

    if fits:
        # A fit needs MIN_FIT_POINTS months, more than classify_phase needs.
        best = min(fits.values(), key=lambda f: f.sse)
        payload["phase"] = growth.classify_phase(smoothed, best).value
        payload["phase_reason"] = growth.phase_reason(smoothed, best)
        if biphase:
            payload["biphase"] = growth.detect_biphase(smoothed, best.model, t_offset=series.origin)

    fitted = {name: growth.model_value(np.arange(len(series.points), dtype=float), fits[name])
              for name in sorted(fits)}
    rows = [["t", "month", "observed", "smoothed"] + [f"fitted_{name}" for name in fitted]]
    for t, point in enumerate(series.points):
        values = [observed[t], smoothed[t]] + [curve[t] for curve in fitted.values()]
        rows.append([t, point["month"]] + [f"{value:.6g}" for value in values])
    return payload, csv_text(rows)


@dataclass
class ProjectResult:
    name: str
    summary: dict | None = None  # summary.json's payload
    error: str | None = None


def run_project(source: ProjectSource, config: RunConfig) -> ProjectResult:
    result = ProjectResult(name=source.name)
    try:
        project_dir = config.out_dir / source.name
        project_dir.mkdir(parents=True, exist_ok=True)

        with atomic_writer(project_dir / "records.jsonl") as sink:
            records, report = ingest(source.repo, source.log, config.strict)
            series = build_monthly_series(tee_records(records, sink), config.identity)
        write_json_atomic(project_dir / "ingest_report.json", asdict(report))
        write_json_atomic(project_dir / "series.json", series_to_dict(series))

        metrics_payload = compute_metrics(series, config.metrics_window)
        write_json_atomic(project_dir / "metrics.json", metrics_payload)

        fit_payload, sidecar = fit_report(series, config.smoothing_window, config.model, config.biphase)
        write_json_atomic(project_dir / "fit.json", fit_payload)
        write_text_atomic(project_dir / "fit.csv", sidecar)

        summary = {
            **summarize(series, metrics_payload, fit_payload, project=source.name),
            "eligibility": check_eligibility(series, config.thresholds),
        }
        write_json_atomic(project_dir / "summary.json", summary)
        result.summary = summary
    except ForgepulseError as exc:
        result.error = str(exc)
    except OSError as exc:
        result.error = f"i/o error: {exc}"
    except Exception as exc:
        # A fault in one project must not cost the others their artifacts or
        # the run its summary table.
        message = str(exc).replace("\n", " ")
        result.error = f"internal error: {type(exc).__name__}: {message}"
    return result


class _Worker:  # not a dataclass: making one costs every run about 0.5 ms of start-up
    def __init__(self, pid: int, tasks: int):
        self.pid = pid
        self.tasks = tasks  # the pipe that hands it project indices
        self.project: int | None = None  # the index of the project it holds
        self.data = b""  # what it has sent of that project's result


def _run_in_workers(config: RunConfig) -> list[ProjectResult]:
    """``run_project`` for each project in ``min(config.workers, projects)``
    processes, each forked once.  The parent hands each idle worker the next
    project in config order over a pipe; the worker sends back the length of
    the result's pickle (8 bytes) and the pickle.  A worker that dies costs
    only the project it held: its temp files in that project's directory are
    removed, and the project runs once more, first in a fresh worker.  A
    second death is the project's error ``worker process died (exit code N)``."""
    import select  # only runs with workers use it

    results: list[ProjectResult | None] = [None] * len(config.projects)
    todo = list(range(len(config.projects)))[::-1]  # popped from the end
    workers: dict[int, _Worker] = {}  # by the pipe its results come back on
    poller = select.poll()

    def feed(worker: _Worker) -> None:
        """Hand ``worker`` the next project, if one is left."""
        worker.project = todo.pop() if todo else None
        if worker.project is not None:
            with suppress(BrokenPipeError):  # it died: its end of file follows
                os.write(worker.tasks, worker.project.to_bytes(4, "little"))  # into an empty pipe: never blocks

    def fork() -> None:
        tasks, task_writer = os.pipe()
        result_reader, result_writer = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (tasks, task_writer, result_reader, result_writer):
                os.close(fd)
            raise
        if pid == 0:
            try:
                # The parent's ends, also those of the workers forked before,
                # so that each worker sees the end of its own pipe.
                for fd in (task_writer, result_reader, *workers, *(w.tasks for w in workers.values())):
                    os.close(fd)
                while index := os.read(tasks, 4):
                    # Looked up here, so a wrapped ``run_project`` reaches the workers.
                    result = pickle.dumps(run_project(config.projects[int.from_bytes(index, "little")], config))
                    message = memoryview(len(result).to_bytes(8, "little") + result)
                    while message:
                        message = message[os.write(result_writer, message):]
                os._exit(0)
            finally:  # never back into the caller's frames or its stdio buffers
                os._exit(1)
        os.close(tasks)
        os.close(result_writer)
        workers[result_reader] = _Worker(pid, task_writer)
        poller.register(result_reader, select.POLLIN)
        feed(workers[result_reader])

    def end(fd: int) -> int:
        """Close the pipes of the worker whose results come back on ``fd``, reap it and remove
        the temp files it left in the directory of the project it held; its exit code."""
        worker = workers.pop(fd)
        poller.unregister(fd)
        os.close(fd)
        os.close(worker.tasks)  # an idle worker reads its end and exits
        code = os.waitstatus_to_exitcode(os.waitpid(worker.pid, 0)[1])
        if worker.project is not None:
            remove_temp_files(config.out_dir / config.projects[worker.project].name, worker.pid)
        return code

    try:
        for _ in range(min(config.workers, len(config.projects))):
            fork()
        while any(worker.project is not None for worker in workers.values()):
            for fd, _ in poller.poll():
                worker = workers[fd]
                if chunk := os.read(fd, 1 << 16):
                    worker.data += chunk
                    if len(worker.data) == 8 + int.from_bytes(worker.data[:8], "little"):
                        results[worker.project], worker.data = pickle.loads(worker.data[8:]), b""
                        feed(worker)
                    continue
                code, project = end(fd), worker.project
                if project is not None:  # it died holding this project, which runs once more
                    if results[project] is None:  # the rerun's result replaces this error
                        todo.append(project)
                    error = f"worker process died (exit code {code})"
                    results[project] = ProjectResult(config.projects[project].name, error=error)
                    if todo:  # a fresh worker takes its place, and the rerun first
                        fork()
    except BaseException:  # no worker outlives a failed run either
        import signal  # only this path needs it

        for worker in workers.values():
            os.kill(worker.pid, signal.SIGKILL)
        raise
    finally:
        for fd in list(workers):
            end(fd)
    return results


def summary_csv(rows: list[dict]) -> str:
    table = [[
        "project", "total_contributors", "total_orgs", "mean_monthly_commits",
        "active_p5", "active_p95", "commits_p5", "commits_p95", "orgs_p5", "orgs_p95",
        "spearman", "diversity",
    ]]
    for row in rows:
        numbers = [
            row["mean_monthly_commits"],
            *row["active_contrib_range"],
            *row["monthly_commit_range"],
            *row["active_org_range"],
        ]
        cells = [row["project"], row["total_contributors"], row["total_orgs"]] + [f"{number:.6g}" for number in numbers]
        cells += ["" if row[key] is None else f"{row[key]:.6g}" for key in ("spearman", "diversity")]
        table.append(cells)
    return csv_text(table)


def summary_text(rows: list[dict]) -> str:
    """Aligned text rendering of the combined summary table."""
    columns = ["Project", "Contributors", "Active/month", "Commits/month", "Orgs/month", "Spearman", "Diversity"]

    def cell_range(pair: tuple[float, float]) -> str:
        return f"{pair[0]:g} - {pair[1]:g}"

    table = [columns]
    for row in rows:
        table.append(
            [
                row["project"],
                str(row["total_contributors"]),
                cell_range(row["active_contrib_range"]),
                cell_range(row["monthly_commit_range"]),
                cell_range(row["active_org_range"]),
                "n/a" if row["spearman"] is None else f"{row['spearman']:.2f}",
                "n/a" if row["diversity"] is None else f"{row['diversity']:.2f}",
            ]
        )
    widths = [max(map(len, column)) for column in zip(*table)]
    table.insert(1, ["-" * width for width in widths])
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip() for line in table]
    return "\n".join(lines) + "\n"


@dataclass
class RunOutcome:
    results: list[ProjectResult]
    exit_code: int


def run_pipeline(config: RunConfig) -> RunOutcome:
    """Process every configured project; write the combined summary table.

    Exit code 0 means every project processed (eligibility failures are only
    warnings); any per-project error makes it 1.
    """
    config.out_dir.mkdir(parents=True, exist_ok=True)
    if config.workers == 1 or len(config.projects) == 1:
        results = [run_project(source, config) for source in config.projects]
    else:
        results = _run_in_workers(config)

    rows = sorted((r.summary for r in results if r.summary is not None), key=lambda row: row["project"])
    write_text_atomic(config.out_dir / "summary.csv", summary_csv(rows))
    write_text_atomic(config.out_dir / "summary.txt", summary_text(rows))
    report = {
        "projects": {
            r.name: {"status": "ok" if r.error is None else "error", "error": r.error}
            for r in results
        }
    }
    write_json_atomic(config.out_dir / "run_report.json", report)
    exit_code = 0 if all(r.error is None for r in results) else 1
    return RunOutcome(results=results, exit_code=exit_code)
