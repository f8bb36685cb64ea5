"""End-to-end project processing and the summary report.

For each configured project: ingest -> monthly series -> metrics -> growth
fits -> summary row.  Per-project artifacts are JSON/CSV files written
atomically; a combined summary table (CSV plus aligned text) collects the
rows.  Eligibility failures are warnings; only processing failures make the
run exit nonzero.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import closing
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import growth, metrics
from .errors import ConfigError, ForgepulseError, MetricError
from .identity import IdentityConfig, load_identity_config
from .ingest import IngestReport, RecordBlock, acquire_repo_log, parse_log_stream, ref_state
from .jsonio import atomic_writer, write_json_atomic, write_text_atomic
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


@dataclass(frozen=True)
class ProjectSummary:
    """One report row: life-span totals, typical monthly ranges (5th/95th
    percentiles), and the two headline statistics."""

    project: str
    total_contributors: int
    total_orgs: int
    mean_monthly_commits: float
    active_contrib_range: tuple[float, float]
    monthly_commit_range: tuple[float, float]
    active_org_range: tuple[float, float]
    spearman: float | None
    spearman_reason: str | None
    diversity: float | None
    diversity_reason: str | None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "merge_policy": MERGE_POLICY}

    @classmethod
    def from_dict(cls, data) -> ProjectSummary:
        """Inverse of ``to_dict``; the ``*_reason`` fields and ``notes`` may be
        absent.  Raises ForgepulseError for any other missing or bad field."""
        if not isinstance(data, dict):
            raise ForgepulseError(f"summary must be a JSON object, got {type(data).__name__}")
        optional = {"spearman_reason": None, "diversity_reason": None, "notes": ()}
        missing = object()  # passes no check
        row = {}
        for f in fields(cls):
            value = data.get(f.name, optional.get(f.name, missing))
            if not _FIELD_CHECKS[f.type](value):
                raise ForgepulseError(f"missing or bad field {f.name!r}")
            row[f.name] = tuple(value) if f.type.startswith("tuple") else value
        return cls(**row)


def _is_number(value) -> bool:
    return type(value) in (int, float)  # not bool


# ProjectSummary field annotation -> check of its value in summary.json.
_FIELD_CHECKS = {
    "str": lambda v: isinstance(v, str) and v.isprintable(),  # the project name, printed in the table
    "int": lambda v: type(v) is int,
    "float": _is_number,
    "tuple[float, float]": lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)),
    "float | None": lambda v: v is None or _is_number(v),
    "str | None": lambda v: v is None or isinstance(v, str),
    "tuple[str, ...]": lambda v: isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v),
}


STATISTICS = ("spearman", "trend", "diversity", "tail")


@dataclass(frozen=True)
class MetricsReport:
    spearman: metrics.SpearmanResult | None
    spearman_reason: str | None
    trend: metrics.TrendResult | None
    trend_reason: str | None
    diversity: metrics.DiversityResult | None
    diversity_reason: str | None
    tail: metrics.TailResult | None
    tail_reason: str | None
    window: str

    def to_dict(self) -> dict:
        out: dict = {"window": self.window}
        for name in STATISTICS:
            result = getattr(self, name)
            out[name] = None if result is None else asdict(result)
            if result is None:
                out[f"{name}_reason"] = getattr(self, f"{name}_reason")
        return out


def compute_metrics(series: MonthlySeries, window: int | str = "all") -> MetricsReport:
    """All four statistics, each independently degrading to null + reason."""
    actives = series.values("active_contributors")
    commits = series.values("commits")
    computations = (
        lambda: metrics.spearman(actives, commits),
        lambda: metrics.linear_trend(actives, commits),
        lambda: metrics.diversity(metrics.org_shares(series, window)),
        lambda: metrics.contribution_tail(list(series.contributor_commits.values())),
    )
    outcome: dict = {}
    for name, compute in zip(STATISTICS, computations):
        try:
            outcome[name], outcome[f"{name}_reason"] = compute(), None
        except MetricError as exc:
            outcome[name], outcome[f"{name}_reason"] = None, exc.reason
    return MetricsReport(window=str(window), **outcome)


def _percentile_range(values: list[int]) -> tuple[float, float]:
    low, high = np.percentile(np.asarray(values, dtype=float), [5.0, 95.0])
    return float(low), float(high)


def summarize(
    series: MonthlySeries,
    metrics_report: MetricsReport,
    fits: dict[str, growth.GrowthFit] | None = None,
    project: str = "",
) -> ProjectSummary:
    """Assemble the report row from precomputed metrics.

    Monthly ranges are 5th/95th percentiles: the reproducible analogue of
    eyeballed typical ranges, excluding outlier months.
    """
    notes: list[str] = []
    if fits:
        for fit in fits.values():
            for note in fit.notes:
                if note not in notes:
                    notes.append(note)
    return ProjectSummary(
        project=project,
        total_contributors=series.total_contributors,
        total_orgs=series.total_orgs,
        mean_monthly_commits=series.mean_monthly_commits,
        active_contrib_range=_percentile_range(series.values("active_contributors")),
        monthly_commit_range=_percentile_range(series.values("commits")),
        active_org_range=_percentile_range(series.values("active_orgs")),
        spearman=None if metrics_report.spearman is None else metrics_report.spearman.rho,
        spearman_reason=metrics_report.spearman_reason,
        diversity=None if metrics_report.diversity is None else metrics_report.diversity.diversity,
        diversity_reason=metrics_report.diversity_reason,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class ProjectSource:
    name: str
    repo: Path | None = None
    log: Path | None = None

    def __post_init__(self):
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
        if not self.projects:
            raise ConfigError("config lists no projects")
        names = [source.name for source in self.projects]
        if len(set(names)) < len(names):  # each name is a directory under out_dir
            duplicate = next(name for i, name in enumerate(names) if name in names[:i])
            raise ConfigError(f"duplicate project name {duplicate!r}")
        if self.model not in ("gompertz", "logistic", "both"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise ConfigError("smoothing_window must be odd and positive")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


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


_THRESHOLD_KEYS = {f.name for f in fields(EligibilityThresholds)}


def _config_int(data: dict, key: str, default: int) -> int:
    value = data.get(key, default)
    if type(value) is not int:  # not bool, nor a float that int() would cut
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _config_bool(data: dict, key: str) -> bool:
    value = data.get(key, False)
    if type(value) is not bool:
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
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
        name = entry.get("name")
        if not name:
            raise ConfigError(f"project entry without a name: {entry}")
        # The name is the project's directory under out_dir.
        if not isinstance(name, str) or not name.isprintable() or "/" in name or name in (".", ".."):
            raise ConfigError(f"project name must be a file name, got {name!r}")
        projects.append(ProjectSource(name=name, repo=resolve(entry, "repo"), log=resolve(entry, "log")))
    identity = IdentityConfig()
    if "identity_config" in data:
        identity = load_identity_config(resolve(data, "identity_config"))
    thresholds = data.get("thresholds", {})
    if not isinstance(thresholds, dict) or not thresholds.keys() <= _THRESHOLD_KEYS:
        raise ConfigError(f"bad thresholds {thresholds!r}: use an object with keys {sorted(_THRESHOLD_KEYS)}")
    thresholds = EligibilityThresholds(**thresholds)
    for name, value in asdict(thresholds).items():
        if type(value) not in (int, float):
            raise ConfigError(f"threshold {name} must be a number, got {value!r}")
    if data.get("include_merges"):
        raise ConfigError("include_merges is not supported: merges are always excluded")
    return RunConfig(
        projects=tuple(projects),
        out_dir=resolve(data, "out_dir") or base / "forgepulse-out",
        identity=identity,
        thresholds=thresholds,
        smoothing_window=_config_int(data, "smoothing_window", 3),
        model=str(data.get("model", "both")),
        strict=_config_bool(data, "strict"),
        biphase=_config_bool(data, "biphase"),
        metrics_window=parse_window(data.get("metrics_window", "all")),
        workers=_config_int(data, "workers", 1),
    )


def cached_repo_lines(repo: Path) -> Iterator[str]:
    """Acquire a repository log, honoring the FORGEPULSE_CACHE directory,
    whose entries are keyed on the repository's path and ref state.  Writing
    a repository's new entry deletes its superseded ones."""
    cache_dir = os.environ.get(CACHE_ENV_VAR)
    if not cache_dir:
        yield from acquire_repo_log(repo)
        return
    import hashlib  # only the cache needs it; it costs start-up time

    repo_digest = hashlib.sha1(str(Path(repo).resolve()).encode()).hexdigest()
    cache_path = Path(cache_dir) / f"{repo_digest}-{ref_state(repo)}.log"
    if not cache_path.exists():
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        with atomic_writer(cache_path) as handle:
            handle.reconfigure(errors="surrogateescape")  # git's bytes, as git wrote them
            handle.writelines(acquire_repo_log(repo))
        for stale in Path(cache_dir).glob(f"{repo_digest}-*.log"):
            if stale != cache_path:
                stale.unlink(missing_ok=True)
    yield from _file_lines(cache_path)


def _file_lines(path: str | Path) -> Iterator[str]:
    # A byte that is not UTF-8 reads as a lone surrogate, which the parsers
    # report with its line number.
    with Path(path).open(encoding="utf-8", errors="surrogateescape") as handle:
        yield from handle


def ingest(
    repo: str | Path | None, log: str | Path | None, strict: bool = False
) -> tuple[Iterator[RecordBlock], IngestReport]:
    """Merge-free blocks of records of a repository, or else of a canonical
    log file, plus the parse report (complete once the blocks are
    exhausted).  This is the program's only merge filter.  The log is opened
    at the first block and closed when the blocks end, fail or are closed."""
    lines = cached_repo_lines(Path(repo)) if repo is not None else _file_lines(log)
    source = str(repo if repo is not None else log)
    blocks, report = parse_log_stream(lines, strict=strict, source=source, blocks=True)

    def merge_free() -> Iterator[RecordBlock]:
        with closing(lines):
            for block in blocks:
                block = block.without_merges()
                if block:
                    yield block

    return merge_free(), report


def tee_records(blocks: Iterable[RecordBlock], sink) -> Iterator[RecordBlock]:
    """Pass blocks through, writing each to ``sink`` as records.jsonl lines."""
    for block in blocks:
        sink.write(block.jsonl())
        yield block


def fit_report(
    series: MonthlySeries,
    smoothing_window: int,
    model_selection: str,
    biphase: bool,
) -> tuple[dict, str, dict[str, growth.GrowthFit]]:
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
            payload["model_fits"][model.value] = fits[model.value].to_dict()
        except growth.GrowthFitError as exc:
            payload["model_fits"][model.value] = None
            payload[f"{model.value}_reason"] = str(exc)

    best = min(fits.values(), key=lambda f: f.sse) if fits else None
    if best is not None:
        try:
            payload["phase"] = growth.classify_phase(smoothed, best).value
        except growth.GrowthFitError as exc:
            payload["phase_reason"] = str(exc)
    if biphase and fits:
        result = growth.detect_biphase(smoothed, best.params.model, t_offset=series.origin)
        payload["biphase"] = None if result is None else result.to_dict()

    lines = ["t,month,observed,smoothed" + "".join(f",fitted_{m}" for m in sorted(fits))]
    t_values = range(len(series.points))
    fitted = {name: growth.model_value(np.arange(len(series.points), dtype=float), fit.params)
              for name, fit in fits.items()}
    for t in t_values:
        row = [
            str(t),
            str(series.points[t].month),
            f"{observed[t]:.6g}",
            f"{smoothed[t]:.6g}",
        ]
        row += [f"{fitted[name][t]:.6g}" for name in sorted(fits)]
        lines.append(",".join(row))
    return payload, "\n".join(lines) + "\n", fits


@dataclass
class ProjectResult:
    name: str
    summary: ProjectSummary | None = None
    eligibility: dict | None = None
    error: str | None = None


def run_project(source: ProjectSource, config: RunConfig) -> ProjectResult:
    result = ProjectResult(name=source.name)
    try:
        project_dir = config.out_dir / source.name
        project_dir.mkdir(parents=True, exist_ok=True)

        records, report = ingest(source.repo, source.log, config.strict)
        with atomic_writer(project_dir / "records.jsonl") as sink:
            series = build_monthly_series(tee_records(records, sink), config.identity)
        write_json_atomic(project_dir / "ingest_report.json", report.to_dict())
        write_json_atomic(project_dir / "series.json", series_to_dict(series))

        metrics_report = compute_metrics(series, config.metrics_window)
        write_json_atomic(project_dir / "metrics.json", metrics_report.to_dict())

        fit_payload, sidecar, fits = fit_report(
            series, config.smoothing_window, config.model, config.biphase
        )
        write_json_atomic(project_dir / "fit.json", fit_payload)
        write_text_atomic(project_dir / "fit.csv", sidecar)

        summary = summarize(series, metrics_report, fits, project=source.name)
        eligibility = check_eligibility(summary, config.thresholds)
        summary_payload = summary.to_dict()
        summary_payload["eligibility"] = eligibility.to_dict()
        write_json_atomic(project_dir / "summary.json", summary_payload)

        result.summary = summary
        result.eligibility = eligibility.to_dict()
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


def _run_project_in_worker(source: ProjectSource, config: RunConfig) -> ProjectResult:
    # The pool pickles functions by name; this one looks ``run_project`` up
    # when it runs, so a wrapped ``run_project`` still reaches the workers.
    return run_project(source, config)


def summary_csv(rows: list[ProjectSummary]) -> str:
    header = (
        "project,total_contributors,total_orgs,mean_monthly_commits,"
        "active_p5,active_p95,commits_p5,commits_p95,orgs_p5,orgs_p95,"
        "spearman,diversity"
    )
    lines = [header]
    for row in rows:
        cells = [
            row.project,
            str(row.total_contributors),
            str(row.total_orgs),
            f"{row.mean_monthly_commits:.6g}",
            f"{row.active_contrib_range[0]:.6g}",
            f"{row.active_contrib_range[1]:.6g}",
            f"{row.monthly_commit_range[0]:.6g}",
            f"{row.monthly_commit_range[1]:.6g}",
            f"{row.active_org_range[0]:.6g}",
            f"{row.active_org_range[1]:.6g}",
            "" if row.spearman is None else f"{row.spearman:.6g}",
            "" if row.diversity is None else f"{row.diversity:.6g}",
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def summary_text(rows: list[ProjectSummary]) -> str:
    """Aligned text rendering of the combined summary table."""
    columns = ["Project", "Contributors", "Active/month", "Commits/month", "Orgs/month", "Spearman", "Diversity"]

    def cell_range(pair: tuple[float, float]) -> str:
        return f"{pair[0]:g} - {pair[1]:g}"

    table = [columns]
    for row in rows:
        table.append(
            [
                row.project,
                str(row.total_contributors),
                cell_range(row.active_contrib_range),
                cell_range(row.monthly_commit_range),
                cell_range(row.active_org_range),
                "n/a" if row.spearman is None else f"{row.spearman:.2f}",
                "n/a" if row.diversity is None else f"{row.diversity:.2f}",
            ]
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    rendered = []
    for line_no, line in enumerate(table):
        rendered.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
        if line_no == 0:
            rendered.append("  ".join("-" * widths[i] for i in range(len(columns))))
    return "\n".join(rendered) + "\n"


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
        # Imported here: multiprocessing adds about 8 ms and 0.7 MB to the
        # start-up of every run, and only runs with workers use it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(config.workers, len(config.projects))) as pool:
            results = list(pool.map(partial(_run_project_in_worker, config=config), config.projects))

    rows = sorted(
        (r.summary for r in results if r.summary is not None), key=lambda s: s.project
    )
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
