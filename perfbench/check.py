"""Output checks that decide whether an operation succeeded.

An operation is one project of a ``run_pipeline`` call or one ``cli.main``
call of the stages chain.  It fails when it reports an error, or when its
artifacts break an invariant that holds for every seed, differ from the
artifacts of the run's first sample (reruns must be byte-identical), or
differ from the reference digests recorded for the seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from gen import GeneratedLog

PIPELINE_FILES = (
    "records.jsonl", "ingest_report.json", "series.json", "metrics.json",
    "fit.json", "fit.csv", "summary.json",
)
RUN_FILES = ("summary.csv", "summary.txt", "run_report.json")
STAGE_FILES = {
    "ingest": ("records.jsonl", "ingest.stderr"),
    "series": ("series.json",),
    "metrics": ("metrics.json",),
    "fit": ("fit.json", "fit.csv"),
}
INGEST_STDERR = "ingest.stderr"  # the report `forgepulse ingest` prints


def digest_tree(out_dir: Path, extra: dict[str, str] | None = None) -> dict[str, str]:
    """sha256 of every file under ``out_dir`` by relative path, plus
    in-memory outputs in ``extra``."""
    digests = {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }
    for name, text in (extra or {}).items():
        digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def owner(mode: str, path: str) -> str:
    """The operation a file belongs to; '*' for a run-level file."""
    if mode == "stages":
        return next((op for op, names in STAGE_FILES.items() if path in names), "*")
    head, sep, _ = path.partition("/")
    return head if sep else "*"


def digest_mismatches(mode: str, expected: dict[str, str], actual: dict[str, str], label: str) -> dict[str, list[str]]:
    """Problems, by operation, where ``actual`` differs from ``expected``."""
    problems: dict[str, list[str]] = {}
    for path in sorted(set(expected) | set(actual)):
        if expected.get(path) != actual.get(path):
            what = "missing" if path not in actual else ("unexpected" if path not in expected else "differs")
            problems.setdefault(owner(mode, path), []).append(f"{path} {what} ({label})")
    return problems


def _load_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def _check_report(report: dict, log: GeneratedLog, problems: list[str]) -> None:
    parsed, skipped = report.get("records_parsed"), report.get("records_skipped")
    if parsed is None or skipped is None or parsed + skipped != log.lines:
        problems.append(f"parsed {parsed} + skipped {skipped} != {log.lines} non-blank lines")
    if parsed != log.records:
        problems.append(f"parsed {parsed} records, generator wrote {log.records}")
    if report.get("skip_reasons") != log.skip_reasons:
        problems.append(f"skip reasons {report.get('skip_reasons')} != injected {log.skip_reasons}")


def _check_records(path: Path, log: GeneratedLog, problems: list[str]) -> int | None:
    try:
        data = path.read_bytes()
    except OSError as exc:
        problems.append(f"records: {exc}")
        return None
    written = data.count(b"\n")
    if written != log.nonmerge_records:
        problems.append(f"{written} records written, expected {log.nonmerge_records} non-merge records")
    if b'"is_merge": true' in data:
        problems.append("a merge commit was written with merges excluded")
    return written


def _check_series(path: Path, written: int | None, problems: list[str]) -> None:
    series = _load_json(path, problems)
    if series is None:
        return
    total = sum(point["commits"] for point in series["points"])
    if written is not None and total != written:
        problems.append(f"series commit total {total} != {written} non-merge records written")


def _check_fit(path: Path, biphase: bool, problems: list[str]) -> None:
    fit = _load_json(path, problems)
    if fit is None:
        return
    for model, result in fit["model_fits"].items():
        if result is None:
            problems.append(f"{model} fit failed: {fit.get(model + '_reason')}")
    if biphase and fit["biphase"] is None:
        problems.append("bi-phase search returned no result")
    if not path.with_suffix(".csv").is_file():
        problems.append("fit.csv sidecar missing")


def check_pipeline(out_dir: Path, logs: dict[str, GeneratedLog], biphase: bool) -> dict[str, list[str]]:
    """Invariants of one run_pipeline call's artifacts, by project."""
    problems: dict[str, list[str]] = {"*": []}
    missing = [f for f in RUN_FILES if not (out_dir / f).is_file()]
    if missing:
        return {"*": [f"missing run artifacts {missing}"]}
    run_report = _load_json(out_dir / "run_report.json", problems["*"])
    rows = (out_dir / "summary.csv").read_text().count("\n") - 1
    if rows != len(logs):
        problems["*"].append(f"summary.csv has {rows} rows for {len(logs)} projects")
    for name, log in logs.items():
        found = problems.setdefault(name, [])
        project = out_dir / name
        missing = [f for f in PIPELINE_FILES if not (project / f).is_file()]
        if missing:
            found.append(f"missing artifacts {missing}")
            continue
        if run_report is not None and run_report["projects"].get(name, {}).get("status") != "ok":
            found.append(f"run report status {run_report['projects'].get(name)}")
        report = _load_json(project / "ingest_report.json", found)
        if report is not None:
            _check_report(report, log, found)
        written = _check_records(project / "records.jsonl", log, found)
        _check_series(project / "series.json", written, found)
        _check_fit(project / "fit.json", biphase, found)
        _load_json(project / "metrics.json", found)
    return {op: found for op, found in problems.items() if found}


def check_stages(out_dir: Path, log: GeneratedLog, ingest_stderr: str | None) -> dict[str, list[str]]:
    """Invariants of the ingest -> series -> metrics -> fit chain, by call."""
    problems: dict[str, list[str]] = {op: [] for op in STAGE_FILES}
    try:
        payload = json.loads(ingest_stderr or "")
    except ValueError:
        problems["ingest"].append(f"ingest report unreadable: {ingest_stderr!r:.200}")
        payload = None
    written = _check_records(out_dir / "records.jsonl", log, problems["ingest"])
    if payload is not None:
        _check_report(payload, log, problems["ingest"])
        if payload.get("records_written") != written:
            problems["ingest"].append(f"report says {payload.get('records_written')} written, file has {written}")
    _check_series(out_dir / "series.json", written, problems["series"])
    metrics = _load_json(out_dir / "metrics.json", problems["metrics"])
    if metrics is not None and metrics.get("window") != "12":
        problems["metrics"].append(f"metrics window {metrics.get('window')!r}, asked for last12")
    _check_fit(out_dir / "fit.json", False, problems["fit"])
    return {op: found for op, found in problems.items() if found}
