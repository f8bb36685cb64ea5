"""forgepulse command line: ingest, series, metrics, fit, run, summary."""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

from .errors import ConfigError, ForgepulseError
from .identity import IdentityConfig, load_identity_config
from .ingest import open_text, read_records_jsonl
from .jsonio import atomic_writer, dumps_stable, write_json_atomic, write_text_atomic
from .pipeline import (
    MERGE_POLICY,
    check_smoothing_window,
    compute_metrics,
    fit_report,
    ingest,
    load_run_config,
    parse_window,
    read_summary_row,
    run_pipeline,
    summary_csv,
    summary_text,
    tee_records,
)
from .series import build_monthly_series, load_series, series_to_dict


def _stdout_sink():
    """Binary stdout for records.jsonl text; a stand-in that holds text, such
    as ``redirect_stdout(io.StringIO())`` gives, has no buffer and gets the
    text decoded."""
    if hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # what was written as text goes first
        return sys.stdout.buffer
    return SimpleNamespace(write=lambda data: sys.stdout.write(data.decode("ascii")))


def _cmd_ingest(args: argparse.Namespace) -> int:
    with nullcontext(_stdout_sink()) if args.out == "-" else atomic_writer(args.out) as sink:
        records, report = ingest(args.repo, args.log, args.strict)
        written = sum(map(len, tee_records(records, sink)))
    payload = asdict(report)
    payload["records_written"] = written
    payload["merge_policy"] = MERGE_POLICY
    sys.stderr.write(dumps_stable(payload) + "\n")
    return 0


def _identity_from_args(args: argparse.Namespace) -> IdentityConfig:
    identity = load_identity_config(args.identity_config) if args.identity_config else IdentityConfig()
    # The flag overrides the file; without the flag the file decides.
    return replace(identity, group_providers=True) if args.group_providers else identity


def _cmd_series(args: argparse.Namespace) -> int:
    identity = _identity_from_args(args)
    if args.infile != "-":
        opened = open_text(args.infile)
    else:
        if isinstance(sys.stdin, io.TextIOWrapper):  # not a stand-in that holds text already
            sys.stdin.reconfigure(errors="surrogateescape")
        opened = nullcontext(sys.stdin)
    with opened as handle:
        series = build_monthly_series(read_records_jsonl(handle), identity)
    write_json_atomic(args.out, series_to_dict(series))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    window = parse_window(args.window, "--window")
    payload = compute_metrics(load_series(args.series), window)
    write_json_atomic(args.out, payload)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    window = check_smoothing_window(args.window, "--window")
    if Path(args.out).suffix == ".csv":
        raise ConfigError(f"--out {args.out!r} would be overwritten by its .csv sidecar: give it another suffix")
    payload, sidecar = fit_report(load_series(args.series), window, args.model, args.biphase)
    write_json_atomic(args.out, payload)
    write_text_atomic(Path(args.out).with_suffix(".csv"), sidecar)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    outcome = run_pipeline(config)
    for result in outcome.results:
        if result.error is not None:
            sys.stderr.write(f"error: {result.name}: {result.error}\n")
        elif not result.summary["eligibility"]["eligible"]:
            sys.stderr.write(f"warning: {result.name}: below eligibility thresholds\n")
    return outcome.exit_code


def _cmd_summary(args: argparse.Namespace) -> int:
    rows = []
    for path in args.inputs:
        try:
            rows.append(read_summary_row(json.loads(Path(path).read_text(encoding="utf-8"))))
        except (ValueError, RecursionError, ForgepulseError) as exc:  # ValueError: not JSON, or not UTF-8
            raise ForgepulseError(f"bad summary file {path}: {exc}") from exc
    rows.sort(key=lambda row: row["project"])
    if args.out_csv:
        write_text_atomic(args.out_csv, summary_csv(rows))
    if args.out_text:
        write_text_atomic(args.out_text, summary_text(rows))
    if not args.out_csv and not args.out_text:
        sys.stdout.write(summary_text(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forgepulse",
        description="Mine git commit histories for community productivity, diversity, and growth analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="extract and validate commit records")
    source = p_ingest.add_mutually_exclusive_group(required=True)
    source.add_argument("--repo", help="path to a git repository")
    source.add_argument("--log", help="path to a canonical-format log file")
    p_ingest.add_argument("--strict", action="store_true", help="abort on the first malformed line")
    p_ingest.add_argument("--out", required=True, help="output JSONL path, or - for stdout")
    p_ingest.set_defaults(func=_cmd_ingest)

    p_series = sub.add_parser("series", help="aggregate records into a monthly series")
    p_series.add_argument("--in", dest="infile", required=True, help="records JSONL path, or - for stdin")
    p_series.add_argument("--identity-config", help="identity config JSON")
    p_series.add_argument("--group-providers", action="store_true",
                          help="collapse provider-domain individuals into one unit")
    p_series.add_argument("--out", required=True)
    p_series.set_defaults(func=_cmd_series)

    p_metrics = sub.add_parser("metrics", help="productivity and diversity statistics")
    p_metrics.add_argument("--series", required=True)
    p_metrics.add_argument("--window", default="all", help="'all' or 'lastN' months (diversity window)")
    p_metrics.add_argument("--out", required=True)
    p_metrics.set_defaults(func=_cmd_metrics)

    p_fit = sub.add_parser("fit", help="fit growth curves to the active-contributor series")
    p_fit.add_argument("--series", required=True)
    p_fit.add_argument("--model", choices=["gompertz", "logistic", "both"], default="both")
    p_fit.add_argument("--biphase", action="store_true", help="also search for bi-phase growth")
    p_fit.add_argument("--window", type=int, default=3, help="smoothing window (odd)")
    p_fit.add_argument("--out", required=True, help="FIT.json path; a .csv sidecar lands next to it")
    p_fit.set_defaults(func=_cmd_fit)

    p_run = sub.add_parser("run", help="full pipeline over all configured projects")
    p_run.add_argument("--config", required=True, help="run config JSON")
    p_run.set_defaults(func=_cmd_run)

    p_summary = sub.add_parser("summary", help="merge per-project summary rows into one table")
    p_summary.add_argument("inputs", nargs="+", help="summary.json files")
    p_summary.add_argument("--out-csv")
    p_summary.add_argument("--out-text")
    p_summary.set_defaults(func=_cmd_summary)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except ForgepulseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
