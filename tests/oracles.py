"""The record-at-a-time code that the block paths replaced, kept as the
reference the block paths are tested against.

``parse_log_stream_oracle`` parses one line at a time, ``read_records_jsonl_oracle``
reads one record at a time through ``record_from_dict``, and
``build_monthly_series_oracle`` is the dict-and-set aggregation loop.  Timestamps
go through the scalar ``_parse_timestamp``, the parser's reference conversion.
``lm_minimize_oracle`` is the one-series Levenberg-Marquardt loop that the
batched growth solver replaced.
"""

import json
import math
import re

import numpy as np

from forgepulse import CommitRecord, GrowthModel, IdentityConfig, LogParseError, SeriesError
from forgepulse.errors import IdentityError
from forgepulse.growth import _jacobian_columns
from forgepulse.ingest import (
    REASON_EMPTY_EMAIL,
    REASON_FIELD_COUNT,
    REASON_HASH,
    REASON_PARENT_COUNT,
    REASON_TIMESTAMP,
    IngestReport,
    _parse_timestamp,
    record_from_dict,
)
from forgepulse.series import MonthKey, MonthlyPoint, MonthlySeries, _fallback_unit, normalize_email, resolve_org

_HEX40 = re.compile(r"[0-9a-fA-F]{40}")


def _parse_line(line):
    parts = line.split("\t")
    if len(parts) != 5:
        return None, REASON_FIELD_COUNT
    sha, stamp_text, email, name, parent_text = parts
    if not _HEX40.fullmatch(sha):
        return None, REASON_HASH
    stamp = _parse_timestamp(stamp_text)
    if stamp is None:
        return None, REASON_TIMESTAMP
    try:
        parent_count = int(parent_text)
    except ValueError:
        return None, REASON_PARENT_COUNT
    if parent_count < 0:
        return None, REASON_PARENT_COUNT
    if not email.strip():
        return None, REASON_EMPTY_EMAIL
    return CommitRecord(sha, email, name, stamp, parent_count >= 2), None


def parse_log_stream_oracle(lines, strict=False, source="<stream>"):
    report = IngestReport(source=source)

    def _records():
        for line_no, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            record, reason = _parse_line(line)
            if record is None:
                if strict:
                    raise LogParseError(line_no, reason)
                report.tally_skip(reason)
                continue
            report.records_parsed += 1
            yield record

    return _records(), report


def read_records_jsonl_oracle(lines):
    line_no = 0
    try:
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if line:
                yield record_from_dict(json.loads(line))
    except json.JSONDecodeError as exc:
        raise LogParseError(line_no, f"bad JSON: {exc.msg}") from exc
    except KeyError as exc:
        raise LogParseError(line_no, f"missing field {exc}") from exc
    except ValueError as exc:
        raise LogParseError(line_no, str(exc)) from exc
    except (AttributeError, TypeError) as exc:
        raise LogParseError(line_no, f"bad record: {exc}") from exc


def build_monthly_series_oracle(records, config=IdentityConfig()):
    unit_cache = {}
    month_commits = {}
    month_contributors = {}
    month_org_commits = {}
    contributor_commits = {}

    for record in records:
        try:
            key = normalize_email(record.author_email)
        except IdentityError:
            key, unit = _fallback_unit(record.author_email)
            unit_cache.setdefault(key, unit)
        unit = unit_cache.get(key)
        if unit is None:
            unit = resolve_org(key, config)
            unit_cache[key] = unit
        index = MonthKey.from_datetime(record.authored_at).index
        month_commits[index] = month_commits.get(index, 0) + 1
        month_contributors.setdefault(index, set()).add(key)
        orgs = month_org_commits.setdefault(index, {})
        orgs[unit.key] = orgs.get(unit.key, 0) + 1
        contributor_commits[key] = contributor_commits.get(key, 0) + 1

    if not month_commits:
        raise SeriesError("no records to aggregate (empty series)")

    first, last = min(month_commits), max(month_commits)
    points = []
    for index in range(first, last + 1):
        orgs = month_org_commits.get(index, {})
        points.append(
            MonthlyPoint(
                month=MonthKey.from_index(index),
                active_contributors=len(month_contributors.get(index, ())),
                commits=month_commits.get(index, 0),
                active_orgs=len(orgs),
                org_commits=orgs,
            )
        )
    return MonthlySeries(
        points=tuple(points),
        origin=MonthKey.from_index(first),
        contributor_commits=contributor_commits,
    )


def _growth_values(t, model, theta):
    y_star, alpha, shape = np.exp(theta)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if model is GrowthModel.GOMPERTZ:
            return y_star * np.exp(-shape * np.exp(-alpha * t))
        return y_star / (1.0 + shape * np.exp(-alpha * y_star * t))


def lm_minimize_oracle(t, values, model, start, options):
    """One start's Levenberg-Marquardt fit, one series at a time.

    Returns (theta, sse, iterations, converged, the SSE after each accepted step).
    """
    theta = np.log(np.asarray(start, dtype=float))
    damping = options.damping_init
    residuals = values - _growth_values(t, model, theta)
    sse = float(residuals @ residuals)
    trace = [sse]
    converged = False
    iterations = 0
    for iterations in range(1, options.max_iterations + 1):
        jac = np.column_stack(_jacobian_columns(t, model, theta))
        gradient = jac.T @ residuals
        hessian = jac.T @ jac
        accepted = False
        for _ in range(60):
            lhs = hessian + damping * np.diag(np.maximum(np.diag(hessian), 1e-12))
            try:
                step = np.linalg.solve(lhs, gradient)
            except np.linalg.LinAlgError:
                damping *= options.damping_factor
                continue
            largest = float(np.max(np.abs(step)))
            if largest > options.max_log_step:
                step *= options.max_log_step / largest
            candidate = theta + step
            cand_residuals = values - _growth_values(t, model, candidate)
            cand_sse = float(cand_residuals @ cand_residuals)
            if math.isfinite(cand_sse) and cand_sse < sse:
                improvement = (sse - cand_sse) / sse if sse > 0 else 0.0
                theta, residuals, sse = candidate, cand_residuals, cand_sse
                trace.append(sse)
                damping = max(damping / options.damping_factor, 1e-15)
                accepted = True
                if improvement < options.tolerance:
                    converged = True
                break
            damping *= options.damping_factor
        if not accepted:
            # No damping level yields a decrease: at a (local) minimum.
            converged = True
            break
        if converged:
            break
    return theta, sse, iterations, converged, trace
