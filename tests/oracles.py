"""The record-at-a-time code that the block paths replaced, kept as the
reference the block paths are tested against.

``parse_log_stream_oracle`` parses one line at a time, ``read_records_jsonl_oracle``
reads one record at a time through ``record_from_dict``, and
``build_monthly_series_oracle`` is the dict-and-set aggregation loop.  Timestamps
go through the scalar ``_parse_timestamp``, the parser's reference conversion.
``lm_minimize_oracle`` is the one-series Levenberg-Marquardt loop that the
batched growth solver replaced, with ``jacobian_columns``, the closed-form
derivatives it steps along.  ``unpruned_biphase`` is the bi-phase search with
every split segment solved: the ranking that ``detect_biphase`` makes while
dropping the splits that cannot win.  ``envelope_biphase`` ranks the splits on
``restriction_envelope``, each window's best SSE among its own fit and the
fits of the windows around it: the certificate the search's winner must hold.
``dumps_stable_oracle`` is the pure-Python ``json`` encoder run over a copy
of the tree with every float rounded by ``round_floats``, the layout
``dumps_stable`` writes with one C-encoder call per innermost container.
``contribution_tail_oracle`` finds x_min by the search that
``contribution_tail`` replaced with one expression: start at the least
observed count at or above the median, and lower it one observed value at a
time until the tail holds ``MIN_TAIL_POINTS`` points.

The other helpers are independent references for checks: ``record_to_dict``
(the fields a records.jsonl line holds), ``utc_block`` (the block UTC
conversion of a list of stamps, which the tests compare with
``_parse_timestamp``), ``spearman_distinct_ranks`` (the
tie-free closed form of Spearman's rho), and ``ode_rhs`` and
``initial_value`` (the rate equation and the t = 0 value of each growth
family).
"""

import json
import math
import re
from dataclasses import asdict, replace

import numpy as np

from forgepulse import (
    CommitRecord,
    GrowthFit,
    GrowthFitError,
    GrowthModel,
    IdentityConfig,
    LogParseError,
    SeriesError,
)
from forgepulse import growth
from forgepulse.errors import IdentityError, MetricError
from forgepulse.ingest import (
    REASON_EMPTY_EMAIL,
    REASON_FIELD_COUNT,
    REASON_HASH,
    REASON_PARENT_COUNT,
    REASON_TIMESTAMP,
    _STAMP_WIDTH,
    IngestReport,
    _parse_timestamp,
    _utc_codes,
    record_from_dict,
)
from forgepulse.metrics import MIN_TAIL_POINTS
from forgepulse.series import MonthKey, MonthlySeries, _fallback_unit, normalize_email, resolve_org

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


def utc_block(stamps):
    """``_utc_codes`` of a list of stamps: which were converted together,
    their UTC month index and their UTC ISO text as ASCII bytes.  The codes
    are made as the log parser makes them: one byte per character, "?" for
    any character past U+00FF."""
    n = len(stamps)
    width = np.fromiter(map(len, stamps), dtype=np.int64, count=n)
    if (width > _STAMP_WIDTH).any():  # the fixed-width array would cut them short
        stamps = [stamp if len(stamp) <= _STAMP_WIDTH else "" for stamp in stamps]
    text = "".join(stamp.ljust(_STAMP_WIDTH, "\0") for stamp in stamps)
    chars = np.frombuffer(text.encode("latin-1", "replace"), dtype=np.uint8).reshape(n, _STAMP_WIDTH).copy()
    return _utc_codes(chars, width)


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
        index = MonthKey(record.authored_at.year, record.authored_at.month).index
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
            {
                "month": str(MonthKey.from_index(index)),
                "active_contributors": len(month_contributors.get(index, ())),
                "commits": month_commits.get(index, 0),
                "active_orgs": len(orgs),
                "org_commits": orgs,
            }
        )
    return MonthlySeries(
        points=tuple(points),
        origin=MonthKey.from_index(first),
        contributor_commits=contributor_commits,
    )


def jacobian_columns(t, model, theta):
    """d y / d ln(param) for (y_star, alpha, shape) at theta, the closed-form
    derivatives written out as one expression each."""
    y_star, alpha, shape = np.exp(theta)
    if model is GrowthModel.GOMPERTZ:
        decay = np.exp(-alpha * t)
        y = y_star * np.exp(-shape * decay)
        return y, y * alpha * shape * t * decay, -y * shape * decay
    decay = np.exp(-alpha * y_star * t)
    denom = 1.0 + shape * decay
    d_raw_y_star = 1.0 / denom + y_star * alpha * t * shape * decay / denom**2
    d_raw_alpha = y_star**2 * t * shape * decay / denom**2
    d_raw_shape = -y_star * decay / denom**2
    return y_star * d_raw_y_star, alpha * d_raw_alpha, shape * d_raw_shape


def _growth_values(t, model, theta):
    y_star, alpha, shape = np.exp(theta)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if model is GrowthModel.GOMPERTZ:
            return y_star * np.exp(-shape * np.exp(-alpha * t))
        return y_star / (1.0 + shape * np.exp(-alpha * y_star * t))


def warm_start_oracle(t, values, model):
    """One segment's deterministic start through ``np.polyfit``, as the solver
    once computed it segment by segment; ``growth._warm_starts`` must match it bit for bit.

    y_star = 1.1 * max, y0 = first positive value, and the rate comes from
    the OLS slope of log(y) over the first half of the rise (the points up to
    halfway between y0 and the maximum, in value).
    """
    y_max = float(np.max(values))
    y_star = 1.1 * y_max
    positive = np.flatnonzero(values > 0)
    y0 = float(values[positive[0]])
    half_value = y0 + 0.5 * (y_max - y0)
    rise = positive[values[positive] <= half_value]
    if len(rise) < 2:
        rise = positive[: max(2, len(positive) // 2)]
    if len(rise) >= 2 and np.ptp(t[rise]) > 0:
        log_slope = float(np.polyfit(t[rise], np.log(values[rise]), 1)[0])
    else:
        log_slope = 0.0
    log_slope = max(log_slope, 1e-4)
    if model is GrowthModel.GOMPERTZ:
        shape = max(math.log(y_star / y0), 1e-6)
        return y_star, max(log_slope / shape, 1e-8), shape
    shape = max((y_star - y0) / y0, 1e-6)
    return y_star, max(log_slope / y_star, 1e-12), shape


def lm_minimize_oracle(t, values, model, start):
    """One start's Levenberg-Marquardt fit, one series at a time, with the
    settings in ``forgepulse.growth`` as they are when it runs.

    Returns (theta, sse, iterations, converged, the SSE after each accepted step).
    """
    theta = np.log(np.asarray(start, dtype=float))
    damping = growth.DAMPING_INIT
    residuals = values - _growth_values(t, model, theta)
    sse = float(residuals @ residuals)
    trace = [sse]
    converged = False
    iterations = 0
    for iterations in range(1, growth.MAX_ITERATIONS + 1):
        jac = np.column_stack(jacobian_columns(t, model, theta))
        gradient = jac.T @ residuals
        hessian = jac.T @ jac
        accepted = False
        for _ in range(60):
            lhs = hessian + damping * np.diag(np.maximum(np.diag(hessian), 1e-12))
            try:
                step = np.linalg.solve(lhs, gradient)
            except np.linalg.LinAlgError:
                damping *= growth.DAMPING_FACTOR
                continue
            largest = float(np.max(np.abs(step)))
            if largest > growth.MAX_LOG_STEP:
                step *= growth.MAX_LOG_STEP / largest
            candidate = theta + step
            cand_residuals = values - _growth_values(t, model, candidate)
            cand_sse = float(cand_residuals @ cand_residuals)
            if math.isfinite(cand_sse) and cand_sse < sse:
                improvement = (sse - cand_sse) / sse if sse > 0 else 0.0
                theta, residuals, sse = candidate, cand_residuals, cand_sse
                trace.append(sse)
                damping = max(damping / growth.DAMPING_FACTOR, 1e-15)
                accepted = True
                if improvement < growth.TOLERANCE:
                    converged = True
                break
            damping *= growth.DAMPING_FACTOR
        if not accepted:
            # No damping level yields a decrease: at a (local) minimum.
            converged = True
            break
        if converged:
            break
    return theta, sse, iterations, converged, trace


def search_windows(n):
    """The windows the bi-phase search fits, in (start, stop) order."""
    splits = range(growth.MIN_SEGMENT_MONTHS, n - growth.MIN_SEGMENT_MONTHS + 1)
    return sorted({(0, k) for k in splits} | {(k, n) for k in splits} | {(0, n)})


def unpruned_biphase(values, model, t_offset=None):
    """``detect_biphase``'s entry with no split dropped: every split segment is
    solved in one ``_fit_segments`` call, with the runaway ceiling on split
    segments, splits rank on their summed SSEs (lowest index on ties, a NaN or
    rejected segment leaving its split unranked), and the winner's segments
    with a stopped row are solved again without the ceiling."""
    data = np.asarray(values, dtype=float)
    n = len(data)
    if n < 2 * growth.MIN_SEGMENT_MONTHS:
        return None
    splits = range(growth.MIN_SEGMENT_MONTHS, n - growth.MIN_SEGMENT_MONTHS + 1)
    segments = {}
    for start, stop in search_windows(n):
        try:
            segments[start, stop] = growth._checked(data[start:stop])
        except GrowthFitError:
            pass
    ceilings = [math.inf if bounds == (0, n) else growth.RUNAWAY_CEILING for bounds in segments]
    fit_of, _, stopped = growth._fit_segments(list(segments.values()), model, (), ceilings)
    fits = {bounds: fit_of(i) for i, bounds in enumerate(segments)}
    stopped = dict(zip(segments, stopped))
    sse = {bounds: fit.sse for bounds, fit in fits.items() if not math.isnan(fit.sse)}
    ranked = [sse.get((0, k), math.inf) + sse.get((k, n), math.inf) for k in splits]
    best = int(np.argmin(ranked))
    if not math.isfinite(ranked[best]):
        return None
    k = splits[best]
    for bounds in ((0, k), (k, n)):
        if stopped[bounds]:
            fits[bounds] = growth._fit_segments([segments[bounds]], model, ())[0](0)
    breakpoint = None if t_offset is None else str(t_offset.shift(k))
    first = asdict(replace(fits[0, k], t_offset=None if t_offset is None else str(t_offset)))
    second = asdict(replace(fits[k, n], t_offset=breakpoint))
    combined = first["sse"] + second["sse"]
    sse_floor = max(1e-10, 1e-9 * float(data @ data))
    single_bic = growth._bic(fits[0, n].sse, n, 3, sse_floor) if (0, n) in fits else math.inf
    return {
        "breakpoint_index": k,
        "breakpoint": breakpoint,
        "first": first,
        "second": second,
        "combined_sse": combined,
        "preferred": growth._bic(combined, n, 7, sse_floor) < single_bic,
    }


def restriction_envelope(values, model):
    """Each search window's SSE lowered to that of the best fit the search
    holds for it: the lowest of its own fit's SSE and the SSEs of every
    enclosing window's fit restricted to it.  For windows W in W', the fit of
    W' on W's months is a fit of W with its curve shifted by d, W's start
    less W''s: Gompertz shape becomes shape*e^(-alpha*d) and logistic
    shape becomes shape*e^(-alpha*y_star*d).  So a least-squares fit of W
    has an SSE no higher.  Every window ``_checked`` accepts is solved in one
    ``_fit_segments`` call, with no ceiling and none dropped; returns
    {(start, stop): envelope SSE} over those windows."""
    data = np.asarray(values, dtype=float)
    segments = {}
    for start, stop in search_windows(len(data)):
        try:
            segments[start, stop] = growth._checked(data[start:stop])
        except GrowthFitError:
            pass
    fit_of = growth._fit_segments(list(segments.values()), model, ())[0]
    fits = {bounds: fit_of(i) for i, bounds in enumerate(segments)}
    envelope = {}
    for (start, stop), segment in segments.items():
        sses = [fits[start, stop].sse]
        for (outer_start, outer_stop), outer in fits.items():
            if outer_start <= start and stop <= outer_stop:
                t = np.arange(start - outer_start, stop - outer_start, dtype=float)
                residuals = segment - growth.model_value(t, outer)
                sses.append(float(residuals @ residuals))
        envelope[start, stop] = min(sses)
    return envelope


def envelope_biphase(values, model):
    """(breakpoint index, combined SSE) of the split whose two windows sum
    lowest on ``restriction_envelope``, the lowest index on ties, or None
    when no split has two accepted windows."""
    n = len(values)
    envelope = restriction_envelope(values, model)
    splits = range(growth.MIN_SEGMENT_MONTHS, n - growth.MIN_SEGMENT_MONTHS + 1)
    ranked = [envelope.get((0, k), math.inf) + envelope.get((k, n), math.inf) for k in splits]
    best = int(np.argmin(ranked))
    return None if not math.isfinite(ranked[best]) else (splits[best], ranked[best])


def record_to_dict(record):
    return {
        "hash": record.hash,
        "author_email": record.author_email,
        "author_name": record.author_name,
        "authored_at": record.authored_at.isoformat(),
        "is_merge": record.is_merge,
    }


def spearman_distinct_ranks(x, y):
    """Closed form 1 - 6*sum(d^2)/(n(n^2-1)); valid only when neither input
    has ties."""
    xv, yv = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n = len(xv)
    assert len(yv) == n and len(np.unique(xv)) == n and len(np.unique(yv)) == n, "needs distinct ranks"
    rx = np.empty(n)
    ry = np.empty(n)
    rx[np.argsort(xv)] = np.arange(1, n + 1)
    ry[np.argsort(yv)] = np.arange(1, n + 1)
    d = rx - ry
    return float(1.0 - 6.0 * float(d @ d) / (n * (n * n - 1)))


def curve(model, y_star, alpha, shape) -> GrowthFit:
    """A ``GrowthFit`` that only names a curve, for ``model_value`` and the
    ODE checks: its SSE, R², iterations and convergence are placeholders."""
    return GrowthFit(model, y_star, alpha, shape, sse=0.0, r_squared=1.0, iterations=0, converged=True)


def ode_rhs(y, params: GrowthFit):
    """The growth rate dy/dt each family postulates at population y."""
    yv = np.asarray(y, dtype=float)
    if params.model is GrowthModel.GOMPERTZ:
        out = params.alpha * yv * (math.log(params.y_star) - np.log(yv))
    else:
        out = params.alpha * yv * (params.y_star - yv)
    return float(out) if yv.ndim == 0 else out


def initial_value(params: GrowthFit):
    """y0, the value at t = 0 that ``shape`` encodes."""
    if params.model is GrowthModel.GOMPERTZ:
        return params.y_star * math.exp(-params.shape)
    return params.y_star / (1.0 + params.shape)


def round_floats(obj):
    """A copy of a JSON-ish structure with floats at 6 significant digits,
    NaN and infinities as None (JSON null)."""
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return None
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {key: round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(value) for value in obj]
    return obj


def dumps_stable_oracle(obj) -> str:
    return json.dumps(round_floats(obj), sort_keys=True, indent=2)


def contribution_tail_oracle(per_contributor_commits):
    counts = np.asarray(per_contributor_commits)
    if len(counts) < MIN_TAIL_POINTS:
        raise MetricError(f"need at least {MIN_TAIL_POINTS} contributors, got {len(counts)}")
    if np.any(counts <= 0):
        raise MetricError("contributor commit counts must be positive")
    xs = np.sort(counts.astype(float))
    unique_desc = sorted(set(xs.tolist()), reverse=True)
    threshold = float(np.percentile(xs, 50.0))
    feasible = [v for v in unique_desc if v >= threshold]
    x_min = min(feasible) if feasible else unique_desc[0]
    while int(np.count_nonzero(xs >= x_min)) < MIN_TAIL_POINTS:
        lower = [v for v in unique_desc if v < x_min]
        if not lower:
            raise MetricError("too few tail points")
        x_min = max(lower)
    tail = xs[xs >= x_min]
    if tail.max() == tail.min():
        raise MetricError("no tail variation")
    alpha_hat = 1.0 + len(tail) / float(np.sum(np.log(tail / (x_min - 0.5))))
    return {"alpha_hat": alpha_hat, "x_min": int(x_min), "n_tail": len(tail)}
