"""Growth-curve models, fitting, phase labels, and bi-phase detection.

Two sigmoid families describe community growth, written here as the closed
forms that solve their rate equations:

    gompertz:  y(t) = y_star * exp(-shape * exp(-alpha * t))
               dy/dt = alpha * y * (ln(y_star) - ln(y))
    logistic:  y(t) = y_star / (1 + shape * exp(-alpha * y_star * t))
               dy/dt = alpha * y * (y_star - y)

with shape = ln(y_star/y0) (gompertz) or (y_star - y0)/y0 (logistic), both
anchored at t = 0.  Fitting minimizes the sum of squared residuals with a
damped Gauss-Newton (Levenberg-Marquardt) iteration over log-parameters,
which keeps all three parameters positive.  Neither family can represent a
declining tail, so when a decline is detected the series is truncated at its
global maximum before fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import GrowthFitError
from .series import MonthKey


class GrowthModel(Enum):
    GOMPERTZ = "gompertz"
    LOGISTIC = "logistic"


class PhaseLabel(Enum):
    LAG = "Lag"
    EXPONENTIAL = "Exponential"
    STATIONARY = "Stationary"
    DECLINE = "Decline"


@dataclass(frozen=True)
class GrowthParams:
    model: GrowthModel
    y_star: float
    alpha: float
    shape: float

    def __post_init__(self):
        if not (self.y_star > 0 and self.alpha > 0 and self.shape > 0):
            raise GrowthFitError(
                f"growth parameters must be positive, got "
                f"y_star={self.y_star}, alpha={self.alpha}, shape={self.shape}"
            )


def model_value(t, params: GrowthParams):
    """Evaluate the closed form at time t (months since the anchor).

    Accepts scalars or arrays; strictly increasing in t and bounded above by
    y_star for all finite t.
    """
    tv = np.asarray(t, dtype=float)
    out = _curve(params.model, params.y_star, params.alpha, params.shape, tv)
    return float(out) if tv.ndim == 0 else out


def _curve(model: GrowthModel, y_star, alpha, shape, t):
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if model is GrowthModel.GOMPERTZ:
            return y_star * np.exp(-shape * np.exp(-alpha * t))
        return y_star / (1.0 + shape * np.exp(-alpha * y_star * t))


# Levenberg-Marquardt settings.  Functions read these when they run.
MAX_ITERATIONS = 200
TOLERANCE = 1e-9  # relative SSE improvement
DAMPING_INIT = 1e-3
DAMPING_FACTOR = 10.0
MAX_LOG_STEP = 1.0  # per-iteration cap on |d ln(param)|
# Deterministic extra starts: the warm-start rate scaled by each factor.
RATE_START_FACTORS = (1.0, 0.3, 3.0, 10.0, 30.0)
LOW_CONFIDENCE_PEAK = 15.0

# Phase thresholds: fractions of the fitted ceiling, and the decline test's
# trailing window (months) and drop (fraction of the series maximum).
LAG_FRACTION = 0.1
STATIONARY_FRACTION = 0.9
DECLINE_DROP_FRACTION = 0.05
DECLINE_WINDOW = 6


@dataclass(frozen=True)
class GrowthFit:
    params: GrowthParams
    sse: float
    r_squared: float
    iterations: int
    converged: bool
    t_offset: MonthKey | None = None
    truncated_at: int | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "model": self.params.model.value,
            "y_star": self.params.y_star,
            "alpha": self.params.alpha,
            "shape": self.params.shape,
            "sse": self.sse,
            "r_squared": self.r_squared,
            "iterations": self.iterations,
            "converged": self.converged,
            "t_offset": None if self.t_offset is None else str(self.t_offset),
            "truncated_at": self.truncated_at,
            "notes": list(self.notes),
        }


def _jacobian_columns(
    t: np.ndarray, model: GrowthModel, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d y / d ln(param) for (y_star, alpha, shape); theta of shape (3, B, 1) gives B rows."""
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


def _warm_start(t: np.ndarray, values: np.ndarray, model: GrowthModel) -> tuple[float, float, float]:
    """Deterministic initialization.

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


# Rows the solver minimises at once.  A finished row's slot goes to the next
# (segment, start) pair in the queue, so its arrays hold at most this many
# rows, however many pairs there are.
SEARCH_SLOTS = 256

# Rows are zero-padded to a multiple of this width.  numpy's einsum row sums
# then come out bit for bit the same however many zeros follow a row's end,
# so a row's result does not depend on how wide its batch is or which rows
# share it (test_a_row_solves_alone_as_in_any_batch checks this).
_PAD = 8


def _padded(length) -> int:
    return -(-int(length) // _PAD) * _PAD


def _rowdot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b, out=out)


def _residuals(
    values: np.ndarray, pad: np.ndarray, model: GrowthModel, t: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """values - model per row of theta (B, 3), exactly zero on the padding."""
    out = _curve(model, *np.exp(theta.T[..., None]), t)
    np.subtract(values, out, out=out)
    np.copyto(out, 0.0, where=pad)  # not a product: 0 * inf would be NaN
    return out


@dataclass
class _LiveRows:
    """The (segment, start) pairs the solver is minimising, one row each."""

    ids: np.ndarray  # pair index
    values: np.ndarray  # (B, W) segment, zero-padded
    pad: np.ndarray  # (B, W) True on the padding
    resid: np.ndarray  # (B, W) residuals at theta, zero on the padding
    theta: np.ndarray  # (B, 3) log-parameters
    grad: np.ndarray  # (B, 3) J^T r at theta
    hess: np.ndarray  # (B, 3, 3) J^T J at theta
    damping: np.ndarray
    sse: np.ndarray
    iterations: np.ndarray  # the iteration under way
    trials: np.ndarray  # rejected trials in the current iteration
    fresh: np.ndarray  # theta moved: grad and hess are due

    def select(self, keep: np.ndarray) -> "_LiveRows":
        return _LiveRows(*(getattr(self, f.name)[keep] for f in fields(self)))

    def extend(self, other: "_LiveRows") -> "_LiveRows":
        return _LiveRows(*(
            np.concatenate((getattr(self, f.name), getattr(other, f.name))) for f in fields(self)
        ))


def _start_rows(
    segments: list[np.ndarray], starts: np.ndarray, pairs: np.ndarray, t: np.ndarray, model: GrowthModel
) -> _LiveRows:
    """Rows for ``pairs`` at their starts, padded to ``len(t)``."""
    lengths = np.array([len(segments[pair]) for pair in pairs], dtype=int)
    values = np.zeros((len(pairs), len(t)))
    for row, pair in enumerate(pairs):
        values[row, :lengths[row]] = segments[pair]
    pad = t >= lengths[:, None]
    theta = np.log(starts[pairs])
    resid = _residuals(values, pad, model, t, theta)
    return _LiveRows(
        ids=pairs, values=values, pad=pad, resid=resid, theta=theta,
        grad=np.zeros((len(pairs), 3)), hess=np.zeros((len(pairs), 3, 3)),
        damping=np.full(len(pairs), DAMPING_INIT), sse=_rowdot(resid, resid),
        iterations=np.ones(len(pairs), dtype=int), trials=np.zeros(len(pairs), dtype=int),
        fresh=np.ones(len(pairs), dtype=bool),
    )


def _refresh_derivatives(live: _LiveRows, t: np.ndarray, model: GrowthModel) -> None:
    """J^T r and J^T J at theta for the rows whose theta moved."""
    rows = np.flatnonzero(live.fresh)
    jac = _jacobian_columns(t, model, live.theta[rows].T[..., None])
    pad = live.pad[rows]
    for col in jac:
        np.copyto(col, 0.0, where=pad)
    resid = live.resid[rows]
    grad, hess = np.empty((len(rows), 3)), np.empty((len(rows), 3, 3))
    for i in range(3):
        _rowdot(jac[i], resid, out=grad[:, i])
        for j in range(i, 3):
            hess[:, j, i] = _rowdot(jac[i], jac[j], out=hess[:, i, j])
    live.grad[rows], live.hess[rows] = grad, hess


@np.errstate(divide="ignore", invalid="ignore")
def _trial_step(live: _LiveRows, t: np.ndarray, model: GrowthModel) -> tuple[np.ndarray, np.ndarray]:
    """One damped Gauss-Newton trial for every row.

    A row whose trial lowers its SSE takes the step and eases its damping;
    any other row stiffens it and tries again in the same iteration.  A row
    finishes, converged, when a step improves its SSE by less than the
    relative ``TOLERANCE`` or when 60 trials in a row fail (no damping level
    lowers the SSE: a local minimum); it finishes unconverged when its
    ``MAX_ITERATIONS``-th iteration takes a step.  Updates the rows in place
    and returns the masks (finished, converged).
    """
    diag = np.arange(3)
    lhs = live.hess.copy()
    lhs[:, diag, diag] += live.damping[:, None] * np.maximum(live.hess[:, diag, diag], 1e-12)
    try:
        step = np.linalg.solve(lhs, live.grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # Only the singular systems lose their trial: a NaN step is rejected.
        step = np.full_like(live.grad, np.nan)
        for row in range(len(lhs)):
            try:
                step[row] = np.linalg.solve(lhs[row], live.grad[row])
            except np.linalg.LinAlgError:
                pass
    largest = np.max(np.abs(step), axis=1)
    step *= np.where(largest > MAX_LOG_STEP, MAX_LOG_STEP / largest, 1.0)[:, None]
    candidate = live.theta + step
    cand_resid = _residuals(live.values, live.pad, model, t, candidate)
    cand_sse = _rowdot(cand_resid, cand_resid)

    accepted = np.isfinite(cand_sse) & (cand_sse < live.sse)
    improvement = np.where(live.sse > 0, (live.sse - cand_sse) / live.sse, 0.0)
    small = accepted & (improvement < TOLERANCE)
    np.copyto(live.theta, candidate, where=accepted[:, None])
    np.copyto(live.resid, cand_resid, where=accepted[:, None])
    np.copyto(live.sse, cand_sse, where=accepted)
    factor = DAMPING_FACTOR
    live.damping = np.where(accepted, np.maximum(live.damping / factor, 1e-15), live.damping * factor)
    live.trials = np.where(accepted, 0, live.trials + 1)
    done = np.where(accepted, small | (live.iterations == MAX_ITERATIONS), live.trials == 60)
    live.iterations += accepted & ~done
    live.fresh = accepted
    return done, small | ~accepted


def _solve(
    segments: list[np.ndarray], starts: np.ndarray, model: GrowthModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Levenberg-Marquardt from each (segment, start) pair, all pairs at once.

    Pair i fits ``segments[i]`` at t = 0, 1, ... from ``starts[i]`` and
    returns its log-parameters, SSE, iteration count and convergence.  Each
    row keeps its own damping and counts (Moré 1978) and, padded to a
    multiple of ``_PAD``, rounds as it would alone, so a pair's result does
    not depend on the other pairs.  One turn of the loop is one trial step
    for every live row.  Pairs enter longest first, so the padded width
    only shrinks.
    """
    count = len(segments)
    lengths = np.array([len(seg) for seg in segments])
    queue = np.argsort(-lengths, kind="stable")
    t = np.arange(_padded(lengths.max()), dtype=float)
    theta, sse = np.log(starts), np.empty(count)
    iterations, converged = np.zeros(count, dtype=int), np.zeros(count, dtype=bool)
    live = _start_rows(segments, starts, queue[:SEARCH_SLOTS], t, model)
    queued = len(live.ids)
    while len(live.ids):
        width = _padded(lengths[live.ids].max())
        if width < live.values.shape[1]:
            live.values, live.pad, live.resid = live.values[:, :width], live.pad[:, :width], live.resid[:, :width]
        if live.fresh.any():
            _refresh_derivatives(live, t[:width], model)
        done, finished_converged = _trial_step(live, t[:width], model)
        if done.any():
            ids = live.ids[done]
            theta[ids], sse[ids] = live.theta[done], live.sse[done]
            iterations[ids], converged[ids] = live.iterations[done], finished_converged[done]
            live = live.select(~done)
            if queued < count:
                pairs = queue[queued:queued + SEARCH_SLOTS - len(live.ids)]
                queued += len(pairs)
                live = live.extend(_start_rows(segments, starts, pairs, t[:width], model))
    return theta, sse, iterations, converged


def _trailing_decline(values: np.ndarray) -> bool:
    window = DECLINE_WINDOW
    if len(values) < window:
        return False
    tail = values[-window:]
    tt = np.arange(window, dtype=float)
    slope = float(np.polyfit(tt, tail, 1)[0])
    return slope * window < -DECLINE_DROP_FRACTION * float(np.max(values))


MIN_FIT_POINTS = 8


def _checked(values) -> np.ndarray:
    """The series as floats; GrowthFitError when no growth model can be fit to it."""
    data = np.asarray(values, dtype=float)
    if data.ndim != 1 or len(data) < MIN_FIT_POINTS:
        raise GrowthFitError(f"need at least {MIN_FIT_POINTS} points, got {len(data)}")
    if np.any(data < 0):
        raise GrowthFitError("series values must be nonnegative")
    if not np.any(data > 0):
        raise GrowthFitError("all-zero series cannot be fit")
    return data


def _fit_segments(segments: list[np.ndarray], model: GrowthModel, notes: tuple[str, ...]) -> list[GrowthFit]:
    """Fit each checked segment at t = 0, 1, ...; every segment's fit comes
    from one batched solve.

    A segment runs one row per ``RATE_START_FACTORS`` start and reports its
    lowest-SSE row, the first start on ties.  ``notes`` lead every fit's notes.
    """
    per_segment = len(RATE_START_FACTORS)
    rising = [segment for segment in segments if np.ptp(segment) > 0]
    starts = []
    for segment in rising:
        base = _warm_start(np.arange(len(segment), dtype=float), segment, model)
        starts += [(base[0], base[1] * factor, base[2]) for factor in RATE_START_FACTORS]
    if rising:
        thetas, sses, iteration_counts, convergence = _solve(
            [segment for segment in rising for _ in range(per_segment)], np.array(starts), model
        )
    fits, row = [], 0
    for segment in segments:
        t = np.arange(len(segment), dtype=float)
        segment_notes = list(notes)
        if float(np.max(segment)) < LOW_CONFIDENCE_PEAK:
            segment_notes.append(f"low confidence: series peak below {LOW_CONFIDENCE_PEAK:g} active contributors")
        if np.ptp(segment) == 0:
            # Flat positive series: the level is known but no rate is recoverable.
            params = GrowthParams(model=model, y_star=float(segment[0]), alpha=1e-6, shape=1e-9)
            residuals = segment - model_value(t, params)
            sse, r_squared, iterations, converged = float(residuals @ residuals), 0.0, 0, False
            segment_notes.append("rate unidentifiable: constant series")
        else:
            best = row + int(np.argmin(sses[row:row + per_segment]))  # the first start on ties
            row += per_segment
            y_star, alpha, shape = np.exp(thetas[best])
            params = GrowthParams(model=model, y_star=float(y_star), alpha=float(alpha), shape=float(shape))
            sse = float(sses[best])
            sst = float(np.sum((segment - segment.mean()) ** 2))
            r_squared = 0.0 if sst == 0 else max(0.0, min(1.0, 1.0 - sse / sst))
            iterations, converged = int(iteration_counts[best]), bool(convergence[best])
            if not converged:
                segment_notes.append("did not converge within iteration limit; best parameters so far")
        fits.append(GrowthFit(params, sse, r_squared, iterations, converged, notes=tuple(segment_notes)))
    return fits


def fit_growth(values: Sequence[float], model: GrowthModel, t_offset: MonthKey | None = None) -> GrowthFit:
    """Least-squares fit of one growth model to a smoothed monthly sequence.

    Time is the point index, anchored at t = 0 (= ``t_offset`` when given).
    Needs at least 8 points and one positive value.  A detected decline
    truncates the series at its global maximum before fitting, since the
    models cannot represent decline.  Non-convergence is not an error: the
    best parameters so far are returned with converged=False.  The fit
    itself is ``_fit_segments``, the one that ``detect_biphase`` uses.
    """
    data = _checked(values)
    notes: tuple[str, ...] = ()
    truncated_at = None
    if _trailing_decline(data):
        peak = int(np.argmax(data))
        if peak + 1 >= MIN_FIT_POINTS:
            truncated_at, data = peak, data[: peak + 1]
            notes = (f"decline detected; fit truncated at peak month index {peak}",)
        else:
            notes = ("decline detected; truncation skipped (peak too early)",)
    [fit] = _fit_segments([data], model, notes)
    return replace(fit, t_offset=t_offset, truncated_at=truncated_at)


def classify_phase(values: Sequence[float], fit: GrowthFit) -> PhaseLabel:
    """Assign exactly one growth phase to a (series, fit) pair.

    Decline: the trailing OLS slope loses more than DECLINE_DROP_FRACTION of
    the series maximum over the last DECLINE_WINDOW months.  Otherwise the last smoothed
    value is compared against the fitted ceiling: stationary above 90% of
    y_star, lag below 10%, exponential in between.
    """
    data = np.asarray(values, dtype=float)
    if len(data) < DECLINE_WINDOW:
        raise GrowthFitError(f"classification unavailable: need at least {DECLINE_WINDOW} months")
    if _trailing_decline(data):
        return PhaseLabel.DECLINE
    last = float(data[-1])
    if last >= STATIONARY_FRACTION * fit.params.y_star:
        return PhaseLabel.STATIONARY
    if last <= LAG_FRACTION * fit.params.y_star:
        return PhaseLabel.LAG
    return PhaseLabel.EXPONENTIAL


@dataclass(frozen=True)
class BiPhaseFit:
    breakpoint_index: int
    breakpoint: MonthKey | None
    first: GrowthFit
    second: GrowthFit
    combined_sse: float
    preferred: bool

    def to_dict(self) -> dict:
        return {
            "breakpoint_index": self.breakpoint_index,
            "breakpoint": None if self.breakpoint is None else str(self.breakpoint),
            "first": self.first.to_dict(),
            "second": self.second.to_dict(),
            "combined_sse": self.combined_sse,
            "preferred": self.preferred,
        }


MIN_SEGMENT_MONTHS = 12

def _bic(sse: float, n: int, n_params: int, sse_floor: float) -> float:
    # The floor keeps noiseless comparisons from resolving on numerical dust:
    # any SSE below ~1e-9 of the data's energy counts as "exact", so model
    # preference then falls to the parameter-count penalty alone.
    return n * math.log(max(sse, sse_floor) / n) + n_params * math.log(n)


def detect_biphase(
    values: Sequence[float], model: GrowthModel, t_offset: MonthKey | None = None
) -> BiPhaseFit | None:
    """Search for two successive growth episodes.

    Every interior breakpoint leaving at least ``MIN_SEGMENT_MONTHS`` months
    per side is tried; each segment is fit independently and the split with the
    lowest combined SSE wins.  ``preferred`` is True when the two-segment
    BIC (7 effective parameters) beats the single-fit BIC (3).  Returns None
    when the series is too short or no split has two fittable segments.

    Every segment of every split and the whole series, for the single-fit
    BIC, are fit by one ``_fit_segments`` call, without the decline
    truncation.  A segment's fit is bit for bit what ``fit_growth`` reports
    for it with the decline test off, so the ranked SSE is the reported SSE;
    ties go to the lowest index.  A segment that ``fit_growth`` would reject,
    or whose best SSE is NaN, leaves its splits unranked.
    """
    data = np.asarray(values, dtype=float)
    n = len(data)
    if n < 2 * MIN_SEGMENT_MONTHS:
        return None

    splits = range(MIN_SEGMENT_MONTHS, n - MIN_SEGMENT_MONTHS + 1)
    segments: dict[tuple[int, int], np.ndarray] = {}
    for start, stop in sorted({(0, k) for k in splits} | {(k, n) for k in splits} | {(0, n)}):
        try:
            segments[start, stop] = _checked(data[start:stop])
        except GrowthFitError:
            pass
    fits = dict(zip(segments, _fit_segments(list(segments.values()), model, ())))
    sse = {bounds: fit.sse for bounds, fit in fits.items() if not math.isnan(fit.sse)}
    ranked = [sse.get((0, k), math.inf) + sse.get((k, n), math.inf) for k in splits]
    best = int(np.argmin(ranked))  # the lowest index on ties
    if not math.isfinite(ranked[best]):
        return None
    breakpoint_index = splits[best]
    breakpoint = None if t_offset is None else t_offset.shift(breakpoint_index)
    first = replace(fits[0, breakpoint_index], t_offset=t_offset)
    second = replace(fits[breakpoint_index, n], t_offset=breakpoint)
    combined = first.sse + second.sse
    sse_floor = max(1e-10, 1e-9 * float(data @ data))
    single_bic = _bic(fits[0, n].sse, n, 3, sse_floor) if (0, n) in fits else math.inf
    return BiPhaseFit(
        breakpoint_index=breakpoint_index,
        breakpoint=breakpoint,
        first=first,
        second=second,
        combined_sse=combined,
        preferred=_bic(combined, n, 7, sse_floor) < single_bic,
    )
