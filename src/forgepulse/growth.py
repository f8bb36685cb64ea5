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
from dataclasses import dataclass, fields
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

    @property
    def y0(self) -> float:
        if self.model is GrowthModel.GOMPERTZ:
            return self.y_star * math.exp(-self.shape)
        return self.y_star / (1.0 + self.shape)


def model_value(t, params: GrowthParams):
    """Evaluate the closed form at time t (months since the anchor).

    Accepts scalars or arrays; strictly increasing in t and bounded above by
    y_star for all finite t.
    """
    tv = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        if params.model is GrowthModel.GOMPERTZ:
            out = params.y_star * np.exp(-params.shape * np.exp(-params.alpha * tv))
        else:
            out = params.y_star / (1.0 + params.shape * np.exp(-params.alpha * params.y_star * tv))
    return float(out) if tv.ndim == 0 else out


def ode_rhs(y, params: GrowthParams):
    """The growth rate dy/dt each family postulates at population y."""
    yv = np.asarray(y, dtype=float)
    if params.model is GrowthModel.GOMPERTZ:
        out = params.alpha * yv * (math.log(params.y_star) - np.log(yv))
    else:
        out = params.alpha * yv * (params.y_star - yv)
    return float(out) if yv.ndim == 0 else out


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 200
    tolerance: float = 1e-9  # relative SSE improvement
    damping_init: float = 1e-3
    damping_factor: float = 10.0
    max_log_step: float = 1.0  # per-iteration cap on |d ln(param)|
    # Deterministic extra starts: the warm-start rate scaled by each factor.
    rate_start_factors: tuple[float, ...] = (1.0, 0.3, 3.0, 10.0, 30.0)
    low_confidence_peak: float = 15.0


@dataclass(frozen=True)
class PhaseConfig:
    lag_fraction: float = 0.1
    stationary_fraction: float = 0.9
    decline_drop_fraction: float = 0.05
    decline_window: int = 6


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
    sse_trace: tuple[float, ...] = ()  # accepted-step SSEs, non-increasing

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


def _model_values(t: np.ndarray, model: GrowthModel, theta: np.ndarray) -> np.ndarray:
    y_star, alpha, shape = np.exp(theta)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if model is GrowthModel.GOMPERTZ:
            return y_star * np.exp(-shape * np.exp(-alpha * t))
        return y_star / (1.0 + shape * np.exp(-alpha * y_star * t))


def _jacobian_columns(
    t: np.ndarray, model: GrowthModel, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d y / d ln(param) for (y_star, alpha, shape).

    Like ``_model_values``, broadcasts: theta of shape (3, B, 1) gives B rows.
    """
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


def _jacobian(t: np.ndarray, model: GrowthModel, theta: np.ndarray) -> np.ndarray:
    """d y / d ln(param), columns ordered (y_star, alpha, shape)."""
    return np.column_stack(_jacobian_columns(t, model, theta))


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


def _lm_minimize(
    t: np.ndarray,
    values: np.ndarray,
    model: GrowthModel,
    start: tuple[float, float, float],
    options: FitOptions,
) -> tuple[np.ndarray, float, int, bool, list[float]]:
    theta = np.log(np.asarray(start, dtype=float))
    damping = options.damping_init
    residuals = values - _model_values(t, model, theta)
    sse = float(residuals @ residuals)
    trace = [sse]
    converged = False
    iterations = 0
    for iterations in range(1, options.max_iterations + 1):
        jac = _jacobian(t, model, theta)
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
            cand_residuals = values - _model_values(t, model, candidate)
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


def _trailing_decline(values: np.ndarray, config: PhaseConfig) -> bool:
    window = config.decline_window
    if len(values) < window:
        return False
    tail = values[-window:]
    tt = np.arange(window, dtype=float)
    slope = float(np.polyfit(tt, tail, 1)[0])
    return slope * window < -config.decline_drop_fraction * float(np.max(values))


MIN_FIT_POINTS = 8


def fit_growth(
    values: Sequence[float],
    model: GrowthModel,
    t_offset: MonthKey | None = None,
    options: FitOptions = FitOptions(),
    phase_config: PhaseConfig = PhaseConfig(),
    truncate_on_decline: bool = True,
) -> GrowthFit:
    """Least-squares fit of one growth model to a smoothed monthly sequence.

    Time is the point index, anchored at t = 0 (= ``t_offset`` when given).
    Needs at least 8 points and one positive value.  A detected decline
    truncates the series at its global maximum before fitting, since the
    models cannot represent decline.  Non-convergence is not an error: the
    best parameters so far are returned with converged=False.
    """
    data = np.asarray(values, dtype=float)
    if data.ndim != 1 or len(data) < MIN_FIT_POINTS:
        raise GrowthFitError(f"need at least {MIN_FIT_POINTS} points, got {len(data)}")
    if np.any(data < 0):
        raise GrowthFitError("series values must be nonnegative")
    if not np.any(data > 0):
        raise GrowthFitError("all-zero series cannot be fit")

    notes: list[str] = []
    truncated_at = None
    fit_data = data
    if truncate_on_decline and _trailing_decline(data, phase_config):
        peak = int(np.argmax(data))
        if peak + 1 >= MIN_FIT_POINTS:
            truncated_at = peak
            fit_data = data[: peak + 1]
            notes.append(f"decline detected; fit truncated at peak month index {peak}")
        else:
            notes.append("decline detected; truncation skipped (peak too early)")
    if float(np.max(data)) < options.low_confidence_peak:
        notes.append(
            f"low confidence: series peak below {options.low_confidence_peak:g} active contributors"
        )

    t = np.arange(len(fit_data), dtype=float)
    sst = float(np.sum((fit_data - fit_data.mean()) ** 2))

    if np.ptp(fit_data) == 0:
        # Flat positive series: the level is known but no rate is recoverable.
        level = float(fit_data[0])
        params = GrowthParams(model=model, y_star=level, alpha=1e-6, shape=1e-9)
        residuals = fit_data - model_value(t, params)
        sse = float(residuals @ residuals)
        notes.append("rate unidentifiable: constant series")
        return GrowthFit(
            params=params,
            sse=sse,
            r_squared=0.0,
            iterations=0,
            converged=False,
            t_offset=t_offset,
            truncated_at=truncated_at,
            notes=tuple(notes),
            sse_trace=(sse,),
        )

    base = _warm_start(t, fit_data, model)
    best = None
    for factor in options.rate_start_factors:
        start = (base[0], base[1] * factor, base[2])
        result = _lm_minimize(t, fit_data, model, start, options)
        if best is None or result[1] < best[1]:
            best = result
    theta, sse, iterations, converged, trace = best
    y_star, alpha, shape = np.exp(theta)
    params = GrowthParams(model=model, y_star=float(y_star), alpha=float(alpha), shape=float(shape))
    r_squared = 0.0 if sst == 0 else max(0.0, min(1.0, 1.0 - sse / sst))
    if not converged:
        notes.append("did not converge within iteration limit; best parameters so far")
    return GrowthFit(
        params=params,
        sse=sse,
        r_squared=r_squared,
        iterations=iterations,
        converged=converged,
        t_offset=t_offset,
        truncated_at=truncated_at,
        notes=tuple(notes),
        sse_trace=tuple(trace),
    )


def classify_phase(
    values: Sequence[float],
    fit: GrowthFit,
    config: PhaseConfig = PhaseConfig(),
) -> PhaseLabel:
    """Assign exactly one growth phase to a (series, fit) pair.

    Decline: the trailing OLS slope loses more than decline_drop_fraction of
    the series maximum over the decline window.  Otherwise the last smoothed
    value is compared against the fitted ceiling: stationary above 90% of
    y_star, lag below 10%, exponential in between.
    """
    data = np.asarray(values, dtype=float)
    if len(data) < config.decline_window:
        raise GrowthFitError(
            f"classification unavailable: need at least {config.decline_window} months"
        )
    if _trailing_decline(data, config):
        return PhaseLabel.DECLINE
    last = float(data[-1])
    if last >= config.stationary_fraction * fit.params.y_star:
        return PhaseLabel.STATIONARY
    if last <= config.lag_fraction * fit.params.y_star:
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

# Pairs of (segment, start) the batched search minimises at once.  A finished
# pair's row goes to the next pair in the queue, so the search's arrays hold
# at most this many rows, however many splits there are.
SEARCH_SLOTS = 64
# Splits the batched pass ranks within this relative margin of the best refit
# are refit as well, so rounding in the batched reductions cannot pick the
# winner.  The two passes' split SSEs agree to ~1e-9 on noisy series.
_TIE_RTOL = 1e-6


def _bic(sse: float, n: int, n_params: int, sse_floor: float) -> float:
    # The floor keeps noiseless comparisons from resolving on numerical dust:
    # any SSE below ~1e-9 of the data's energy counts as "exact", so model
    # preference then falls to the parameter-count penalty alone.
    return n * math.log(max(sse, sse_floor) / n) + n_params * math.log(n)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _residuals(
    values: np.ndarray, mask: np.ndarray, model: GrowthModel, t: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """values - model per row of theta (B, 3), zero where mask is False."""
    out = _model_values(t, model, theta.T[..., None])
    np.subtract(values, out, out=out)
    out *= mask
    return out


@dataclass
class _LiveRows:
    """The (segment, start) pairs the batched search is minimising, one row each."""

    ids: np.ndarray  # pair index
    values: np.ndarray  # (B, W) segment, zero-padded
    mask: np.ndarray  # (B, W) False on the padding
    resid: np.ndarray  # (B, W) masked residuals at theta
    theta: np.ndarray  # (B, 3) log-parameters
    grad: np.ndarray  # (B, 3) J^T r at theta
    hess: np.ndarray  # (B, 3, 3) J^T J at theta
    damping: np.ndarray
    sse: np.ndarray
    iterations: np.ndarray
    trials: np.ndarray  # rejected trials in the current iteration
    fresh: np.ndarray  # theta moved: grad and hess are due

    def select(self, keep: np.ndarray) -> "_LiveRows":
        return _LiveRows(*(getattr(self, f.name)[keep] for f in fields(self)))

    def extend(self, other: "_LiveRows") -> "_LiveRows":
        return _LiveRows(*(
            np.concatenate((getattr(self, f.name), getattr(other, f.name))) for f in fields(self)
        ))


def _start_rows(
    segments: list[np.ndarray], starts: np.ndarray, pairs: np.ndarray, t: np.ndarray,
    model: GrowthModel, options: FitOptions,
) -> _LiveRows:
    """Rows for ``pairs`` at their starts, padded to ``len(t)``."""
    lengths = np.array([len(segments[pair]) for pair in pairs], dtype=int)
    values = np.zeros((len(pairs), len(t)))
    for row, pair in enumerate(pairs):
        values[row, :lengths[row]] = segments[pair]
    mask = t < lengths[:, None]
    theta = np.log(starts[pairs])
    resid = _residuals(values, mask, model, t, theta)
    return _LiveRows(
        ids=pairs, values=values, mask=mask, resid=resid, theta=theta,
        grad=np.zeros((len(pairs), 3)), hess=np.zeros((len(pairs), 3, 3)),
        damping=np.full(len(pairs), options.damping_init), sse=_rowdot(resid, resid),
        iterations=np.ones(len(pairs), dtype=int), trials=np.zeros(len(pairs), dtype=int),
        fresh=np.ones(len(pairs), dtype=bool),
    )


def _refresh_derivatives(live: _LiveRows, t: np.ndarray, model: GrowthModel) -> None:
    """J^T r and J^T J at theta for the rows whose theta moved."""
    rows = np.flatnonzero(live.fresh)
    jac = _jacobian_columns(t, model, live.theta[rows].T[..., None])
    mask = live.mask[rows]
    for col in jac:
        col *= mask
    resid = live.resid[rows]
    for i in range(3):
        live.grad[rows, i] = _rowdot(jac[i], resid)
        for j in range(i, 3):
            live.hess[rows, i, j] = live.hess[rows, j, i] = _rowdot(jac[i], jac[j])


@np.errstate(divide="ignore", invalid="ignore")
def _trial_step(live: _LiveRows, t: np.ndarray, model: GrowthModel, options: FitOptions) -> np.ndarray:
    """One damped Gauss-Newton trial for every row, as in ``_lm_minimize``.

    Updates the rows in place and returns the mask of rows that finished.
    """
    diag = np.arange(3)
    lhs = live.hess.copy()
    lhs[:, diag, diag] += live.damping[:, None] * np.maximum(live.hess[:, diag, diag], 1e-12)
    solved = np.ones(len(lhs), dtype=bool)
    try:
        step = np.linalg.solve(lhs, live.grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # Only the singular systems lose their trial.
        step = np.zeros_like(live.grad)
        for row in range(len(lhs)):
            try:
                step[row] = np.linalg.solve(lhs[row], live.grad[row])
            except np.linalg.LinAlgError:
                solved[row] = False
    largest = np.max(np.abs(step), axis=1)
    step *= np.where(largest > options.max_log_step, options.max_log_step / largest, 1.0)[:, None]
    candidate = live.theta + step
    cand_resid = _residuals(live.values, live.mask, model, t, candidate)
    cand_sse = _rowdot(cand_resid, cand_resid)

    accepted = solved & np.isfinite(cand_sse) & (cand_sse < live.sse)
    improvement = np.where(live.sse > 0, (live.sse - cand_sse) / live.sse, 0.0)
    live.theta[accepted] = candidate[accepted]
    live.resid[accepted] = cand_resid[accepted]
    live.sse[accepted] = cand_sse[accepted]
    factor = options.damping_factor
    live.damping = np.where(accepted, np.maximum(live.damping / factor, 1e-15), live.damping * factor)
    live.trials = np.where(accepted, 0, live.trials + 1)
    done = np.where(
        accepted,
        (improvement < options.tolerance) | (live.iterations == options.max_iterations),
        live.trials == 60,
    )
    live.iterations += accepted
    live.fresh = accepted
    return done


def _batched_lm_sse(
    segments: list[np.ndarray],
    starts: np.ndarray,
    model: GrowthModel,
    options: FitOptions,
) -> np.ndarray:
    """Final SSE of ``_lm_minimize`` on each (segment, start) pair, solved together.

    Pair i fits ``segments[i]`` at t = 0, 1, ... from ``starts[i]``.  One turn
    of the loop is one trial step for every live pair: each keeps its own
    damping, trial count and iteration count and takes the accept, reject
    and stopping decisions of ``_lm_minimize``; only rounding in the
    reductions differs.  Rows are padded to the longest live segment and
    masked; pairs enter longest first, so the padded width only shrinks.
    """
    if options.max_iterations < 1:
        return np.array([
            _lm_minimize(np.arange(len(seg), dtype=float), seg, model, tuple(start), options)[1]
            for seg, start in zip(segments, starts)
        ])
    lengths = np.array([len(seg) for seg in segments])
    queue = np.argsort(-lengths, kind="stable")
    t = np.arange(lengths.max(), dtype=float)
    out = np.empty(len(segments))
    live = _start_rows(segments, starts, queue[:SEARCH_SLOTS], t, model, options)
    queued = len(live.ids)
    while len(live.ids):
        width = int(lengths[live.ids].max())
        if width < live.values.shape[1]:
            live.values, live.mask, live.resid = (
                live.values[:, :width], live.mask[:, :width], live.resid[:, :width]
            )
        if live.fresh.any():
            _refresh_derivatives(live, t[:width], model)
        done = _trial_step(live, t[:width], model, options)
        if done.any():
            out[live.ids[done]] = live.sse[done]
            live = live.select(~done)
            if queued < len(queue):
                pairs = queue[queued:queued + SEARCH_SLOTS - len(live.ids)]
                queued += len(pairs)
                live = live.extend(_start_rows(segments, starts, pairs, t[:width], model, options))
    return out


def _rank_splits(
    data: np.ndarray, model: GrowthModel, splits: range, options: FitOptions
) -> np.ndarray:
    """Combined SSE of each split's two segment fits, from the batched solve.

    Segments go through ``fit_growth``'s checks: one that it would reject
    makes its splits +inf, and a flat one takes ``fit_growth`` itself.  The
    prefix and the suffix of each length sit next to each other in the
    batch, so they share padded rows.
    """
    n = len(data)
    seg_sse: dict[tuple[int, int], float] = {}  # (start, stop) -> best SSE over starts
    batch: list[tuple[int, int]] = []
    segments: list[np.ndarray] = []
    starts: list[tuple[float, float, float]] = []
    for bounds in sorted({(0, k) for k in splits} | {(k, n) for k in splits}):
        segment = data[bounds[0]:bounds[1]]
        if np.any(segment < 0) or not np.any(segment > 0):
            seg_sse[bounds] = math.inf
        elif np.ptp(segment) == 0:
            seg_sse[bounds] = fit_growth(segment, model, options=options, truncate_on_decline=False).sse
        else:
            base = _warm_start(np.arange(len(segment), dtype=float), segment, model)
            for factor in options.rate_start_factors:
                batch.append(bounds)
                segments.append(segment)
                starts.append((base[0], base[1] * factor, base[2]))
    if batch:
        for bounds, sse in zip(batch, _batched_lm_sse(segments, np.array(starts), model, options)):
            seg_sse[bounds] = min(seg_sse.get(bounds, math.inf), sse)
    return np.array([seg_sse[(0, k)] + seg_sse[(k, n)] for k in splits])


def detect_biphase(
    values: Sequence[float],
    model: GrowthModel,
    t_offset: MonthKey | None = None,
    min_segment: int = MIN_SEGMENT_MONTHS,
    options: FitOptions = FitOptions(),
) -> BiPhaseFit | None:
    """Search for two successive growth episodes.

    Every interior breakpoint leaving at least ``min_segment`` months per
    side is tried; each segment is fit independently and the split with the
    lowest combined SSE wins.  ``preferred`` is True when the two-segment
    BIC (7 effective parameters) beats the single-fit BIC (3).  Returns None
    when the series is too short.

    A batched solve ranks the splits; the best-ranked split, and every split
    ranked within rounding of it, is refit with ``fit_growth``, and the
    refits alone choose the winner (lowest combined SSE, then lowest index).
    """
    if min_segment < MIN_FIT_POINTS:
        raise GrowthFitError(f"min_segment must be at least {MIN_FIT_POINTS}")
    data = np.asarray(values, dtype=float)
    n = len(data)
    if n < 2 * min_segment:
        return None

    splits = range(min_segment, n - min_segment + 1)
    ranked = _rank_splits(data, model, splits, options)
    sse_floor = max(1e-10, 1e-9 * float(data @ data))
    best = None
    for rank in np.argsort(ranked, kind="stable"):
        if not math.isfinite(ranked[rank]):
            break
        # SSEs closer than the floor are numerical dust (see _bic): only
        # the refits may order them.
        if best is not None and ranked[rank] > best[1] + max(_TIE_RTOL * best[1], sse_floor):
            break
        breakpoint_index = splits[rank]
        try:
            first = fit_growth(
                data[:breakpoint_index], model, t_offset=t_offset,
                options=options, truncate_on_decline=False,
            )
            second = fit_growth(
                data[breakpoint_index:], model,
                t_offset=None if t_offset is None else t_offset.shift(breakpoint_index),
                options=options, truncate_on_decline=False,
            )
        except GrowthFitError:
            continue
        combined = first.sse + second.sse
        if best is None or (combined, breakpoint_index) < (best[1], best[0]):
            best = (breakpoint_index, combined, first, second)
    if best is None:
        return None

    try:
        single = fit_growth(data, model, t_offset=t_offset, options=options, truncate_on_decline=False)
        single_bic = _bic(single.sse, n, 3, sse_floor)
    except GrowthFitError:
        single_bic = math.inf
    breakpoint_index, combined, first, second = best
    preferred = _bic(combined, n, 7, sse_floor) < single_bic
    return BiPhaseFit(
        breakpoint_index=breakpoint_index,
        breakpoint=None if t_offset is None else t_offset.shift(breakpoint_index),
        first=first,
        second=second,
        combined_sse=combined,
        preferred=preferred,
    )
