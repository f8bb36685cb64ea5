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

import contextlib
import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from .errors import GrowthFitError
from .series import MonthKey


class GrowthModel(str, Enum):  # a str, so JSON writes a fit's model as its value
    GOMPERTZ = "gompertz"
    LOGISTIC = "logistic"


class PhaseLabel(Enum):
    LAG = "Lag"
    EXPONENTIAL = "Exponential"
    STATIONARY = "Stationary"
    DECLINE = "Decline"


@dataclass(frozen=True)
class GrowthFit:
    """One model fitted to one series; ``dataclasses.asdict`` of it is its
    fit.json entry.  ``t_offset`` is the "YYYY-MM" month of t = 0, if known."""

    model: GrowthModel
    y_star: float
    alpha: float
    shape: float
    sse: float
    r_squared: float
    iterations: int
    converged: bool
    t_offset: str | None = None
    truncated_at: int | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not (self.y_star > 0 and self.alpha > 0 and self.shape > 0):
            raise GrowthFitError(
                f"growth parameters must be positive, got "
                f"y_star={self.y_star}, alpha={self.alpha}, shape={self.shape}"
            )


def model_value(t, fit: GrowthFit):
    """Evaluate the closed form at time t (months since the anchor).

    Accepts scalars or arrays; strictly increasing in t and bounded above by
    y_star for all finite t.
    """
    tv = np.asarray(t, dtype=float)
    y_star, alpha, shape = fit.y_star, fit.alpha, fit.shape
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if fit.model is GrowthModel.GOMPERTZ:
            out = y_star * np.exp(-shape * np.exp(-alpha * tv))
        else:
            out = y_star / (1.0 + shape * np.exp(-alpha * y_star * tv))
    return float(out) if tv.ndim == 0 else out


# Levenberg-Marquardt settings.  Functions read these when they run.
MAX_ITERATIONS = 200
# A search row stops once its y* passes this multiple of its segment's peak.
RUNAWAY_CEILING = 100.0
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


# Rows the solver minimises at once.  A finished row's slot goes to the next
# (segment, start) pair in the queue, so its arrays hold at most this many
# rows, however many pairs there are.  Fewer slots take more trial steps:
# 64 and 128 ran the `biphase` benchmark 48% and 16% slower (BENCH_10.json).
SEARCH_SLOTS = 256

# Rows are zero-padded to a multiple of this width.  numpy's einsum row sums
# then come out bit for bit the same however many zeros follow a row's end,
# so a row's result does not depend on how wide its batch is or which rows
# share it (test_a_row_solves_alone_as_in_any_batch checks this).
_PAD = 8


def _padded(length) -> int:
    return -(-int(length) // _PAD) * _PAD


def _product(out: np.ndarray, *factors) -> np.ndarray:
    """``factors[0] * factors[1] * ...`` into ``out``, rounding as Python's left-to-right product."""
    return functools.reduce(lambda product, factor: np.multiply(product, factor, out=out), factors)


class _Workspace:
    """The (segment, start) pairs ``_solve`` is minimising, one row each, in arrays
    allocated once per solve.  Rows ``0..count-1`` are live; a (rows, width) array is
    a contiguous view of the head of one of ``buffers``, so a numpy call runs as one loop."""

    _VALUES, _CURVE, _DECAY, _GATHERED, _RESID = range(5)

    def __init__(self, segments: list[np.ndarray], starts: np.ndarray, model: GrowthModel, slots: int,
                 ceilings: np.ndarray | None = None):
        self.segments, self.starts, self.model, self.slots = segments, starts, model, slots
        self.ceilings = np.full(len(segments), math.inf) if ceilings is None else ceilings
        self.lengths = np.array([len(seg) for seg in segments])
        self.width, self.count = _padded(self.lengths.max()), 0
        self.t = np.arange(self.width, dtype=float)
        self.jac_row = self._GATHERED if model is GrowthModel.GOMPERTZ else self._RESID + 1
        self.buffers = np.empty((self.jac_row + 3, slots * self.width))
        self.pad = np.empty(slots * self.width, dtype=bool)
        self.ids, self.iterations, self.trials = np.empty((3, slots), dtype=int)
        self.theta, self.grad, self.hess = np.empty((slots, 3)), np.empty((slots, 3)), np.empty((slots, 3, 3))
        self.damping, self.sse = np.empty((2, slots))

    def view(self, flat: np.ndarray, rows: int | None = None) -> np.ndarray:  # the last axis as (rows, width)
        rows = self.count if rows is None else rows
        return flat[..., :rows * self.width].reshape(*flat.shape[:-1], rows, self.width)

    def drop(self, done: np.ndarray) -> None:
        """Remove the finished rows; the last live rows move into their slots."""
        kept = self.count - int(done.sum())
        holes, movers = np.flatnonzero(done[:kept]), kept + np.flatnonzero(~done[kept:])
        for array in (self.ids, self.iterations, self.trials, self.theta, self.grad, self.hess, self.damping,
                      self.sse, self.view(self.buffers[self._VALUES]), self.view(self.pad)):
            array[holes] = array[movers]
        self.count = kept

    def load(self, pairs: np.ndarray) -> None:
        """Append ``pairs``, none longer than a live row, at their starts; lay
        every row out again when the widest fits a narrower padded width."""
        width = _padded(self.lengths[self.ids[:self.count] if self.count else pairs].max())
        flat, live = self.buffers[self._VALUES], self.count
        narrowed = self.view(flat)[:, :width]  # the live rows' values and zero padding
        first = 0 if width < self.width else live  # the first row to lay out
        rows = slice(live, live + len(pairs))
        self.width, self.t, self.count, self.ids[rows] = width, self.t[:width], rows.stop, pairs
        values = self.view(flat)
        if first < live:
            # Two block copies through the curve buffer, whose rows are read only after
            # ``_evaluate`` rewrote them: one copy within ``flat`` would need a temporary.
            staged = self.view(self.buffers[self._CURVE], live)
            staged[...] = narrowed
            values[:live] = staged
        values[rows] = 0.0
        for row, pair in zip(values[rows], pairs):
            row[:self.lengths[pair]] = self.segments[pair]
        np.greater_equal(self.t, self.lengths[self.ids[first:self.count]][:, None], out=self.view(self.pad)[first:])
        theta = np.log(self.starts[pairs], out=self.theta[rows])
        self.damping[rows], self.iterations[rows], self.trials[rows] = DAMPING_INIT, 1, 0
        params, self.sse[rows] = self._evaluate(theta, rows)
        self._derivatives(params, np.arange(rows.start, rows.stop))

    def _evaluate(self, theta: np.ndarray, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """(exp theta as (3, k, 1), SSE) for ``rows`` at ``theta``.  Leaves
        their residuals, zero on the padding, decay and curve or denominator."""
        params = y_star, alpha, shape = np.exp(theta.T[..., None])
        values, curve, decay, _, resid = self.view(self.buffers)[:5, rows]
        if self.model is GrowthModel.GOMPERTZ:
            np.exp(np.multiply(-alpha, self.t, out=decay), out=decay)
            np.exp(np.multiply(-shape, decay, out=curve), out=curve)
            np.subtract(values, np.multiply(y_star, curve, out=curve), out=resid)
        else:
            np.exp(_product(decay, -alpha, y_star, self.t), out=decay)
            np.add(1.0, np.multiply(shape, decay, out=curve), out=curve)
            np.subtract(values, np.divide(y_star, curve, out=resid), out=resid)
        np.copyto(resid, 0.0, where=self.view(self.pad)[rows])  # not a product: 0 * inf is NaN
        return params, np.einsum("bw,bw->b", resid, resid)

    def _derivatives(self, params: np.ndarray, moved: np.ndarray) -> None:
        """J^T r and J^T J of the ``moved`` rows at ``params`` (their exp theta as
        ``_evaluate`` last used it), J = d model / d ln(y_star, alpha, shape).  The
        rows are gathered to the head of the buffers, each into the one the previous
        gather emptied, and J is formed there: the Gompertz one in ``_GATHERED`` (the
        curve is its first column) and the next two buffers, the logistic one in the
        last three."""
        y_star, alpha, shape = params
        k, t = len(moved), self.t
        live, head = self.view(self.buffers), self.view(self.buffers, k)
        first = np.take(live[self._CURVE], moved, axis=0, out=head[self._GATHERED], mode="clip")
        decay = np.take(live[self._DECAY], moved, axis=0, out=head[self._CURVE], mode="clip")
        resid = np.take(live[self._RESID], moved, axis=0, out=head[self._DECAY], mode="clip")
        jac = head[self.jac_row:]
        if self.model is GrowthModel.GOMPERTZ:  # first is the curve y, jac[0]
            _product(jac[1], first, alpha, shape, t, decay)
            _product(jac[2], np.negative(first, out=jac[2]), shape, decay)
        else:  # first is the denominator 1 + shape * decay
            denom2 = np.square(first, out=head[self._RESID])
            np.multiply(shape, np.divide(_product(jac[2], -y_star, decay), denom2, out=jac[2]), out=jac[2])
            np.multiply(alpha, np.divide(_product(jac[1], y_star**2, t, shape, decay), denom2, out=jac[1]), out=jac[1])
            np.divide(_product(jac[0], y_star * alpha, t, shape, decay), denom2, out=jac[0])
            np.multiply(y_star, np.add(np.divide(1.0, first, out=first), jac[0], out=jac[0]), out=jac[0])
        np.copyto(jac, 0.0, where=self.view(self.pad)[moved])
        # Each entry is one einsum row sum over the width, as a row dot product is.  J^T J
        # takes three calls that form its six distinct entries: "ibw,jbw->bij" is 3x slower.
        self.grad[moved] = np.einsum("ibw,bw->bi", jac, resid)
        entries = np.empty((k, 9))
        np.einsum("ibw,ibw->bi", jac, jac, out=entries[:, ::4])  # (0, 0), (1, 1), (2, 2)
        np.einsum("ibw,ibw->bi", jac[:2], jac[1:], out=entries[:, 1:6:4])  # (0, 1), (1, 2)
        np.einsum("bw,bw->b", jac[0], jac[2], out=entries[:, 2])  # (0, 2)
        entries[:, 3:8:4], entries[:, 6] = entries[:, 1:6:4], entries[:, 2]
        self.hess[moved] = entries.reshape(k, 3, 3)

    @np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore")
    def step(self) -> tuple[np.ndarray, np.ndarray]:
        """One damped Gauss-Newton trial for every live row, as ``_solve``
        describes; returns the masks (finished, converged)."""
        count = self.count
        theta, grad, hess, damping = self.theta[:count], self.grad[:count], self.hess[:count], self.damping[:count]
        sse, trials, iterations = self.sse[:count], self.trials[:count], self.iterations[:count]
        lhs = hess.copy()
        diagonal = lhs.reshape(count, 9)[:, ::4]
        diagonal += damping[:, None] * np.maximum(diagonal, 1e-12)
        try:
            step = np.linalg.solve(lhs, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # Only the singular systems lose their trial: a NaN step is rejected.
            step = np.full_like(grad, np.nan)
            for row in range(count):
                with contextlib.suppress(np.linalg.LinAlgError):
                    step[row] = np.linalg.solve(lhs[row], grad[row])
        largest = np.abs(step).max(axis=1)
        step *= np.where(largest > MAX_LOG_STEP, MAX_LOG_STEP / largest, 1.0)[:, None]
        candidate = theta + step
        params, cand_sse = self._evaluate(candidate, slice(None))

        accepted = cand_sse < sse  # False for a NaN or infinite trial SSE
        small = accepted & ((sse - cand_sse) / sse < TOLERANCE)  # accepted: sse > cand_sse >= 0
        np.copyto(theta, candidate, where=accepted[:, None])
        np.copyto(sse, cand_sse, where=accepted)
        damping[...] = np.where(accepted, np.maximum(damping / DAMPING_FACTOR, 1e-15), damping * DAMPING_FACTOR)
        trials[...] = np.where(accepted, 0, trials + 1)
        runaway = theta[:, 0] > self.ceilings[self.ids[:count]]
        done = np.where(accepted, small | (iterations == MAX_ITERATIONS) | runaway, trials == 60)
        moved = accepted & ~done
        iterations += moved
        if moved.any():  # their Jacobian comes from the curve the trial computed
            moved = np.flatnonzero(moved)
            self._derivatives(params[:, moved], moved)
        return done, small | ~accepted


class _SplitBound:
    """Which split segments ``_solve`` may stop solving, kept up to date row by row.

    Rows of segment ``row_segment[i]`` are one segment's starts; ``partner[s]`` is
    the other segment of s's split, or -1.  A row's SSE only falls, so the lowest
    SSE seen among a segment's rows (at load, and final once finished) bounds the
    segment's fit from above, and ``best``, the lowest sum of two such bounds over
    the splits whose rows have all loaded, bounds the lowest ranked split.  A NaN
    row, which loading shows, leaves its split unranked and its sum out of
    ``best``.  Once all of a segment's rows finish, its SSE is exact; if it is above
    ``best``, so is every sum it is part of, its split cannot win, and its
    partner need not be solved.
    """

    def __init__(self, row_segment: np.ndarray, partner: np.ndarray):
        self.row_segment, self.rows, self.partner = row_segment, row_segment.tolist(), partner.tolist()
        self.unloaded = np.bincount(row_segment, minlength=len(partner)).tolist()
        self.unfinished = list(self.unloaded)
        self.upper = [math.inf] * len(partner)
        self.best = self.checked = math.inf  # ``checked``: ``best`` when ``solved`` was last compared with it
        self.solved: set[int] = set()  # finished segments whose partner has rows left
        self.dropped = np.zeros(len(partner), dtype=bool)

    def _seen(self, segment: int, sse: float) -> None:
        if sse < self.upper[segment] or sse != sse:  # a NaN stays
            self.upper[segment] = sse
        other = self.partner[segment]
        if other >= 0 and not self.unloaded[segment] and not self.unloaded[other]:
            total = self.upper[segment] + self.upper[other]
            if total < self.best:  # False for NaN
                self.best = total

    def loaded(self, rows: np.ndarray, sses: np.ndarray) -> None:
        for row, sse in zip(rows.tolist(), sses.tolist()):
            segment = self.rows[row]
            self.unloaded[segment] -= 1
            self._seen(segment, sse)

    def finished(self, rows: np.ndarray, sses: np.ndarray) -> np.ndarray | None:
        """Record finished rows; the mask of segments dropped so far, or None
        when these rows drop none."""
        solved = []
        for row, sse in zip(rows.tolist(), sses.tolist()):
            segment = self.rows[row]
            self.unfinished[segment] -= 1
            self._seen(segment, sse)
            other = self.partner[segment]
            if other >= 0 and not self.unfinished[segment]:
                if self.unfinished[other]:
                    solved.append(segment)
                else:
                    self.solved.discard(other)
        self.solved.update(solved)
        if self.best < self.checked:
            self.checked, solved = self.best, self.solved
        beaten = [segment for segment in solved if self.upper[segment] > self.best]
        if not beaten:
            return None
        self.solved.difference_update(beaten)
        self.dropped[[self.partner[segment] for segment in beaten]] = True
        return self.dropped


def _solve(
    segments: list[np.ndarray], starts: np.ndarray, model: GrowthModel,
    ceilings: np.ndarray | None = None, pairing: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Levenberg-Marquardt from each (segment, start) pair, all pairs at once.

    Pair i fits ``segments[i]`` at t = 0, 1, ... from ``starts[i]`` and returns its
    log-parameters, SSE, iteration count and convergence.  Each row keeps its own
    damping and counts (Moré 1978) and, padded to a multiple of ``_PAD``, rounds as
    it would alone, so a pair's result does not depend on the other pairs.  Pairs
    enter longest first, so the padded width only shrinks.  A turn of the loop is one
    trial for every live row: a row whose trial lowers its SSE takes the step and
    eases its damping; any other row stiffens it and tries again in the same
    iteration.  A row finishes, converged, when a step improves its SSE by less than
    the relative ``TOLERANCE`` or when 60 trials in a row fail (no damping level
    lowers the SSE: a local minimum), and unconverged when its ``MAX_ITERATIONS``-th
    iteration takes a step or when a step takes its log y* above ``ceilings[i]``
    (if given).  So a row unconverged before its ``MAX_ITERATIONS``-th iteration is
    one its ceiling stopped, and its SSE is at or above the one it would reach
    without the ceiling: each step it skipped could only have lowered it.

    ``pairing``, (each pair's segment, each segment's split partner or -1), lets
    the solve drop the rows of a segment whose split cannot have the lowest
    summed SSE, as ``_SplitBound`` says; a dropped row has iteration count 0 and
    NaN log-parameters and SSE.  Every other row's result is the same as without it.
    """
    count = len(segments)
    work = _Workspace(segments, starts, model, min(SEARCH_SLOTS, count), ceilings)
    queue = np.argsort(-work.lengths, kind="stable")
    theta, sse = np.full((count, 3), np.nan), np.full(count, np.nan)
    iterations, converged = np.zeros(count, dtype=int), np.zeros(count, dtype=bool)
    bound = None if pairing is None else _SplitBound(*pairing)
    while len(queue) or work.count:
        if work.count < work.slots and len(queue):
            pairs, queue = np.split(queue, [work.slots - work.count])
            work.load(pairs)
            if bound is not None:
                bound.loaded(pairs, work.sse[work.count - len(pairs):work.count])
        done, finished_converged = work.step()
        if done.any():
            slots = np.flatnonzero(done)
            ids = work.ids[slots]
            theta[ids], sse[ids], iterations[ids] = work.theta[slots], work.sse[slots], work.iterations[slots]
            converged[ids] = finished_converged[slots]
            dropped = None if bound is None else bound.finished(ids, sse[ids])
            if dropped is not None:
                done |= dropped[bound.row_segment[work.ids[:work.count]]]
                queue = queue[~dropped[bound.row_segment[queue]]]
            work.drop(done)
    return theta, sse, iterations, converged


def _trailing_slope(values: np.ndarray) -> float:  # the OLS slope over the last DECLINE_WINDOW values
    return float(np.polyfit(np.arange(DECLINE_WINDOW, dtype=float), values[-DECLINE_WINDOW:], 1)[0])


def _trailing_decline(values: np.ndarray) -> bool:
    return len(values) >= DECLINE_WINDOW and (
        _trailing_slope(values) * DECLINE_WINDOW < -DECLINE_DROP_FRACTION * float(np.max(values)))


MIN_FIT_POINTS = 8


def _checked(values) -> np.ndarray:
    """The series as floats; GrowthFitError when no growth model can be fit to it."""
    data = np.asarray(values, dtype=float)
    if data.ndim != 1:
        raise GrowthFitError(f"need a 1-D series, got shape {data.shape}")
    if len(data) < MIN_FIT_POINTS:
        raise GrowthFitError(f"need at least {MIN_FIT_POINTS} points, got {len(data)}")
    if not np.all(np.isfinite(data)):
        raise GrowthFitError("series values must be finite")
    if np.any(data < 0):
        raise GrowthFitError("series values must be nonnegative")
    if not np.any(data > 0):
        raise GrowthFitError("all-zero series cannot be fit")
    return data


def _window_facts(data: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, ...]:
    """Whether ``_checked`` accepts each window ``data[start:stop]`` (none empty), its
    peak (``np.max``), whether it rises (``np.ptp > 0``) and the offset of its first
    positive value (at or past its length if none): one numpy pass per fact, not per window.
    reduceat reduces between consecutive edges, so its even places are the windows' reductions."""
    edges, padded = np.column_stack([starts, stops]).ravel(), np.append(data, 0.0)  # a stop at len(data) is an edge
    peaks = np.maximum.reduceat(padded, edges)[::2]
    rising = peaks - np.minimum.reduceat(padded, edges)[::2] > 0
    invalid = np.concatenate([[0], np.cumsum(~np.isfinite(data) | (data < 0))])  # what _checked rejects
    next_positive = np.minimum.accumulate(np.where(data > 0, np.arange(len(data)), len(data))[::-1])[::-1]
    lengths, firsts = stops - starts, next_positive[starts] - starts
    accepted = (lengths >= MIN_FIT_POINTS) & (invalid[stops] == invalid[starts]) & (firsts < lengths)
    return accepted, peaks, rising, firsts


def _warm_starts(segments: list[np.ndarray], peaks: np.ndarray, firsts: np.ndarray, model: GrowthModel) -> np.ndarray:
    """The solver's ``starts`` for ``_fit_segments``: row i starts segment i // len(RATE_START_FACTORS)
    from its warm start with the rate scaled by factor i % len(RATE_START_FACTORS).  The warm start:
    y_star = 1.1 * peak, y0 = the first positive value, and the rate from the OLS slope of log(y) over
    the positive points up to halfway from y0 to the peak, in value (else the first half of the positive
    points).  The slope is ``np.polyfit``'s bit for bit: ``np.linalg.lstsq`` on the scaled Vandermonde
    matrix it solves (exact norms: t is whole)."""
    bases = []
    for values, y_max, first in zip(segments, peaks.tolist(), firsts.tolist()):
        y_star, y0 = 1.1 * y_max, float(values[first])
        positive = values > 0
        rise = np.flatnonzero(positive & (values <= y0 + 0.5 * (y_max - y0)))
        if len(rise) < 2:
            rise = np.flatnonzero(positive)[: max(2, int(positive.sum()) // 2)]
        log_slope = 1e-4
        if len(rise) >= 2:
            t = rise.astype(float)
            scale, lhs = math.sqrt(t @ t), np.empty((len(rise), 2))
            lhs[:, 0], lhs[:, 1] = t / scale, 1.0 / math.sqrt(len(rise))
            slope = np.linalg.lstsq(lhs, np.log(values[rise]), len(rise) * np.finfo(float).eps)[0][0] / scale
            log_slope = max(float(slope), 1e-4)
        if model is GrowthModel.GOMPERTZ:
            shape = max(math.log(y_star / y0), 1e-6)
            bases.append((y_star, max(log_slope / shape, 1e-8), shape))
        else:
            shape = max((y_star - y0) / y0, 1e-6)
            bases.append((y_star, max(log_slope / y_star, 1e-12), shape))
    starts = np.repeat(bases, len(RATE_START_FACTORS), axis=0)
    starts[:, 1] *= np.tile(RATE_START_FACTORS, len(bases))
    return starts


def _fit_segments(
    segments: list[np.ndarray], model: GrowthModel, notes: tuple[str, ...], ceilings: Sequence[float] | None = None,
    partners: Sequence[int] | None = None, facts: tuple[np.ndarray, ...] | None = None,
) -> tuple[Callable[[int], GrowthFit | None], np.ndarray, list[bool]]:
    """Fit each segment that ``_checked`` accepts at t = 0, 1, ... in one batched solve.

    Returns (fit, sse, stopped): ``fit(i)`` builds segment i's fit, or None, when called;
    ``sse[i]`` is its SSE, NaN for None.  A rejected segment has no fit.  A segment runs one row
    per ``RATE_START_FACTORS`` start; its fit is its lowest-SSE row, the first start on ties, with
    ``notes`` first among its notes.  A row of segment i stops once its y* passes ``ceilings[i]``
    (if given) times the segment's peak; ``stopped`` says which segments had a row stopped so:
    their fits may not be ``fit_growth``'s.  ``partners[i]`` (if given) is the other segment of
    i's split, or -1; the solve then drops splits that cannot have the lowest summed SSE, and
    their fits are None.  ``facts``: the segments' ``_window_facts``.
    """
    per_segment = len(RATE_START_FACTORS)
    if facts is None:  # each segment is a window of their concatenation
        offsets = np.cumsum([0, *map(len, segments)])
        facts = _window_facts(np.concatenate([np.empty(0), *segments]), offsets[:-1], offsets[1:])
    accepted, peaks, rising, firsts = facts
    peak_values, ceilings = peaks.tolist(), ceilings or [math.inf] * len(segments)
    solved = np.flatnonzero(accepted & rising).tolist()
    place = {i: j for j, i in enumerate(solved)}
    sse, stopped = np.full(len(segments), math.nan), np.zeros(len(segments), dtype=bool)

    def noted(i: int, *more: str) -> tuple[str, ...]:
        if peak_values[i] < LOW_CONFIDENCE_PEAK:
            more = (f"low confidence: series peak below {LOW_CONFIDENCE_PEAK:g} active contributors", *more)
        return (*notes, *more)

    fixed = {}
    for i in np.flatnonzero(accepted & ~rising).tolist():  # flat: the level is known but no rate is recoverable
        fit = GrowthFit(model, float(segments[i][0]), alpha=1e-6, shape=1e-9, sse=math.nan, r_squared=0.0,
                        iterations=0, converged=False, notes=noted(i, "rate unidentifiable: constant series"))
        residuals = segments[i] - model_value(np.arange(len(segments[i]), dtype=float), fit)
        fixed[i] = replace(fit, sse=float(residuals @ residuals))
        sse[i] = fixed[i].sse
    if solved:
        log_ceilings = np.repeat([math.log(ceilings[i] * peak_values[i]) for i in solved], per_segment)
        pairing = None if partners is None else (  # a rejected or constant segment is no partner
            np.repeat(np.arange(len(solved)), per_segment), np.array([place.get(partners[i], -1) for i in solved]))
        starts = _warm_starts([segments[i] for i in solved], peaks[solved], firsts[solved], model)
        thetas, sses, iteration_counts, convergence = _solve(
            [segments[i] for i in solved for _ in range(per_segment)], starts, model, log_ceilings, pairing)
        best = np.arange(len(solved)) * per_segment + np.argmin(sses.reshape(-1, per_segment), axis=1)  # first on ties
        dropped = ~iteration_counts.reshape(-1, per_segment).all(axis=1)
        stopped_rows = ~convergence & (iteration_counts < MAX_ITERATIONS)  # as _solve says
        stopped[solved] = stopped_rows.reshape(-1, per_segment).any(axis=1) & ~dropped
        sse[solved] = sses[best]

    def fit(i: int) -> GrowthFit | None:
        if i not in place or dropped[place[i]]:
            return fixed.get(i)
        row, segment, fit_sse = best[place[i]], segments[i], float(sse[i])
        sst = float(np.sum((segment - segment.mean()) ** 2))
        r_squared = 0.0 if sst == 0 else max(0.0, min(1.0, 1.0 - fit_sse / sst))
        converged = bool(convergence[row])
        more = () if converged else ("did not converge within iteration limit; best parameters so far",)
        return GrowthFit(model, *np.exp(thetas[row]).tolist(), fit_sse, r_squared, int(iteration_counts[row]),
                         converged, notes=noted(i, *more))

    return fit, sse, stopped.tolist()


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
    fit = _fit_segments([data], model, notes)[0](0)
    return replace(fit, t_offset=None if t_offset is None else str(t_offset), truncated_at=truncated_at)


def classify_phase(values: Sequence[float], fit: GrowthFit) -> PhaseLabel:
    """Assign exactly one growth phase to a (series, fit) pair.

    Decline: the trailing OLS slope loses more than DECLINE_DROP_FRACTION of the series maximum
    over the last DECLINE_WINDOW months.  While the data do not identify y* (``phase_reason``):
    exponential when the trailing log-growth rate is positive, lag when the series is flat.
    Otherwise the last value against y_star: stationary above 90%, lag below 10%, else exponential.
    """
    data = np.asarray(values, dtype=float)
    if len(data) < DECLINE_WINDOW:
        raise GrowthFitError(f"classification unavailable: need at least {DECLINE_WINDOW} months")
    if _trailing_decline(data):
        return PhaseLabel.DECLINE
    if phase_reason(data, fit) is not None:
        tail = data[-DECLINE_WINDOW:]
        return PhaseLabel.EXPONENTIAL if np.all(tail > 0) and _trailing_slope(np.log(tail)) > 0 else PhaseLabel.LAG
    last = float(data[-1])
    if last >= STATIONARY_FRACTION * fit.y_star:
        return PhaseLabel.STATIONARY
    if last <= LAG_FRACTION * fit.y_star:
        return PhaseLabel.LAG
    return PhaseLabel.EXPONENTIAL


def phase_reason(values: Sequence[float], fit: GrowthFit) -> str | None:
    """Why ``classify_phase`` labels from the data: the series does not decline and is below the
    fit's inflection value (y*/e for Gompertz, y*/2 logistic), so y* is not identified; else None."""
    data = np.asarray(values, dtype=float)
    peak, inflection = float(np.max(data)), fit.y_star / (math.e if fit.model is GrowthModel.GOMPERTZ else 2.0)
    if _trailing_decline(data) or not inflection > peak:
        return None
    return (f"ceiling not identified: the fit's inflection value {inflection:.6g} is above the series peak "
            f"{peak:.6g}, so the trailing {DECLINE_WINDOW}-month log-growth rate sets the phase")


MIN_SEGMENT_MONTHS = 12

def _bic(sse: float, n: int, n_params: int, sse_floor: float) -> float:
    # The floor keeps noiseless comparisons from resolving on numerical dust: any SSE below
    # ~1e-9 of the data's energy counts as "exact", so the parameter-count penalty decides.
    return n * math.log(max(sse, sse_floor) / n) + n_params * math.log(n)


def detect_biphase(
    values: Sequence[float], model: GrowthModel, t_offset: MonthKey | None = None
) -> dict | None:
    """Search for two successive growth episodes; returns fit.json's ``biphase`` entry.

    Every interior breakpoint leaving at least ``MIN_SEGMENT_MONTHS`` months per side is tried;
    each segment is fit independently and the split with the lowest combined SSE wins, the lowest
    index on ties.  ``preferred`` is True when the two-segment BIC (7 effective parameters) beats
    the single-fit BIC (3).  Returns None when the series is too short or no split has two
    fittable segments.

    Each segment is a window of the series, all checked at once by ``_window_facts``; a rejected
    one, or one whose best SSE is NaN, leaves its splits unranked.  Every window is fit by one
    ``_fit_segments`` call, without the decline truncation, and ranked on its SSEs; only the
    reported fits are built.  A split segment's rows stop once y* passes ``RUNAWAY_CEILING`` times
    its peak, and the winner's segments with a stopped row are fit again without it, so the
    reported fits are ``fit_growth``'s (decline test off); the winner differs from the exhaustive
    search's only when that search's winner had a segment whose best start stopped.  Splits that
    cannot win are dropped unsolved (``_SplitBound``), with the same entry.
    """
    data = np.asarray(values, dtype=float)
    if data.ndim != 1 or len(data) < 2 * MIN_SEGMENT_MONTHS:  # _checked rejects every window of a series not 1-D
        return None
    n = len(data)

    # The windows in (start, stop) order: (0, k) for each split k, (0, n), then (k, n) for each k.
    splits = np.arange(MIN_SEGMENT_MONTHS, n - MIN_SEGMENT_MONTHS + 1)
    m = len(splits)
    starts = np.concatenate([np.zeros(m + 1, dtype=int), splits])
    stops = np.concatenate([splits, np.full(m + 1, n)])
    partners = np.concatenate([m + 1 + np.arange(m), [-1], np.arange(m)]).tolist()  # (0, n): none
    ceilings = np.where(stops - starts == n, math.inf, RUNAWAY_CEILING).tolist()
    segments = [data[start:stop] for start, stop in zip(starts.tolist(), stops.tolist())]
    fit, sse, stopped = _fit_segments(segments, model, (), ceilings, partners, _window_facts(data, starts, stops))
    ranked = sse[:m] + sse[m + 1:]
    ranked[np.isnan(ranked)] = math.inf  # a NaN half leaves its split unranked
    best = int(np.argmin(ranked))  # the lowest index on ties
    if not math.isfinite(ranked[best]):
        return None
    breakpoint_index, halves = int(splits[best]), [best, m + 1 + best]
    refit = [i for i in halves if stopped[i]]
    refit_fit = _fit_segments([segments[i] for i in refit], model, ())[0]
    reported = {i: refit_fit(j) for j, i in enumerate(refit)}
    offsets = (None, None) if t_offset is None else (str(t_offset), str(t_offset.shift(breakpoint_index)))
    first, second = (asdict(replace(reported.get(i) or fit(i), t_offset=at)) for i, at in zip(halves, offsets))
    combined = first["sse"] + second["sse"]
    sse_floor = max(1e-10, 1e-9 * float(data @ data))
    single_bic = _bic(float(sse[m]), n, 3, sse_floor)  # a ranked split's halves make (0, n) accepted
    return {"breakpoint_index": breakpoint_index, "breakpoint": offsets[1], "first": first, "second": second,
            "combined_sse": combined, "preferred": _bic(combined, n, 7, sse_floor) < single_bic}
