"""Productivity and diversity statistics.

Spearman's rank correlation is computed as the Pearson correlation of
average ranks, which handles tied monthly counts; on tie-free data it equals
the closed form 1 - 6*sum(d^2) / (n*(n^2-1)) exactly.  The diversity index is
the square root of the inverse Simpson index over organization commit
shares.  The contribution-tail exponent is a shifted discrete Hill/MLE
estimate; it is a diagnostic, not a goodness-of-fit claim.  Each statistic
returns the dict that metrics.json holds for it.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .errors import MetricError
from .series import MonthlySeries


def average_ranks(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Ranks 1..n with ties replaced by the mean rank of the tie group, and
    the number of tie groups (distinct values)."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # a tie group covers sorted positions ends - counts .. ends - 1
    return ((2 * ends - counts - 1) / 2.0 + 1.0)[group], len(counts)


def _as_pair(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.ndim != 1 or yv.ndim != 1 or len(xv) != len(yv):
        raise MetricError("x and y must be one-dimensional sequences of equal length")
    if len(xv) < 2:
        raise MetricError("need at least 2 observations")
    return xv, yv


def spearman(x: Sequence[float], y: Sequence[float]) -> dict:
    """Rank correlation of two equal-length sequences.

    Raises MetricError for mismatched lengths, n < 2, or a constant sequence
    (rank correlation is undefined there).
    """
    xv, yv = _as_pair(x, y)
    (rx, x_groups), (ry, y_groups) = average_ranks(xv), average_ranks(yv)
    if min(x_groups, y_groups) < 2:
        raise MetricError("constant sequence: rank correlation undefined")
    ties = min(x_groups, y_groups) < len(xv)
    rx -= rx.mean()
    ry -= ry.mean()
    rho = float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))
    rho = max(-1.0, min(1.0, rho))
    return {"rho": rho, "n": len(xv), "used_tie_correction": ties}


def linear_trend(x: Sequence[float], y: Sequence[float]) -> dict:
    """Ordinary least squares with intercept; R^2 = 1 - SSE/SST.

    A constant y has SST = 0 and is reported as r_squared = 0 by convention.
    Constant x is a domain error.
    """
    xv, yv = _as_pair(x, y)
    xc = xv - xv.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise MetricError("constant x: trend undefined")
    slope = float(xc @ (yv - yv.mean())) / sxx
    intercept = float(yv.mean() - slope * xv.mean())
    residuals = yv - (slope * xv + intercept)
    sse = float(residuals @ residuals)
    sst = float((yv - yv.mean()) @ (yv - yv.mean()))
    r_squared = 0.0 if sst == 0.0 else max(0.0, min(1.0, 1.0 - sse / sst))
    return {"slope": slope, "intercept": intercept, "r_squared": r_squared}


def org_shares(series: MonthlySeries, window: int | str = "all") -> dict[str, float]:
    """Commit-share per organizational unit over a window of months.

    window="all" covers the full history; an integer k takes the trailing k
    months.  The window must contain at least one commit.
    """
    points = series.points
    if isinstance(window, int):
        if window < 1:
            raise MetricError(f"window must be positive, got {window}")
        points = points[-window:]
    elif window != "all":
        raise MetricError(f"window must be 'all' or a positive integer, got {window!r}")
    totals: dict[str, int] = {}
    for point in points:
        for key, count in point["org_commits"].items():
            totals[key] = totals.get(key, 0) + count
    grand_total = sum(totals.values())
    if grand_total == 0:
        raise MetricError("window contains no commits")
    return {key: count / grand_total for key, count in totals.items()}


SHARE_SUM_TOLERANCE = 1e-9


def diversity(shares: Mapping[str, float]) -> dict:
    """Simpson index S = sum(p_i^2) and diversity index D = sqrt(1/S).

    Shares must be nonnegative and sum to 1 within 1e-9.  Units with zero
    share do not count toward n_units.
    """
    if not shares:
        raise MetricError("no shares given")
    values = list(shares.values())
    if any(p < 0 for p in values):
        raise MetricError("negative share")
    total = math.fsum(values)
    if abs(total - 1.0) > SHARE_SUM_TOLERANCE:
        raise MetricError(f"shares sum to {total!r}, not 1")
    simpson = math.fsum(p * p for p in values)
    return {
        "simpson": simpson,
        "diversity": math.sqrt(1.0 / simpson),
        "n_units": sum(1 for p in values if p > 0),
        "shares": dict(shares),
    }


MIN_TAIL_POINTS = 10


def contribution_tail(per_contributor_commits: Sequence[int]) -> dict:
    """Tail exponent of the per-contributor commit-count distribution.

    Shifted discrete MLE over the tail x >= x_min:

        alpha_hat = 1 + n_tail / sum(ln(x_i / (x_min - 0.5)))

    x_min is the smaller of two observed counts: the least count at or
    above the median (``np.percentile(counts, 50)``), which is the sorted
    counts' entry at ``len // 2`` for odd and even lengths alike, and the
    ``MIN_TAIL_POINTS``-th largest count.  The tail thus holds at least
    ``MIN_TAIL_POINTS`` points, and x_min is the median's count unless that
    leaves fewer.  Errors: fewer than ``MIN_TAIL_POINTS`` counts overall,
    nonpositive counts, or a tail without variation.
    """
    counts = np.asarray(per_contributor_commits)
    if len(counts) < MIN_TAIL_POINTS:
        raise MetricError(f"need at least {MIN_TAIL_POINTS} contributors, got {len(counts)}")
    if np.any(counts <= 0):
        raise MetricError("contributor commit counts must be positive")
    xs = np.sort(counts.astype(float))
    x_min = min(xs[len(xs) // 2], xs[-MIN_TAIL_POINTS])
    tail = xs[xs >= x_min]
    if tail.max() == tail.min():
        raise MetricError("no tail variation")
    log_terms = np.log(tail / (x_min - 0.5))
    alpha_hat = 1.0 + len(tail) / float(np.sum(log_terms))
    return {"alpha_hat": alpha_hat, "x_min": int(x_min), "n_tail": len(tail)}
