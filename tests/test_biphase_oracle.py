"""detect_biphase against the exhaustive search it replaces.

``exhaustive_biphase`` is the loop that used to be ``detect_biphase``: one
``fit_growth`` pair per breakpoint, lowest combined SSE first found.  The
batched search must return the same result, bit for bit: a segment's best
row in the batch is the fit ``fit_growth`` reports for it.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forgepulse import (
    GrowthFitError,
    GrowthModel,
    GrowthParams,
    MonthKey,
    detect_biphase,
    fit_growth,
    model_value,
)
from forgepulse import growth
from forgepulse.growth import MIN_SEGMENT_MONTHS, BiPhaseFit, _bic, _solve, _warm_start


def untruncated_fit(values, model, t_offset=None):
    """fit_growth with its decline test off, as detect_biphase fits segments."""
    with mock.patch.object(growth, "DECLINE_WINDOW", 10**9):
        return fit_growth(values, model, t_offset=t_offset)


def exhaustive_biphase(values, model, t_offset=None):
    data = np.asarray(values, dtype=float)
    n = len(data)
    if n < 2 * MIN_SEGMENT_MONTHS:
        return None
    best = None
    for breakpoint_index in range(MIN_SEGMENT_MONTHS, n - MIN_SEGMENT_MONTHS + 1):
        try:
            first = untruncated_fit(data[:breakpoint_index], model, t_offset=t_offset)
            second = untruncated_fit(
                data[breakpoint_index:], model,
                t_offset=None if t_offset is None else t_offset.shift(breakpoint_index),
            )
        except GrowthFitError:
            continue
        combined = first.sse + second.sse
        if best is None or combined < best[1]:
            best = (breakpoint_index, combined, first, second)
    if best is None:
        return None
    sse_floor = max(1e-10, 1e-9 * float(data @ data))
    try:
        single = untruncated_fit(data, model, t_offset=t_offset)
        single_bic = _bic(single.sse, n, 3, sse_floor)
    except GrowthFitError:
        single_bic = math.inf
    breakpoint_index, combined, first, second = best
    return BiPhaseFit(
        breakpoint_index=breakpoint_index,
        breakpoint=None if t_offset is None else t_offset.shift(breakpoint_index),
        first=first,
        second=second,
        combined_sse=combined,
        preferred=_bic(combined, n, 7, sse_floor) < single_bic,
    )


def logistic(n, y_star, rate, shape):
    params = GrowthParams(GrowthModel.LOGISTIC, y_star, rate / y_star, shape)
    return model_value(np.arange(n, dtype=float), params)


TWO_EPISODES = np.concatenate([logistic(36, 40.0, 0.25, 19.0), logistic(36, 120.0, 0.2, 5.0)])
SINGLE_EPISODE = model_value(np.arange(72, dtype=float), GrowthParams(GrowthModel.GOMPERTZ, 100.0, 0.06, 5.0))
SHORT_EPISODES = np.concatenate([logistic(24, 30.0, 0.3, 15.0), logistic(24, 90.0, 0.25, 4.0)])


def noisy(seed):
    rng = np.random.default_rng(seed)
    return SHORT_EPISODES * (1.0 + 0.05 * rng.standard_normal(len(SHORT_EPISODES)))


SERIES = {
    **{f"noisy-{seed}": noisy(seed) for seed in range(6)},
    "two-episodes": TWO_EPISODES,
    "single-episode": SINGLE_EPISODE,
    "leading-zeros": np.concatenate([np.zeros(15), TWO_EPISODES[:45]]),
    "constant": [5.0] * 40,
}


@pytest.mark.parametrize("model", list(GrowthModel), ids=lambda m: m.value)
@pytest.mark.parametrize("name", list(SERIES))
def test_batched_search_matches_exhaustive_search(name, model):
    values = SERIES[name]
    t_offset = MonthKey(2010, 1) if name == "two-episodes" else None
    result = detect_biphase(values, model, t_offset=t_offset)
    expected = exhaustive_biphase(values, model, t_offset=t_offset)
    assert expected is not None
    assert result == expected
    k = result.breakpoint_index
    assert result.first == untruncated_fit(np.asarray(values, dtype=float)[:k], model, t_offset=t_offset)


def test_batched_search_skips_unfittable_splits():
    # Every split whose first segment is all zeros is skipped, as fit_growth
    # rejects it; the first fittable split starts past the zeros.
    values = np.concatenate([np.zeros(20), SHORT_EPISODES])
    result = detect_biphase(values, GrowthModel.LOGISTIC)
    assert result.breakpoint_index > 20
    expected = exhaustive_biphase(values, GrowthModel.LOGISTIC)
    assert result == expected


@pytest.mark.parametrize("model", list(GrowthModel), ids=lambda m: m.value)
def test_search_is_one_batched_solve(model):
    # The ranking, the winning split's two fits and the whole-series fit for
    # the BIC all come from one solve; nothing is refit.
    with mock.patch.object(growth, "_solve", wraps=growth._solve) as solve, \
            mock.patch.object(growth, "fit_growth", wraps=growth.fit_growth) as fit:
        result = detect_biphase(SERIES["noisy-0"], model)
    assert result is not None
    assert solve.call_count == 1 and fit.call_count == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_segment_fit_with_a_nan_sse_leaves_its_splits_unranked():
    # A subnormal first value overflows the logistic start's shape to inf, so
    # every segment that begins with it fits to a NaN SSE: no split is left.
    assert detect_biphase(np.concatenate([[1e-310], TWO_EPISODES]), GrowthModel.LOGISTIC) is None


def test_all_splits_unfittable_returns_none():
    assert detect_biphase([0.0] * 30, GrowthModel.GOMPERTZ) is None


segment_values = st.lists(st.floats(0.0, 1e3), min_size=8, max_size=60).filter(
    lambda values: max(values) > min(values)
)


def _start(segment, model, factor):
    base = _warm_start(np.arange(len(segment), dtype=float), segment, model)
    return (base[0], base[1] * factor, base[2])


@given(
    model=st.sampled_from(list(GrowthModel)),
    values=segment_values,
    factor=st.sampled_from(growth.RATE_START_FACTORS),
    peers=st.lists(segment_values, max_size=5),
    at=st.integers(0, 6),
    slots=st.integers(1, 8),
)
# A subnormal first value overflows the logistic start's shape to inf; the
# model is then 0 * inf = NaN past the row's end, which padding must not see.
@example(model=GrowthModel.LOGISTIC, values=[2.2250738585072e-309] + [0.0] * 6 + [1.0], factor=1.0,
         peers=[], at=0, slots=1)
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # arbitrary data overflows on some trajectories
def test_a_row_solves_alone_as_in_any_batch(model, values, factor, peers, at, slots):
    # Alone; among peers of mixed lengths, with slots refilled as rows
    # finish; and padded wider, beside a peer twice its length.
    segment = np.asarray(values)
    segments = [np.asarray(peer) for peer in peers] + [np.concatenate([segment, segment[::-1]])]
    segments.insert(at % (len(segments) + 1), segment)
    row = next(i for i, seg in enumerate(segments) if seg is segment)
    starts = np.array([_start(seg, model, factor if seg is segment else 1.0) for seg in segments])
    alone = _solve([segment], starts[row:row + 1], model)
    with mock.patch.object(growth, "SEARCH_SLOTS", slots):
        batched = _solve(segments, starts, model)
    assert alone[0][0].tobytes() == batched[0][row].tobytes()
    assert alone[1][0].tobytes() == batched[1][row].tobytes()
    assert alone[2][0] == batched[2][row] and alone[3][0] == batched[3][row]


def test_singular_system_costs_only_its_own_row_a_trial():
    from forgepulse.growth import _refresh_derivatives, _start_rows, _trial_step

    t = np.arange(len(SHORT_EPISODES), dtype=float)
    start = _warm_start(t, SHORT_EPISODES, GrowthModel.LOGISTIC)
    segments = [SHORT_EPISODES, SHORT_EPISODES]
    starts = np.array([start, start])

    def rows(pairs):
        live = _start_rows(segments, starts, np.array(pairs), t, GrowthModel.LOGISTIC)
        _refresh_derivatives(live, t, GrowthModel.LOGISTIC)
        return live

    alone = rows([1])
    _trial_step(alone, t, GrowthModel.LOGISTIC)
    both = rows([0, 1])
    both.hess[0] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    both.damping[0] = 0.0  # with no damping the system stays singular
    theta0 = both.theta[0].copy()
    done, _ = _trial_step(both, t, GrowthModel.LOGISTIC)
    assert not done[0]
    assert both.trials[0] == 1 and both.damping[0] == 0.0
    assert np.array_equal(both.theta[0], theta0)
    assert np.array_equal(both.theta[1], alone.theta[0])
    assert both.sse[1] == alone.sse[0] and both.damping[1] == alone.damping[0]


@pytest.mark.parametrize(
    "constants", [{"MAX_ITERATIONS": 3}, {"RATE_START_FACTORS": (1.0, 3.0)}], ids=["iteration-limit", "two-starts"]
)
def test_batched_search_honours_fit_options(constants, monkeypatch):
    for name, value in constants.items():
        monkeypatch.setattr(growth, name, value)
    values = SERIES["noisy-0"]
    result = detect_biphase(values, GrowthModel.GOMPERTZ)
    expected = exhaustive_biphase(values, GrowthModel.GOMPERTZ)
    assert result == expected
