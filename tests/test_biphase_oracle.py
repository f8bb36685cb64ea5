"""detect_biphase against the exhaustive search it replaces.

``exhaustive_biphase`` is the loop that used to be ``detect_biphase``: one
``fit_growth`` pair per breakpoint, lowest combined SSE first found.  The
batched search must return the same result, byte for byte once rounded the
way the artifacts are.
"""

import math

import numpy as np
import pytest

from forgepulse import (
    GrowthFitError,
    GrowthModel,
    GrowthParams,
    MonthKey,
    detect_biphase,
    fit_growth,
    model_value,
)
from forgepulse.growth import MIN_SEGMENT_MONTHS, BiPhaseFit, FitOptions, _bic
from forgepulse.jsonio import round_floats


def exhaustive_biphase(values, model, t_offset=None, min_segment=MIN_SEGMENT_MONTHS, options=FitOptions()):
    data = np.asarray(values, dtype=float)
    n = len(data)
    if n < 2 * min_segment:
        return None
    best = None
    for breakpoint_index in range(min_segment, n - min_segment + 1):
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
        if best is None or combined < best[1]:
            best = (breakpoint_index, combined, first, second)
    if best is None:
        return None
    sse_floor = max(1e-10, 1e-9 * float(data @ data))
    try:
        single = fit_growth(data, model, t_offset=t_offset, options=options, truncate_on_decline=False)
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
    assert round_floats(result.to_dict()) == round_floats(expected.to_dict())
    k = result.breakpoint_index
    assert result.first == fit_growth(
        np.asarray(values, dtype=float)[:k], model, t_offset=t_offset, truncate_on_decline=False
    )


def test_batched_search_skips_unfittable_splits():
    # Every split whose first segment is all zeros is skipped, as fit_growth
    # rejects it; the first fittable split starts past the zeros.
    values = np.concatenate([np.zeros(20), SHORT_EPISODES])
    result = detect_biphase(values, GrowthModel.LOGISTIC)
    assert result.breakpoint_index > 20
    expected = exhaustive_biphase(values, GrowthModel.LOGISTIC)
    assert round_floats(result.to_dict()) == round_floats(expected.to_dict())


def test_all_splits_unfittable_returns_none():
    assert detect_biphase([0.0] * 30, GrowthModel.GOMPERTZ) is None


def test_singular_system_costs_only_its_own_row_a_trial():
    from forgepulse.growth import _refresh_derivatives, _start_rows, _trial_step, _warm_start

    options = FitOptions()
    t = np.arange(len(SHORT_EPISODES), dtype=float)
    start = _warm_start(t, SHORT_EPISODES, GrowthModel.LOGISTIC)
    segments = [SHORT_EPISODES, SHORT_EPISODES]
    starts = np.array([start, start])

    def rows(pairs):
        live = _start_rows(segments, starts, np.array(pairs), t, GrowthModel.LOGISTIC, options)
        _refresh_derivatives(live, t, GrowthModel.LOGISTIC)
        return live

    alone = rows([1])
    _trial_step(alone, t, GrowthModel.LOGISTIC, options)
    both = rows([0, 1])
    both.hess[0] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    both.damping[0] = 0.0  # with no damping the system stays singular
    theta0 = both.theta[0].copy()
    done = _trial_step(both, t, GrowthModel.LOGISTIC, options)
    assert not done[0]
    assert both.trials[0] == 1 and both.damping[0] == 0.0
    assert np.array_equal(both.theta[0], theta0)
    assert np.array_equal(both.theta[1], alone.theta[0])
    assert both.sse[1] == alone.sse[0] and both.damping[1] == alone.damping[0]


@pytest.mark.parametrize(
    "options",
    [FitOptions(max_iterations=0), FitOptions(max_iterations=3), FitOptions(rate_start_factors=(1.0, 3.0))],
    ids=["no-iterations", "iteration-limit", "two-starts"],
)
def test_batched_search_honours_fit_options(options):
    values = SERIES["noisy-0"]
    result = detect_biphase(values, GrowthModel.GOMPERTZ, options=options)
    expected = exhaustive_biphase(values, GrowthModel.GOMPERTZ, options=options)
    assert round_floats(result.to_dict()) == round_floats(expected.to_dict())
