"""detect_biphase against the exhaustive search it replaces.

``exhaustive_biphase`` is the loop that used to be ``detect_biphase``: one
``fit_growth`` pair per breakpoint, lowest combined SSE first found.  The
batched search must return the same result, bit for bit: a segment's best
row in the batch is the fit ``fit_growth`` reports for it.  The one
exception, a segment of the exhaustive winner whose best start the runaway
ceiling stopped, is bounded by the tests at the end of this file.  The
splits the search drops unsolved are checked against ``unpruned_biphase``,
the same search with every split segment solved.
"""

import contextlib
import json
import math
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forgepulse import (
    GrowthFitError,
    GrowthModel,
    MonthKey,
    detect_biphase,
    fit_growth,
    model_value,
)
from forgepulse import growth
from forgepulse.growth import MIN_SEGMENT_MONTHS, _bic, _solve
from oracles import curve, envelope_biphase, unpruned_biphase, warm_start_oracle

DATA_DIR = Path(__file__).parent / "data"


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
    return {
        "breakpoint_index": breakpoint_index,
        "breakpoint": None if t_offset is None else str(t_offset.shift(breakpoint_index)),
        "first": asdict(first),
        "second": asdict(second),
        "combined_sse": combined,
        "preferred": _bic(combined, n, 7, sse_floor) < single_bic,
    }


def logistic(n, y_star, rate, shape):
    params = curve(GrowthModel.LOGISTIC, y_star, rate / y_star, shape)
    return model_value(np.arange(n, dtype=float), params)


TWO_EPISODES = np.concatenate([logistic(36, 40.0, 0.25, 19.0), logistic(36, 120.0, 0.2, 5.0)])
SINGLE_EPISODE = model_value(np.arange(72, dtype=float), curve(GrowthModel.GOMPERTZ, 100.0, 0.06, 5.0))
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
    k = result["breakpoint_index"]
    assert result["first"] == asdict(untruncated_fit(np.asarray(values, dtype=float)[:k], model, t_offset=t_offset))


def test_batched_search_skips_unfittable_splits():
    # Every split whose first segment is all zeros is skipped, as fit_growth
    # rejects it; the first fittable split starts past the zeros.
    values = np.concatenate([np.zeros(20), SHORT_EPISODES])
    result = detect_biphase(values, GrowthModel.LOGISTIC)
    assert result["breakpoint_index"] > 20
    expected = exhaustive_biphase(values, GrowthModel.LOGISTIC)
    assert result == expected


@pytest.mark.parametrize("model", list(GrowthModel), ids=lambda m: m.value)
def test_search_is_one_batched_solve(model):
    # The ranking, the winning split's two fits and the whole-series fit for
    # the BIC all come from one solve.  A second solve runs only when the
    # ceiling stopped a row of the winner (not so here), and the rows of the
    # splits that solve drops never finish.
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
    base = warm_start_oracle(np.arange(len(segment), dtype=float), segment, model)
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


def noisy_episode(n, seed):
    return logistic(n, 50.0, 0.3, 10.0) * (1.0 + 0.2 * np.random.default_rng(seed).standard_normal(n))


# Splits (b, a) and (c, d), loaded c, b, a, d: c finishes before (b, a) has
# loaded, and then costs more than b and a together, so d can be dropped.  A
# NaN start in b, or in a's second row, which loads last, leaves (b, a)
# unranked, and then nothing can be.
UNRANKED_SPLIT_FIRST = [
    (logistic(40, 90.0, 0.25, 4.0).tolist(), logistic(30, 30.0, 0.3, 15.0).tolist()),
    (noisy_episode(50, 0).tolist(), noisy_episode(20, 1).tolist()),
]


@given(
    model=st.sampled_from(list(GrowthModel)),
    halves=st.lists(st.tuples(segment_values, segment_values), min_size=1, max_size=4),
    nan_row=st.none() | st.integers(0, 15),
    slots=st.integers(1, 8),
)
@example(model=GrowthModel.LOGISTIC, halves=UNRANKED_SPLIT_FIRST, nan_row=None, slots=2)
@example(model=GrowthModel.LOGISTIC, halves=UNRANKED_SPLIT_FIRST, nan_row=0, slots=2)
@example(model=GrowthModel.LOGISTIC, halves=UNRANKED_SPLIT_FIRST, nan_row=3, slots=1)
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_paired_solve_drops_only_rows_of_splits_that_cannot_win(model, halves, nan_row, slots):
    # Segments 2i and 2i + 1 are split i's, two starts each.  A NaN start
    # leaves its segment's SSE NaN (the first NaN is its lowest) and its split unranked.
    segments = [np.asarray(half) for pair in halves for half in pair]
    partner, row_segment = np.arange(len(segments)) ^ 1, np.repeat(np.arange(len(segments)), 2)
    starts = np.array([_start(segments[i], model, factor) for i in row_segment[::2] for factor in (1.0, 3.0)])
    if nan_row is not None:
        starts[nan_row % len(starts), 0] = np.nan
    rows = [segments[i] for i in row_segment]
    with mock.patch.object(growth, "SEARCH_SLOTS", slots):
        solved = _solve(rows, starts, model)
        paired = _solve(rows, starts, model, None, (row_segment, partner))
    kept = paired[2] > 0
    for full, pruned in zip(solved, paired):
        assert full[kept].tobytes() == pruned[kept].tobytes()
    assert np.isnan(paired[1][~kept]).all()
    sse = solved[1].reshape(-1, 2)
    segment_sse = sse[np.arange(len(segments)), np.argmin(sse, axis=1)]
    ranked = np.nan_to_num(segment_sse + segment_sse[partner], nan=np.inf)
    dropped = ~kept.reshape(-1, 2).all(axis=1)
    assert np.all(ranked[dropped] > ranked.min())
    if halves == UNRANKED_SPLIT_FIRST:
        assert dropped.any() == (nan_row is None)


def test_singular_system_costs_only_its_own_row_a_trial():
    from forgepulse.growth import _Workspace

    t = np.arange(len(SHORT_EPISODES), dtype=float)
    start = warm_start_oracle(t, SHORT_EPISODES, GrowthModel.LOGISTIC)
    segments = [SHORT_EPISODES, SHORT_EPISODES]
    starts = np.array([start, start])

    def rows(pairs):
        work = _Workspace(segments, starts, GrowthModel.LOGISTIC, len(pairs))
        work.load(np.array(pairs))
        return work

    alone = rows([1])
    alone.step()
    both = rows([0, 1])
    both.hess[0] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    both.damping[0] = 0.0  # with no damping the system stays singular
    theta0 = both.theta[0].copy()
    done, _ = both.step()
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


# The runaway ceiling.  A split segment's row stops once its y* passes
# RUNAWAY_CEILING times the segment's peak; with the constant at inf no row
# stops, and the search is the exhaustive one.

def uncapped():
    return mock.patch.object(growth, "RUNAWAY_CEILING", math.inf)


def had_a_stopped_row(segment, model):
    # Rows solve as they would in any batch, so this is what the search saw.
    return growth._fit_segments([segment], model, (), [growth.RUNAWAY_CEILING])[2][0]


def episode(draw, length):
    return logistic(length, draw(st.floats(10.0, 200.0)), draw(st.floats(0.05, 0.6)), draw(st.floats(2.0, 40.0)))


def with_noise(draw, values):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return values * (1.0 + 0.05 * rng.standard_normal(len(values)))


@st.composite
def noisy_two_episodes(draw, months=(24, 60)):
    n = draw(st.integers(*months))
    k = draw(st.integers(MIN_SEGMENT_MONTHS, n - MIN_SEGMENT_MONTHS))
    first, second = episode(draw, k), episode(draw, n - k)
    return with_noise(draw, np.concatenate([first, first[-1] + second]))


@given(model=st.sampled_from(list(GrowthModel)), values=noisy_two_episodes())
@settings(max_examples=25, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_capped_search_reports_exact_fits_and_no_lower_sse(model, values):
    shipped = detect_biphase(values, model)
    with uncapped():
        expected = detect_biphase(values, model)
    assert (shipped is None) == (expected is None)
    if shipped is None:
        return
    k = shipped["breakpoint_index"]
    assert shipped["first"] == asdict(untruncated_fit(values[:k], model))
    assert shipped["second"] == asdict(untruncated_fit(values[k:], model))
    assert shipped["combined_sse"] >= expected["combined_sse"]
    k = expected["breakpoint_index"]
    if not any(had_a_stopped_row(segment, model) for segment in (values[:k], values[k:])):
        assert shipped == expected


# Dropped splits.  The search stops solving a split once one of its segments
# alone costs more than a split it has seen whole; the entry must be the one
# the search reports with every split solved.

@st.composite
def noisy_series(draw):
    """24-120 noisy months of one or two episodes, maybe after zeros or with a flat stretch."""
    if draw(st.booleans()):
        values = draw(noisy_two_episodes(months=(24, 120)))
    else:
        values = with_noise(draw, episode(draw, draw(st.integers(24, 120))))
    n = len(values)
    values[:draw(st.integers(0, n // 4))] = 0.0
    start, length = draw(st.integers(0, n - 1)), draw(st.integers(0, n // 2))
    values[start:start + length] = values[start]
    return values


@given(model=st.sampled_from(list(GrowthModel)), values=noisy_series())
@settings(max_examples=30, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dropping_splits_leaves_the_entry_as_with_every_split_solved(model, values):
    assert detect_biphase(values, model) == unpruned_biphase(values, model)


def long_two_episodes():
    # Two episodes over 400 months, where the unpruned search's work grows as n^2.
    n = 400
    t = np.arange(n, dtype=float)
    values = 40 / (1 + np.exp(-0.12 * (t - 0.25 * n))) + 60 / (1 + np.exp(-0.12 * (t - 0.7 * n)))
    return values * (1.0 + 0.03 * np.random.default_rng(5).standard_normal(n))


def test_a_long_search_drops_most_of_its_rows():
    values, t_offset = long_two_episodes(), MonthKey(1990, 1)
    result, pruned = row_trials(detect_biphase, values, GrowthModel.GOMPERTZ, t_offset)
    expected, unpruned = row_trials(unpruned_biphase, values, GrowthModel.GOMPERTZ, t_offset)
    assert result == expected
    assert pruned <= 0.4 * unpruned


def test_the_ceiling_still_cuts_a_long_pruned_search():
    # The pruning drops most rows the ceiling would stop; on a long history it still stops many.
    values = long_two_episodes()
    result, capped = row_trials(detect_biphase, values, GrowthModel.GOMPERTZ)
    with uncapped():
        expected, without = row_trials(detect_biphase, values, GrowthModel.GOMPERTZ)
    assert result == expected
    assert capped <= 0.9 * without


def exponential(rate, seed):
    # Still rising exponentially after 72 months: the ceiling is not identified.
    rng = np.random.default_rng(seed)
    return 5.0 * np.exp(rate * np.arange(72)) * (1.0 + 0.03 * rng.standard_normal(72))


def shipped_series(name):
    return np.asarray(json.loads((DATA_DIR / f"{name}.json").read_text())["values"], dtype=float)


SINGLE_FIT_SERIES = {
    **{f"exponential-{rate}": exponential(rate, seed) for seed, rate in enumerate((0.03, 0.05, 0.08))},
    **{name: shipped_series(name) for name in ("gompertz_noisy", "logistic_noisy", "biphase_noisy")},
}


# The certificate: a fit of a window, restricted to a window inside it, is a
# fit of that one, so each window's SSE is at most its envelope's.  Where the
# solver stops in a local minimum, the envelope is lower; the winner must not
# depend on it.

def assert_the_winner_holds(values, model):
    result = detect_biphase(values, model)
    breakpoint_index, combined = envelope_biphase(values, model)
    assert result["breakpoint_index"] == breakpoint_index or math.isclose(
        result["combined_sse"], combined, rel_tol=1e-9)


@pytest.mark.parametrize("model", list(GrowthModel), ids=lambda m: m.value)
@pytest.mark.parametrize("name", ["biphase_noisy", "gompertz_noisy", "logistic_noisy"])
def test_the_winner_holds_against_the_restriction_envelope(name, model):
    assert_the_winner_holds(shipped_series(name), model)


# Two series on which the winner does not hold.  In the first (Gompertz), the
# runaway ceiling stopped the best start of split 13, the envelope's winner, so
# split 12 wins: the exception the README states for the ceiling.  In the
# second (logistic), window (26, 48)'s five starts end in a local minimum at an
# SSE of 1278.4, where the fit of an enclosing window, restricted to it, reaches
# 1049.1, so split 12 wins over split 26.  Either remedy changes the bits of
# reported fits.  Strict: once neither fails, the test fails until the mark goes.
@given(model=st.sampled_from(list(GrowthModel)), values=noisy_two_episodes(months=(48, 120)))
@example(model=GrowthModel.GOMPERTZ, values=np.array([
    3.36484223, 3.38284612, 3.54194943, 3.30288712, 4.26174813, 4.29195712, 4.14275137, 4.53319803,
    4.58216193, 4.54442171, 5.06576573, 4.90846217, 8.59225374, 10.28084592, 13.68142564, 16.61308021,
    20.94741866, 23.30861182, 27.40535978, 28.42368967, 32.90522267, 33.12989387, 34.19057708, 34.85249557,
    32.73196815, 36.03122721, 38.37381205, 32.01354287, 31.89642802, 32.31403216, 36.43085805, 35.19523186,
    36.86217532, 36.24363577, 35.35069025, 35.48059096, 34.68764177, 36.50425785, 33.00922876, 34.2476451,
    35.41067685, 38.13698152, 33.64854773, 33.09825113, 34.00050414, 36.6814092, 34.57477975, 37.3025489]))
@example(model=GrowthModel.LOGISTIC, values=np.array([
    3.47371022, 2.95674141, 3.56148648, 4.03487923, 3.66672409, 4.07050912, 4.52708999, 4.10941812,
    4.70177248, 5.11760364, 4.93763306, 5.39201898, 18.85473508, 25.78236953, 37.15956388, 45.19712299,
    65.9681083, 76.28484812, 82.34800804, 102.9578395, 107.78794039, 107.12310202, 108.42761324, 116.00912063,
    105.99845628, 109.12630761, 123.77416155, 118.66656116, 124.12324451, 118.2494983, 127.08528817, 111.11645092,
    124.45619293, 123.06687169, 124.40560282, 127.0747396, 115.62544152, 117.96056476, 129.6315924, 125.37884749,
    123.71566408, 109.56751314, 129.18869459, 120.8215121, 123.29774856, 107.68384559, 119.73471644, 104.13248666]))
@settings(max_examples=25, deadline=None)
@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the runaway ceiling and local minima can each move the winner off the envelope's")
def test_the_winner_holds_against_the_restriction_envelope_on_two_episode_series(model, values):
    assert_the_winner_holds(values, model)


@pytest.mark.parametrize("model", list(GrowthModel), ids=lambda m: m.value)
@pytest.mark.parametrize("name", list(SINGLE_FIT_SERIES))
def test_the_ceiling_reaches_no_single_fit(name, model):
    # With the ceiling at the peak every row is past it, yet fit_growth and
    # the search's whole-series fit, for the single-fit BIC, stay as they are.
    values = SINGLE_FIT_SERIES[name]
    with uncapped():
        expected = fit_growth(values, model)
        whole = untruncated_fit(values, model)
    calls = []

    def recorded(segments, *args):
        fits = fit_segments(segments, *args)
        calls.append({len(segment): fits[0](i) for i, segment in enumerate(segments)})  # the whole series: length n
        return fits

    fit_segments = growth._fit_segments
    with mock.patch.object(growth, "RUNAWAY_CEILING", 1.0), mock.patch.object(growth, "_fit_segments", recorded):
        assert fit_growth(values, model) == expected
        detect_biphase(values, model)
    assert calls[1][len(values)] == whole  # calls[0] is fit_growth's


@pytest.mark.parametrize("model", list(GrowthModel), ids=lambda m: m.value)
def test_the_winner_is_refit_only_when_the_ceiling_stopped_one_of_its_rows(model):
    # The winner's second segment has a start whose y* runs away, so its two
    # segments are solved again, in one more call.
    with mock.patch.object(growth, "_solve", wraps=growth._solve) as solve:
        result = detect_biphase(SERIES["leading-zeros"], model)
    assert result is not None and solve.call_count == 2
    assert len(solve.call_args_list[1].args[0]) <= 2 * len(growth.RATE_START_FACTORS)


def row_trials(search, *args):
    """What ``search(*args)`` returns, and the live rows summed over its solves' trial steps."""
    trials = []
    step = growth._Workspace.step

    def counted(work):
        trials.append(work.count)
        return step(work)

    with mock.patch.object(growth._Workspace, "step", counted):
        result = search(*args)
    return result, sum(trials)


def split_segments(values):
    """The segments of every split that detect_biphase fits, in its order."""
    segments = []
    for k in range(MIN_SEGMENT_MONTHS, len(values) - MIN_SEGMENT_MONTHS + 1):
        for segment in (values[:k], values[k:]):
            with contextlib.suppress(GrowthFitError):  # as detect_biphase skips it
                segments.append(growth._checked(segment))
    return segments


@pytest.mark.parametrize("model", list(GrowthModel), ids=lambda m: m.value)
def test_the_ceiling_cuts_the_searchs_row_trials(model):
    # Every split segment, none dropped, so the ceiling alone makes the difference.
    segments = split_segments(shipped_series("biphase_noisy"))
    _, capped = row_trials(growth._fit_segments, segments, model, (), [growth.RUNAWAY_CEILING] * len(segments))
    _, exhaustive = row_trials(growth._fit_segments, segments, model, ())
    assert capped <= 0.85 * exhaustive


def exhaustive_row_trials(values, model):
    """Row-trials of solving every split segment and the whole series, with no ceiling and none dropped."""
    return row_trials(growth._fit_segments, split_segments(values) + [growth._checked(values)], model, ())[1]


@pytest.mark.parametrize("model", list(GrowthModel), ids=lambda m: m.value)
def test_dropping_splits_that_cannot_win_cuts_the_searchs_row_trials(model):
    values = shipped_series("biphase_noisy")
    _, pruned = row_trials(detect_biphase, values, model)
    assert pruned <= 0.35 * exhaustive_row_trials(values, model)


@pytest.mark.parametrize("model", list(GrowthModel), ids=lambda m: m.value)
@pytest.mark.parametrize("name", ["leading-zeros", "biphase_noisy"])
def test_a_segment_is_flagged_exactly_when_the_ceiling_ended_one_of_its_rows(name, model):
    # _fit_segments counts a row that _solve reports unconverged before its
    # MAX_ITERATIONS-th iteration as one the ceiling stopped.  So a flagged
    # segment has a row that ended above its ceiling, short of the uncapped
    # row's SSE, and an unflagged segment's rows are the uncapped rows.
    values = SERIES[name] if name in SERIES else shipped_series(name)
    segments = [segment for segment in split_segments(values) if np.ptp(segment) > 0]  # a constant one has no rows
    solved = []

    def recorded(*args):
        solved.append(_solve(*args))
        return solved[-1]

    with mock.patch.object(growth, "_solve", recorded):
        _, _, stopped = growth._fit_segments(segments, model, (), [growth.RUNAWAY_CEILING] * len(segments))
        growth._fit_segments(segments, model, ())
    (theta, sse, iterations, converged), exhaustive = solved
    per_segment = len(growth.RATE_START_FACTORS)
    log_ceilings = np.repeat([math.log(growth.RUNAWAY_CEILING * segment.max()) for segment in segments], per_segment)
    same = np.array([
        theta[row].tobytes() == exhaustive[0][row].tobytes() and sse[row] == exhaustive[1][row]
        and iterations[row] == exhaustive[2][row] and converged[row] == exhaustive[3][row]
        for row in range(len(sse))
    ])
    ended = ~same & (theta[:, 0] > log_ceilings) & (sse >= exhaustive[1]) & (iterations < growth.MAX_ITERATIONS)
    assert np.all(same | ended)
    assert stopped == [bool(ended[i * per_segment:(i + 1) * per_segment].any()) for i in range(len(segments))]
    assert any(stopped) and not all(stopped)


# The search reads each window's facts from one pass per fact over the series,
# and computes warm starts without np.polyfit; both must be the per-segment
# calls' bit for bit.

@st.composite
def awkward_series(draw):
    """Up to 40 values with zeros, leading zeros, negatives, NaN, constant runs
    and maybe a subnormal first value."""
    value = st.floats(0.0, 1e3) | st.sampled_from([0.0, -2.5, math.nan])
    values = np.asarray(draw(st.lists(value, min_size=1, max_size=40)))
    start, length = draw(st.integers(0, len(values) - 1)), draw(st.integers(0, 10))
    values[start:start + length] = values[start]
    values = np.concatenate([np.zeros(draw(st.integers(0, 5))), values])
    if draw(st.booleans()):
        values[0] = 2.2250738585072e-309
    return values


@given(values=awkward_series(), cuts=st.lists(st.integers(1, 44), max_size=6))
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_window_facts_are_the_per_segment_calls(values, cuts):
    # The search's prefix and suffix windows, then the windows between cuts, as
    # _fit_segments lays a list of segments end to end.
    n = len(values)
    edges = sorted({0, n, *(cut for cut in cuts if cut < n)})
    windows = [(0, k) for k in range(1, n + 1)] + [(k, n) for k in range(1, n)] + list(zip(edges, edges[1:]))
    starts, stops = np.array(windows).T
    accepted, peaks, rising, firsts = growth._window_facts(values, starts, stops)
    for i, (start, stop) in enumerate(windows):
        segment = values[start:stop]
        try:
            growth._checked(segment)
        except GrowthFitError:
            assert not accepted[i]
        else:
            assert accepted[i]
        assert np.array_equal(peaks[i], np.max(segment), equal_nan=True)
        assert rising[i] == (np.ptp(segment) > 0)
        positive = np.flatnonzero(segment > 0)
        assert firsts[i] == positive[0] if len(positive) else firsts[i] >= len(segment)


warm_segment = st.lists(st.floats(0.0, 1e3), min_size=2, max_size=40).filter(lambda values: max(values) > 0)


@given(
    model=st.sampled_from(list(GrowthModel)),
    segments=st.lists(warm_segment, min_size=1, max_size=6),
    loads=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
# The first half of the rise has one point, so the first half of the positive
# points stands in; a single positive value leaves no slope at all.
@example(model=GrowthModel.GOMPERTZ, segments=[[1.0, 100.0, 100.0, 100.0, 100.0, 100.0]], loads=1, seed=0)
@example(model=GrowthModel.LOGISTIC, segments=[[0.0, 0.0, 7.0, 0.0, 0.0]], loads=1, seed=0)
@example(model=GrowthModel.LOGISTIC, segments=[[2.2250738585072e-309, 0.0, 3.0, 5.0, 9.0]], loads=1, seed=0)
# Equal rises, as windows of one series often have.
@example(model=GrowthModel.GOMPERTZ, segments=[[1.0, 2.0, 4.0, 8.0, 16.0]] * 2 + [[1.0, 2.0, 4.0, 8.0, 16.0, 3.0]],
         loads=2, seed=1)
@settings(max_examples=100, deadline=None)
def test_a_loads_warm_starts_are_the_per_segment_polyfit_starts(model, segments, loads, seed):
    segments = [np.asarray(segment) for segment in segments]
    offsets = np.cumsum([0, *map(len, segments)])
    _, peaks, _, firsts = growth._window_facts(np.concatenate(segments), offsets[:-1], offsets[1:])
    starts = growth._warm_starts(segments, peaks, firsts, model)
    rows = np.random.default_rng(seed).permutation(len(segments) * len(growth.RATE_START_FACTORS))
    for load in np.array_split(rows, loads):  # the solver asks for each load's rows as it loads them
        expected = [_start(segments[row // len(growth.RATE_START_FACTORS)], model,
                           growth.RATE_START_FACTORS[row % len(growth.RATE_START_FACTORS)]) for row in load]
        assert starts[load].tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("model", list(GrowthModel), ids=lambda m: m.value)
def test_the_search_builds_only_the_fits_it_reports(model):
    # Ranking reads the solver's SSEs: the winner's two fits are built (and the
    # whole series' fit only if it is constant), plus the refits; no segment
    # is passed to _checked or np.polyfit.
    values = shipped_series("biphase_noisy")
    refit = []
    fit_segments = growth._fit_segments

    def recorded(segments, *args):
        refit.append(len(segments))
        return fit_segments(segments, *args)

    with mock.patch.object(growth, "GrowthFit", wraps=growth.GrowthFit) as built, \
            mock.patch.object(growth, "_checked", wraps=growth._checked) as checked, \
            mock.patch.object(np, "polyfit", wraps=np.polyfit) as polyfit, \
            mock.patch.object(growth, "_fit_segments", recorded):
        result = detect_biphase(values, model)
    assert result == unpruned_biphase(values, model)
    assert built.call_count <= 3 + sum(refit[1:])
    assert checked.call_count == 0 and polyfit.call_count == 0
