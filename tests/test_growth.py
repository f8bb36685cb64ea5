import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forgepulse import (
    GrowthFitError,
    GrowthModel,
    MonthKey,
    PhaseLabel,
    classify_phase,
    detect_biphase,
    fit_growth,
    model_value,
)
from forgepulse import growth
from forgepulse.growth import GrowthFit, _solve

from oracles import curve, initial_value, lm_minimize_oracle, ode_rhs, warm_start_oracle


def gompertz_params(y_star=100.0, alpha=0.05, shape=5.0):
    return curve(GrowthModel.GOMPERTZ, y_star, alpha, shape)


def logistic_params(y_star=500.0, alpha=0.12 / 500.0, shape=50.0):
    return curve(GrowthModel.LOGISTIC, y_star, alpha, shape)


def test_params_must_be_positive():
    with pytest.raises(GrowthFitError):
        GrowthFit(GrowthModel.GOMPERTZ, -1.0, 0.1, 1.0, sse=0.0, r_squared=1.0, iterations=1, converged=True)
    with pytest.raises(GrowthFitError):
        GrowthFit(GrowthModel.LOGISTIC, 1.0, 0.0, 1.0, sse=0.0, r_squared=1.0, iterations=1, converged=True)


def test_initial_condition_identities():
    gp = gompertz_params()
    assert model_value(0.0, gp) == pytest.approx(gp.y_star * math.exp(-gp.shape), rel=1e-12)
    assert model_value(0.0, gp) == pytest.approx(initial_value(gp), rel=1e-12)
    lp = logistic_params()
    assert model_value(0.0, lp) == pytest.approx(lp.y_star / (1 + lp.shape), rel=1e-12)


def test_asymptote_is_y_star():
    for params in (gompertz_params(), logistic_params()):
        assert model_value(1e7, params) == pytest.approx(params.y_star, rel=1e-9)


def rk4(rhs, y0, t_end, steps):
    h = t_end / steps
    y = y0
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def test_gompertz_value_matches_rk4_integration():
    params = gompertz_params()
    expected = rk4(lambda y: ode_rhs(y, params), initial_value(params), 40.0, 4000)
    value = model_value(40.0, params)
    assert value == pytest.approx(100.0 * math.exp(-5.0 * math.exp(-2.0)), rel=1e-12)
    assert value == pytest.approx(expected, rel=1e-8)


def test_logistic_value_matches_rk4_integration():
    params = logistic_params(y_star=200.0, alpha=0.001, shape=20.0)
    expected = rk4(lambda y: ode_rhs(y, params), initial_value(params), 30.0, 4000)
    assert model_value(30.0, params) == pytest.approx(expected, rel=1e-8)


PARAM_GRID = [
    (model, y_star, alpha)
    for model in (GrowthModel.GOMPERTZ, GrowthModel.LOGISTIC)
    for y_star in (10.0, 100.0, 1000.0)
    for alpha in (0.01, 0.05, 0.2)
]


@pytest.mark.parametrize("model,y_star,alpha", PARAM_GRID, ids=str)  # str(GrowthModel.X) names the member
def test_closed_form_satisfies_ode(model, y_star, alpha):
    # finite differences of the closed form against the stated rate equation
    if model is GrowthModel.LOGISTIC:
        alpha = alpha / y_star  # keep the effective rate alpha*y_star moderate
    params = curve(model, y_star, alpha, 5.0)
    rate = alpha if model is GrowthModel.GOMPERTZ else alpha * y_star
    span = 12.0 / rate  # covers the rise
    t = np.linspace(span * 0.01, span, 100)
    h = 1e-4 / rate
    derivative = (model_value(t + h, params) - model_value(t - h, params)) / (2 * h)
    expected = ode_rhs(model_value(t, params), params)
    assert np.all(np.abs(derivative - expected) <= 1e-6 * np.abs(expected) + 1e-12 * y_star)


@given(
    model=st.sampled_from([GrowthModel.GOMPERTZ, GrowthModel.LOGISTIC]),
    y_star=st.floats(1.0, 1e4),
    rate=st.floats(0.01, 0.5),
    shape=st.floats(0.1, 10.0),
)
@settings(max_examples=100)
def test_strictly_increasing_and_bounded(model, y_star, rate, shape):
    alpha = rate if model is GrowthModel.GOMPERTZ else rate / y_star
    params = curve(model, y_star, alpha, shape)
    t = np.linspace(0.0, 24.0 / rate, 200)
    values = model_value(t, params)
    assert np.all(np.diff(values) > 0)
    assert np.all(values < y_star)


def synthetic(params, n=120):
    return model_value(np.arange(n, dtype=float), params)


@pytest.mark.parametrize(
    "params",
    [gompertz_params(), logistic_params()],
    ids=["gompertz", "logistic"],
)
def test_noiseless_recovery_within_one_percent(params):
    fit = fit_growth(synthetic(params), params.model)
    assert fit.converged
    assert fit.y_star == pytest.approx(params.y_star, rel=0.01)
    assert fit.alpha == pytest.approx(params.alpha, rel=0.01)
    assert fit.shape == pytest.approx(params.shape, rel=0.01)
    assert fit.r_squared > 0.9999


@pytest.mark.parametrize("name", ["gompertz_noisy", "logistic_noisy"])
def test_noisy_recovery_from_shipped_vectors(name, data_dir):
    payload = json.loads((data_dir / f"{name}.json").read_text())
    true = payload["true_params"]
    fit = fit_growth(payload["values"], GrowthModel(payload["model"]))
    assert fit.y_star == pytest.approx(true["y_star"], rel=0.10)
    assert fit.alpha == pytest.approx(true["alpha"], rel=0.10)
    assert fit.shape == pytest.approx(true["shape"], rel=0.10)
    assert fit.r_squared > 0.95


@pytest.mark.parametrize("model", list(GrowthModel), ids=lambda m: m.value)
@pytest.mark.parametrize("constants", [{}, {"MAX_ITERATIONS": 3}], ids=["default", "iteration-limit"])
def test_solver_takes_the_scalar_loops_steps(model, constants, data_dir, monkeypatch):
    # The solver's row sums round differently from the loop's BLAS products,
    # so the two agree step for step only where no accept or stop decision
    # falls within rounding of its threshold.  On these noisy series none
    # does: every start ends with the loop's iteration count and convergence.
    for name, value in constants.items():
        monkeypatch.setattr(growth, name, value)
    rng = np.random.default_rng(7)
    series = [synthetic(gompertz_params()) * (1 + 0.05 * rng.standard_normal(120))] + [
        np.asarray(json.loads((data_dir / f"{name}.json").read_text())["values"])
        for name in ("gompertz_noisy", "logistic_noisy")
    ]
    for values in series:
        t = np.arange(len(values), dtype=float)
        base = warm_start_oracle(t, values, model)
        starts = np.array([(base[0], base[1] * factor, base[2]) for factor in growth.RATE_START_FACTORS])
        theta, sse, iterations, converged = _solve([values] * len(starts), starts, model)
        for row, start in enumerate(starts):
            expected = lm_minimize_oracle(t, values, model, start)
            assert (iterations[row], converged[row]) == expected[2:4]
            assert sse[row] == pytest.approx(expected[1], rel=1e-9)
            assert theta[row] == pytest.approx(expected[0], rel=1e-6, abs=1e-9)


def test_constant_series_rate_unidentifiable():
    fit = fit_growth([7.0] * 12, GrowthModel.GOMPERTZ)
    assert not fit.converged
    assert any("rate unidentifiable" in note for note in fit.notes)
    assert fit.y_star == pytest.approx(7.0, rel=1e-6)
    assert fit.r_squared == 0.0


def test_fit_errors():
    with pytest.raises(GrowthFitError):
        fit_growth([1.0] * 7, GrowthModel.GOMPERTZ)  # too short
    with pytest.raises(GrowthFitError):
        fit_growth([0.0] * 12, GrowthModel.GOMPERTZ)  # all zero
    with pytest.raises(GrowthFitError):
        fit_growth([1.0] * 11 + [-1.0], GrowthModel.GOMPERTZ)


def test_accepted_sse_never_increases(monkeypatch):
    rng = np.random.default_rng(7)
    values = synthetic(gompertz_params()) * (1 + 0.05 * rng.standard_normal(120))
    steps = []

    def recorded(work):
        before = work.sse[:work.count].copy()
        result = step(work)
        steps.append((before, work.sse[:len(before)].copy()))
        return result

    step = growth._Workspace.step
    monkeypatch.setattr(growth._Workspace, "step", recorded)
    for model in (GrowthModel.GOMPERTZ, GrowthModel.LOGISTIC):
        steps.clear()
        fit_growth(values, model)
        assert steps
        for before, after in steps:
            assert np.all(after <= before)


def test_time_shift_equivariance_gompertz():
    params = gompertz_params()
    values = synthetic(params)
    shift = 12
    fit = fit_growth(values[shift:], GrowthModel.GOMPERTZ)
    assert fit.y_star == pytest.approx(params.y_star, rel=1e-4)
    assert fit.alpha == pytest.approx(params.alpha, rel=1e-4)
    expected_shape = params.shape * math.exp(-params.alpha * shift)
    assert fit.shape == pytest.approx(expected_shape, rel=1e-4)


def test_time_shift_equivariance_logistic():
    params = logistic_params()
    values = synthetic(params)
    shift = 10
    fit = fit_growth(values[shift:], GrowthModel.LOGISTIC)
    assert fit.y_star == pytest.approx(params.y_star, rel=1e-4)
    assert fit.alpha == pytest.approx(params.alpha, rel=1e-4)
    expected_shape = params.shape * math.exp(-params.alpha * params.y_star * shift)
    assert fit.shape == pytest.approx(expected_shape, rel=1e-4)


def test_value_scaling_scales_y_star_only():
    params = gompertz_params()
    fit = fit_growth(3.5 * synthetic(params), GrowthModel.GOMPERTZ)
    assert fit.y_star == pytest.approx(3.5 * params.y_star, rel=1e-4)
    assert fit.alpha == pytest.approx(params.alpha, rel=1e-4)
    assert fit.shape == pytest.approx(params.shape, rel=1e-4)


def test_t_offset_is_carried():
    fit = fit_growth(synthetic(gompertz_params()), GrowthModel.GOMPERTZ, t_offset=MonthKey(2012, 6))
    assert fit.t_offset == "2012-06"


def manual_fit(y_star):
    return GrowthFit(
        GrowthModel.GOMPERTZ, y_star, 0.1, 2.0,
        sse=0.0,
        r_squared=1.0,
        iterations=1,
        converged=True,
    )


def test_phase_stationary():
    values = [50, 70, 85, 92, 94, 95, 95, 95]
    assert classify_phase(values, manual_fit(100.0)) is PhaseLabel.STATIONARY


def test_phase_decline():
    values = [10, 20, 40, 60, 70, 65, 55, 45, 35, 25]
    assert classify_phase(values, manual_fit(100.0)) is PhaseLabel.DECLINE


def test_phase_exponential():
    values = [5, 10, 18, 28, 38, 50]
    assert classify_phase(values, manual_fit(100.0)) is PhaseLabel.EXPONENTIAL


def test_phase_lag():
    values = [2, 2, 2, 2, 2, 2]
    assert classify_phase(values, manual_fit(100.0)) is PhaseLabel.LAG


def test_below_the_inflection_value_the_data_decide_the_phase():
    # y* = 100 puts the Gompertz inflection value at 36.8, above both series'
    # peaks: y* is not identified, so the label follows the trailing growth.
    fit = manual_fit(100.0)
    assert classify_phase([1, 1, 2, 2, 3, 3], fit) is PhaseLabel.EXPONENTIAL
    assert classify_phase([2, 2, 2, 2, 2, 2], fit) is PhaseLabel.LAG
    for values in ([1, 1, 2, 2, 3, 3], [2, 2, 2, 2, 2, 2]):
        assert "ceiling not identified" in growth.phase_reason(values, fit)
    # Past the inflection value, or declining, the fitted ceiling or the decline test decides.
    assert growth.phase_reason([5, 10, 18, 28, 38, 50], fit) is None
    assert growth.phase_reason([10, 20, 40, 60, 70, 65, 55, 45, 35, 25], fit) is None
    assert classify_phase([2, 2, 2, 2, 2, 2], manual_fit(2.1)) is PhaseLabel.STATIONARY


def still_exponential(rate, months, noise, seed):
    rng = np.random.default_rng(seed)
    return 5.0 * np.exp(rate * np.arange(months)) * (1.0 + noise * rng.standard_normal(months))


@pytest.mark.parametrize("model", list(GrowthModel), ids=lambda m: m.value)
@pytest.mark.parametrize("seed, rate", enumerate((0.03, 0.05, 0.08)))
def test_a_still_exponential_community_is_not_lag(seed, rate, model):
    # 72 months of 5 e^(rt) with 3% noise: the fitted y* is far above the
    # peak, and an extrapolated ceiling used to label every one of these Lag.
    values = still_exponential(rate, 72, 0.03, seed)
    fit = fit_growth(values, model)
    assert classify_phase(values, fit) is PhaseLabel.EXPONENTIAL
    assert growth.phase_reason(values, fit).startswith("ceiling not identified")


@given(
    model=st.sampled_from(list(GrowthModel)),
    rate=st.floats(0.03, 0.12),
    months=st.integers(24, 96),
    noise=st.floats(0.0, 0.03),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_a_rising_exponential_series_is_never_lag(model, rate, months, noise, seed):
    values = still_exponential(rate, months, noise, seed)
    assert classify_phase(values, fit_growth(values, model)) is not PhaseLabel.LAG


def test_phase_needs_six_months():
    with pytest.raises(GrowthFitError):
        classify_phase([1, 2, 3], manual_fit(10.0))


def test_phase_thresholds_configurable(monkeypatch):
    values = [5, 10, 18, 28, 38, 50]
    monkeypatch.setattr(growth, "STATIONARY_FRACTION", 0.4)
    assert classify_phase(values, manual_fit(100.0)) is PhaseLabel.STATIONARY


def test_decline_truncates_fit_at_peak():
    params = gompertz_params(y_star=80.0, alpha=0.15, shape=4.0)
    rise = synthetic(params, n=30)
    fall = rise[-1] - 4.0 * np.arange(1, 13)
    values = np.concatenate([rise, fall])
    fit = fit_growth(values, GrowthModel.GOMPERTZ)
    assert fit.truncated_at == 29
    assert any("truncated" in note for note in fit.notes)
    assert fit.y_star == pytest.approx(params.y_star, rel=0.05)


def test_low_confidence_note_for_tiny_communities():
    params = gompertz_params(y_star=10.0, alpha=0.1, shape=3.0)
    fit = fit_growth(synthetic(params, 40), GrowthModel.GOMPERTZ)
    assert any("low confidence" in note for note in fit.notes)


def two_episode_series():
    first = model_value(np.arange(36, dtype=float), logistic_params(40.0, 0.25 / 40.0, 19.0))
    second = model_value(np.arange(36, dtype=float), logistic_params(120.0, 0.2 / 120.0, 5.0))
    return np.concatenate([first, second])


def test_biphase_recovers_junction():
    result = detect_biphase(two_episode_series(), GrowthModel.LOGISTIC, t_offset=MonthKey(2010, 1))
    assert result is not None
    assert result["preferred"] is True
    assert abs(result["breakpoint_index"] - 36) <= 3
    assert result["breakpoint"] == str(MonthKey(2010, 1).shift(result["breakpoint_index"]))
    assert result["combined_sse"] <= result["first"]["sse"] + result["second"]["sse"] + 1e-9


def test_biphase_rejects_single_episode():
    values = synthetic(gompertz_params(), n=60)
    result = detect_biphase(values, GrowthModel.GOMPERTZ)
    assert result is not None
    assert result["preferred"] is False


def test_biphase_constant_series_not_preferred():
    result = detect_biphase([5.0] * 40, GrowthModel.GOMPERTZ)
    assert result is None or result["preferred"] is False


def test_biphase_too_short_returns_none():
    assert detect_biphase([1.0] * 20, GrowthModel.GOMPERTZ) is None


@pytest.mark.parametrize("model", list(GrowthModel), ids=lambda m: m.value)
@pytest.mark.parametrize("values", [5.0, np.ones((30, 2))], ids=["scalar", "2-D"])
def test_a_series_not_1d_ends_in_a_typed_error_or_none(values, model):
    with pytest.raises(GrowthFitError, match=r"need a 1-D series, got shape \("):
        fit_growth(values, model)
    assert detect_biphase(values, model) is None
