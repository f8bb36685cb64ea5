import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forgepulse import (
    MetricError,
    MonthKey,
    contribution_tail,
    diversity,
    linear_trend,
    org_shares,
    spearman,
)
from forgepulse.metrics import MIN_TAIL_POINTS, average_ranks
from forgepulse.series import MonthlySeries

from oracles import contribution_tail_oracle, spearman_distinct_ranks


def one_month_series(org_commits):
    total = sum(org_commits.values())
    return MonthlySeries(
        points=(
            {
                "month": "2015-01",
                "active_contributors": max(1, len(org_commits)),
                "commits": total,
                "active_orgs": len(org_commits),
                "org_commits": dict(org_commits),
            },
        ),
        origin=MonthKey(2015, 1),
        contributor_commits={f"dev{i}@x.com": c for i, c in enumerate(org_commits.values())},
    )


def test_spearman_monotone_pair():
    assert spearman([1, 2, 3], [2, 4, 9])["rho"] == 1.0


def test_spearman_hand_value():
    result = spearman([1, 2, 3], [10, 30, 20])
    assert result["rho"] == 0.5
    assert result["n"] == 3
    assert result["used_tie_correction"] is False


def test_spearman_antimonotone_pair():
    assert spearman([1, 2, 3], [9, 4, 1])["rho"] == -1.0


def test_spearman_domain_errors():
    with pytest.raises(MetricError):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(MetricError):
        spearman([1], [2])
    with pytest.raises(MetricError):
        spearman([5, 5, 5], [1, 2, 3])
    with pytest.raises(MetricError):
        spearman([1, 2, 3], [7, 7, 7])


def test_spearman_with_ties_uses_average_ranks():
    # x ranks: (1.5, 1.5, 3); y ranks: (1, 2, 3); Pearson by hand = sqrt(3)/2
    result = spearman([4, 4, 9], [1, 2, 3])
    assert result["used_tie_correction"] is True
    assert result["rho"] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


def loop_average_ranks(values):
    """Reference: walk the sorted values, giving each tie group its mean rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@given(values=st.lists(st.integers(-5, 5), max_size=40))
def test_average_ranks_match_the_tie_group_walk(values):
    values = np.asarray(values, dtype=float)
    ranks, groups = average_ranks(values)
    assert np.array_equal(ranks, loop_average_ranks(values))
    assert groups == len(set(values.tolist()))


no_ties_pairs = st.integers(2, 50).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True),
        st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True),
    )
)


@given(pair=no_ties_pairs)
@settings(max_examples=200)
def test_spearman_matches_closed_form_without_ties(pair):
    x, y = pair
    assert spearman(x, y)["rho"] == pytest.approx(spearman_distinct_ranks(x, y), abs=1e-12)


@given(pair=no_ties_pairs)
@settings(max_examples=100)
def test_spearman_monotone_transform_invariance(pair):
    x, y = pair
    base = spearman(x, y)["rho"]
    cubed = [v**3 for v in x]  # strictly increasing on ints
    shifted = [7 * v + 3 for v in y]
    assert spearman(cubed, y)["rho"] == base
    assert spearman(x, shifted)["rho"] == base


@given(pair=no_ties_pairs)
@settings(max_examples=100)
def test_spearman_symmetry_and_negation(pair):
    x, y = pair
    assert spearman(x, y)["rho"] == spearman(y, x)["rho"]
    assert spearman(x, [-v for v in y])["rho"] == pytest.approx(-spearman(x, y)["rho"], abs=1e-12)


def test_trend_perfect_line():
    result = linear_trend([0, 1, 2, 3], [1, 3, 5, 7])
    assert result["slope"] == pytest.approx(2.0)
    assert result["intercept"] == pytest.approx(1.0)
    assert result["r_squared"] == pytest.approx(1.0)


def test_trend_constant_y_r_squared_zero():
    result = linear_trend([0, 1, 2], [5, 5, 5])
    assert result["slope"] == pytest.approx(0.0)
    assert result["r_squared"] == 0.0


def test_trend_hand_ols():
    result = linear_trend([0, 1, 2], [0, 1, 1])
    assert result["slope"] == pytest.approx(0.5)
    assert result["intercept"] == pytest.approx(1 / 6)
    assert result["r_squared"] == pytest.approx(0.75)


def test_trend_constant_x_is_error():
    with pytest.raises(MetricError):
        linear_trend([2, 2, 2], [1, 2, 3])


def test_org_shares_single_unit():
    assert org_shares(one_month_series({"x.com": 7})) == {"x.com": 1.0}


def test_org_shares_proportions():
    shares = org_shares(one_month_series({"a": 60, "b": 30, "c": 10}))
    assert shares == {"a": 0.6, "b": 0.3, "c": 0.1}


def test_org_shares_iaas_q1_2015():
    # top-5 counts scaled per mille: 7.3% / 5.0% / 4.7% / 4.6% / 1.6%
    counts = {"redhat.com": 73, "ibm.com": 50, "mirantis.com": 47,
              "hp.com": 46, "rackspace.com": 16, "other": 768}
    shares = org_shares(one_month_series(counts))
    assert shares["redhat.com"] == pytest.approx(0.073)
    assert shares["ibm.com"] == pytest.approx(0.050)
    assert shares["mirantis.com"] == pytest.approx(0.047)
    assert shares["hp.com"] == pytest.approx(0.046)
    assert shares["rackspace.com"] == pytest.approx(0.016)
    top5 = sum(v for k, v in shares.items() if k != "other")
    assert top5 == pytest.approx(0.232)


def test_org_shares_window():
    points = []
    for month, commits in ((1, {"a": 10}), (2, {"b": 10}), (3, {"b": 5, "c": 5})):
        points.append(
            {
                "month": str(MonthKey(2015, month)),
                "active_contributors": 1,
                "commits": sum(commits.values()),
                "active_orgs": len(commits),
                "org_commits": commits,
            }
        )
    series = MonthlySeries(points=tuple(points), origin=MonthKey(2015, 1))
    assert org_shares(series, "all") == {"a": 1 / 3, "b": 0.5, "c": 1 / 6}
    assert org_shares(series, 2) == {"b": 0.75, "c": 0.25}
    with pytest.raises(MetricError):
        org_shares(series, 0)


def test_org_shares_empty_window():
    series = MonthlySeries(
        points=(
            {"month": "2015-01", "active_contributors": 1, "commits": 1, "active_orgs": 1, "org_commits": {"a": 1}},
            {"month": "2015-02", "active_contributors": 0, "commits": 0, "active_orgs": 0, "org_commits": {}},
        ),
        origin=MonthKey(2015, 1),
    )
    with pytest.raises(MetricError):
        org_shares(series, 1)  # last month has no commits


def test_diversity_single_unit():
    result = diversity({"a": 1.0})
    assert result["simpson"] == 1.0
    assert result["diversity"] == 1.0
    assert result["n_units"] == 1


def test_diversity_uniform_four():
    result = diversity({k: 0.25 for k in "abcd"})
    assert result["simpson"] == pytest.approx(0.25)
    assert result["diversity"] == pytest.approx(2.0)


def test_diversity_hand_value():
    result = diversity({"a": 0.6, "b": 0.3, "c": 0.1})
    assert result["simpson"] == pytest.approx(0.46, abs=1e-12)
    assert result["diversity"] == pytest.approx(1.47442, abs=1e-5)


def test_diversity_rejects_bad_shares():
    with pytest.raises(MetricError):
        diversity({})
    with pytest.raises(MetricError):
        diversity({"a": 0.5, "b": 0.4})
    with pytest.raises(MetricError):
        diversity({"a": 1.5, "b": -0.5})


share_counts = st.lists(st.integers(1, 10**6), min_size=1, max_size=30)


@given(counts=share_counts)
@settings(max_examples=200)
def test_diversity_bounds_and_scale_freedom(counts):
    total = sum(counts)
    shares = {f"u{i}": c / total for i, c in enumerate(counts)}
    result = diversity(shares)
    n = result["n_units"]
    assert 1.0 - 1e-12 <= result["diversity"] <= math.sqrt(n) + 1e-12
    # scaling all counts leaves shares (hence S and D) unchanged
    scaled = {f"u{i}": (7 * c) / (7 * total) for i, c in enumerate(counts)}
    assert diversity(scaled)["diversity"] == pytest.approx(result["diversity"], rel=1e-12)


@given(counts=share_counts.filter(lambda c: len(c) >= 2))
@settings(max_examples=200)
def test_diversity_merge_monotonicity(counts):
    total = sum(counts)
    shares = [c / total for c in counts]
    base = diversity({f"u{i}": p for i, p in enumerate(shares)})
    merged_shares = [shares[0] + shares[1]] + shares[2:]
    merged = diversity({f"m{i}": p for i, p in enumerate(merged_shares)})
    # S grows by exactly 2*p*q, so D can only fall
    assert merged["simpson"] == pytest.approx(base["simpson"] + 2 * shares[0] * shares[1], rel=1e-9)
    assert merged["diversity"] <= base["diversity"] + 1e-12


def test_tail_equal_counts_error():
    with pytest.raises(MetricError, match="no tail variation"):
        contribution_tail([5] * 20)


def test_tail_too_few_contributors():
    with pytest.raises(MetricError):
        contribution_tail([1, 2, 3])


def test_tail_rejects_nonpositive():
    with pytest.raises(MetricError):
        contribution_tail([0] * 20)


def test_tail_hand_formula():
    counts = [1] * 90 + [10] * 9 + [100]
    result = contribution_tail(counts)
    assert result["x_min"] == 1
    assert result["n_tail"] == 100
    denominator = 90 * math.log(1 / 0.5) + 9 * math.log(10 / 0.5) + math.log(100 / 0.5)
    assert result["alpha_hat"] == pytest.approx(1.0 + 100 / denominator, rel=1e-12)


def sample_discrete_power_law(alpha, support_start, n, seed):
    # inverse-CDF sampling over a truncated zeta weight table; the truncation
    # mass beyond 10**6 is ~1e-9 for alpha = 2.5
    ks = np.arange(support_start, 10**6 + 1, dtype=float)
    cdf = np.cumsum(ks ** -alpha)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    return (np.searchsorted(cdf, rng.random(n), side="left") + support_start).astype(int)


def test_tail_recovers_synthetic_alpha():
    sample = sample_discrete_power_law(2.5, support_start=6, n=5000, seed=42)
    result = contribution_tail(sample.tolist())
    assert 2.3 <= result["alpha_hat"] <= 2.7
    assert result["n_tail"] >= 10


def test_tail_xmin_lowered_to_keep_ten_points():
    # median leaves plenty of points here; craft data where it does not
    counts = [1] * 5 + [2] * 4 + [50] * 6
    result = contribution_tail(counts)
    assert result["n_tail"] >= 10
    assert result["x_min"] <= 2


def _tail_or_error(function, counts):
    try:
        return function(counts)
    except MetricError as exc:
        return exc.reason


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(1, 12), min_size=8, max_size=40),  # many ties, short and flat tails
        st.lists(st.integers(1, 10**6), min_size=10, max_size=60),
        st.lists(st.integers(-2, 5), min_size=10, max_size=20),  # nonpositive counts
    )
)
def test_tail_x_min_expression_equals_the_lowering_search(counts):
    # The same alpha_hat bit for bit, x_min and n_tail, or the same error.
    assert _tail_or_error(contribution_tail, counts) == _tail_or_error(contribution_tail_oracle, counts)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(st.integers(1, 6), min_size=MIN_TAIL_POINTS, max_size=40),  # many ties
                 st.lists(st.integers(1, 10**6), min_size=MIN_TAIL_POINTS, max_size=60)))
def test_x_min_is_the_least_count_at_or_above_the_percentile_median(counts):
    xs = np.sort(np.asarray(counts, dtype=float))
    x_min = min(xs[np.searchsorted(xs, np.percentile(xs, 50.0))], xs[-MIN_TAIL_POINTS])
    tail = xs[xs >= x_min]
    try:
        result = contribution_tail(counts)
    except MetricError:
        assert tail.max() == tail.min()  # no tail variation
    else:
        assert (result["x_min"], result["n_tail"]) == (int(x_min), len(tail))
