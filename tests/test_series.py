import json
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forgepulse import (
    CommitRecord,
    EligibilityThresholds,
    MonthKey,
    SeriesError,
    build_monthly_series,
    check_eligibility,
    moving_average,
)
from forgepulse.cli import main
from forgepulse.pipeline import ingest
from forgepulse.series import load_series, series_from_dict, series_to_dict

from conftest import make_line, series_of, sha_for, utc


def record(tag, when, email="alice@x.com", merge=False):
    return CommitRecord(
        hash=sha_for(tag),
        author_email=email,
        author_name="A",
        authored_at=when,
        is_merge=merge,
    )


def test_two_commits_one_contributor_one_month():
    series = series_of(
        [record(1, utc(2015, 1, 15)), record(2, utc(2015, 1, 20))]
    )
    assert len(series.points) == 1
    point = series.points[0]
    assert point["active_contributors"] == 1
    assert point["commits"] == 2
    assert series.origin == MonthKey(2015, 1)


def test_interior_gap_becomes_zero_point():
    series = series_of([record(1, utc(2015, 1, 5)), record(2, utc(2015, 3, 5))])
    assert [p["month"] for p in series.points] == ["2015-01", "2015-02", "2015-03"]
    gap = series.points[1]
    assert gap["commits"] == 0
    assert gap["active_contributors"] == 0
    assert gap["active_orgs"] == 0
    assert gap["org_commits"] == {}


def test_multi_org_month():
    records = [
        record(1, utc(2015, 5, 3), "a@intel.com"),
        record(2, utc(2015, 5, 9), "b@intel.com"),
        record(3, utc(2015, 5, 12), "c@gmail.com"),
        record(4, utc(2015, 5, 20), "a@intel.com"),
    ]
    series = series_of(records)
    point = series.points[0]
    assert point["active_contributors"] == 3
    assert point["active_orgs"] == 2
    assert point["commits"] == 4
    assert point["org_commits"] == {"intel.com": 3, "c@gmail.com": 1}


def test_utc_bucketing_across_month_boundary():
    # 23:30 on Jan 31 at UTC-5 is Feb 1 in UTC
    late = datetime(2015, 1, 31, 23, 30, tzinfo=timezone(timedelta(hours=-5)))
    series = series_of([record(1, late.astimezone(timezone.utc))])
    assert series.origin == MonthKey(2015, 2)


def test_merges_are_ignored(tmp_path):
    log = tmp_path / "merge.log"
    log.write_text(make_line(1, stamp="2015-01-01T00:00:00+00:00") + "\n"
                   + make_line(2, stamp="2015-01-02T00:00:00+00:00", parents=2) + "\n")
    records, report = ingest(None, log)
    series = build_monthly_series(records)
    assert series.points[0]["commits"] == 1
    assert report.records_parsed == 2


def test_unparsable_email_falls_back_to_unknown_unit():
    series = series_of(
        [record(1, utc(2015, 1, 1), email="Not An Email"), record(2, utc(2015, 1, 2))]
    )
    point = series.points[0]
    assert point["commits"] == 2
    assert point["active_contributors"] == 2
    assert "not an email" in point["org_commits"]


def test_empty_input_is_an_error(tmp_path):
    with pytest.raises(SeriesError):
        build_monthly_series([])
    log = tmp_path / "merges-only.log"
    log.write_text(make_line(1, parents=2) + "\n" + make_line(2, parents=3) + "\n")
    with pytest.raises(SeriesError):
        build_monthly_series(ingest(None, log)[0])


def test_contributor_totals():
    series = series_of(
        [
            record(1, utc(2015, 1, 1), "a@x.com"),
            record(2, utc(2015, 2, 1), "a@x.com"),
            record(3, utc(2015, 2, 2), "b@y.com"),
        ]
    )
    assert series.contributor_commits == {"a@x.com": 2, "b@y.com": 1}
    assert series.total_contributors == 2
    assert series.total_orgs == 2
    assert series.total_commits == 3


month_stamps = st.tuples(
    st.integers(2010, 2018), st.integers(1, 12), st.integers(1, 28)
).map(lambda ymd: utc(*ymd))


@st.composite
def record_batches(draw):
    stamps = draw(st.lists(month_stamps, min_size=1, max_size=40))
    records = []
    for i, stamp in enumerate(stamps):
        email = draw(st.sampled_from(["a@x.com", "b@x.com", "c@y.org", "d@gmail.com"]))
        merge = draw(st.booleans()) if i % 3 == 0 else False
        records.append(record(i, stamp, email, merge))
    return records


@given(records=record_batches())
@settings(max_examples=100)
def test_conservation_and_gap_invariants(records):
    series = series_of(records)
    assert series.total_commits == len(records)
    indexes = [MonthKey.parse(p["month"]).index for p in series.points]
    assert indexes == list(range(indexes[0], indexes[-1] + 1))
    for point in series.points:
        assert point["commits"] == sum(point["org_commits"].values())
        assert (point["active_contributors"] >= 1) == (point["commits"] >= 1)
        assert point["active_orgs"] == len(point["org_commits"])


@given(records=record_batches(), seed=st.integers(0, 2**16))
@settings(max_examples=50)
def test_order_invariance(records, seed):
    shuffled = records[:]
    random.Random(seed).shuffle(shuffled)
    assert series_of(records) == series_of(shuffled)


@given(records=record_batches())
@settings(max_examples=50)
def test_activity_is_idempotent_per_contributor(records):
    series = series_of(records)
    for point in series.points:
        distinct = {
            r.author_email.strip().lower()
            for r in records
            if str(MonthKey(r.authored_at.year, r.authored_at.month)) == point["month"]
        }
        assert point["active_contributors"] == len(distinct)


def test_smooth_constant_is_fixed_point():
    assert moving_average([4, 4, 4, 4], 3) == [4, 4, 4, 4]


def test_smooth_edges_shrink():
    assert moving_average([1, 2, 3, 4], 3) == [1.5, 2, 3, 3.5]


def test_smooth_window_one_is_identity():
    values = [3, 1, 4, 1, 5]
    assert moving_average(values, 1) == values


@pytest.mark.parametrize("window", [0, -3, 2, 4])
def test_smooth_rejects_bad_window(window):
    with pytest.raises(SeriesError):
        moving_average([1, 2, 3], window)


@given(
    values=st.lists(st.integers(0, 1000), min_size=1, max_size=50),
    window=st.sampled_from([1, 3, 5, 7]),
)
def test_smooth_stays_within_window_bounds(values, window):
    out = moving_average(values, window)
    half = window // 2
    for i, smoothed in enumerate(out):
        lo, hi = max(0, i - half), min(len(values), i + half + 1)
        assert min(values[lo:hi]) - 1e-9 <= smoothed <= max(values[lo:hi]) + 1e-9


def test_smooth_on_series():
    series = series_of(
        [record(i, utc(2015, m, 1)) for i, m in enumerate([1, 1, 2, 3])]
    )
    assert moving_average(series.values("commits"), 3) == moving_average([2, 1, 1], 3)


class Totals:
    def __init__(self, contributors, orgs, rate):
        self.total_contributors = contributors
        self.total_orgs = orgs
        self.mean_monthly_commits = rate


def test_eligibility_pass():
    report = check_eligibility(Totals(370, 25, 400))
    assert report["eligible"]
    assert report["contributors_ok"] and report["orgs_ok"] and report["commit_rate_ok"]


def test_eligibility_fails_on_contributors():
    report = check_eligibility(Totals(80, 25, 400))
    assert not report["eligible"]
    assert not report["contributors_ok"]
    assert report["orgs_ok"] and report["commit_rate_ok"]


def test_eligibility_degenerate_thresholds():
    thresholds = EligibilityThresholds(0, 0, 0.0)
    assert check_eligibility(Totals(0, 0, 0.0), thresholds)["eligible"]


def test_month_key_ordering_and_arithmetic():
    assert MonthKey(2014, 12) < MonthKey(2015, 1) < MonthKey(2015, 2)
    assert MonthKey(2014, 12).shift(1) == MonthKey(2015, 1)
    assert MonthKey(2015, 1).shift(-1) == MonthKey(2014, 12)
    assert MonthKey.parse("2015-07") == MonthKey(2015, 7)
    assert str(MonthKey(2015, 7)) == "2015-07"
    with pytest.raises(SeriesError):
        MonthKey(2015, 13)
    with pytest.raises(SeriesError):
        MonthKey.parse("2015/07")


@given(index=st.integers(0, 12 * 4000))
def test_month_key_index_round_trip(index):
    key = MonthKey.from_index(index)
    assert key.index == index
    assert key.shift(1).index == index + 1


def test_series_json_round_trip():
    series = series_of(
        [
            record(1, utc(2015, 1, 1), "a@intel.com"),
            record(2, utc(2015, 3, 1), "b@gmail.com"),
        ]
    )
    assert series_from_dict(series_to_dict(series)) == series


def test_months_without_a_leading_zero_are_read_and_written_padded(tmp_path):
    path = tmp_path / "series.json"
    point = {"active_contributors": 1, "commits": 1, "active_orgs": 1, "org_commits": {"a.com": 1}}
    path.write_text(json.dumps({"origin": "2015-9", "points": [{**point, "month": f"2015-{m}"} for m in (9, 10, 11)]}))
    rewritten = series_to_dict(load_series(path))
    assert rewritten["origin"] == "2015-09"
    assert [p["month"] for p in rewritten["points"]] == ["2015-09", "2015-10", "2015-11"]
    assert main(["fit", "--series", str(path), "--out", str(tmp_path / "fit.json")]) == 0
    rows = (tmp_path / "fit.csv").read_text().splitlines()
    assert [row.split(",")[1] for row in rows[1:]] == ["2015-09", "2015-10", "2015-11"]
