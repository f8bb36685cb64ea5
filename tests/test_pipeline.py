import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from forgepulse import (
    CommitRecord,
    ConfigError,
    EligibilityThresholds,
    MonthKey,
    ProjectSource,
    RunConfig,
    build_monthly_series,
    compute_metrics,
    load_run_config,
    run_pipeline,
    summarize,
)
from forgepulse.jsonio import dumps_stable
from forgepulse.pipeline import summary_csv, summary_text
from forgepulse.series import MonthlyPoint, MonthlySeries

from conftest import DATA_DIR, series_of, sha_for, utc


def fixture_series():
    with (DATA_DIR / "fixture_500.log").open() as handle:
        from forgepulse import parse_log_stream

        blocks, _ = parse_log_stream(handle, blocks=True)
        return build_monthly_series(blocks)


def test_summary_row_on_fixture():
    series = fixture_series()
    report = compute_metrics(series)
    summary = summarize(series, report, project="fixture")
    assert summary.total_contributors == 12
    assert summary.total_orgs == 3
    assert summary.diversity == pytest.approx(1.47442, abs=1e-5)
    assert summary.spearman == pytest.approx(120 / 143, abs=1e-12)
    assert summary.mean_monthly_commits == pytest.approx(500 / 12)
    lo, hi = summary.monthly_commit_range
    assert 18 <= lo <= hi <= 62


def test_summary_degenerate_single_contributor():
    records = [
        CommitRecord(sha_for(i), "solo@x.com", "Solo", utc(2015, 1 + i, 1), False)
        for i in range(3)
    ]
    series = series_of(records)
    report = compute_metrics(series)
    summary = summarize(series, report, project="solo")
    # one commit every month: both monthly series are constant
    assert summary.spearman is None
    assert summary.spearman_reason is not None
    assert summary.diversity == pytest.approx(1.0)


def test_summary_small_community_ranges():
    # a community holding 5-10 active contributors, 50-100 commits, 1-5 orgs
    points = []
    for i in range(24):
        active = 5 + (i * 3) % 6
        commits = 50 + (i * 17) % 51
        orgs = 1 + (i * 2) % 5
        points.append(
            MonthlyPoint(
                month=MonthKey(2014, 1).shift(i),
                active_contributors=active,
                commits=commits,
                active_orgs=orgs,
                org_commits={f"org{k}.com": commits // orgs + (1 if k < commits % orgs else 0)
                             for k in range(orgs)},
            )
        )
    series = MonthlySeries(
        points=tuple(points),
        origin=MonthKey(2014, 1),
        contributor_commits={f"dev{i}@site{i % 7}.com": 20 for i in range(80)},
    )
    summary = summarize(series, compute_metrics(series), project="small")
    assert 5 <= summary.active_contrib_range[0] <= summary.active_contrib_range[1] <= 10
    assert 50 <= summary.monthly_commit_range[0] <= summary.monthly_commit_range[1] <= 100
    assert 1 <= summary.active_org_range[0] <= summary.active_org_range[1] <= 5
    assert summary.total_contributors == 80


def make_config(tmp_path, projects, **overrides):
    return RunConfig(
        projects=tuple(projects),
        out_dir=tmp_path / "out",
        **overrides,
    )


def test_run_pipeline_fixture_outputs(tmp_path):
    config = make_config(
        tmp_path, [ProjectSource(name="fixture", log=DATA_DIR / "fixture_500.log")]
    )
    outcome = run_pipeline(config)
    assert outcome.exit_code == 0
    project_dir = tmp_path / "out" / "fixture"
    for name in ("records.jsonl", "series.json", "metrics.json", "fit.json", "summary.json"):
        assert (project_dir / name).exists(), name
    series_data = json.loads((project_dir / "series.json").read_text())
    assert sum(p["commits"] for p in series_data["points"]) == 500
    summary_data = json.loads((project_dir / "summary.json").read_text())
    assert summary_data["diversity"] == pytest.approx(1.47442, abs=1e-4)
    assert summary_data["eligibility"]["eligible"] is False  # tiny fixture community
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "summary.txt").exists()


def test_run_pipeline_is_byte_deterministic(tmp_path):
    results = []
    for run in ("one", "two"):
        config = RunConfig(
            projects=(ProjectSource(name="fixture", log=DATA_DIR / "fixture_500.log"),),
            out_dir=tmp_path / run,
        )
        assert run_pipeline(config).exit_code == 0
        results.append(
            {
                path.relative_to(tmp_path / run): path.read_bytes()
                for path in sorted((tmp_path / run).rglob("*"))
                if path.is_file()
            }
        )
    assert results[0].keys() == results[1].keys()
    for key in results[0]:
        assert results[0][key] == results[1][key], key


def test_run_pipeline_partial_failure(tmp_path):
    config = make_config(
        tmp_path,
        [
            ProjectSource(name="good", log=DATA_DIR / "fixture_500.log"),
            ProjectSource(name="bad", log=tmp_path / "missing.log"),
        ],
    )
    outcome = run_pipeline(config)
    assert outcome.exit_code == 1
    by_name = {r.name: r for r in outcome.results}
    assert by_name["good"].error is None
    assert by_name["bad"].error is not None
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["projects"]["bad"]["status"] == "error"
    csv_text = (tmp_path / "out" / "summary.csv").read_text()
    assert csv_text.count("\n") == 2  # header + one surviving row


@pytest.mark.parametrize("workers", [1, 2])
def test_internal_error_stays_in_its_project(tmp_path, monkeypatch, workers):
    from forgepulse import growth

    marker = tmp_path / "failed-once"  # created once, so one call fails even across worker processes

    def fail_first_call(*args, **kwargs):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return None
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(growth, "detect_biphase", fail_first_call)
    config = make_config(
        tmp_path,
        [
            ProjectSource(name="a", log=DATA_DIR / "fixture_500.log"),
            ProjectSource(name="b", log=DATA_DIR / "fixture_500.log"),
        ],
        biphase=True,
        workers=workers,
    )
    outcome = run_pipeline(config)
    assert outcome.exit_code == 1
    errors = {r.name: r.error for r in outcome.results}
    failed = [name for name, error in errors.items() if error is not None]
    assert len(failed) == 1
    assert errors[failed[0]] == "internal error: LinAlgError: Singular matrix"
    (survivor,) = {"a", "b"} - set(failed)
    for artifact in ("series.json", "metrics.json", "fit.json", "fit.csv", "summary.json"):
        assert (tmp_path / "out" / survivor / artifact).exists()
    csv_lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in csv_lines[1:]] == [survivor]
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["projects"][failed[0]]["status"] == "error"
    assert report["projects"][survivor] == {"status": "ok", "error": None}


def test_run_pipeline_workers(tmp_path):
    config = make_config(
        tmp_path,
        [
            ProjectSource(name="a", log=DATA_DIR / "fixture_500.log"),
            ProjectSource(name="b", log=DATA_DIR / "fixture_500.log"),
        ],
        workers=2,
    )
    outcome = run_pipeline(config)
    assert outcome.exit_code == 0
    assert (tmp_path / "out" / "a" / "summary.json").exists()
    assert (tmp_path / "out" / "b" / "summary.json").exists()


def test_empty_project_list_rejected(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig(projects=(), out_dir=tmp_path)


def test_project_source_needs_one_input():
    with pytest.raises(ConfigError):
        ProjectSource(name="x")
    with pytest.raises(ConfigError):
        ProjectSource(name="x", repo=Path("a"), log=Path("b"))


def test_load_run_config(tmp_path):
    log = DATA_DIR / "fixture_500.log"
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "projects": [{"name": "fx", "log": str(log)}],
                "out_dir": "results",
                "thresholds": {"min_total_contributors": 5},
                "smoothing_window": 5,
                "model": "gompertz",
                "metrics_window": "last12",
                "workers": 2,
            }
        )
    )
    config = load_run_config(config_path)
    assert config.metrics_window == 12
    assert config.projects[0].log == log
    assert config.out_dir == tmp_path / "results"
    assert config.thresholds == EligibilityThresholds(5, 20, 100.0)
    assert config.smoothing_window == 5
    assert config.model == "gompertz"
    assert config.workers == 2


def test_load_run_config_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(ConfigError):
        load_run_config(path)
    path.write_text('{"projects": [{"log": "x.log"}]}')
    with pytest.raises(ConfigError):
        load_run_config(path)
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "absent.json")
    for window in ([12], "lastx", "last0", "last-3", 0):
        path.write_text(json.dumps({"projects": [{"name": "fx", "log": "x.log"}], "metrics_window": window}))
        with pytest.raises(ConfigError, match="metrics_window"):
            load_run_config(path)
    path.write_text('{"projects": [{"name": "fx", "log": "x.log"}], "thresholds": {"min_total_contributors": "five"}}')
    with pytest.raises(ConfigError, match="min_total_contributors"):
        load_run_config(path)
    path.write_text('{"projects": [{"name": "fx", "log": "x.log"}], "include_merges": true}')
    with pytest.raises(ConfigError, match="include_merges"):
        load_run_config(path)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"projects": ["x"]}, "projects must be a list of objects"),
        ({"projects": {"fx": {"log": "x.log"}}}, "projects must be a list of objects"),
        ({"projects": [{"name": 3, "log": "x.log"}]}, "project name must be a file name, got 3"),
        ({"projects": [{"name": "../fx", "log": "x.log"}]}, "project name must be a file name"),
        ({"projects": [{"name": "f\nx", "log": "x.log"}]}, "project name must be a file name"),
        ({"projects": [{"name": "fx", "log": 5}]}, "log must be a path string, got 5"),
        ({"projects": [{"name": "fx", "repo": ["r"]}]}, "repo must be a path string"),
        ({"projects": [{"name": "fx", "log": None}]}, "log must be a path string, got None"),
        ({"identity_config": 7}, "identity_config must be a path string"),
        ({"out_dir": False}, "out_dir must be a path string"),
        ({"strict": 1}, "strict must be true or false, got 1"),
        ({"biphase": "no"}, "biphase must be true or false, got 'no'"),
        ({"thresholds": [5]}, "bad thresholds"),
        ({"thresholds": {"min_contributors": 5}}, "bad thresholds"),
    ],
)
def test_load_run_config_checks_types(tmp_path, change, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"projects": [{"name": "fx", "log": "x.log"}], **change}))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_run_config(path)


def test_load_run_config_keeps_json_booleans(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"projects": [{"name": "fx", "log": "x.log"}], "strict": True, "biphase": False}))
    config = load_run_config(path)
    assert (config.strict, config.biphase) == (True, False)


@pytest.mark.parametrize("key", ["workers", "smoothing_window"])
@pytest.mark.parametrize("value", ["two", None, [3], float("inf")])
def test_load_run_config_non_integer_fields(tmp_path, key, value):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"projects": [{"name": "fx", "log": "x.log"}], key: value}))
    with pytest.raises(ConfigError, match=key):
        load_run_config(path)


def test_dumps_stable_is_sorted_and_six_digits():
    text = dumps_stable({"b": 0.8391608391608392, "a": 1, "c": [1 / 3]}, indent=None)
    assert text == '{"a": 1, "b": 0.839161, "c": [0.333333]}'
    assert dumps_stable(float("nan"), indent=None) == "null"


def test_summary_table_renderers():
    series = fixture_series()
    summary = summarize(series, compute_metrics(series), project="fixture")
    csv_text = summary_csv([summary])
    assert csv_text.splitlines()[0].startswith("project,total_contributors")
    assert "fixture" in csv_text
    text = summary_text([summary])
    assert "Project" in text and "fixture" in text
    assert "0.84" in text  # spearman rendered at 2 decimals
