import json
import os
import subprocess
from unittest import mock

import pytest

from forgepulse import ingest as ingest_module
from forgepulse import pipeline
from forgepulse.cli import main
from forgepulse.pipeline import ProjectSource, RunConfig, run_pipeline

from conftest import DATA_DIR, make_line


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ingest_from_log_file(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    code, _, err = run_cli(
        capsys, "ingest", "--log", str(DATA_DIR / "fixture_500.log"), "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 500
    record = json.loads(lines[0])
    assert set(record) == {"hash", "author_email", "author_name", "authored_at", "is_merge"}
    report = json.loads(err)
    assert report["records_parsed"] == 500
    assert report["records_skipped"] == 0
    assert report["records_written"] == 500
    assert report["merge_policy"] == "excluded"


def test_ingest_lenient_tallies_and_strict_fails(tmp_path, capsys):
    log = tmp_path / "messy.log"
    log.write_text(make_line(1) + "\n" + "corrupted\n" + make_line(2) + "\n")
    out = tmp_path / "records.jsonl"
    code, _, err = run_cli(capsys, "ingest", "--log", str(log), "--out", str(out))
    assert code == 0
    assert json.loads(err)["skip_reasons"] == {"bad field count": 1}

    code, _, err = run_cli(capsys, "ingest", "--log", str(log), "--strict", "--out", str(out))
    assert code == 1
    assert "line 2" in err


def test_ingest_from_repo_drops_merges(tmp_path, capsys, repo_builder):
    repo = repo_builder()
    repo.commit(date="2015-01-10T00:00:00+00:00")
    repo.commit(date="2015-01-20T00:00:00+00:00")
    repo.branch_and_merge(date="2015-02-01T00:00:00+00:00")
    out = tmp_path / "records.jsonl"
    code, _, err = run_cli(capsys, "ingest", "--repo", str(repo.root), "--out", str(out))
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 3 and all(not r["is_merge"] for r in records)
    report = json.loads(err)
    assert (report["records_parsed"], report["records_written"]) == (4, 3)
    assert report["merge_policy"] == "excluded"

    with pytest.raises(SystemExit):  # merges cannot be asked for
        main(["ingest", "--repo", str(repo.root), "--include-merges", "--out", str(out)])


def test_ingest_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "ingest", "--log", str(DATA_DIR / "fixture_500.log"), "--out", "-"
    )
    assert code == 0
    assert len(out.splitlines()) == 500


def test_series_metrics_fit_chain(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    series = tmp_path / "series.json"
    metrics = tmp_path / "metrics.json"
    fit = tmp_path / "fit.json"

    assert run_cli(capsys, "ingest", "--log", str(DATA_DIR / "fixture_500.log"),
                   "--out", str(records))[0] == 0
    assert run_cli(capsys, "series", "--in", str(records), "--out", str(series))[0] == 0
    data = json.loads(series.read_text())
    assert data["origin"] == "2015-01"
    assert len(data["points"]) == 12

    assert run_cli(capsys, "metrics", "--series", str(series), "--out", str(metrics))[0] == 0
    metrics_data = json.loads(metrics.read_text())
    assert metrics_data["spearman"]["rho"] == pytest.approx(120 / 143, abs=1e-6)
    assert metrics_data["diversity"]["diversity"] == pytest.approx(1.47442, abs=1e-4)
    assert metrics_data["window"] == "all"

    assert run_cli(capsys, "fit", "--series", str(series), "--model", "both",
                   "--out", str(fit))[0] == 0
    fit_data = json.loads(fit.read_text())
    assert set(fit_data["model_fits"]) == {"gompertz", "logistic"}
    sidecar = (tmp_path / "fit.csv").read_text().splitlines()
    assert sidecar[0] == "t,month,observed,smoothed,fitted_gompertz,fitted_logistic"
    assert len(sidecar) == 13


def test_metrics_window_flag(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    series = tmp_path / "series.json"
    metrics = tmp_path / "metrics.json"
    run_cli(capsys, "ingest", "--log", str(DATA_DIR / "fixture_500.log"), "--out", str(records))
    run_cli(capsys, "series", "--in", str(records), "--out", str(series))
    code, _, _ = run_cli(capsys, "metrics", "--series", str(series),
                         "--window", "last3", "--out", str(metrics))
    assert code == 0
    assert json.loads(metrics.read_text())["window"] == "3"

    for bad in ("sometimes", "lastx", "last0", "last-3"):
        code, _, err = run_cli(capsys, "metrics", "--series", str(series),
                               "--window", bad, "--out", str(metrics))
        assert code == 2
        assert err == f"config error: bad --window {bad!r}: use 'all' or 'lastN' with N >= 1\n"


def test_series_group_providers(tmp_path, capsys):
    log = tmp_path / "provider.log"
    log.write_text(
        "\n".join(
            make_line(i, email=f"dev{i}@gmail.com", stamp="2015-01-10T00:00:00+00:00")
            for i in range(3)
        )
        + "\n"
    )
    records = tmp_path / "records.jsonl"
    series = tmp_path / "series.json"
    run_cli(capsys, "ingest", "--log", str(log), "--out", str(records))
    run_cli(capsys, "series", "--in", str(records), "--group-providers", "--out", str(series))
    data = json.loads(series.read_text())
    assert data["points"][0]["org_commits"] == {"individuals": 3}
    assert data["points"][0]["active_contributors"] == 3


def test_series_group_providers_flag_overrides_the_identity_file(tmp_path, capsys):
    log = tmp_path / "provider.log"
    log.write_text(
        "\n".join(
            make_line(i, email=f"dev{i}@gmail.com", stamp="2015-01-10T00:00:00+00:00")
            for i in range(3)
        )
        + "\n"
    )
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps({"group_providers": False}))
    records = tmp_path / "records.jsonl"
    run_cli(capsys, "ingest", "--log", str(log), "--out", str(records))
    for flags, org_commits in (
        ([], {f"dev{i}@gmail.com": 1 for i in range(3)}),
        (["--group-providers"], {"individuals": 3}),
    ):
        series = tmp_path / "series.json"
        code, _, _ = run_cli(capsys, "series", "--in", str(records), "--identity-config", str(identity), *flags,
                             "--out", str(series))
        assert code == 0
        assert json.loads(series.read_text())["points"][0]["org_commits"] == org_commits


def test_run_and_summary_commands(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "projects": [{"name": "fixture", "log": str(DATA_DIR / "fixture_500.log")}],
                "out_dir": str(tmp_path / "out"),
            }
        )
    )
    code, _, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 0
    assert "warning" in err  # fixture is below eligibility thresholds

    summary_json = tmp_path / "out" / "fixture" / "summary.json"
    merged_csv = tmp_path / "merged.csv"
    code, out, _ = run_cli(capsys, "summary", str(summary_json), "--out-csv", str(merged_csv))
    assert code == 0
    assert merged_csv.read_text().count("\n") == 2

    code, out, _ = run_cli(capsys, "summary", str(summary_json))
    assert code == 0
    assert "fixture" in out


def test_a_dead_worker_fails_only_its_project(tmp_path, monkeypatch, capsys):
    def config(workers):
        path = tmp_path / f"run{workers}.json"
        path.write_text(json.dumps({
            "projects": [{"name": name, "log": str(DATA_DIR / "fixture_500.log")} for name in ("a", "b")],
            "out_dir": str(tmp_path / f"out{workers}"),
            "workers": workers,
        }))
        return str(path)

    assert run_cli(capsys, "run", "--config", config(1))[0] == 0
    run_project = pipeline.run_project

    def die_in_b(source, config):  # forked workers inherit it
        if source.name == "b":
            os._exit(9)  # no result and no exception, as when the OOM killer ends a worker
        return run_project(source, config)

    monkeypatch.setattr(pipeline, "run_project", die_in_b)
    # Temp files that no worker of this run wrote: another name, and the
    # name of a writer whose pid is outside the pool.
    (tmp_path / "out2" / "a").mkdir(parents=True)
    foreign = [tmp_path / "out2" / "a" / name for name in (".notes.tmp", f".series.json.{os.getpid()}.0123abcd.tmp")]
    for path in foreign:
        path.write_text("kept")
    code, _, err = run_cli(capsys, "run", "--config", config(2))
    assert code == 1
    died = "worker process died (exit code 9)"
    assert [line for line in err.splitlines() if line.startswith("error")] == [f"error: b: {died}"]
    out = tmp_path / "out2"
    assert json.loads((out / "run_report.json").read_text())["projects"] == {
        "a": {"status": "ok", "error": None}, "b": {"status": "error", "error": died},
    }
    assert [line.split(",")[0] for line in (out / "summary.csv").read_text().splitlines()] == ["project", "a"]
    assert (out / "summary.txt").exists()
    for artifact in (tmp_path / "out1" / "a").iterdir():
        assert (out / "a" / artifact.name).read_bytes() == artifact.read_bytes(), artifact.name
    # Neither b's worker nor the worker its death killed left a temp file.
    assert sorted((out / "a").glob("*.tmp")) + sorted((out / "b").glob("*.tmp")) == sorted(foreign)
    assert all(path.read_text() == "kept" for path in foreign)


def test_summary_command_rebuilds_the_run_tables_byte_for_byte(tmp_path, capsys):
    fixture = DATA_DIR / "fixture_500.log"
    acme = tmp_path / "acme.log"  # every other commit of the fixture
    acme.write_text("".join(fixture.read_text().splitlines(keepends=True)[::2]))
    out = tmp_path / "out"
    projects = (ProjectSource("fixture", log=fixture), ProjectSource("acme, inc", log=acme))  # a name CSV quotes
    assert run_pipeline(RunConfig(projects=projects, out_dir=out)).exit_code == 0

    inputs = [str(out / name / "summary.json") for name in ("fixture", "acme, inc")]  # not in table order
    code, _, _ = run_cli(capsys, "summary", *inputs, "--out-csv", str(tmp_path / "A"), "--out-text", str(tmp_path / "B"))
    assert code == 0
    assert (tmp_path / "A").read_bytes() == (out / "summary.csv").read_bytes()
    assert (tmp_path / "B").read_bytes() == (out / "summary.txt").read_bytes()
    assert b'"acme, inc"' in (tmp_path / "A").read_bytes()


GOOD_SUMMARY = {
    "project": "x", "total_contributors": 3, "total_orgs": 1, "mean_monthly_commits": 2.5,
    "active_contrib_range": [1, 2.5], "monthly_commit_range": [1, 4], "active_org_range": [1, 1],
    "spearman": None, "diversity": 1.0,
}


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"total_contributors": 3}', "missing or bad field 'project'"),
        ("[1, 2]", "summary must be a JSON object, got list"),
        ("project: x", "Expecting value: line 1 column 1 (char 0)"),
        (json.dumps({**GOOD_SUMMARY, "active_contrib_range": ["a", "b"]}),
         "missing or bad field 'active_contrib_range'"),
        (json.dumps({**GOOD_SUMMARY, "total_contributors": "3"}), "missing or bad field 'total_contributors'"),
    ],
    ids=["missing-field", "not-an-object", "not-json", "string-range", "string-total"],
)
def test_summary_bad_input_is_one_line_error(tmp_path, capsys, text, reason):
    path = tmp_path / "summary.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "summary", str(path))
    assert code == 1
    assert err == f"error: bad summary file {path}: {reason}\n"


def test_run_exit_code_on_failure(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "projects": [
                    {"name": "fixture", "log": str(DATA_DIR / "fixture_500.log")},
                    {"name": "broken", "log": str(tmp_path / "absent.log")},
                ],
                "out_dir": str(tmp_path / "out"),
            }
        )
    )
    code, _, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 1
    assert "broken" in err


@pytest.mark.parametrize("key", ["workers", "smoothing_window"])
def test_run_non_integer_config_field_is_usage_error(tmp_path, capsys, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "projects": [{"name": "fixture", "log": str(DATA_DIR / "fixture_500.log")}],
        key: "two",
    }))
    code, _, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 2
    assert err == f"config error: {key} must be an integer, got 'two'\n"


GOOD_RECORD = json.dumps({
    "hash": "a" * 40, "author_email": "alice@intel.com", "author_name": "Alice",
    "authored_at": "2015-03-10T14:22:05+00:00", "is_merge": False,
})


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ('{"hash": "x"}', "error: line 3: missing field 'authored_at'\n"),
        ("not json", "error: line 3: bad JSON: Expecting value\n"),
        (GOOD_RECORD.replace("2015-03-10T14:22:05+00:00", "yesterday"), "error: line 3: bad timestamp\n"),
        ("[1, 2]", "error: line 3: bad record: list indices must be integers or slices, not str\n"),
    ],
    ids=["missing-field", "not-json", "bad-timestamp", "not-an-object"],
)
def test_series_bad_jsonl_line_is_typed_error(tmp_path, capsys, bad_line, message):
    records = tmp_path / "records.jsonl"
    records.write_text(GOOD_RECORD + "\n\n" + bad_line + "\n" + GOOD_RECORD + "\n")
    code, _, err = run_cli(capsys, "series", "--in", str(records), "--out", str(tmp_path / "series.json"))
    assert code == 1
    assert err == message


def test_run_empty_config_is_usage_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text('{"projects": []}')
    code, _, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 2
    assert "config error" in err


def test_cache_env_reuses_acquired_log(tmp_path, capsys, repo_builder, monkeypatch):
    repo = repo_builder()
    for day in (1, 2, 3, 4):
        repo.commit(date=f"2015-03-0{day}T12:00:00+00:00")
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("FORGEPULSE_CACHE", str(cache_dir))

    out = tmp_path / "records.jsonl"
    assert run_cli(capsys, "ingest", "--repo", str(repo.root), "--out", str(out))[0] == 0
    cached = list(cache_dir.glob("*.log"))
    assert len(cached) == 1
    first = out.read_text()

    # history unchanged: the cached log must serve the same records without git log
    def no_acquire(*args, **kwargs):
        raise AssertionError("log acquired again")

    monkeypatch.setattr(pipeline, "acquire_repo_log", no_acquire)
    out2 = tmp_path / "records2.jsonl"
    code, _, _ = run_cli(capsys, "ingest", "--repo", str(repo.root), "--out", str(out2))
    assert code == 0
    assert out2.read_text() == first


def test_cache_env_sees_new_commits(tmp_path, capsys, repo_builder, monkeypatch):
    repo = repo_builder()
    repo.commit(date="2015-03-01T12:00:00+00:00")
    monkeypatch.setenv("FORGEPULSE_CACHE", str(tmp_path / "cache"))
    out = tmp_path / "records.jsonl"

    def ingested():
        assert run_cli(capsys, "ingest", "--repo", str(repo.root), "--out", str(out))[0] == 0
        return [json.loads(line)["authored_at"] for line in out.read_text().splitlines()]

    assert ingested() == ["2015-03-01T12:00:00+00:00"]
    repo.commit(date="2015-04-01T12:00:00+00:00")
    assert sorted(ingested()) == ["2015-03-01T12:00:00+00:00", "2015-04-01T12:00:00+00:00"]
    assert len(list((tmp_path / "cache").iterdir())) == 1  # the superseded entry is gone

    # the ref state cannot be read: a one-line error, not a stale entry
    repo.root.rename(tmp_path / "repo-moved")
    code, _, err = run_cli(capsys, "ingest", "--repo", str(repo.root), "--out", str(out))
    assert code == 1
    assert err.startswith("error: fatal: cannot change to") and err.count("\n") == 1


def shallow_clone(tmp_path, repo_builder):
    """A ``--depth 1`` clone, over file://, of a repository with 5 commits."""
    origin = repo_builder()
    for day in range(1, 6):
        origin.commit(date=f"2015-03-0{day}T12:00:00+00:00")
    clone = tmp_path / "clone"
    subprocess.run(["git", "clone", "-q", "--depth", "1", f"file://{origin.root}", str(clone)],
                   check=True, capture_output=True)
    return clone


def ingested_count(repo):
    blocks, _ = pipeline.ingest(repo, None)
    return sum(map(len, blocks))


@pytest.mark.parametrize("deepen, commits", [(["--unshallow"], 5), (["--deepen", "1"], 2)])
def test_deepening_a_shallow_clone_makes_a_new_cache_entry(tmp_path, repo_builder, monkeypatch, deepen, commits):
    # Deepening rewrites the clone's shallow file and moves no ref.
    clone = shallow_clone(tmp_path, repo_builder)
    monkeypatch.setenv("FORGEPULSE_CACHE", str(tmp_path / "cache"))
    assert ingested_count(clone) == 1
    subprocess.run(["git", "-C", str(clone), "fetch", "-q", *deepen], check=True, capture_output=True)
    assert ingested_count(clone) == commits
    monkeypatch.delenv("FORGEPULSE_CACHE")
    assert ingested_count(clone) == commits


def test_an_unchanged_shallow_clone_is_served_from_the_cache(tmp_path, repo_builder, monkeypatch):
    clone = shallow_clone(tmp_path, repo_builder)
    monkeypatch.setenv("FORGEPULSE_CACHE", str(tmp_path / "cache"))
    assert ingested_count(clone) == 1
    monkeypatch.setattr(pipeline, "acquire_repo_log", mock.Mock(side_effect=AssertionError("log acquired again")))
    assert ingested_count(clone) == 1


def test_pipeline_and_cli_ingest_agree(tmp_path, capsys):
    offsets = ["+00:00", "+05:30", "-08:00"]
    lines = [make_line(i, stamp=f"2015-{1 + i % 12:02d}-10T00:00:00{'Z' if i % 4 == 2 else offsets[i % 3]}",
                       email=f"dev{i % 5}@org{i % 3}.com", parents=2 if i % 4 == 0 else 1)
             for i in range(60)]
    lines[7] = "corrupted"
    log = tmp_path / "mixed.log"
    log.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cli"
    out.mkdir()
    # What ingest writes from offset and Z stamps, merges dropped, series
    # reads a block at a time, never a line at a time.
    with mock.patch.object(ingest_module, "record_from_dict", side_effect=AssertionError("read a line at a time")):
        for argv in (["ingest", "--log", str(log), "--out", str(out / "records.jsonl")],
                     ["series", "--in", str(out / "records.jsonl"), "--out", str(out / "series.json")],
                     ["metrics", "--series", str(out / "series.json"), "--window", "all",
                      "--out", str(out / "metrics.json")]):
            assert run_cli(capsys, *argv)[0] == 0
    config = RunConfig(projects=(ProjectSource("mixed", log=log),), out_dir=tmp_path / "run")
    assert run_pipeline(config).exit_code == 0

    records = (out / "records.jsonl").read_bytes()
    assert len(records.splitlines()) == 44  # 59 parsed, 15 of them merges
    assert b'"is_merge": true' not in records
    assert sum(p["commits"] for p in json.loads((out / "series.json").read_text())["points"]) == 44
    for name in ("records.jsonl", "series.json", "metrics.json"):
        assert (tmp_path / "run" / "mixed" / name).read_bytes() == (out / name).read_bytes(), name


def test_a_commit_landing_while_git_runs_leaves_no_cache_entry(tmp_path, capsys, repo_builder, monkeypatch):
    repo = repo_builder()
    repo.commit(date="2015-03-01T12:00:00+00:00")
    first = repo.root.joinpath(".git", "refs", "heads", "main").read_text().strip()
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("FORGEPULSE_CACHE", str(cache_dir))
    out = tmp_path / "records.jsonl"
    acquire, acquired = pipeline.acquire_repo_log, []

    def ingested():
        assert run_cli(capsys, "ingest", "--repo", str(repo.root), "--out", str(out))[0] == 0
        return sorted(json.loads(line)["authored_at"] for line in out.read_text().splitlines())

    def racing(path):
        # The ref state was read before git started: this commit is not in it.
        repo.commit(date="2015-04-01T12:00:00+00:00")
        acquired.append(path)
        yield from acquire(path)

    monkeypatch.setattr(pipeline, "acquire_repo_log", racing)
    assert ingested() == ["2015-03-01T12:00:00+00:00", "2015-04-01T12:00:00+00:00"]  # the lines git gave
    assert not list(cache_dir.glob("*.log"))

    # Back at the first state, the next run acquires again and sees one commit;
    # an entry kept from the race would have served two.
    def counted(path):
        acquired.append(path)
        yield from acquire(path)

    monkeypatch.setattr(pipeline, "acquire_repo_log", counted)
    repo._run("update-ref", "refs/heads/main", first)
    assert ingested() == ["2015-03-01T12:00:00+00:00"]
    assert len(acquired) == 2 and len(list(cache_dir.glob("*.log"))) == 1
    assert ingested() == ["2015-03-01T12:00:00+00:00"]
    assert len(acquired) == 2  # served from the entry
