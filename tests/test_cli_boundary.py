"""Arbitrary bytes at the command line, and a whole run against the stage
commands, both without network."""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import forgepulse
from forgepulse import ConfigError, RunConfig, load_run_config
from forgepulse.cli import main

from conftest import DATA_DIR, sha_for

SRC = Path(forgepulse.__file__).resolve().parents[1]

log_line = st.builds(
    lambda tag, stamp, email, parents: f"{sha_for(tag)}\t{stamp}\t{email}\tDév\t{parents}".encode(),
    st.integers(0, 50),
    st.sampled_from(["2015-03-10T14:22:05+05:30", "2015-03-10T14:22:05Z", "0001-01-01T00:10:00+05:30",
                     "9999-12-31T23:30:00-05:00", "2015-02-29T00:00:00Z", "yesterday"]),
    st.sampled_from(["a@intel.com", "b@gmail.com", "noat", ""]),
    st.sampled_from(["0", "1", "2", "-1"]),
)
jsonl_line = st.builds(
    lambda tag, stamp, email: json.dumps({
        "author_email": email, "author_name": "A", "authored_at": stamp, "hash": sha_for(tag), "is_merge": False,
    }).encode(),
    st.integers(0, 50),
    st.sampled_from(["2015-03-10T14:22:05+00:00", "9999-12-31T23:30:00-05:00", "x"]),
    st.one_of(st.sampled_from(["a@intel.com", "noat"]), st.integers(0, 3)),
)


def _with_bad_byte(data: bytes, at: int) -> bytes:
    at %= len(data) + 1
    return data[:at] + b"\xff" + data[at:]


byte_lines = st.one_of(
    log_line, log_line, jsonl_line, jsonl_line, st.binary(max_size=60),
    st.builds(_with_bad_byte, st.one_of(log_line, jsonl_line), st.integers(0, 200)),
)


@given(st.lists(byte_lines, max_size=8), st.sampled_from([b"\n", b"\r\n"]))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_input_ends_in_a_status_and_at_most_one_error_line(lines, newline):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "input"
        data.write_bytes(newline.join(lines))
        for argv in (
            ["ingest", "--log", str(data), "--out", str(tmp / "records.jsonl")],
            ["ingest", "--strict", "--log", str(data), "--out", str(tmp / "strict.jsonl")],
            ["series", "--in", str(data), "--out", str(tmp / "series.json")],
        ):
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err.getvalue()
            if code:
                assert err.getvalue().count("\n") == 1, err.getvalue()


def _cli(*argv, cwd=None, stdin=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "forgepulse.cli", *argv], capture_output=True, text=True,
                          env=env, cwd=cwd, stdin=stdin, timeout=120)


def test_importing_the_cli_leaves_subprocess_unloaded():
    # Only --repo and the log cache run git; every other command is spared
    # the import.
    probe = "import sys; {}print('subprocess' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare = subprocess.run([sys.executable, "-c", probe.format("")], capture_output=True, text=True, env=env)
    if bare.stdout != "False\n":
        pytest.skip("this interpreter loads subprocess at start-up")
    cli = subprocess.run([sys.executable, "-c", probe.format("import forgepulse.cli; ")],
                         capture_output=True, text=True, env=env)
    assert (cli.stdout, cli.stderr) == ("False\n", "")


def test_ingest_to_stdout_writes_the_bytes_of_the_out_file(tmp_path):
    log, records = DATA_DIR / "fixture_500.log", tmp_path / "records.jsonl"
    assert _cli("ingest", "--log", str(log), "--out", str(records)).returncode == 0
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "forgepulse.cli", "ingest", "--log", str(log), "--out", "-"],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == records.read_bytes()
    # A stand-in stdout that holds text has no buffer: it gets the same text.
    out = io.StringIO()
    with redirect_stderr(io.StringIO()), redirect_stdout(out):
        assert main(["ingest", "--log", str(log), "--out", "-"]) == 0
    assert out.getvalue() == records.read_text(encoding="ascii")


def test_bad_bytes_and_out_of_range_stamps_end_in_one_line(tmp_path):
    good = f"{sha_for(1)}\t2015-03-10T14:22:05+00:00\ta@intel.com\tA\t1\n"
    not_utf8 = tmp_path / "not-utf8.log"
    not_utf8.write_bytes(good.encode() + b"\xff" + good.encode())
    proc = _cli("ingest", "--log", str(not_utf8), "--out", str(tmp_path / "r.jsonl"))
    assert (proc.returncode, proc.stderr) == (1, "error: line 2: not UTF-8\n")

    early = tmp_path / "early.log"
    early.write_text(good + good.replace("2015-03-10T14:22:05+00:00", "0001-01-01T00:10:00+05:30"))
    proc = _cli("ingest", "--log", str(early), "--out", str(tmp_path / "r.jsonl"))
    assert proc.returncode == 0
    assert json.loads(proc.stderr)["skip_reasons"] == {"bad timestamp": 1}
    proc = _cli("ingest", "--strict", "--log", str(early), "--out", str(tmp_path / "r.jsonl"))
    assert (proc.returncode, proc.stderr) == (1, "error: line 2: bad timestamp\n")

    late = tmp_path / "late.jsonl"
    late.write_text('{"authored_at": "9999-12-31T23:30:00-05:00", "hash": "x"}\n')
    proc = _cli("series", "--in", str(late), "--out", str(tmp_path / "s.json"))
    assert (proc.returncode, proc.stderr) == (1, "error: line 1: bad timestamp\n")
    records = tmp_path / "records.jsonl"
    records.write_bytes(b'{"author_email": "\xff"}\n')
    proc = _cli("series", "--in", str(records), "--out", str(tmp_path / "s.json"))
    assert (proc.returncode, proc.stderr) == (1, "error: line 1: not UTF-8\n")

    config = tmp_path / "run.json"
    config.write_text(json.dumps({"projects": [{"name": "p", "log": str(not_utf8)}, {"name": "q", "log": str(early)}],
                                  "out_dir": str(tmp_path / "out")}))
    proc = _cli("run", "--config", str(config))
    assert proc.returncode == 1
    assert "error: p: line 2: not UTF-8\n" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "out" / "q" / "summary.json").exists()


def test_series_reads_records_from_stdin(tmp_path, monkeypatch):
    line = json.dumps({"author_email": "a@intel.com", "author_name": "Dév", "authored_at": "2015-03-10T14:22:05+00:00",
                       "hash": sha_for(1), "is_merge": False}) + "\n"
    records = tmp_path / "records.jsonl"
    records.write_text(line, encoding="utf-8")
    assert _cli("series", "--in", str(records), "--out", str(tmp_path / "file.json")).returncode == 0
    with records.open("rb") as stdin:
        proc = _cli("series", "--in", "-", "--out", str(tmp_path / "stdin.json"), stdin=stdin)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "stdin.json").read_bytes() == (tmp_path / "file.json").read_bytes()

    not_utf8 = tmp_path / "not-utf8.jsonl"
    not_utf8.write_bytes(line.encode() + b'{"author_name": "\xff"}\n')
    with not_utf8.open("rb") as stdin:
        proc = _cli("series", "--in", "-", "--out", str(tmp_path / "bad.json"), stdin=stdin)
    assert (proc.returncode, proc.stderr) == (1, "error: line 2: not UTF-8\n")

    # A stdin that is not a file, as when main() is called in-process.
    monkeypatch.setattr(sys, "stdin", io.StringIO(line))
    assert main(["series", "--in", "-", "--out", str(tmp_path / "text.json")]) == 0
    assert (tmp_path / "text.json").read_bytes() == (tmp_path / "file.json").read_bytes()


def test_run_over_a_repository_equals_ingest_then_series(tmp_path, repo_builder, monkeypatch):
    monkeypatch.delenv("FORGEPULSE_CACHE", raising=False)
    repo = repo_builder()
    repo.commit(email="alice@intel.com", name="Alice", date="2015-01-31T23:30:00-05:00")
    repo.commit(email="bob@gmail.com", name='Bøb "B" \\ Smith', date="2015-02-10T10:00:00+05:30")
    repo.commit(email="Carol@Apache.org", name="Carol", date="2015-04-01T00:00:00Z")
    repo.branch_and_merge(date="2015-04-02T00:00:00+02:00")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"projects": [{"name": "p", "repo": str(repo.root)}], "out_dir": str(tmp_path / "out")}))
    with redirect_stderr(io.StringIO()):
        assert main(["run", "--config", str(config)]) == 0
        assert main(["ingest", "--repo", str(repo.root), "--out", str(tmp_path / "records.jsonl")]) == 0
        assert main(["series", "--in", str(tmp_path / "records.jsonl"), "--out", str(tmp_path / "series.json")]) == 0
    for name in ("records.jsonl", "series.json"):
        assert (tmp_path / "out" / "p" / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert (tmp_path / "records.jsonl").read_text().count("\n") == 4  # the merge is dropped


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["all", "last12", "both", "x.log", "../x", "a\nb", "\ud800", "a\x00b"]),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


def documents(base: dict, values=json_values):
    """``base`` with some keys dropped and some set to arbitrary JSON, or any JSON value at all."""
    return json_values | st.builds(
        lambda drop, change: {**{k: v for k, v in base.items() if k not in drop}, **change},
        st.sets(st.sampled_from(list(base)), max_size=2),
        st.dictionaries(st.sampled_from(list(base)), values, max_size=3),
    )


PROJECT = {"name": "p", "log": "x.log", "repo": "."}
run_config = documents({
    "projects": [{"name": "p", "log": "x.log"}], "out_dir": "out", "identity_config": "identity.json",
    "thresholds": {"min_total_contributors": 5}, "smoothing_window": 3, "model": "both", "strict": False,
    "biphase": True, "metrics_window": "last12", "workers": 2, "include_merges": False,
}, json_values | st.lists(documents(PROJECT), max_size=3))
identity_config = documents({
    "provider_domains": ["gmail.com"], "virtual_org_domains": ["apache.org"],
    "domain_aliases": {"old.com": "new.com"}, "public_suffixes": ["co.uk"], "group_providers": False,
})


def _one_line_error(argv, codes):
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in codes, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()
    return code


@given(run_config, identity_config)
@example({"projects": [{"name": "p", "log": "x.log"}]}, {})
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_run_config_loads_or_is_one_config_error(document, identity):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(document))
        (Path(tmp) / "identity.json").write_text(json.dumps(identity))
        try:
            config = load_run_config(path)
        except ConfigError:
            _one_line_error(["run", "--config", str(path)], (2,))
        else:
            assert isinstance(config, RunConfig)


SUMMARY = {
    "project": "p", "total_contributors": 3, "total_orgs": 2, "mean_monthly_commits": 4.5,
    "active_contrib_range": [1, 3], "monthly_commit_range": [1.0, 9.0], "active_org_range": [1, 2],
    "spearman": 0.5, "spearman_reason": None, "diversity": None, "diversity_reason": "too few units",
    "notes": [], "merge_policy": "excluded",
}


@given(documents(SUMMARY))
@example(SUMMARY)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_summary_file_is_a_table_or_one_error(document):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "summary.json").write_text(json.dumps(document))
        argv = ["summary", str(tmp / "summary.json"), "--out-csv", str(tmp / "s.csv"), "--out-text", str(tmp / "s.txt")]
        if _one_line_error(argv, (0, 1)) == 0:
            assert (tmp / "s.txt").read_text(encoding="utf-8").count("\n") == 3  # header, rule, one row


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_number_in_a_json_input_ends_in_one_typed_error(tmp_path, number):
    config = tmp_path / "run.json"
    config.write_text(
        '{"projects": [{"name": "p", "log": "x.log"}], "thresholds": {"min_total_contributors": %s}}' % number
    )
    message = f"threshold min_total_contributors must be a finite number, got {float(number)!r}"
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["run", "--config", str(config)]) == 2
    assert err.getvalue() == f"config error: {message}\n"

    summary = tmp_path / "summary.json"
    for field in ("mean_monthly_commits", "spearman"):
        summary.write_text(json.dumps({**SUMMARY, field: float(number)}))  # json writes NaN, Infinity, -Infinity
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(["summary", str(summary), "--out-csv", str(tmp_path / "s.csv")]) == 1
        assert err.getvalue() == f"error: bad summary file {summary}: missing or bad field {field!r}\n"
        assert not (tmp_path / "s.csv").exists()


POINT = {"month": "2015-01", "active_contributors": 2, "commits": 3, "active_orgs": 1, "org_commits": {"intel.com": 3}}
SERIES = {
    "origin": "2015-01", "points": [POINT, {**POINT, "month": "2015-02", "commits": 1}],
    "contributor_commits": {"a@intel.com": 3, "b@intel.com": 1},
}


@pytest.mark.parametrize("command", ["fit", "metrics", "summary"])
def test_an_integer_no_float_can_hold_ends_in_one_line(tmp_path, command):
    # json reads integers of any size; 10**400 overflows a float.
    path = tmp_path / "input.json"
    if command == "summary":
        path.write_text(json.dumps({**SUMMARY, "spearman": 10**400}))
        argv, message = ["summary", str(path), "--out-csv", str(tmp_path / "s.csv")], "bad summary file"
        field = "spearman"
    else:
        path.write_text(json.dumps({**SERIES, "points": [{**POINT, "active_contributors": 10**400}]}))
        argv, message = [command, "--series", str(path), "--out", str(tmp_path / "out.json")], "bad series file"
        field = "active_contributors"
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(argv) == 1
    assert err.getvalue() == f"error: {message} {path}: missing or bad field {field!r}\n"


@given(documents(SERIES, json_values | st.lists(documents(POINT), max_size=3)))
@example(SERIES)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_series_file_is_read_or_one_error(document):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "series.json").write_text(json.dumps(document))
        for command in ("metrics", "fit"):
            _one_line_error([command, "--series", str(tmp / "series.json"), "--out", str(tmp / f"{command}.json")],
                            (0, 1))


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"points": [{"month": "2015-01"}], "origin": "2015-01"}', "missing or bad field 'active_contributors'"),
        ("[]", "series must be a JSON object, got list"),
        (json.dumps({**SERIES, "points": [{**POINT, "active_contributors": "x"}]}),
         "missing or bad field 'active_contributors'"),
        (json.dumps({**SERIES, "points": [{**POINT, "commits": 2.5}]}), "missing or bad field 'commits'"),
        (json.dumps({**SERIES, "points": [{**POINT, "org_commits": []}]}), "missing or bad field 'org_commits'"),
        (json.dumps({**SERIES, "points": []}), "series has no points"),
        (json.dumps({**SERIES, "origin": "2015-13"}), "bad month key '2015-13'"),
        ("\udcff", "can't decode byte 0xff"),
        ("[" * 100_000, "maximum recursion depth exceeded"),
        (json.dumps({**SERIES, "points": [{**POINT, "month": m} for m in ("2015-01", "2015-07", "2015-03", "2015-03")]}),
         "point 1 is month 2015-07, not 2015-02: months must be consecutive"),
        (json.dumps({**SERIES, "origin": "2014-12"}), "point 0 is month 2015-01, not 2014-12"),
    ],
    ids=["no-counts", "not-an-object", "text-count", "fractional-count", "org-commits-list", "no-points",
         "bad-origin", "not-utf8", "nested-too-deeply", "months-out-of-order", "origin-off-the-points"],
)
def test_a_bad_series_file_ends_in_one_line(tmp_path, text, reason):
    path = tmp_path / "series.json"
    path.write_text(text, errors="surrogateescape")
    for command in ("metrics", "fit"):
        err = io.StringIO()
        with redirect_stderr(err):
            code = main([command, "--series", str(path), "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert err.getvalue().startswith(f"error: bad series file {path}: ") and err.getvalue().count("\n") == 1
        assert reason in err.getvalue()


@pytest.mark.parametrize(
    "command, window, message",
    [("fit", "4", "--window must be odd and positive, got 4"), ("fit", "0", "--window must be odd and positive, got 0"),
     ("fit", "-3", "--window must be odd and positive, got -3"),
     ("metrics", "last0", "bad --window 'last0': use 'all' or 'lastN' with N >= 1")],
)
def test_a_bad_window_ends_in_one_config_error_before_the_series_is_read(tmp_path, command, window, message):
    err = io.StringIO()
    with redirect_stderr(err):  # the series file does not exist: reading it would be an i/o error, exit 1
        code = main([command, "--series", str(tmp_path / "missing.json"), "--window", window,
                     "--out", str(tmp_path / "out.json")])
    assert (code, err.getvalue()) == (2, f"config error: {message}\n")
    assert not (tmp_path / "out.json").exists()


def test_a_fit_report_at_its_sidecar_path_ends_in_one_config_error_before_the_series_is_read(tmp_path):
    out = str(tmp_path / "fit.csv")  # the .csv sidecar would be written over the report
    err = io.StringIO()
    with redirect_stderr(err):  # the series file does not exist: reading it would be an i/o error, exit 1
        code = main(["fit", "--series", str(tmp_path / "missing.json"), "--out", out])
    message = f"--out {out!r} would be overwritten by its .csv sidecar: give it another suffix"
    assert (code, err.getvalue()) == (2, f"config error: {message}\n")
    assert not (tmp_path / "fit.csv").exists()


def test_config_type_errors_end_in_one_line(tmp_path):
    (tmp_path / "identity.json").write_text(json.dumps({"provider_domain": ["gmail.com"]}))
    for document, message in (
        ({"projects": ["x"]}, "projects must be a list of objects"),
        ({"projects": [{"name": "p", "log": 5}]}, "log must be a path string, got 5"),
        ({"projects": [{"name": 3, "log": "x.log"}]}, "project name must be a file name, got 3"),
        ({"projects": [{"name": "p", "log": "x.log"}], "biphase": "no"}, "biphase must be true or false, got 'no'"),
        ({"projects": [{"name": "p", "log": "x.log"}], "workers": 2.9}, "workers must be an integer, got 2.9"),
        ({"projects": [{"name": "p", "log": "x.log"}], "smoothing_window": True},
         "smoothing_window must be an integer, got True"),
        ({"projects": [{"name": "a", "log": "x.log"}, {"name": "a", "log": "y.log"}]}, "duplicate project name 'a'"),
        ({"projects": [{"name": "p", "log": "x.log"}], "biphse": True}, "unknown run config key 'biphse'"),
        ({"projects": [{"name": "p", "log": "x.log"}], "worker": 4}, "unknown run config key 'worker'"),
        ({"projects": [{"name": "p", "lgo": "x.log"}]}, "unknown project key 'lgo'"),
        ({"projects": [{"name": "p", "log": "x.log"}], "identity_config": "identity.json"},
         "unknown identity config key 'provider_domain'"),
        ({"projects": [{"name": "summary.csv", "log": "x.log"}]},
         "project name 'summary.csv' is reserved: the run writes a file of that name"),
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(document))
        proc = _cli("run", "--config", str(config))
        assert (proc.returncode, proc.stderr) == (2, f"config error: {message}\n")


def test_analyze_repo_config_errors_end_in_one_line(tmp_path):
    script = SRC.parent / "scripts" / "analyze_repo.py"
    for argv, message in (
        ([str(tmp_path / "r1" / "x"), str(tmp_path / "r2" / "x")], "duplicate project name 'x'"),
        ([str(tmp_path / "x"), "--workers", "0"], "workers must be >= 1"),
        ([str(tmp_path / "run_report.json")], "project name 'run_report.json' is reserved: the run writes a file of that name"),
    ):
        proc = subprocess.run([sys.executable, str(script), *argv, "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
        assert (proc.returncode, proc.stderr) == (2, f"config error: {message}\n")


def test_analyze_repo_is_forgepulse_run(tmp_path, repo_builder):
    # The script's messages and exit status are run's: its eligibility warning,
    # and one line for an --out that cannot be created.  A table that this run
    # did not write is not printed.
    repo = repo_builder()
    repo.commit(email="alice@intel.com", name="Alice", date="2015-01-31T12:00:00+00:00")
    repo.commit(email="bob@gmail.com", name="Bob", date="2015-02-10T12:00:00+00:00")
    (tmp_path / "file").write_text("")

    def analyze(out, *flags):
        script = SRC.parent / "scripts" / "analyze_repo.py"
        return subprocess.run([sys.executable, str(script), str(repo.root), "--out", str(out), *flags],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)

    proc = analyze(tmp_path / "out")
    assert (proc.returncode, proc.stderr) == (0, "warning: repo: below eligibility thresholds\n")
    table = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")
    assert proc.stdout == f"{table}\nartifacts written under {tmp_path / 'out'}/\n"
    assert table.splitlines()[2].split()[0] == "repo"
    proc = analyze(tmp_path / "out", "--workers", "0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "config error: workers must be >= 1\n")
    proc = analyze(tmp_path / "file" / "out")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("i/o error: ") and proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_a_run_writes_its_files_with_the_mode_the_umask_gives(tmp_path, umask):
    # The umask is set in a process of its own, as a shell sets it.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"projects": [{"name": "fixture", "log": str(DATA_DIR / "fixture_500.log")}]}))
    code = f"import os, sys; os.umask({umask}); from forgepulse.cli import main; sys.exit(main(['run', '--config', {str(config)!r}]))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    written = [path for path in (tmp_path / "forgepulse-out").rglob("*") if path.is_file()]
    assert len(written) == 10
    assert {path.name: oct(path.stat().st_mode & 0o777) for path in written} == {
        path.name: oct(0o666 & ~umask) for path in written
    }


def test_repository_bytes_that_are_not_utf8_end_like_a_log_file(tmp_path, repo_builder, monkeypatch):
    repo = repo_builder()
    repo.commit(name="Alice", date="2015-01-31T23:30:00Z")

    def git(*args, **kwargs):
        return subprocess.run(["git", "-C", str(repo.root), *args], capture_output=True, check=True, **kwargs).stdout

    # git commit would re-encode the name as UTF-8, so the commit object is written by hand.
    identity = b"Bob \xff <bob@intel.com> 1423562400 +0000"
    body = b"tree %s\nparent %s\nauthor %s\ncommitter %s\n\nm\n" % (
        git("rev-parse", "HEAD^{tree}").strip(), git("rev-parse", "HEAD").strip(), identity, identity,
    )
    git("update-ref", "HEAD", git("hash-object", "-t", "commit", "-w", "--stdin", input=body).strip().decode())
    for cache in (None, tmp_path / "cache"):
        if cache is None:
            monkeypatch.delenv("FORGEPULSE_CACHE", raising=False)
        else:
            monkeypatch.setenv("FORGEPULSE_CACHE", str(cache))
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["ingest", "--repo", str(repo.root), "--out", str(tmp_path / "records.jsonl")])
        assert (code, err.getvalue()) == (1, "error: line 1: not UTF-8\n")  # git lists the newest first
    cached = next(cache.glob("*.log"))  # git's bytes, as git wrote them
    assert b"Bob \xff\t" in cached.read_bytes()
    proc = _cli("ingest", "--log", str(cached), "--out", str(tmp_path / "r.jsonl"))
    assert (proc.returncode, proc.stderr) == (1, "error: line 1: not UTF-8\n")


def test_a_stash_and_notes_are_not_the_projects_history(tmp_path, repo_builder, monkeypatch):
    # git log --all would also walk refs/stash and refs/notes/*, and count the
    # stash's and the note's commits as the configured user's commits.
    monkeypatch.delenv("FORGEPULSE_CACHE", raising=False)
    repo = repo_builder()
    repo.commit(email="alice@intel.com", name="Alice", date="2015-01-31T12:00:00+00:00")
    repo.commit(email="bob@gmail.com", name="Bob", date="2015-02-10T12:00:00+00:00")
    (repo.root / "file.txt").write_text("work in progress\n", encoding="utf-8")
    (repo.root / "untracked.txt").write_text("untracked\n", encoding="utf-8")
    repo._run("stash", "push", "-u", "-q")
    repo._run("notes", "add", "-m", "a note", "HEAD")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"projects": [{"name": "p", "repo": str(repo.root)}], "out_dir": str(tmp_path / "out")}))
    with redirect_stderr(io.StringIO()):
        assert main(["run", "--config", str(config)]) == 0
        assert main(["ingest", "--repo", str(repo.root), "--out", str(tmp_path / "records.jsonl")]) == 0
    for records in (tmp_path / "records.jsonl", tmp_path / "out" / "p" / "records.jsonl"):
        emails = [json.loads(line)["author_email"] for line in records.read_text().splitlines()]
        assert sorted(emails) == ["alice@intel.com", "bob@gmail.com"], records
