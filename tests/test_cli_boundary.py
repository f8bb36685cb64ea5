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

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import forgepulse
from forgepulse.cli import main

from conftest import sha_for

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
