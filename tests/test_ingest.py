import json
import os
import sys
import threading
from datetime import datetime, timezone
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forgepulse import (
    CommitRecord,
    LogParseError,
    RepoAcquisitionError,
    acquire_repo_log,
    parse_log_stream,
)
from forgepulse import ingest as ingest_module
from forgepulse import pipeline
from forgepulse.ingest import open_text, read_records_jsonl, record_from_dict
from forgepulse.pipeline import ingest

from conftest import make_line, record_line, sha_for
from oracles import parse_log_stream_oracle, record_to_dict


def parse_all(lines, strict=False):
    records, report = parse_log_stream(lines, strict=strict)
    return list(records), report


def test_single_well_formed_line():
    records, report = parse_all([make_line(parents=0)])
    assert len(records) == 1
    rec = records[0]
    assert rec.hash == sha_for(0)
    assert rec.author_email == "alice@intel.com"
    assert rec.author_name == "Alice"
    assert rec.authored_at == datetime(2015, 3, 10, 14, 22, 5, tzinfo=timezone.utc)
    assert rec.is_merge is False
    assert report.records_parsed == 1
    assert report.records_skipped == 0


def test_empty_stream():
    records, report = parse_all([])
    assert records == []
    assert report.records_parsed == 0
    assert report.records_skipped == 0


def test_lenient_skips_bad_timestamp():
    lines = [make_line(i) for i in range(4)]
    lines.insert(2, make_line(99, stamp="2015-13-45T99:00:00+00:00"))
    records, report = parse_all(lines)
    assert len(records) == 4
    assert report.records_parsed == 4
    assert report.records_skipped == 1
    assert report.skip_reasons == {"bad timestamp": 1}


def test_strict_aborts_with_position():
    lines = [make_line(0), "not a record", make_line(1)]
    records, _ = parse_log_stream(lines, strict=True)
    with pytest.raises(LogParseError) as err:
        list(records)
    assert err.value.line_no == 2
    assert err.value.reason == "bad field count"


@pytest.mark.parametrize(
    "line,reason",
    [
        ("only\ttwo", "bad field count"),
        (make_line(0) + "\textra", "bad field count"),
        ("zz" * 20 + "\t2015-03-10T14:22:05+00:00\ta@b.com\tA\t1", "bad hash"),
        (sha_for(0)[:-1] + "\t2015-03-10T14:22:05+00:00\ta@b.com\tA\t1", "bad hash"),
        (make_line(0, stamp="2015-03-10T14:22:05"), "bad timestamp"),  # no offset
        (make_line(0, stamp="yesterday"), "bad timestamp"),
        (make_line(0, parents="many"), "bad parent count"),
        (make_line(0, parents=-1), "bad parent count"),
        (make_line(0, email=""), "empty email"),
        (make_line(0, email="   "), "empty email"),
    ],
)
def test_skip_reasons(line, reason):
    records, report = parse_all([line])
    assert records == []
    assert report.skip_reasons == {reason: 1}
    with pytest.raises(LogParseError):
        list(parse_log_stream([line], strict=True)[0])


def test_timestamp_z_suffix_and_offsets():
    records, _ = parse_all(
        [
            make_line(0, stamp="2015-03-10T14:22:05Z"),
            make_line(1, stamp="2015-03-10T14:22:05+05:30"),
        ]
    )
    assert records[0].authored_at == datetime(2015, 3, 10, 14, 22, 5, tzinfo=timezone.utc)
    assert records[1].authored_at == datetime(2015, 3, 10, 8, 52, 5, tzinfo=timezone.utc)
    assert records[1].authored_at.tzinfo == timezone.utc


def test_merge_flag_from_parent_count():
    records, _ = parse_all([make_line(0, parents=2), make_line(1, parents=3), make_line(2, parents=1)])
    assert [r.is_merge for r in records] == [True, True, False]


def test_order_preserved():
    lines = [make_line(i) for i in range(10)]
    records, _ = parse_all(lines)
    assert [r.hash for r in records] == [sha_for(i) for i in range(10)]


valid_hash = st.integers(0, 10**6).map(sha_for)
valid_stamp = st.datetimes(
    min_value=datetime(1990, 1, 1), max_value=datetime(2030, 12, 31)
).map(lambda d: d.replace(tzinfo=timezone.utc))
plain_text = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    max_size=30,
)
valid_email = st.tuples(
    st.text(alphabet="abcdefgh0123456789._", min_size=1, max_size=10),
    st.sampled_from(["intel.com", "gmail.com", "apache.org", "x.co.uk"]),
).map(lambda pair: f"{pair[0]}@{pair[1]}")


@st.composite
def commit_records(draw):
    return CommitRecord(
        hash=draw(valid_hash),
        author_email=draw(valid_email),
        author_name=draw(plain_text),
        authored_at=draw(valid_stamp),
        is_merge=draw(st.booleans()),
    )


@given(record=commit_records())
def test_round_trip_canonical_format(record):
    line = record_line(record)
    records, report = parse_all([line])
    assert report.records_skipped == 0
    assert records == [record]


@given(record=commit_records())
def test_round_trip_jsonl(record):
    assert record_from_dict(record_to_dict(record)) == record


def test_jsonl_errors_carry_the_line_number():
    good = json.dumps(record_to_dict(parse_all([make_line(1)])[0][0]))
    blocks = read_records_jsonl([good + "\n", "\n", good + "\n", '{"hash": "x"}\n'])
    records = iter(next(blocks))  # the records before the bad line come first
    assert next(records).hash == sha_for(1)
    assert next(records).hash == sha_for(1)
    with pytest.raises(LogParseError) as info:
        next(blocks)
    assert info.value.line_no == 4
    assert info.value.reason == "missing field 'authored_at'"


@given(
    lines=st.lists(
        st.one_of(
            st.integers(0, 99).map(make_line),
            st.text(alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)), max_size=40),
        ),
        max_size=30,
    )
)
@settings(max_examples=200)
def test_lenient_never_raises_and_counts_balance(lines):
    records, report = parse_all(lines)
    non_blank = sum(1 for line in lines if line.strip("\r\n"))
    assert report.records_parsed == len(records)
    assert report.records_parsed + report.records_skipped == non_blank
    assert sum(report.skip_reasons.values()) == report.records_skipped


@given(
    lines=st.lists(
        st.one_of(st.integers(0, 99).map(make_line), st.just("garbage line")),
        max_size=10,
    )
)
def test_strict_raises_iff_lenient_skips(lines):
    _, lenient_report = parse_all(lines)
    records, _ = parse_log_stream(lines, strict=True)
    if lenient_report.records_skipped > 0:
        with pytest.raises(LogParseError):
            list(records)
    else:
        assert len(list(records)) == lenient_report.records_parsed


def test_acquire_single_commit_repo(repo_builder):
    repo = repo_builder()
    repo.commit()
    lines = list(acquire_repo_log(repo.root))
    assert len(lines) == 1
    records, report = parse_all(lines)
    assert report.records_skipped == 0
    assert records[0].author_email == "alice@intel.com"


def test_acquire_linear_history(repo_builder):
    repo = repo_builder()
    for day in (1, 2, 3):
        repo.commit(date=f"2015-03-0{day}T12:00:00+00:00")
    lines = list(acquire_repo_log(repo.root))
    assert len(lines) == 3
    records, _ = parse_all(lines)
    assert {r.authored_at.day for r in records} == {1, 2, 3}


def test_acquire_keeps_merges_and_ingest_drops_them(repo_builder):
    repo = repo_builder()
    repo.commit(date="2015-03-01T12:00:00+00:00")
    repo.commit(date="2015-03-02T12:00:00+00:00")
    repo.branch_and_merge()
    lines = list(acquire_repo_log(repo.root))
    assert sorted(line.rstrip("\n").rsplit("\t", 1)[1] for line in lines) == ["0", "1", "1", "2"]
    records, _ = parse_all(lines)
    assert sum(1 for r in records if r.is_merge) == 1
    blocks, report = ingest(repo.root, None)
    records = [record for block in blocks for record in block]
    assert len(records) == 3 and all(not r.is_merge for r in records)
    assert report.records_parsed == 4


def test_ingest_closes_the_log(tmp_path, monkeypatch):
    """The log opened by ``ingest`` is closed when its blocks end, when a
    strict parse fails, and when the blocks are closed partway through."""
    opened = []

    def recording_open(path):
        opened.append(open_text(path))
        return opened[-1]

    monkeypatch.setattr(pipeline, "open_text", recording_open)
    log = tmp_path / "two-blocks.log"
    lines = [make_line(tag) for tag in range(ingest_module.BLOCK_LINES + 1)]
    log.write_text("\n".join(lines + ["not a record"]) + "\n")

    blocks, report = ingest(None, log)
    assert not opened[-1].closed
    assert sum(map(len, blocks)) == len(lines) and report.records_skipped == 1
    assert opened[-1].closed

    blocks, _ = ingest(None, log, strict=True)
    with pytest.raises(LogParseError):
        list(blocks)
    assert opened[-1].closed

    blocks, _ = ingest(None, log)
    assert len(next(blocks)) == ingest_module.BLOCK_LINES
    assert not opened[-1].closed
    blocks.close()
    assert opened[-1].closed
    assert len(opened) == 3


def test_git_output_is_read_at_fixed_offsets(repo_builder):
    """Every line git writes has the fixed head (hash, tab, %aI stamp, tab),
    so none of it is read a line at a time."""
    repo = repo_builder()
    repo.commit(date="2015-03-01T12:00:00+00:00")
    repo.commit(email="lei@example.cn", name="李雷 Łukasz", date="2015-03-02T23:45:00+05:30")
    repo.commit(email="a@b.co", name="B", date="2015-03-03T20:00:00-08:00")
    repo.branch_and_merge(date="2015-04-01T00:30:00+05:30")
    lines = list(acquire_repo_log(repo.root))
    assert len(lines) == 5
    with mock.patch.object(ingest_module, "_split_lines", side_effect=AssertionError("read a line at a time")):
        records, report = parse_all(lines)
    expected, expected_report = parse_log_stream_oracle(lines)
    assert [record_to_dict(r) for r in records] == [record_to_dict(r) for r in expected]
    assert report == expected_report
    assert sum(r.is_merge for r in records) == 1
    assert "李雷 Łukasz" in {r.author_name for r in records}


def test_acquire_missing_path(tmp_path):
    with pytest.raises(RepoAcquisitionError):
        list(acquire_repo_log(tmp_path / "nope"))


def test_acquire_not_a_repo(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    with pytest.raises(RepoAcquisitionError):
        list(acquire_repo_log(plain))


def test_acquire_author_date_preserved_not_committer(repo_builder):
    # author and committer dates differ; the author date must be used
    repo = repo_builder()
    repo._run(
        "commit", "-q", "--allow-empty", "-m", "x",
        env_extra={
            "GIT_AUTHOR_NAME": "A",
            "GIT_AUTHOR_EMAIL": "a@x.com",
            "GIT_AUTHOR_DATE": "2015-01-15T10:00:00+00:00",
            "GIT_COMMITTER_NAME": "C",
            "GIT_COMMITTER_EMAIL": "c@y.com",
            "GIT_COMMITTER_DATE": "2015-06-20T10:00:00+00:00",
        },
    )
    records, _ = parse_all(acquire_repo_log(repo.root))
    assert records[0].author_email == "a@x.com"
    assert records[0].authored_at.month == 1


def fake_git(tmp_path, monkeypatch, body):
    """Put a ``git`` running the Python ``body`` first on PATH."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    git = bin_dir / "git"
    git.write_text(f"#!{sys.executable}\nimport sys\n{body}\n", encoding="utf-8")
    git.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")


def test_acquire_survives_git_filling_its_stderr_pipe(tmp_path, monkeypatch):
    line = make_line(1, parents=sha_for(0))  # git prints parent hashes, not a count
    fake_git(tmp_path, monkeypatch,
             f"sys.stderr.write('w' * (1 << 20))\nsys.stderr.flush()\nprint({line!r})")
    acquired = []
    worker = threading.Thread(target=lambda: acquired.extend(acquire_repo_log(tmp_path)), daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "acquisition stalled on git's stderr"
    assert acquired == [make_line(1, parents=1) + "\n"]


def test_acquire_failure_carries_git_stderr(tmp_path, monkeypatch):
    fake_git(tmp_path, monkeypatch, "sys.stderr.write('fatal: bad object HEAD\\n')\nsys.exit(1)")
    with pytest.raises(RepoAcquisitionError, match="^fatal: bad object HEAD$"):
        list(acquire_repo_log(tmp_path))


def test_a_stash_or_a_note_leaves_the_ref_state_as_it_is(repo_builder):
    repo = repo_builder()
    repo.commit()
    before = ingest_module.ref_state(repo.root)
    (repo.root / "file.txt").write_text("work in progress\n", encoding="utf-8")
    (repo.root / "untracked.txt").write_text("untracked\n", encoding="utf-8")
    repo._run("stash", "push", "-u", "-q")
    repo._run("notes", "add", "-m", "a note", "HEAD")
    assert ingest_module.ref_state(repo.root) == before
    repo.commit()
    assert ingest_module.ref_state(repo.root) != before
