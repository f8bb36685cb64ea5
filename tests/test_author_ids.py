"""Blocks carry int32 ids into an author table: the table restart, and
per-author work done once per author.

Each log stream and each records.jsonl stream reads every distinct text
after a line's stamp (or before a record's stamp) once into an
``AuthorTable`` and starts a new table once one holds ``_MEMO_SIZE`` keys.
The properties below shrink ``_MEMO_SIZE`` to 3, so the tables restart
many times within a short log, and compare every path with the
line-at-a-time oracles of tests/oracles.py.
"""

import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forgepulse import LogParseError, build_monthly_series, parse_log_stream
from forgepulse import ingest as ingest_module
from forgepulse import pipeline as pipeline_module
from forgepulse import series as series_module
from forgepulse.errors import SeriesError
from forgepulse.ingest import open_text, read_records_jsonl
from forgepulse.pipeline import ingest, tee_records
from forgepulse.series import series_to_dict

from conftest import DATA_DIR, sha_for
from oracles import build_monthly_series_oracle, parse_log_stream_oracle, read_records_jsonl_oracle, record_to_dict

TABLE_SIZE = 3

# Stamps on git's fixed head and off it (a fraction of a second, a
# lowercase z), and bad ones; hashes good, upper case and bad.
stamps = st.sampled_from([
    "2015-03-10T14:22:05+05:30", "2015-03-10T14:22:05Z", "2016-01-01T00:30:00+02:00", "2015-12-31T23:30:00-01:00",
    "2015-03-10T14:22:05.5+01:00", "2015-03-10T14:22:05z", "yesterday", "2015-02-30T14:22:05+05:30",
])
hashes = st.one_of(st.integers(0, 50).map(sha_for), st.integers(0, 50).map(lambda tag: sha_for(tag).upper()),
                   st.sampled_from(["g" * 40, sha_for(1)[1:]]))
emails = st.sampled_from(["a@intel.com", "B@Intel.com ", "c@gmail.com", "noat", "d@apache.org", "", "é@x.org"])
names = st.sampled_from(["A", "Bé", 'C "q"', "", "D\\e"])
parents = st.sampled_from(["1", "1", "0", "2", "3", "-1", "x"])


@st.composite
def log_lines(draw):
    fields = [draw(hashes), draw(stamps), draw(emails), draw(names), draw(parents)]
    shape = draw(st.integers(0, 12))
    if shape == 0:
        del fields[draw(st.integers(0, 4))]
    elif shape == 1:
        fields.append("extra")
    line = "\t".join(fields)
    if shape == 2:
        line = ""
    return line + draw(st.sampled_from(["\n", "\n", "\r\n"]))


def _drain(items):
    """The items an iterator gives, and the (line, reason) of the
    LogParseError that ends it, if one does."""
    out, error = [], None
    try:
        for item in items:
            out.append(item)
    except LogParseError as exc:
        error = (exc.line_no, exc.reason)
    return out, error


def _dicts(records):
    return [record_to_dict(r) for r in records]


def _jsonl(records):
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in _dicts(records))


def _series(build, records):
    try:
        return series_to_dict(build(records))
    except SeriesError as exc:
        return str(exc)


def _tables(blocks):
    return list({id(block.table): block.table for block in blocks}.values())


@given(lines=st.lists(log_lines(), min_size=1, max_size=40), strict=st.booleans(),
       size=st.sampled_from([1, 2, 3, 5, ingest_module.BLOCK_LINES]), merges=st.booleans())
@settings(max_examples=300, deadline=None)
def test_restarted_tables_parse_as_the_oracle(lines, strict, size, merges):
    with mock.patch.object(ingest_module, "_MEMO_SIZE", TABLE_SIZE), \
            mock.patch.object(ingest_module, "BLOCK_LINES", size):
        blocks, report = parse_log_stream(lines, strict=strict, blocks=True, _merges=merges)
        blocks, error = _drain(blocks)
    oracle_records, oracle_report = parse_log_stream_oracle(lines, strict=strict)
    expected, expected_error = _drain(oracle_records)
    expected = [r for r in expected if merges or not r.is_merge]
    assert _dicts(r for block in blocks for r in block) == _dicts(expected)
    assert error == expected_error
    assert report == oracle_report
    assert b"".join(block.jsonl() for block in blocks) == _jsonl(expected).encode()
    # A block adds at most its own lines to a table the stream did not replace.
    assert all(len(table) < TABLE_SIZE + size for table in _tables(blocks))


@given(lines=st.lists(log_lines(), min_size=1, max_size=40), strict=st.booleans(),
       size=st.sampled_from([1, 2, 3, 5, ingest_module.BLOCK_LINES]))
@settings(max_examples=200, deadline=None)
def test_restarted_tables_ingest_write_and_read_back_as_the_oracle(lines, strict, size):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "project.log"
        log.write_text("".join(lines), encoding="utf-8")
        with open_text(log) as handle:
            read_lines = handle.readlines()  # as the parse sees them: newlines translated
        oracle_records, oracle_report = parse_log_stream_oracle(read_lines, strict=strict, source=str(log))
        expected, expected_error = _drain(oracle_records)
        expected = [r for r in expected if not r.is_merge]
        with mock.patch.object(ingest_module, "_MEMO_SIZE", TABLE_SIZE), \
                mock.patch.object(ingest_module, "BLOCK_LINES", size):
            blocks, report = ingest(None, log, strict)
            sink = io.BytesIO()
            blocks, error = _drain(tee_records(blocks, sink))
            assert error == expected_error
            assert report == oracle_report
            assert sink.getvalue() == _jsonl(expected).encode()
            assert _series(build_monthly_series, blocks) == _series(build_monthly_series_oracle, expected)

            written = sink.getvalue().decode("ascii").splitlines(keepends=True)
            read, read_error = _drain(read_records_jsonl(written))
    assert read_error is None
    assert _dicts(r for block in read for r in block) == _dicts(read_records_jsonl_oracle(written)) == _dicts(expected)
    assert b"".join(block.jsonl() for block in read) == sink.getvalue()
    assert _series(build_monthly_series, read) == _series(build_monthly_series_oracle, expected)
    assert all(len(table) < TABLE_SIZE + size for table in _tables(read))


def test_a_stream_starts_a_new_table_once_one_is_full(monkeypatch):
    monkeypatch.setattr(ingest_module, "_MEMO_SIZE", TABLE_SIZE)
    monkeypatch.setattr(ingest_module, "BLOCK_LINES", 2)
    lines = [f"{sha_for(i)}\t2015-03-10T14:22:05+00:00\tdev{i % 5}@intel.com\tDev\t1\n" for i in range(12)]
    blocks = list(parse_log_stream(lines, blocks=True)[0])
    # Two new tails a block, and a new table every two blocks.
    assert [len(table) for table in _tables(blocks)] == [4, 4, 4]
    assert [r.author_email for block in blocks for r in block] == [f"dev{i % 5}@intel.com" for i in range(12)]


def _generated_log(path: Path) -> Path:
    """20k lines from 3,000 addresses with 18,000 distinct name texts, so
    the stream's first table fills and a second one starts; 1 in 20 is a
    merge and 1 in 500 a line with a bad hash."""
    rng = np.random.default_rng(11)
    months = np.sort(rng.integers(0, 120, 20_000)).tolist()
    authors = np.minimum(rng.pareto(1.2, 20_000) * 30, 2999).astype(int).tolist()
    lines = []
    for i, (m, a) in enumerate(zip(months, authors)):
        digest = "x" * 40 if i % 500 == 7 else f"{i:040x}"
        email = f"Dev{a}@corp{a % 40}.com" if a % 3 else f"dev{a}@gmail.com"
        lines.append(f"{digest}\t{2000 + m // 12}-{m % 12 + 1:02d}-15T12:00:00+01:00\t{email}\tDev {i % 18_000}\t"
                     f"{2 if i % 20 == 3 else 1}\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("which", ["fixture", "generated"])
def test_per_author_work_is_done_once_per_author(tmp_path, which):
    log = DATA_DIR / "fixture_500.log" if which == "fixture" else _generated_log(tmp_path / "generated.log")
    with mock.patch.object(ingest_module, "_tail_author", wraps=ingest_module._tail_author) as tails, \
            mock.patch.object(series_module, "normalize_email", wraps=series_module.normalize_email) as normalize:
        blocks = list(ingest(None, log)[0])
        build_monthly_series(blocks)
    tables = _tables(blocks)
    assert len(tables) == (1 if which == "fixture" else 2)
    # Each tail is read once per table, and each raw address normalized once.
    assert sorted(call.args[0] for call in tails.call_args_list) == sorted(key for table in tables for key in table)
    raw = [call.args[0] for call in normalize.call_args_list]
    assert sorted(raw) == sorted({r.author_email for block in blocks for r in block})
    assert all(type(block.author_ids) is np.ndarray and block.author_ids.dtype == np.int32 for block in blocks)


def test_blocks_closed_before_the_first_close_the_log(monkeypatch):
    handles = []

    def opened(path):
        handles.append(open_text(path))
        return handles[-1]

    monkeypatch.setattr(pipeline_module, "open_text", opened)
    blocks, _ = ingest(None, DATA_DIR / "fixture_500.log")
    assert handles and not handles[0].closed  # opened at call time
    blocks.close()
    assert handles[0].closed
    blocks, _ = ingest(None, DATA_DIR / "fixture_500.log")
    del blocks  # dropped: closed with the blocks, not left to a ResourceWarning
    assert handles[1].closed
