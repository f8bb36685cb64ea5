"""Block ingest against the record-at-a-time oracles in tests/oracles.py.

The block parser, the block JSONL reader and the block UTC conversion must
give what the per-line code gives: the same records, the same report, the
same records.jsonl bytes and, in strict mode or on a bad JSONL line, the
same first error.  ``BLOCK_LINES`` is patched down so that blocks split
the generated inputs at every position.
"""

import io
import json
import re
from dataclasses import asdict
from datetime import datetime, timezone
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forgepulse import CommitRecord, LogParseError, RecordBlock, build_monthly_series
from forgepulse import ingest as ingest_module
from forgepulse.ingest import (
    _parse_timestamp,
    parse_log_stream,
    read_records_jsonl,
)
from forgepulse.pipeline import ProjectSource, RunConfig, run_pipeline
from forgepulse.pipeline import ingest as pipeline_ingest
from forgepulse.series import series_to_dict

from conftest import series_of, sha_for
from oracles import (
    build_monthly_series_oracle,
    parse_log_stream_oracle,
    read_records_jsonl_oracle,
    record_to_dict,
    utc_block,
)

block_sizes = st.sampled_from([1, 2, 3, 5, ingest_module.BLOCK_LINES])
# Lone surrogates stand for bytes that are not UTF-8, which end a read
# instead of being parsed; tests below cover them on their own.
text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30)


def two_digits(lo, hi):
    return st.integers(lo, hi).map("{:02d}".format)


# Every field has two (four) digits; the values stray past their ranges.
canonical_stamps = st.builds(
    "{}-{}-{}T{}:{}:{}{}".format,
    st.one_of(st.integers(0, 9999), st.sampled_from([0, 1, 1900, 2000, 2023, 2024, 2100, 9999])).map("{:04d}".format),
    st.one_of(two_digits(1, 12), two_digits(0, 19)),
    st.one_of(two_digits(1, 28), two_digits(28, 31), two_digits(0, 39)),
    st.one_of(two_digits(0, 23), two_digits(0, 29)),
    st.one_of(two_digits(0, 59), two_digits(0, 69)),
    st.one_of(two_digits(0, 59), two_digits(0, 69)),
    st.one_of(
        st.just("Z"),
        st.builds("{}{}:{}".format, st.sampled_from("+-"),
                  st.one_of(two_digits(0, 23), two_digits(0, 29)), st.one_of(two_digits(0, 59), two_digits(0, 69))),
    ),
)
other_stamps = st.one_of(
    st.sampled_from([
        "2015-03-10T14:22:05.5+01:00", "2015-03-10T14:22:05.123456Z", "2015-03-10T14:22:05z",
        "2015-03-10 14:22:05+00:00", "2015-03-10t14:22:05+00:00", "2015-03-10T14:22:05",
        "2015-03-10T14:22:05+0530", "2015-03-10T14:22:05+05:30:15", "2015-03-10T14:22:05+05",
        "2015-03-10T14:22+01:00", "20150310T142205Z", "2015-W11-2T14:22:05Z", "2015-03-10",
        "２015-03-10T14:22:05+00:00", "2015-03-10T14:22:05+05:30 ", " 2015-03-10T14:22:05Z",
        "2015-03-10T14:22:05+05:30\x00", "2015-03-10T14:22:05+05:30" * 2, "yesterday", "",
        "0001-01-01T00:10:00+05:30", "9999-12-31T23:30:00-05:00", "2015-02-29T12:00:00+00:00",
    ]),
    text,
)
stamps = st.one_of(canonical_stamps, canonical_stamps, other_stamps)

STRICT_STAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(Z|[+-][0-9]{2}:[0-5][0-9])")


@given(st.lists(stamps, min_size=1, max_size=40))
@settings(max_examples=400)
def test_block_conversion_matches_the_scalar_one(batch):
    ok, months, texts = utc_block(batch)
    for stamp, converted, month, text in zip(batch, ok.tolist(), months.tolist(), texts):
        expected = _parse_timestamp(stamp)
        if converted:
            assert expected is not None, stamp
            assert text == expected.isoformat().encode(), stamp
            assert month == expected.year * 12 + expected.month - 1, stamp
        elif STRICT_STAMP.fullmatch(stamp):
            # Left to the scalar parser only when it is not a timestamp.
            assert expected is None, stamp


@pytest.mark.parametrize(
    "stamp, utc",
    [
        ("2015-01-31T23:30:00-05:00", "2015-02-01T04:30:00+00:00"),
        ("2016-03-01T01:00:00+02:00", "2016-02-29T23:00:00+00:00"),
        ("2015-03-01T01:00:00+02:00", "2015-02-28T23:00:00+00:00"),
        ("2000-01-01T00:00:00+00:01", "1999-12-31T23:59:00+00:00"),
        ("1999-12-31T23:59:59-23:59", "2000-01-01T23:58:59+00:00"),
        ("0001-01-01T05:30:00+05:30", "0001-01-01T00:00:00+00:00"),
        ("9999-12-31T18:59:59-05:00", "9999-12-31T23:59:59+00:00"),
        ("2015-03-10T14:22:05Z", "2015-03-10T14:22:05+00:00"),
        ("2015-03-10T14:22:05-00:00", "2015-03-10T14:22:05+00:00"),
    ],
)
def test_block_conversion_edges(stamp, utc):
    ok, months, texts = utc_block([stamp])
    assert ok.tolist() == [True]
    assert texts == [utc.encode()]
    assert months.tolist() == [int(utc[:4]) * 12 + int(utc[5:7]) - 1]


@pytest.mark.parametrize(
    "stamp",
    ["0001-01-01T00:10:00+05:30", "9999-12-31T23:30:00-05:00", "0000-06-01T00:00:00+00:00",
     "2023-02-29T00:00:00+00:00", "1900-02-29T00:00:00+00:00", "2015-03-10T14:22:05+24:00",
     "2015-04-31T00:00:00Z", "2015-03-10T24:00:00Z", "2015-03-10T14:60:00Z", "2015-03-10T14:22:60Z"],
)
def test_stamps_outside_the_calendar_are_bad_timestamps(stamp):
    assert utc_block([stamp])[0].tolist() == [False]
    assert _parse_timestamp(stamp) is None


hex_hashes = st.integers(0, 200).map(sha_for)
hashes = st.one_of(
    hex_hashes, hex_hashes, hex_hashes.map(str.upper),
    hex_hashes.map(lambda h: h[:-1]), hex_hashes.map(lambda h: h + "0"),
    hex_hashes.map(lambda h: "g" + h[1:]), hex_hashes.map(lambda h: "é" + h[1:]),
    hex_hashes.map(lambda h: h[:20] + " " + h[21:]), text, text.map(lambda t: t + "0" * 40),
)
field_text = st.text(alphabet=st.characters(blacklist_characters="\t\r\n", blacklist_categories=("Cs",)), max_size=12)
emails = st.one_of(st.sampled_from(["a@x.com", "B@Y.org", "dev@gmail.com", "noat", "", "  "]), field_text)
parents = st.one_of(st.sampled_from(["0", "1", "2", "3", "-1", "x", "", " 1", "1 ", "１"]), field_text)


@st.composite
def log_lines(draw):
    fields = [draw(hashes), draw(stamps), draw(emails), draw(field_text), draw(parents)]
    shape = draw(st.integers(0, 9))
    if shape == 0:
        del fields[draw(st.integers(0, 4))]
    elif shape == 1:
        fields.insert(draw(st.integers(0, 5)), draw(field_text))
    line = "\t".join(fields)
    if shape == 2:
        line = draw(st.sampled_from(["", "\n", "\r\n", "\r", "  ", "\t"]))
    return line + draw(st.sampled_from(["\n", "\n", "", "\r\n", "\r\r\n", "\n\r"]))


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


@given(lines=st.lists(log_lines(), max_size=25), strict=st.booleans(), size=block_sizes)
@settings(max_examples=400)
def test_block_parser_matches_the_line_parser(lines, strict, size):
    with mock.patch.object(ingest_module, "BLOCK_LINES", size):
        blocks, report = parse_log_stream(lines, strict=strict, blocks=True)
        blocks, error = _drain(blocks)
        records, _ = parse_log_stream(lines, strict=strict)
        records, records_error = _drain(records)
    oracle_records, oracle_report = parse_log_stream_oracle(lines, strict=strict)
    expected, expected_error = _drain(oracle_records)
    assert _dicts(r for block in blocks for r in block) == _dicts(records) == _dicts(expected)
    assert error == records_error == expected_error
    assert report == oracle_report
    assert all(len(block) > 0 for block in blocks)
    # The records.jsonl text of the blocks is the per-record JSON encoding.
    assert b"".join(block.jsonl() for block in blocks) == "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in _dicts(expected)
    ).encode()


def test_strict_mode_yields_the_records_before_the_first_bad_line():
    good = [f"{sha_for(i)}\t2015-03-10T14:22:05+01:00\ta@x.com\tA\t1\n" for i in range(5)]
    lines = good[:3] + ["bad\n"] + good[3:4] + [f"{sha_for(9)}\tyesterday\ta@x.com\tA\t1\n"]
    blocks, report = parse_log_stream(lines, strict=True, blocks=True)
    first = next(blocks)
    assert [r.hash for r in first] == [sha_for(i) for i in range(3)]
    with pytest.raises(LogParseError) as info:
        next(blocks)
    assert (info.value.line_no, info.value.reason) == (4, "bad field count")
    assert report.records_parsed == 3


def test_overflowing_stamps_are_bad_timestamps():
    lines = [
        f"{sha_for(1)}\t0001-01-01T00:10:00+05:30\ta@x.com\tA\t1",
        f"{sha_for(2)}\t9999-12-31T23:30:00-05:00\ta@x.com\tA\t1",
        f"{sha_for(3)}\t9999-12-31T23:30:00.5-05:00\ta@x.com\tA\t1",
        f"{sha_for(4)}\t2015-03-10T14:22:05+00:00\ta@x.com\tA\t1",
    ]
    records, report = parse_log_stream(lines)
    assert [r.hash for r in records] == [sha_for(4)]
    assert report.skip_reasons == {"bad timestamp": 3}
    records, _ = parse_log_stream(lines, strict=True)
    with pytest.raises(LogParseError) as info:
        list(records)
    assert (info.value.line_no, info.value.reason) == (1, "bad timestamp")


@given(lines=st.lists(log_lines(), max_size=25), strict=st.booleans(), size=block_sizes)
@settings(max_examples=200)
def test_merge_free_blocks_match_the_line_parser_without_merges(lines, strict, size):
    with mock.patch.object(ingest_module, "BLOCK_LINES", size):
        blocks, report = parse_log_stream(lines, strict=strict, blocks=True, _merges=False)
        blocks, error = _drain(blocks)
    oracle_records, oracle_report = parse_log_stream_oracle(lines, strict=strict)
    expected, expected_error = _drain(oracle_records)
    assert _dicts(r for block in blocks for r in block) == _dicts(r for r in expected if not r.is_merge)
    assert error == expected_error
    assert report == oracle_report  # records_parsed counts the merges
    assert all(len(block) > 0 for block in blocks)


def test_a_line_that_is_not_utf8_ends_the_parse_in_either_mode():
    good = f"{sha_for(1)}\t2015-03-10T14:22:05+00:00\ta@x.com\tA\t1\n"
    lines = [good, "bad\n", good.replace("A", "\udcff"), good]
    for strict, expected in ((False, (3, "not UTF-8")), (True, (2, "bad field count"))):
        records, report = parse_log_stream(lines, strict=strict)
        records, error = _drain(records)
        assert len(records) == 1
        assert error == expected


def _parse_with_spy(lines):
    """What the block parser and the oracle give for ``lines``, and the
    lines the parser read a line at a time, off the fixed head."""
    with mock.patch.object(ingest_module, "_split_lines", wraps=ingest_module._split_lines) as split:
        blocks, report = parse_log_stream(lines, blocks=True)
        blocks, error = _drain(blocks)
    expected, expected_report = parse_log_stream_oracle(lines)
    expected, expected_error = _drain(expected)
    assert _dicts(r for block in blocks for r in block) == _dicts(expected)
    assert report == expected_report
    assert error == expected_error
    return [line for call in split.call_args_list for line in call.args[0]], report


def _git_line(tag=1, stamp="2015-03-10T14:22:05+05:30", email="dev@intel.com", name="Dev", end="\n"):
    return f"{sha_for(tag)}\t{stamp}\t{email}\t{name}\t1{end}"


@pytest.mark.parametrize(
    "line, per_line, parsed",
    [
        (_git_line()[:60] + "\n", True, False),
        ("\n", True, False),
        (_git_line(stamp="2015-03-10T14:22:05Z"), False, True),
        (_git_line(stamp="2015-03-10T14:22:05Z", email="a", name="", end=""), False, True),
        (_git_line(stamp="2015-03-10T14:22:05z"), True, True),
        (_git_line(stamp="2015-03-10T14:22:05Z", email="a@bc"), False, True),
        ("ā" + _git_line()[1:], True, False),
        (_git_line()[1:], True, False),
        (_git_line(stamp="2015-03-10T14:22:05.5+05:30"), True, True),
        (_git_line(end="\r\n"), False, True),
        (_git_line(stamp="2015-02-30T14:22:05+05:30"), True, False),
        (_git_line(email=""), False, False),
    ],
    ids=["short", "blank", "stamp-z", "stamp-z-shorter-than-head", "stamp-lowercase-z", "stamp-z-email-4",
         "hash-past-latin-1", "hash-39-digits", "stamp-fraction", "crlf", "stamp-not-a-date", "empty-email"],
)
def test_lines_off_the_fixed_head_are_read_one_at_a_time(line, per_line, parsed):
    lines = [_git_line(0), line, _git_line(2)]
    off_head, report = _parse_with_spy(lines)
    assert off_head == ([line] if per_line else [])
    assert report.records_parsed == 2 + parsed


def _merge_line(tag, parents=2):
    return _git_line(tag, email=f"Merger{tag}@Intel.com")[:-2] + f"{parents}\n"


# One block of records, merges, blank and malformed lines; the first
# malformed line, line 6, comes right after a merge.
MIXED_BLOCK = [
    _git_line(1),
    _merge_line(2),
    "\n",
    _git_line(4, stamp="2015-03-10T14:22:05Z", email=" Dev@Gmail.com "),
    _merge_line(5, parents=3),
    _git_line(6)[:60] + "\n",
    "\r\n",
    _git_line(8)[:-2] + "-1\n",
    _git_line(9, email=""),
    _git_line(10, stamp="2015-02-30T14:22:05+05:30"),
    _git_line(11)[1:],
    _merge_line(12),
    _git_line(13, stamp="2015-04-01T01:00:00+02:00", email="dev@gmail.com"),
]


@pytest.mark.parametrize("size", [ingest_module.BLOCK_LINES, 3])
def test_a_mixed_block_on_the_pipeline_path_matches_the_oracle(tmp_path, monkeypatch, size):
    monkeypatch.setattr(ingest_module, "BLOCK_LINES", size)
    selects = []
    select = RecordBlock.select
    monkeypatch.setattr(RecordBlock, "select", lambda block, keep: selects.append(len(block)) or select(block, keep))
    log = tmp_path / "mixed.log"
    log.write_text("".join(MIXED_BLOCK), encoding="utf-8")
    outcome = run_pipeline(RunConfig(projects=(ProjectSource("mixed", log=log),), out_dir=tmp_path / "out"))
    assert [result.error for result in outcome.results] == [None]
    blocks = -(-len(MIXED_BLOCK) // size)
    assert 0 < len(selects) <= blocks  # one select a block drops both the merges and the skipped lines

    oracle_records, oracle_report = parse_log_stream_oracle(MIXED_BLOCK, source=str(log))
    expected = [r for r in _drain(oracle_records)[0] if not r.is_merge]
    assert [r.hash for r in expected] == [sha_for(1), sha_for(4), sha_for(13)]
    project = tmp_path / "out" / "mixed"
    assert json.loads((project / "ingest_report.json").read_text(encoding="utf-8")) == asdict(oracle_report)
    assert oracle_report.records_parsed == 6 and oracle_report.records_skipped == 5
    assert (project / "records.jsonl").read_bytes() == "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in _dicts(expected)
    ).encode("ascii")

    selects.clear()
    blocks, report = pipeline_ingest(None, log, strict=True)
    records, error = _drain(r for block in blocks for r in block)
    oracle_records, oracle_report = parse_log_stream_oracle(MIXED_BLOCK, strict=True, source=str(log))
    expected, expected_error = _drain(oracle_records)
    assert _dicts(records) == _dicts(r for r in expected if not r.is_merge)
    assert [r.hash for r in records] == [sha_for(1), sha_for(4)]  # the records before line 6
    assert error == expected_error == (6, "bad field count")
    assert report == oracle_report
    assert report.records_parsed == 4  # lines 1, 2, 4 and 5: merges count as parsed
    assert len(selects) <= -(-6 // size)  # the blocks up to line 6


def _git_stamp(stamp, offset):
    zone = "Z" if offset is None else "{}{:02d}:{:02d}".format("+-"[offset < 0], *divmod(abs(offset), 60))
    return stamp.isoformat(timespec="seconds") + zone


# What git's %H and %aI give: 40 hex digits, and a stamp in whole seconds
# with a Z or an offset of under a day, whose UTC instant is in years 1..9999.
git_lines = st.builds(
    "{}\t{}\t{}\t{}\t{}\n".format,
    st.one_of(hex_hashes, hex_hashes.map(str.upper)),
    st.builds(_git_stamp, st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31)),
              st.one_of(st.none(), st.integers(-1439, 1439))),
    field_text, field_text, st.sampled_from(["0", "1", "2"]),
)


@given(lines=st.lists(git_lines, min_size=1, max_size=20))
@settings(max_examples=300)
def test_lines_in_git_layout_are_read_at_fixed_offsets(lines):
    assert _parse_with_spy(lines)[0] == []


json_values = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), text, st.just([]), st.just({}))


@st.composite
def jsonl_lines(draw):
    record = {
        "hash": draw(st.one_of(hex_hashes, text)),
        "author_email": draw(emails),
        "author_name": draw(text),
        "authored_at": draw(stamps),
        "is_merge": draw(st.one_of(st.booleans(), json_values)),
    }
    shape = draw(st.integers(0, 11))
    if shape == 0:
        del record[draw(st.sampled_from(sorted(record)))]
    elif shape == 1:
        record[draw(st.sampled_from(sorted(record)))] = draw(json_values)
    if shape == 2:
        line = json.dumps(draw(st.one_of(json_values, st.lists(st.integers(), max_size=2))))
    elif shape == 3:
        line = json.dumps(record, sort_keys=True)[:draw(st.integers(0, 40))]
    elif shape == 4:
        line = draw(st.sampled_from(["", " ", "\xa0", " "]))
    elif shape == 5:  # a whole record, then more than whitespace
        line = json.dumps(record, sort_keys=True) + draw(st.sampled_from(["x", " {}", "}", "1", " \xa0x", "\t\t0"]))
    else:
        line = json.dumps(record, sort_keys=True, ensure_ascii=draw(st.booleans()))
    pad = draw(st.sampled_from(["", "", " ", "\xa0", "\t"]))
    return pad + line + pad + draw(st.sampled_from(["\n", "", "\r\n"]))


@given(lines=st.lists(jsonl_lines(), max_size=20), size=block_sizes)
@settings(max_examples=400)
def test_block_jsonl_reader_matches_the_record_reader(lines, size):
    with mock.patch.object(ingest_module, "BLOCK_LINES", size):
        blocks, error = _drain(read_records_jsonl(lines))
    expected, expected_error = _drain(read_records_jsonl_oracle(lines))
    assert _dicts(r for block in blocks for r in block) == _dicts(expected)
    assert error == expected_error


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"authored_at": "2015-03-10T14:22:05+00:00", "hash": "x", "author_email": 5, '
         '"author_name": "A", "is_merge": false}', "bad record: field 'author_email' is not a string"),
        ("[" * 100_000, "bad JSON: nested too deeply"),
        ('{"authored_at": "9999-12-31T23:30:00-05:00", "hash": "x"}', "bad timestamp"),
        ('{"authored_at": "\udcff"}', "not UTF-8"),
    ],
)
def test_jsonl_reader_rejects_what_a_series_cannot_use(line, reason):
    with pytest.raises(LogParseError) as info:
        list(read_records_jsonl(["\n", line + "\n"]))
    assert (info.value.line_no, info.value.reason) == (2, reason)


# Any text at all: quotes, backslashes, control characters, U+2028, lone
# surrogates and characters past the BMP, which records.jsonl escapes.
any_text = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=()), max_size=12),
    st.text(alphabet='"\\/\x00\x1f\x7f\u2028\udcff\U0001f600é ', max_size=12),
)
written_records = st.builds(
    CommitRecord, hex_hashes, any_text, any_text, st.datetimes(timezones=st.just(timezone.utc)), st.booleans(),
)


@given(records=st.lists(written_records, min_size=1, max_size=25), size=block_sizes)
@settings(max_examples=300)
def test_written_records_round_trip(records, size):
    written = RecordBlock.from_records(records).jsonl()
    text = written.decode("ascii")
    with mock.patch.object(ingest_module, "BLOCK_LINES", size):
        blocks, error = _drain(read_records_jsonl(io.StringIO(text)))
    assert error is None
    expected, _ = _drain(read_records_jsonl_oracle(io.StringIO(text)))
    assert _dicts(r for block in blocks for r in block) == _dicts(expected) == _dicts(records)
    assert b"".join(block.jsonl() for block in blocks) == written


# What ``ingest`` writes: no merges, and UTC stamps in whole seconds, as
# git's %aI gives them.
ingested_records = st.builds(
    CommitRecord, hex_hashes, any_text, any_text,
    st.datetimes(timezones=st.just(timezone.utc)).map(lambda stamp: stamp.replace(microsecond=0)), st.just(False),
)


@given(records=st.lists(ingested_records, min_size=1, max_size=25), size=block_sizes)
@settings(max_examples=300)
def test_written_records_are_read_back_a_block_at_a_time(records, size):
    text = RecordBlock.from_records(records).jsonl().decode("ascii")
    with mock.patch.object(ingest_module, "BLOCK_LINES", size), \
            mock.patch.object(ingest_module, "record_from_dict", side_effect=AssertionError("read a line at a time")):
        blocks, error = _drain(read_records_jsonl(io.StringIO(text)))
    assert error is None
    assert _dicts(r for block in blocks for r in block) == _dicts(records)


def _written_lines():
    records = [CommitRecord(sha_for(i), f"dev{i}@intel.com", f"Dev {i}", datetime(2015, 3, i + 1, tzinfo=timezone.utc),
                            False) for i in range(6)]
    return io.StringIO(RecordBlock.from_records(records).jsonl().decode("ascii")).readlines()


@pytest.mark.parametrize(
    "line, change, per_line, error",
    [
        (3, lambda line: "x" + line, True, (4, "bad JSON: Expecting value")),
        (3, lambda line: line[:-1] + "\r\n", True, None),
        (5, lambda line: line[:-1], True, None),
        (3, lambda line: line.replace('"is_merge": false', '"is_merge": 0'), True, None),
        (3, lambda line: line.replace("Dev", "D\\xev"), True, (4, "bad JSON: Invalid \\escape")),
        (3, lambda line: line.replace("2015-03-04", "2015-02-30"), True, (4, "bad timestamp")),
        (3, lambda line: line.replace(sha_for(3), sha_for(3)[1:]), True, None),
        (3, lambda line: line.replace(sha_for(3), "g" + sha_for(3)[1:]), True, None),
        (3, lambda line: line.replace(sha_for(3), sha_for(3).upper()), False, None),
        (3, lambda line: line.replace("00:00:00+00:00", "00:00:00Z"), True, None),
        (3, lambda line: line.replace("00:00:00+00:00", "00:00:00.500000+00:00"), True, None),
        (3, lambda line: line.replace("+00:00", '+00"00'), True, (4, "bad JSON: Expecting ',' delimiter")),
        (3, lambda line: line.replace("+00:00", "+00\\00"), True, (4, "bad JSON: Invalid \\escape")),
        (3, lambda line: line.replace('"is_merge": false', '"is_merge": true'), True, None),
        (3, lambda line: line.replace("Dev", "D\\/ev"), True, None),
    ],
    ids=["text-before-brace", "crlf", "no-final-newline", "merge-flag-0", "bad-escape", "bad-stamp",
         "hash-39-digits", "hash-not-hex", "hash-upper-case", "stamp-z", "stamp-microseconds",
         "stamp-quote", "stamp-backslash", "merge-flag-true", "escaped-slash"],
)
def test_a_line_off_the_written_layout_reads_as_the_oracle_reads_it(line, change, per_line, error):
    lines = _written_lines()
    lines[line] = change(lines[line])
    fail = None if per_line else AssertionError("read a line at a time")
    with mock.patch.object(ingest_module, "record_from_dict", side_effect=fail,
                           wraps=ingest_module.record_from_dict) as read_line:
        blocks, got = _drain(read_records_jsonl(lines))
    expected, expected_error = _drain(read_records_jsonl_oracle(lines))
    assert _dicts(r for block in blocks for r in block) == _dicts(expected)
    assert got == expected_error == error
    assert read_line.called == per_line


month_stamps = st.builds(
    "{:04d}-{:02d}-{:02d}T12:00:00{}".format,
    st.integers(2010, 2012), st.integers(1, 12), st.integers(1, 28), st.sampled_from(["Z", "+05:30", "-08:00"]),
)


@given(
    lines=st.lists(
        st.builds(lambda tag, stamp, email, merge: f"{sha_for(tag)}\t{stamp}\t{email}\tDev\t{merge}",
                  st.integers(0, 99), month_stamps,
                  st.sampled_from(["a@intel.com", "B@Intel.com ", "c@gmail.com", "noat", "d@apache.org"]),
                  st.sampled_from(["1", "1", "2"])),
        min_size=1, max_size=60,
    ),
    size=block_sizes,
)
@settings(max_examples=200)
def test_series_over_many_blocks_matches_the_oracle(lines, size):
    with mock.patch.object(ingest_module, "BLOCK_LINES", size):
        blocks = list(parse_log_stream(lines, blocks=True)[0])
    records = [r for block in blocks for r in block]
    built = build_monthly_series(blocks)
    expected = build_monthly_series_oracle(records)
    assert series_to_dict(built) == series_to_dict(expected)
    assert list(built.contributor_commits.items()) == list(expected.contributor_commits.items())
    assert series_to_dict(series_of(records)) == series_to_dict(expected)
