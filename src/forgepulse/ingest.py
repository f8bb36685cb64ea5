"""Commit-log acquisition and parsing.

Canonical dump format, one commit per line, UTF-8, LF newlines:

    <hash> TAB <author-date RFC-3339> TAB <author-email> TAB <author-name> TAB <parent-count>

A parent count of 2 or more marks a merge commit.  Author names containing
tabs cannot be represented and such lines are rejected (bad field count).
Timestamps are converted to UTC at parse time so that calendar-month
bucketing downstream is timezone-independent.

Logs and records JSONL are read ``BLOCK_LINES`` lines at a time into
``RecordBlock`` columns: the checks and the UTC conversion run once per
block, over arrays, and a block's records.jsonl text is built in one join.
A block's text columns hold bytes, one per character, as records.jsonl
stores them, so its text is written with no re-encoding.
Each line git writes starts with a fixed head: 40 hex digits, a tab, a
25-character offset stamp or a 20-character Z stamp, and a tab.  A log
block's first 67 characters per line are checked as one uint8 matrix, and
a line with that head takes its hash, stamp and tail from fixed columns.
Any other line, such as a short or blank one, another hash width, or
another stamp form, is split at its tabs.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import accumulate, chain, islice, repeat
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from operator import getitem, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from .errors import LogParseError, RepoAcquisitionError

REASON_FIELD_COUNT = "bad field count"
REASON_HASH = "bad hash"
REASON_TIMESTAMP = "bad timestamp"
REASON_PARENT_COUNT = "bad parent count"
REASON_EMPTY_EMAIL = "empty email"
# Not a skip reason: a line that is not UTF-8 ends the read in either mode.
REASON_NOT_UTF8 = "not UTF-8"

GIT_LOG_FORMAT = "%H%x09%aI%x09%ae%x09%an%x09%P"

# Lines per block: enough that the per-block array work costs little per
# line, few enough that a block's transient columns stay near 2 MB.
BLOCK_LINES = 2048
# Distinct author fields an AuthorTable holds (about 500 bytes each) before a
# stream starts a new one at a block's start, so it holds < _MEMO_SIZE + BLOCK_LINES.
_MEMO_SIZE = 1 << 14


class CommitRecord(NamedTuple):
    """One commit: identity fields plus the merge flag.

    ``authored_at`` is always timezone-aware UTC.  Hashes are assumed unique
    within one ingested log (git guarantees this); the parser checks syntax
    only, to keep single-pass streaming at O(1) memory.
    """

    hash: str
    author_email: str
    author_name: str
    authored_at: datetime
    is_merge: bool


# What the fields after a log line's stamp make: a record, a merge or no
# record.  A block parse reads this one column to choose the lines it keeps.
RECORD, MERGE, SKIP = 0, 1, 2
# records.jsonl text after a record's hash, by kind.
_ENDS = (b'", "is_merge": false}\n', b'", "is_merge": true}\n', b"")


def _head(email: str, name: str) -> str:
    """The records.jsonl text of an author before the stamp."""
    return (f'{{"author_email": {encode_basestring_ascii(email)}, '
            f'"author_name": {encode_basestring_ascii(name)}, "authored_at": "')


class AuthorTable(dict):
    """Distinct author fields -> int id, each made once by ``make(key)``,
    which gives (kind, email, name): kind RECORD, MERGE for a merge commit,
    or SKIP when the fields make no record, with the reason as ``email``.

    Columns indexed by id (their arrays may run past the last id) hold the
    uint8 ``kinds``, the ``emails`` and ``names``, and the records.jsonl
    text around a record's stamp and hash as ASCII bytes: ``heads`` (see
    ``_head``) and ``ends``.  A stream starts a new table once one holds
    ``_MEMO_SIZE`` keys, so a long log cannot grow it without bound; a block
    keeps the table its ids index."""

    _COLUMNS = {"kinds": np.uint8, "emails": object, "names": object, "heads": object, "ends": object}

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make
        for name, dtype in self._COLUMNS.items():
            setattr(self, name, np.zeros(64, dtype=dtype))

    def __missing__(self, key) -> int:
        kind, email, name = self.make(key)
        i = self[key] = len(self)
        if i == len(self.kinds):
            for column in self._COLUMNS:
                setattr(self, column, np.concatenate([getattr(self, column)] * 2))
        self.kinds[i], self.emails[i], self.names[i] = kind, email, name
        if kind != SKIP:
            self.heads[i], self.ends[i] = _head(email, name).encode("ascii"), _ENDS[kind]
        return i


_HASH_KEY = b'", "hash": "'


class RecordBlock:
    """Consecutive commits as parallel array columns.

    ``author_ids`` (int32) index the columns of ``table``, an AuthorTable,
    which hold each commit's email, name, merge kind and records.jsonl text
    around its stamp.  ``stamps`` holds each commit's UTC time as ISO 8601
    text in ASCII bytes, ``months`` its UTC month index (year * 12 + month
    - 1), and ``hashes`` each hash as the ASCII bytes between the quotes of
    its JSON string.  Iterating a block gives its ``CommitRecord``s.
    """

    __slots__ = ("hashes", "author_ids", "table", "stamps", "months")

    def __init__(self, hashes: np.ndarray, author_ids: np.ndarray, table: AuthorTable, stamps: np.ndarray,
                 months: np.ndarray):
        self.hashes = hashes
        self.author_ids = author_ids
        self.table = table
        self.stamps = stamps
        self.months = months

    @classmethod
    def from_records(cls, records: Iterable[CommitRecord]) -> RecordBlock:
        records = list(records)
        table = AuthorTable(lambda key: (MERGE if key[2] else RECORD, key[0], key[1]))
        return cls(
            np.array([encode_basestring_ascii(r.hash)[1:-1].encode("ascii") for r in records], dtype=object),
            np.array([table[r.author_email, r.author_name, r.is_merge] for r in records], dtype=np.int32),
            table,
            np.array([r.authored_at.isoformat() for r in records], dtype=bytes),
            np.array([r.authored_at.year * 12 + r.authored_at.month - 1 for r in records], dtype=np.int32),
        )

    def __len__(self) -> int:
        return len(self.author_ids)

    def __iter__(self) -> Iterator[CommitRecord]:
        table, ids = self.table, self.author_ids
        hashes = json.loads(b'["' + b'", "'.join(self.hashes.tolist()) + b'"]')
        for sha, email, name, stamp, kind in zip(hashes, table.emails[ids].tolist(),
                                                 table.names[ids].tolist(), self.stamps.astype(str).tolist(),
                                                 table.kinds[ids].tolist()):
            yield CommitRecord(sha, email, name, datetime.fromisoformat(stamp), kind == MERGE)

    def select(self, keep) -> RecordBlock:
        """The commits whose ``keep`` entry is true."""
        keep = np.asarray(keep, dtype=bool)
        return RecordBlock(self.hashes[keep], self.author_ids[keep], self.table, self.stamps[keep], self.months[keep])

    def jsonl(self) -> bytes:
        """The block as records.jsonl lines, in ASCII: for each record, its
        fields (``authored_at`` as ISO 8601 text) as ``json.dumps(...,
        sort_keys=True)`` writes them, and a newline."""
        parts = [_HASH_KEY] * (5 * len(self))
        parts[0::5] = self.table.heads[self.author_ids].tolist()
        parts[1::5] = self.stamps.tolist()
        parts[3::5] = self.hashes.tolist()
        parts[4::5] = self.table.ends[self.author_ids].tolist()
        return b"".join(parts)


@dataclass
class IngestReport:
    source: str = "<stream>"
    records_parsed: int = 0
    records_skipped: int = 0
    skip_reasons: dict[str, int] = field(default_factory=dict)

    def tally_skip(self, reason: str) -> None:
        self.records_skipped += 1
        self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + 1


def _parse_timestamp(text: str) -> datetime | None:
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
        if stamp.tzinfo is None:
            return None
        return stamp.astimezone(timezone.utc)
    except (ValueError, OverflowError):  # OverflowError: the UTC instant is outside years 1..9999
        return None


# Stamps of the strict shape YYYY-MM-DDTHH:MM:SS+HH:MM (or -HH:MM), or
# YYYY-MM-DDTHH:MM:SSZ, are converted together; every other stamp goes to
# ``_parse_timestamp`` on its own.
_STAMP_WIDTH = 25
# Digit positions, in pairs: century, year of century, month, day, hour,
# minute, second, offset hours, offset minutes.
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 23, 24]
_STAMP_SEPARATORS = [4, 7, 10, 13, 16]
_SEPARATOR_CODES = np.frombuffer(b"--T::", dtype=np.uint8)
# Upper bounds of month, day, hour, minute, second, offset hours, offset minutes.
_FIELD_MAXIMA = np.array([12, 31, 23, 59, 59, 23, 59], dtype=np.int32)
_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int32)
_UTC_SUFFIX = np.frombuffer(b"+00:00", dtype=np.uint8)
_TWO_DIGITS = np.array([[48 + v // 10, 48 + v % 10] for v in range(100)], dtype=np.uint8)
_MONTH_ZERO = np.datetime64("0000-01", "M")  # month index 0


def _utc_codes(chars: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert the stamps of canonical shape to UTC together, given as their
    bytes, one character each, one row each, cut to ``_STAMP_WIDTH``
    columns, and their widths.  A row's columns past its width are ignored,
    and a stamp wider than the array is left over.  ``chars`` must be a
    C-contiguous uint8 array; it is rewritten.

    Returns which stamps were converted, their UTC month index and their
    UTC ISO text as an ASCII bytes array viewing ``chars``, the form
    ``_parse_timestamp(...).isoformat()`` gives.  A stamp is converted only
    when every field is ASCII digits and in range (the day within its month,
    the offset under 24 hours) and its UTC instant falls in years 1..9999;
    the entries of the others are filler."""
    digits = chars[:, _STAMP_DIGITS] - 48  # bytes below "0" wrap around
    is_digit = digits < 10
    sign = chars[:, 19].copy()
    zulu = (width == 20) & (sign == ord("Z"))
    offset_form = (width == _STAMP_WIDTH) & ((sign == ord("+")) | (sign == ord("-"))) & (chars[:, 22] == ord(":"))
    ok = is_digit[:, :14].all(axis=1) & (zulu | (offset_form & is_digit[:, 14:].all(axis=1)))
    ok &= (chars[:, _STAMP_SEPARATORS] == _SEPARATOR_CODES).all(axis=1)

    np.minimum(digits, 9, out=digits)  # rows with other characters are rejected above
    fields = (digits[:, 0::2] * 10 + digits[:, 1::2]).astype(np.int32)
    fields[zulu, 7:] = 0
    year = fields[:, 0] * 100 + fields[:, 1]
    month, day, hour, minute = fields[:, 2:6].T
    month_days = _DAYS_IN_MONTH[np.clip(month - 1, 0, 11)]
    month_days += (month == 2) & (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    ok &= (fields[:, 2:] <= _FIELD_MAXIMA).all(axis=1) & (year >= 1) & (month >= 1) & (day >= 1) & (day <= month_days)
    months = year * 12 + month - 1

    # Only an offset moves the clock, and at most a day either way: the
    # text is the stamp's own, with the fields that change rewritten.  The
    # rows whose date moves take it from datetime64.
    text = chars  # rewritten in place into the UTC text
    text[:, 19:] = _UTC_SUFFIX
    moved = np.flatnonzero(ok & (fields[:, 7:].any(axis=1)))
    if moved.size:
        offset = fields[moved, 7] * 60 + fields[moved, 8]
        clock = hour[moved] * 60 + minute[moved] - np.where(sign[moved] == ord("-"), -offset, offset)
        shift, clock = np.divmod(clock, 1440)
        text[moved, 11:13] = _TWO_DIGITS[clock // 60]
        text[moved, 14:16] = _TWO_DIGITS[clock % 60]
        moved, shift = moved[shift != 0], shift[shift != 0]
        date = (_MONTH_ZERO + months[moved]).astype("datetime64[D]") + (day[moved] - 1 + shift)
        utc_months = (date.astype("datetime64[M]") - _MONTH_ZERO).astype(np.int64)
        ok[moved] &= (utc_months >= 12) & (utc_months < 10000 * 12)  # years 1..9999
        months[moved] = utc_months
        text[moved, :10] = np.datetime_as_string(date).astype("S10").view(np.uint8).reshape(-1, 10)
    return ok, months, text.view(f"S{_STAMP_WIDTH}").ravel()


def _is_hex(codes: np.ndarray) -> np.ndarray:
    """Which bytes of a uint8 array are hex digits."""
    # Bytes below "0" or "a" wrap around; | 32 lowercases A-F.
    return (codes - 48 < 10) | ((codes | 32) - 97 < 6)


def _utf8_prefix(lines: list[str]) -> int:
    """How many leading lines are UTF-8 text.  A file opened with
    ``errors="surrogateescape"`` shows a byte that is not UTF-8 as a lone
    surrogate, which has no UTF-8 encoding."""
    text = "".join(lines)
    if text.isascii():
        return len(lines)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return bisect_right(list(accumulate(map(len, lines))), exc.start)
    return len(lines)


def _chunks(lines: Iterable[str], make: Callable) -> Iterator[tuple[list[str], int, AuthorTable, LogParseError | None]]:
    """``lines`` in blocks of ``BLOCK_LINES``, each as its leading UTF-8 lines, the
    1-based number of its first line, the ``AuthorTable(make)`` its ids go into (a
    new one once one holds ``_MEMO_SIZE`` keys), and the LogParseError of its first
    line that is not UTF-8, or None."""
    table = AuthorTable(make)
    pending = iter(lines)
    first = 1
    while chunk := list(islice(pending, BLOCK_LINES)):
        if len(table) >= _MEMO_SIZE:
            table = AuthorTable(make)
        utf8 = _utf8_prefix(chunk)
        yield chunk[:utf8], first, table, LogParseError(first + utf8, REASON_NOT_UTF8) if utf8 < len(chunk) else None
        first += len(chunk)


def _tail_author(tail: str) -> tuple[int, str, str | None]:
    """The AuthorTable entry of a line's fields after the stamp: (kind,
    email, name), or (SKIP, reason, None) when they make no record."""
    fields = tail.rstrip("\r\n").split("\t")
    if len(fields) != 3:
        return SKIP, REASON_FIELD_COUNT, None
    email, name, parent_text = fields
    try:
        parent_count = int(parent_text)
    except ValueError:
        return SKIP, REASON_PARENT_COUNT, None
    if parent_count < 0:
        return SKIP, REASON_PARENT_COUNT, None
    if not email.strip():
        return SKIP, REASON_EMPTY_EMAIL, None
    return MERGE if parent_count >= 2 else RECORD, email, name


_NO_FIELDS = ("", "", "")
_STAMPS, _TAILS = itemgetter(1), itemgetter(2)
_TAB = ord("\t")
# The head of a line: hash, tab, stamp, tab; a Z stamp's ends at _ZULU_HEAD.
_HEAD = 40 + 1 + _STAMP_WIDTH + 1
_ZULU_HEAD = _HEAD - 5


def _split_lines(lines: list[str]) -> tuple[list[str], list[datetime | None]]:
    """Lines off the fixed head, read one at a time: the text after their
    second tab, and ``_parse_timestamp`` of the text between their first two."""
    parts = [fields if len(fields) == 3 else _NO_FIELDS for fields in map(str.split, lines, repeat("\t"), repeat(2))]
    return list(map(_TAILS, parts)), list(map(_parse_timestamp, map(_STAMPS, parts)))


def _parse_block(
    lines: list[str], first: int, table: AuthorTable, error: LogParseError | None, report: IngestReport,
    strict: bool, merges: bool,
) -> Iterator[RecordBlock]:
    """Parse ``lines``, the first of which is line ``first``, keeping merges
    only when ``merges`` is set.

    The lines' heads are checked as one matrix; a line whose head is off
    git's layout goes to ``_split_lines``.  Each distinct tail is read once,
    as an id into ``table``; the kinds of the block's ids choose the lines
    it keeps, in one ``select``, so hash and stamp text is made only for
    those, when the block is written or iterated.

    A line with faults takes the reason of the first of: field count, hash,
    timestamp, then parent count or empty email.  Before a LogParseError
    (strict mode's, else ``error``, that of a line after ``lines`` that is
    not UTF-8) the records of the lines before the failing one are yielded.
    """
    n = len(lines)
    heads = list(map(getitem, lines, repeat(slice(_HEAD), n)))
    text = "".join(heads)
    if len(text) != n * _HEAD:  # a short line: spaces fail the checks below
        text = "".join(map(str.ljust, heads, repeat(_HEAD, n)))
    # One byte per character: "?" stands for any character past U+00FF.
    codes = np.frombuffer(text.encode("latin-1", "replace"), dtype=np.uint8).reshape(n, _HEAD)
    zulu = (codes[:, _ZULU_HEAD - 2] == ord("Z")) & (codes[:, _ZULU_HEAD - 1] == _TAB)
    stamp_ok, months, texts = _utc_codes(codes[:, 41:_HEAD - 1].copy(), np.where(zulu, 20, _STAMP_WIDTH))
    on = stamp_ok & (codes[:, 40] == _TAB) & (zulu | (codes[:, _HEAD - 1] == _TAB))
    hex_digits = _is_hex(codes[:, :40])
    if not hex_digits.all():  # numpy reduces 40-column rows slowly, so most blocks skip it
        on &= hex_digits.all(axis=1)

    hashes = codes[:, :40].copy().view("S40").ravel()  # a kept line's hash is in the matrix
    rest = list(map(getitem, lines, repeat(slice(_HEAD, None), n)))
    for i in np.flatnonzero(zulu & on).tolist():
        rest[i] = lines[i][_ZULU_HEAD:]
    hex_ok = np.ones(n, dtype=bool)
    off = np.flatnonzero(~on)
    if off.size:
        # A hash field is 40 hex digits just when the head starts with them and a tab.
        hex_ok[off] = hex_digits[off].all(axis=1) & (codes[off, 40] == _TAB)
        rows = off.tolist()
        texts = texts.astype("S32")  # room for a fraction of a second
        for i, tail, stamp in zip(rows, *_split_lines([lines[i] for i in rows])):
            rest[i], stamp_ok[i] = tail, stamp is not None
            if stamp is not None:
                months[i], texts[i] = stamp.year * 12 + stamp.month - 1, stamp.isoformat()
    ids = np.fromiter(map(table.__getitem__, rest), dtype=np.int32, count=n)
    kinds = table.kinds[ids]
    kinds[~(hex_ok & stamp_ok)] = SKIP

    for i in np.flatnonzero(kinds == SKIP).tolist():
        author = ids[i]
        fault = table.emails[author] if table.kinds[author] == SKIP else None
        if fault == REASON_FIELD_COUNT:
            reason = REASON_FIELD_COUNT if lines[i].rstrip("\r\n") else None  # else blank: not a record
        elif not hex_ok[i]:
            reason = REASON_HASH
        elif not stamp_ok[i]:
            reason = REASON_TIMESTAMP
        else:
            reason = fault
        if reason is None:
            continue
        if strict:
            error = LogParseError(first + i, reason)
            kinds[i:] = SKIP
            break
        report.tally_skip(reason)

    report.records_parsed += n - int(np.count_nonzero(kinds == SKIP))
    keep = kinds != SKIP if merges else kinds == RECORD
    block = RecordBlock(hashes, ids, table, texts, months)
    if not keep.all():
        block = block.select(keep)
    if block:
        yield block
    if error is not None:
        raise error


def parse_log_stream(
    lines: Iterable[str],
    strict: bool = False,
    source: str = "<stream>",
    *,
    blocks: bool = False,
    _merges: bool = True,
) -> tuple[Iterator[CommitRecord] | Iterator[RecordBlock], IngestReport]:
    """Parse canonical-format lines into records, single pass, input order.

    Returns a lazy iterator plus a report that is complete once the
    iterator is exhausted.  The iterator gives ``CommitRecord``s, or with
    ``blocks=True`` the ``RecordBlock``s they are parsed into.  Fully blank
    lines are ignored (they are not records); every other line is either
    parsed or tallied as skipped, so records_parsed + records_skipped equals
    the non-blank line count.

    strict=True raises LogParseError (with line number and reason) at the
    first malformed line; strict=False skips and tallies it instead.  Lines
    with an empty author email are treated as malformed: they are counted
    under "empty email" and excluded from downstream analysis.  A line that
    is not UTF-8 raises LogParseError in either mode.

    Merges are records.  ``_merges=False``, for ``pipeline.ingest`` alone,
    drops them in the ``select`` that drops skipped lines.

    Each distinct text after a line's stamp is read once per AuthorTable, and
    a block holds int32 ids into its table; the stream starts a new table
    once one holds ``_MEMO_SIZE`` keys.
    """
    report = IngestReport(source=source)
    parsed = (block for chunk in _chunks(lines, _tail_author)
              for block in _parse_block(*chunk, report, strict, _merges))
    return (parsed if blocks else chain.from_iterable(parsed)), report


def record_from_dict(data: dict) -> CommitRecord:
    """The record of one records.jsonl object: ``hash``, ``author_email``,
    ``author_name``, ``authored_at`` (ISO 8601 text) and ``is_merge``.

    Raises KeyError for a missing field, ValueError for a bad timestamp and
    TypeError for a hash, email or name that is not a string.
    """
    stamp = _parse_timestamp(data["authored_at"])
    if stamp is None:
        raise ValueError(REASON_TIMESTAMP)
    record = CommitRecord(
        hash=data["hash"],
        author_email=data["author_email"],
        author_name=data["author_name"],
        authored_at=stamp,
        is_merge=bool(data["is_merge"]),
    )
    for name in ("hash", "author_email", "author_name"):
        if not isinstance(getattr(record, name), str):
            raise TypeError(f"field {name!r} is not a string")
    return record


def _jsonl_error(line_no: int, exc: Exception) -> LogParseError:
    if isinstance(exc, json.JSONDecodeError):
        return LogParseError(line_no, f"bad JSON: {exc.msg}")
    if isinstance(exc, RecursionError):
        return LogParseError(line_no, "bad JSON: nested too deeply")
    if isinstance(exc, KeyError):
        return LogParseError(line_no, f"missing field {exc}")
    if isinstance(exc, ValueError):
        return LogParseError(line_no, str(exc))
    return LogParseError(line_no, f"bad record: {exc}")


# ``ingest`` writes each records.jsonl line as its author's head and a
# fixed-width tail: a 25-character stamp (git's %aI has no fraction of a
# second), a 40-hex hash and a false merge flag (merges are dropped):
#     <head><stamp>", "hash": "<hash>", "is_merge": false}\n
# The template of the tail has NUL in the columns that vary.
_TAIL = b"\0" * _STAMP_WIDTH + _HASH_KEY + b"\0" * 40 + _ENDS[RECORD]
_TAIL_CODES = np.frombuffer(_TAIL, dtype=np.uint8)
_VARIES = _TAIL_CODES == 0
_HASH_AT = _STAMP_WIDTH + len(_HASH_KEY) - len(_TAIL)  # the hash's first column, from the line's end


def _head_author(head: str) -> tuple[int, str | None, str | None]:
    """The AuthorTable entry of a records.jsonl head: (RECORD, email, name)
    when ``_head`` writes it as ``head``, else (SKIP, None, None)."""
    try:
        email, end = scanstring(head, 18)  # after '{"author_email": "'
        name, _ = scanstring(head, end + 18)  # after ', "author_name": "'
    except ValueError:  # JSONDecodeError: not a JSON string
        return SKIP, None, None
    return (RECORD, email, name) if _head(email, name) == head else (SKIP, None, None)


def _written_block(lines: list[str], heads: AuthorTable) -> RecordBlock | None:
    """The records of ``lines`` when every line has the layout ``ingest``
    writes, else None.  Each line's tail is checked against ``_TAIL`` column
    by column, all lines at once, and each distinct head once, as an id into
    ``heads``."""
    n = len(lines)
    tails = "".join(map(getitem, lines, repeat(slice(-len(_TAIL), None), n)))
    if len(tails) != n * len(_TAIL) or not tails.isascii():
        return None
    codes = np.frombuffer(tails.encode("ascii"), dtype=np.uint8).reshape(n, len(_TAIL))
    if not (((codes == _TAIL_CODES) | _VARIES).all() and _is_hex(codes[:, _HASH_AT:_HASH_AT + 40]).all()):
        return None
    ids = np.fromiter(map(heads.__getitem__, map(getitem, lines, repeat(slice(None, -len(_TAIL)), n))),
                      dtype=np.int32, count=n)
    if (heads.kinds[ids] == SKIP).any():
        return None
    ok, months, texts = _utc_codes(codes[:, :_STAMP_WIDTH].copy(), np.full(n, _STAMP_WIDTH))
    if not ok.all():
        return None
    hashes = codes[:, _HASH_AT:_HASH_AT + 40].copy().view("S40").ravel()
    return RecordBlock(hashes, ids, heads, texts, months)


def read_records_jsonl(lines: Iterable[str]) -> Iterator[RecordBlock]:
    """Blocks of records from JSONL lines, each line one item with no
    newline but at its end (as iterating a file gives them).

    A block whose every line has the one layout ``ingest`` writes (see
    ``_TAIL``) is read by checking each line's tail against a template,
    all lines at once, and decoding each distinct head once, as an id into
    an AuthorTable (a new one once it holds ``_MEMO_SIZE`` keys); its hash
    and stamp text is made only when the block is written or iterated.  Any other
    block, say with a merge or a fraction of a second, which ``ingest``
    never writes, is read a line at a time with
    ``record_from_dict(json.loads(line.strip()))``: the same records and
    errors, only slower.

    Blank lines are ignored.  A line that is not such a record, or not
    UTF-8, raises LogParseError with its 1-based line number, after the
    records of the lines before it.
    """
    for chunk, first, heads, error in _chunks(lines, _head_author):
        block = _written_block(chunk, heads)
        if block is None:
            records = []
            for offset, raw in enumerate(chunk):
                line = raw.strip()
                if not line:
                    continue
                try:
                    records.append(record_from_dict(json.loads(line)))
                # JSONDecodeError is a ValueError
                except (ValueError, KeyError, AttributeError, TypeError, RecursionError) as exc:
                    error = _jsonl_error(first + offset, exc)
                    break
            block = RecordBlock.from_records(records)
        if block:
            yield block
        if error is not None:
            raise error


def open_text(path: str | Path) -> TextIO:
    """A log or records.jsonl file opened for reading.  A byte that is not
    UTF-8 reads as a lone surrogate, which the parsers report with its line
    number."""
    return Path(path).open(encoding="utf-8", errors="surrogateescape")


def ref_state(repo_path: str | Path) -> str:
    """Digest of what shapes the history ``acquire_repo_log`` streams: the
    refs it walks, and the shallow file and grafts file, which cut or join
    history with no ref moving (deepening a shallow clone rewrites only its
    shallow file); a missing file counts as empty.  A stash or a note leaves
    it as it is.  Raises RepoAcquisitionError on failure."""
    import hashlib  # only the log cache needs these; they cost start-up time
    import subprocess

    def git(*args: str) -> bytes:
        try:
            proc = subprocess.run(["git", "-C", str(repo_path), *args], capture_output=True)
        except OSError as exc:
            raise RepoAcquisitionError(f"cannot invoke git: {exc}") from exc
        if proc.returncode > 1:  # 1 only says that show-ref found no ref yet
            stderr_text = proc.stderr.decode("utf-8", errors="replace").strip()
            raise RepoAcquisitionError(stderr_text or f"git exited with {proc.returncode}")
        return proc.stdout

    walked = [line for line in git("show-ref", "--head").splitlines(keepends=True)  # b"<hash> <ref>\n"
              if not line.split(b" ", 1)[1].startswith((b"refs/stash\n", b"refs/notes/"))]
    for path in git("rev-parse", "--git-path", "shallow", "--git-path", "info/grafts").splitlines():
        walked.append(b"\0")  # no ref line holds one, nor does either file
        with contextlib.suppress(FileNotFoundError):
            walked.append(Path(repo_path, os.fsdecode(path)).read_bytes())
    return hashlib.sha1(b"".join(walked)).hexdigest()


def acquire_repo_log(repo_path: str | Path) -> Iterator[str]:
    """Stream the canonical dump for all commits reachable from HEAD or any
    ref but git's own bookkeeping, the stash (``refs/stash``) and notes
    (``refs/notes/*``), whose commits are not the project's history.

    Wraps ``git log --exclude=refs/stash --exclude='refs/notes/*' --all``.
    ``refs/original/*`` (the history ``git filter-branch`` rewrote) and
    ``refs/replace/*`` are walked like any other ref.  The parent-hash list
    git emits is replaced by a parent count while streaming, so merges stay
    recognisable.  Raises RepoAcquisitionError with git's diagnostic text on
    any failure.
    """
    import subprocess  # only --repo needs it; it costs start-up time

    repo_path = Path(repo_path)
    if not repo_path.exists():
        raise RepoAcquisitionError(f"path does not exist: {repo_path}")
    # stderr goes to a file, read once git has exited: a pipe read only after
    # stdout ends would stall git as soon as it fills the pipe buffer.
    with tempfile.TemporaryFile() as stderr_file:
        try:
            proc = subprocess.Popen(
                ["git", "-C", str(repo_path), "log", "--exclude=refs/stash", "--exclude=refs/notes/*", "--all",
                 f"--pretty=format:{GIT_LOG_FORMAT}"],
                stdout=subprocess.PIPE,
                stderr=stderr_file,
                text=True,
                encoding="utf-8",
                # A byte that is not UTF-8 reads as a lone surrogate, which
                # the parser reports with its line number, as for a log file.
                errors="surrogateescape",
            )
        except OSError as exc:
            raise RepoAcquisitionError(f"cannot invoke git: {exc}") from exc
        assert proc.stdout is not None
        try:
            for raw in proc.stdout:
                line = raw.rstrip("\n")
                if not line:
                    continue
                head, _, parents = line.rpartition("\t")
                count = 0 if not parents.strip() else len(parents.split(" "))
                yield f"{head}\t{count}\n"
        finally:
            proc.stdout.close()
            proc.wait()
        if proc.returncode != 0:
            stderr_file.seek(0)
            stderr_text = stderr_file.read().decode("utf-8", errors="replace")
            raise RepoAcquisitionError(stderr_text.strip() or f"git exited with {proc.returncode}")
