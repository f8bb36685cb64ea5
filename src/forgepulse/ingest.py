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
"""

from __future__ import annotations

import json
import tempfile
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from operator import attrgetter, getitem, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

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
# Distinct author fields a memo holds (about 500 bytes each) before it
# starts over, which bounds its size.
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


class Author(NamedTuple):
    """The fields a commit shares with the author's other commits, with
    the records.jsonl text around its stamp and hash."""

    email: str
    name: str
    is_merge: bool
    head: str  # '{"author_email": ..., "author_name": ..., "authored_at": "'
    end: str  # '", "is_merge": false}' and the newline


def _author(key: tuple[str, str, bool]) -> Author:
    """The Author of (email, name, is_merge)."""
    email, name, is_merge = key
    return Author(
        email,
        name,
        is_merge,
        f'{{"author_email": {encode_basestring_ascii(email)}, '
        f'"author_name": {encode_basestring_ascii(name)}, "authored_at": "',
        '", "is_merge": true}\n' if is_merge else '", "is_merge": false}\n',
    )


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``.  It starts over
    once it holds ``_MEMO_SIZE`` keys, so a long log cannot grow it without
    bound."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        if len(self) >= _MEMO_SIZE:
            self.clear()
        value = self[key] = self.make(key)
        return value


_HEADS = attrgetter("head")
_ENDS = attrgetter("end")
_MERGES = attrgetter("is_merge")
_HASH_KEY = '", "hash": "'


class RecordBlock:
    """Consecutive commits as parallel columns.

    ``stamps`` holds each commit's UTC time as ISO 8601 text, ``months`` its
    UTC month index (year * 12 + month - 1).  Iterating a block gives its
    ``CommitRecord``s.  ``hex_hashes`` says that every hash was checked to be
    40 hex digits, so it goes into JSON without escaping.
    """

    __slots__ = ("hashes", "authors", "stamps", "months", "hex_hashes")

    def __init__(self, hashes: list[str], authors: list[Author], stamps: list[str],
                 months: np.ndarray, hex_hashes: bool = False):
        self.hashes = hashes
        self.authors = authors
        self.stamps = stamps
        self.months = months
        self.hex_hashes = hex_hashes

    @classmethod
    def from_records(cls, records: Iterable[CommitRecord]) -> RecordBlock:
        records = list(records)
        authors = _Memo(_author)
        return cls(
            [r.hash for r in records],
            [authors[r.author_email, r.author_name, r.is_merge] for r in records],
            [r.authored_at.isoformat() for r in records],
            np.array([r.authored_at.year * 12 + r.authored_at.month - 1 for r in records], dtype=np.int32),
        )

    def __len__(self) -> int:
        return len(self.hashes)

    def __iter__(self) -> Iterator[CommitRecord]:
        for sha, author, stamp in zip(self.hashes, self.authors, self.stamps):
            yield CommitRecord(sha, author.email, author.name, datetime.fromisoformat(stamp), author.is_merge)

    @property
    def emails(self) -> list[str]:
        return [author.email for author in self.authors]

    def select(self, keep) -> RecordBlock:
        """The commits whose ``keep`` entry is true."""
        keep = np.asarray(keep, dtype=bool)
        flags = keep.tolist()
        return RecordBlock(
            list(compress(self.hashes, flags)),
            list(compress(self.authors, flags)),
            list(compress(self.stamps, flags)),
            self.months[keep],
            self.hex_hashes,
        )

    def without_merges(self) -> RecordBlock:
        merges = list(map(_MERGES, self.authors))
        return self.select([not merge for merge in merges]) if any(merges) else self

    def jsonl(self) -> str:
        """The block as records.jsonl lines: for each record, its fields
        (``authored_at`` as ISO 8601 text) as ``json.dumps(..., sort_keys=True)``
        writes them, and a newline."""
        hashes = self.hashes
        if not self.hex_hashes:
            hashes = [encode_basestring_ascii(sha)[1:-1] for sha in hashes]
        parts = [_HASH_KEY] * (5 * len(hashes))
        parts[0::5] = map(_HEADS, self.authors)
        parts[1::5] = self.stamps
        parts[3::5] = hashes
        parts[4::5] = map(_ENDS, self.authors)
        return "".join(parts)


@dataclass
class IngestReport:
    source: str = "<stream>"
    records_parsed: int = 0
    records_skipped: int = 0
    skip_reasons: dict[str, int] = field(default_factory=dict)

    def tally_skip(self, reason: str) -> None:
        self.records_skipped += 1
        self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + 1

    def to_dict(self) -> dict:
        return asdict(self)


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
_SEPARATOR_CODES = np.array([ord(c) for c in "--T::"], dtype=np.uint32)
# Upper bounds of month, day, hour, minute, second, offset hours, offset minutes.
_FIELD_MAXIMA = np.array([12, 31, 23, 59, 59, 23, 59], dtype=np.int32)
_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int32)
_UTC_SUFFIX = np.array([ord(c) for c in "+00:00"], dtype=np.uint32)
_TWO_DIGITS = np.array([[48 + v // 10, 48 + v % 10] for v in range(100)], dtype=np.uint32)
_MONTH_ZERO = np.datetime64("0000-01", "M")  # month index 0


def _utc_block(stamps: list[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Convert the stamps of canonical shape to UTC together.

    Returns which stamps were converted, their UTC month index and their
    UTC ISO text, the form ``_parse_timestamp(...).isoformat()`` gives.  A
    stamp is converted only when every field is ASCII digits and in range
    (the day within its month, the offset under 24 hours) and its UTC
    instant falls in years 1..9999; the entries of the others are filler.
    """
    n = len(stamps)
    width = np.fromiter(map(len, stamps), dtype=np.int64, count=n)
    if (width > _STAMP_WIDTH).any():  # the fixed-width array would cut them short
        stamps = [stamp if len(stamp) <= _STAMP_WIDTH else "" for stamp in stamps]
    chars = np.array(stamps, dtype=f"<U{_STAMP_WIDTH}").view(np.uint32).reshape(n, _STAMP_WIDTH)
    return _utc_codes(chars, width)


def _utc_codes(chars: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """``_utc_block`` of stamps given as their code points, one row each,
    NUL-padded and cut to ``_STAMP_WIDTH`` columns, and their widths.  A
    stamp wider than the array is left over.  ``chars`` must be a
    C-contiguous uint32 array; it is rewritten."""
    digits = chars[:, _STAMP_DIGITS] - 48  # code points below "0" wrap around
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
        text[moved, :10] = np.datetime_as_string(date).astype("<U10").view(np.uint32).reshape(-1, 10)
    texts = text.view(f"<U{_STAMP_WIDTH}").ravel().tolist()
    return ok, months, texts


def _utc_stamps(stamps: list[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """``_utc_block``, with each stamp it leaves over converted by
    ``_parse_timestamp``: false entries are the stamps that are not
    timestamps."""
    ok, months, texts = _utc_block(stamps)
    for i in np.flatnonzero(~ok).tolist():
        stamp = _parse_timestamp(stamps[i])
        if stamp is not None:
            ok[i] = True
            months[i] = stamp.year * 12 + stamp.month - 1
            texts[i] = stamp.isoformat()
    return ok, months, texts


def _hex40(hashes: list[str]) -> np.ndarray:
    """Which hashes are 40 hex digits."""
    n = len(hashes)
    forty = np.fromiter(map(len, hashes), dtype=np.int64, count=n) == 40
    if not forty.all():
        hashes = [sha if len(sha) == 40 else "-" * 40 for sha in hashes]
    # One byte per character: "?" stands for any character past U+00FF.
    codes = np.frombuffer("".join(hashes).encode("latin-1", "replace"), dtype=np.uint8).reshape(n, 40)
    # Bytes below "0" or "a" wrap around; | 32 lowercases A-F.
    return ((codes - 48 < 10) | ((codes | 32) - 97 < 6)).all(axis=1) & forty


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


def _tail_author(tail: str) -> Author | str:
    """The Author of a line's fields after the stamp, or why they make no
    record."""
    fields = tail.rstrip("\r\n").split("\t")
    if len(fields) != 3:
        return REASON_FIELD_COUNT
    email, name, parent_text = fields
    try:
        parent_count = int(parent_text)
    except ValueError:
        return REASON_PARENT_COUNT
    if parent_count < 0:
        return REASON_PARENT_COUNT
    if not email.strip():
        return REASON_EMPTY_EMAIL
    return _author((email, name, parent_count >= 2))


_NO_FIELDS = ("", "", "")
_HASHES, _STAMPS, _TAILS = itemgetter(0), itemgetter(1), itemgetter(2)


def _parse_block(
    chunk: list[str], first: int, tails: _Memo, report: IngestReport, strict: bool
) -> Iterator[RecordBlock]:
    """Parse the lines of ``chunk``, the first of which is line ``first``.

    A line with faults takes the reason of the first of: field count, hash,
    timestamp, then parent count or empty email.  Before a LogParseError
    (strict mode, or a line that is not UTF-8) the records of the lines
    before the failing one are yielded.
    """
    utf8 = _utf8_prefix(chunk)
    lines = chunk[:utf8]
    n = len(lines)
    parts = list(map(str.split, lines, repeat("\t", n), repeat(2, n)))
    if min(map(len, parts), default=3) < 3:
        parts = [fields if len(fields) == 3 else _NO_FIELDS for fields in parts]
    hashes = list(map(_HASHES, parts))
    stamps = list(map(_STAMPS, parts))
    authors = list(map(tails.__getitem__, map(_TAILS, parts)))
    del parts  # frees each line's field list and tail before the array work
    hex_ok = _hex40(hashes)
    stamp_ok, months, texts = _utc_stamps(stamps)
    faulty = ~(hex_ok & stamp_ok) | np.fromiter(map(isinstance, authors, repeat(str, n)), dtype=bool, count=n)

    keep = np.ones(n, dtype=bool)
    error = None
    for i in np.flatnonzero(faulty).tolist():
        author = authors[i]
        if author == REASON_FIELD_COUNT:
            reason = REASON_FIELD_COUNT if lines[i].rstrip("\r\n") else None  # else blank: not a record
        elif not hex_ok[i]:
            reason = REASON_HASH
        elif not stamp_ok[i]:
            reason = REASON_TIMESTAMP
        else:
            reason = author
        keep[i] = False
        if reason is None:
            continue
        if strict:
            error = LogParseError(first + i, reason)
            keep[i:] = False
            break
        report.tally_skip(reason)
    if error is None and utf8 < len(chunk):
        error = LogParseError(first + utf8, REASON_NOT_UTF8)

    block = RecordBlock(hashes, authors, texts, months, hex_hashes=True)
    if not keep.all():
        block = block.select(keep)
    report.records_parsed += len(block)
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
    """
    report = IngestReport(source=source)

    def _blocks() -> Iterator[RecordBlock]:
        tails = _Memo(_tail_author)
        pending = iter(lines)
        first = 1
        while chunk := list(islice(pending, BLOCK_LINES)):
            yield from _parse_block(chunk, first, tails, report, strict)
            first += len(chunk)

    return (_blocks() if blocks else chain.from_iterable(_blocks())), report


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


def _ascii_codes(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


# A records.jsonl line as ``RecordBlock.jsonl`` writes it with a 40-hex
# hash is its head (the text before the stamp), a 25- or 32-character
# stamp and a fixed tail:
#     <stamp>", "hash": "<hash>", "is_merge": false}\n    (or true}\n)
# The last _TAIL_WIDTH characters of such a line hold the longest stamp,
# its tail and the quote that opens the stamp.
_TAIL_WIDTH = 107
_HASH_SEPARATOR = _ascii_codes(_HASH_KEY)
_END_FALSE = _ascii_codes('", "is_merge": false}\n')
_END_TRUE = _ascii_codes('", "is_merge": true}\n')
_QUOTE = ord('"')
_HEX_DIGITS = b"0123456789abcdefABCDEF"
# The ASCII characters a JSON string holds as they are: no quote,
# backslash or control character.
_PLAIN = bytes(c for c in range(32, 128) if c not in b'"\\')
# Where the head, hash and stamp lie, from the line's end, for a line with
# a false or true merge flag (0 or 1), plus 2 for a 32-character stamp.
_CUTS = tuple(
    (slice(None, -tail), slice(end - 40, end), slice(-tail, end - 52))
    for tail, end in ((99, -22), (98, -21), (106, -22), (105, -21))
)
_HEAD_KEYS = ('{"author_email": "', ', "author_name": "', ', "authored_at": "')


def _head_author(head: str, is_merge: bool) -> Author | None:
    """The Author of a written line's head and merge flag, or None when the
    head is not the keys ``RecordBlock.jsonl`` writes around two JSON
    strings."""
    email_key, name_key, stamp_key = _HEAD_KEYS
    if not head.startswith(email_key):
        return None
    try:
        email, end = scanstring(head, len(email_key))
        if not head.startswith(name_key, end):
            return None
        name, end = scanstring(head, end + len(name_key))
    except ValueError:  # JSONDecodeError: not a JSON string
        return None
    if head[end:] != stamp_key:
        return None
    return _author((email, name, is_merge))


def _only(codes: np.ndarray, allowed: bytes) -> bool:
    """Whether every byte of ``codes`` is one of ``allowed``."""
    return not codes.tobytes().translate(None, allowed)


def _written_columns(
    lines: list[str], authors: list[_Memo]
) -> tuple[list[str], list[Author], tuple[np.ndarray, np.ndarray, list[str]]] | None:
    """The hashes and authors of ``lines``, and their stamps as
    ``_utc_stamps`` converts them, when every line has the layout
    ``RecordBlock.jsonl`` writes with a 40-hex hash; else None.

    Each line's tail is checked at fixed offsets from its end, all lines at
    once, and each distinct head once, through ``authors[is_merge]``."""
    n = len(lines)
    tails = "".join(map(getitem, lines, repeat(slice(-_TAIL_WIDTH, None), n)))
    if not n or len(tails) != n * _TAIL_WIDTH or not tails.isascii():
        return None
    codes = np.frombuffer(tails.encode("ascii"), dtype=np.uint8).reshape(n, _TAIL_WIDTH)
    merge = codes[:, -6] == ord("t")
    if not ((codes[~merge, -len(_END_FALSE):] == _END_FALSE).all()
            and (codes[merge, -len(_END_TRUE):] == _END_TRUE).all()):
        return None
    # The rows aligned on the hash's end, which a true merge flag moves one
    # character right: the hash is columns -61..-22, the separator before
    # it, then the stamp, whose opening quote is column -99, or -106 for a
    # 32-character stamp.
    aligned = codes[:, :-1].copy()
    aligned[merge] = codes[merge, 1:]
    long_stamp = aligned[:, -99] != _QUOTE
    long_rows = aligned[long_stamp]
    if not ((aligned[:, -73:-61] == _HASH_SEPARATOR).all() and _only(aligned[:, -61:-21], _HEX_DIGITS)
            and _only(aligned[:, -98:-73], _PLAIN) and _only(long_rows[:, 1:8], _PLAIN)
            and (long_rows[:, 0] == _QUOTE).all()):
        return None
    # Each run of lines of one layout is cut with one pair of slices.
    layouts = merge + 2 * long_stamp
    bounds = [0, *(np.flatnonzero(np.diff(layouts)) + 1).tolist(), n]
    hashes, line_authors = [], []
    for start, stop in zip(bounds, bounds[1:]):
        layout = int(layouts[start])
        head, sha, _ = _CUTS[layout]
        run = lines[start:stop]
        line_authors += map(authors[layout & 1].__getitem__, map(getitem, run, repeat(head)))
        hashes += map(getitem, run, repeat(sha))
    if not all(line_authors):
        return None
    # A short stamp's digits are read from the rows; a long one is left over.
    stamps = _utc_codes(aligned[:, -98:-73].astype(np.uint32), np.where(long_stamp, 32, 25))
    if not stamps[0].all():  # some stamps need their text
        stamps = _utc_stamps([line[_CUTS[layout][2]] for line, layout in zip(lines, layouts.tolist())])
    return hashes, line_authors, stamps


def read_records_jsonl(lines: Iterable[str]) -> Iterator[RecordBlock]:
    """Blocks of records from JSONL lines, each line one item with no
    newline but at its end (as iterating a file gives them).

    A block whose every line has the layout ``RecordBlock.jsonl`` writes
    with a 40-hex hash (its keys in that order, its separators and final
    newline, a 25- or 32-character stamp, either merge flag) is read by
    checking each line's tail at fixed offsets from its end, all lines at
    once, and decoding each distinct text before the stamp once.  Any
    other block is read a line at a time with
    ``record_from_dict(json.loads(line.strip()))``: every valid record
    line, other hash or stamp widths included, is still read, with the
    same records and errors, only slower.

    Blank lines are ignored.  A line that is not such a record, or not
    UTF-8, raises LogParseError with its 1-based line number, after the
    records of the lines before it.
    """
    authors = [_Memo(partial(_head_author, is_merge=flag)) for flag in (False, True)]
    pending = iter(lines)
    first = 1
    while chunk := list(islice(pending, BLOCK_LINES)):
        utf8 = _utf8_prefix(chunk)
        error = LogParseError(first + utf8, REASON_NOT_UTF8) if utf8 < len(chunk) else None
        columns = _written_columns(chunk[:utf8], authors)
        if columns is not None:
            hashes, block_authors, (ok, months, texts) = columns
            n = len(hashes)
            if not ok.all():
                n = int(np.argmin(ok))
                error = LogParseError(first + n, REASON_TIMESTAMP)
            block = RecordBlock(hashes[:n], block_authors[:n], texts[:n], months[:n], hex_hashes=True)
        else:
            records = []
            for offset, raw in enumerate(chunk[:utf8]):
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
        first += len(chunk)


def ref_state(repo_path: str | Path) -> str:
    """Digest of HEAD and every ref, which changes whenever the history that
    ``acquire_repo_log`` streams can.  Raises RepoAcquisitionError on failure."""
    import hashlib  # only the log cache needs these; they cost start-up time
    import subprocess

    cmd = ["git", "-C", str(repo_path), "show-ref", "--head"]
    try:
        proc = subprocess.run(cmd, capture_output=True)
    except OSError as exc:
        raise RepoAcquisitionError(f"cannot invoke git: {exc}") from exc
    if proc.returncode > 1:  # 1 only says that there is no ref yet
        stderr_text = proc.stderr.decode("utf-8", errors="replace").strip()
        raise RepoAcquisitionError(stderr_text or f"git exited with {proc.returncode}")
    return hashlib.sha1(proc.stdout).hexdigest()


def acquire_repo_log(repo_path: str | Path) -> Iterator[str]:
    """Stream the canonical dump for all commits reachable from any ref.

    Wraps ``git log --all``; the parent-hash list git emits is replaced by a
    parent count while streaming, so merges stay recognisable.  Raises
    RepoAcquisitionError with git's diagnostic text on any failure.
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
                ["git", "-C", str(repo_path), "log", "--all", f"--pretty=format:{GIT_LOG_FORMAT}"],
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
