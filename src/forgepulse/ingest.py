"""Commit-log acquisition and parsing.

Canonical dump format, one commit per line, UTF-8, LF newlines:

    <hash> TAB <author-date RFC-3339> TAB <author-email> TAB <author-name> TAB <parent-count>

A parent count of 2 or more marks a merge commit.  Author names containing
tabs cannot be represented and such lines are rejected (bad field count).
Timestamps are converted to UTC at parse time so that calendar-month
bucketing downstream is timezone-independent.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import tempfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import LogParseError, RepoAcquisitionError

_HEX40 = re.compile(r"[0-9a-fA-F]{40}")

REASON_FIELD_COUNT = "bad field count"
REASON_HASH = "bad hash"
REASON_TIMESTAMP = "bad timestamp"
REASON_PARENT_COUNT = "bad parent count"
REASON_EMPTY_EMAIL = "empty email"

GIT_LOG_FORMAT = "%H%x09%aI%x09%ae%x09%an%x09%P"


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
    except ValueError:
        return None
    if stamp.tzinfo is None:
        return None
    return stamp.astimezone(timezone.utc)


def _parse_line(line: str) -> tuple[CommitRecord | None, str | None]:
    parts = line.split("\t")
    if len(parts) != 5:
        return None, REASON_FIELD_COUNT
    sha, stamp_text, email, name, parent_text = parts
    if not _HEX40.fullmatch(sha):
        return None, REASON_HASH
    stamp = _parse_timestamp(stamp_text)
    if stamp is None:
        return None, REASON_TIMESTAMP
    try:
        parent_count = int(parent_text)
    except ValueError:
        return None, REASON_PARENT_COUNT
    if parent_count < 0:
        return None, REASON_PARENT_COUNT
    if not email.strip():
        return None, REASON_EMPTY_EMAIL
    return CommitRecord(sha, email, name, stamp, parent_count >= 2), None


def parse_log_stream(
    lines: Iterable[str],
    strict: bool = False,
    source: str = "<stream>",
) -> tuple[Iterator[CommitRecord], IngestReport]:
    """Parse canonical-format lines into records, single pass, input order.

    Returns a lazy record iterator plus a report that is complete once the
    iterator is exhausted.  Fully blank lines are ignored (they are not
    records); every other line is either parsed or tallied as skipped, so
    records_parsed + records_skipped equals the non-blank line count.

    strict=True raises LogParseError (with line number and reason) at the
    first malformed line; strict=False skips and tallies it instead.  Lines
    with an empty author email are treated as malformed: they are counted
    under "empty email" and excluded from downstream analysis.
    """
    report = IngestReport(source=source)

    def _records() -> Iterator[CommitRecord]:
        for line_no, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            record, reason = _parse_line(line)
            if record is None:
                if strict:
                    raise LogParseError(line_no, reason)
                report.tally_skip(reason)
                continue
            report.records_parsed += 1
            yield record

    return _records(), report


def format_record(record: CommitRecord) -> str:
    """Serialize back to the canonical line format.

    The parent count is canonicalized: 2 for merges, 1 otherwise.  Re-parsing
    the result yields a record equal to the input.
    """
    parent_count = 2 if record.is_merge else 1
    return "\t".join(
        (
            record.hash,
            record.authored_at.isoformat(),
            record.author_email,
            record.author_name,
            str(parent_count),
        )
    )


def record_to_dict(record: CommitRecord) -> dict:
    return {
        "hash": record.hash,
        "author_email": record.author_email,
        "author_name": record.author_name,
        "authored_at": record.authored_at.isoformat(),
        "is_merge": record.is_merge,
    }


_RECORD_LINE = '{{"author_email": {}, "author_name": {}, "authored_at": "{}", "hash": {}, "is_merge": {}}}'


def record_line(record: CommitRecord) -> str:
    """``record_to_dict`` as one records.jsonl line: the bytes
    ``json.dumps(..., sort_keys=True)`` gives, without building the dict."""
    return _RECORD_LINE.format(
        encode_basestring_ascii(record.author_email),
        encode_basestring_ascii(record.author_name),
        record.authored_at.isoformat(),
        encode_basestring_ascii(record.hash),
        "true" if record.is_merge else "false",
    )


def record_from_dict(data: dict) -> CommitRecord:
    """Inverse of ``record_to_dict``.

    Raises KeyError for a missing field and ValueError for a bad timestamp.
    """
    stamp = _parse_timestamp(data["authored_at"])
    if stamp is None:
        raise ValueError(REASON_TIMESTAMP)
    return CommitRecord(
        hash=data["hash"],
        author_email=data["author_email"],
        author_name=data["author_name"],
        authored_at=stamp,
        is_merge=bool(data["is_merge"]),
    )


def read_records_jsonl(lines: Iterable[str]) -> Iterator[CommitRecord]:
    """Records from JSONL lines as ``record_line`` writes them.

    Blank lines are ignored.  A line that is not such a record raises
    LogParseError with its 1-based line number.
    """
    line_no = 0
    try:
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if line:
                yield record_from_dict(json.loads(line))
    except UnicodeDecodeError:
        raise  # from reading ``lines``, not from a record
    except json.JSONDecodeError as exc:
        raise LogParseError(line_no, f"bad JSON: {exc.msg}") from exc
    except KeyError as exc:
        raise LogParseError(line_no, f"missing field {exc}") from exc
    except ValueError as exc:
        raise LogParseError(line_no, str(exc)) from exc
    except (AttributeError, TypeError) as exc:
        raise LogParseError(line_no, f"bad record: {exc}") from exc


def ref_state(repo_path: str | Path) -> str:
    """Digest of HEAD and every ref, which changes whenever the history that
    ``acquire_repo_log`` streams can.  Raises RepoAcquisitionError on failure."""
    cmd = ["git", "-C", str(repo_path), "show-ref", "--head"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, errors="replace")
    except OSError as exc:
        raise RepoAcquisitionError(f"cannot invoke git: {exc}") from exc
    if proc.returncode > 1:  # 1 only says that there is no ref yet
        raise RepoAcquisitionError(proc.stderr.strip() or f"git exited with {proc.returncode}")
    return hashlib.sha1(proc.stdout.encode()).hexdigest()


def acquire_repo_log(repo_path: str | Path) -> Iterator[str]:
    """Stream the canonical dump for all commits reachable from any ref.

    Wraps ``git log --all``; the parent-hash list git emits is replaced by a
    parent count while streaming, so merges stay recognisable.  Raises
    RepoAcquisitionError with git's diagnostic text on any failure.
    """
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
                errors="replace",
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
