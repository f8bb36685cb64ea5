"""Calendar-month aggregation of commit records, smoothing, and eligibility.

Months are UTC calendar months.  A contributor or organization is "active"
in a month when it has at least one commit in that month.  Interior months
without activity are materialized as zero points so the time axis is true;
leading/trailing inactivity is not padded.

Contributors are listed in order of first commit, and each month's units
in order of their first commit in the whole input.  No artifact depends on
these orders: every consumer sorts, adds integers or sums exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import IdentityError, SeriesError
from .identity import DomainClass, IdentityConfig, OrgUnit, normalize_email, resolve_org
from .ingest import RecordBlock


@dataclass(frozen=True, order=True)
class MonthKey:
    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise SeriesError(f"month out of range: {self.month}")

    @property
    def index(self) -> int:
        return self.year * 12 + self.month - 1

    @classmethod
    def from_index(cls, index: int) -> "MonthKey":
        return cls(index // 12, index % 12 + 1)

    @classmethod
    def parse(cls, text: str) -> "MonthKey":
        try:
            year_text, month_text = text.split("-")
            return cls(int(year_text), int(month_text))
        except (ValueError, SeriesError) as exc:
            raise SeriesError(f"bad month key {text!r}") from exc

    def shift(self, months: int) -> "MonthKey":
        return MonthKey.from_index(self.index + months)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


@dataclass(frozen=True)
class MonthlySeries:
    """Gap-filled monthly points plus whole-history contributor totals.

    Each point is its series.json object: ``month`` ("YYYY-MM"), the counts
    ``active_contributors``, ``commits`` and ``active_orgs``, and
    ``org_commits``, the commits of each unit active that month.
    ``contributor_commits`` maps each contributor key to its total commit
    count over the full history; it feeds the contribution-distribution tail
    estimate and life-span totals, which are not derivable from the monthly
    points alone.
    """

    points: tuple[dict, ...]
    origin: MonthKey
    contributor_commits: dict[str, int] = field(default_factory=dict)

    @property
    def total_contributors(self) -> int:
        return len(self.contributor_commits)

    @property
    def total_orgs(self) -> int:
        keys: set[str] = set()
        for point in self.points:
            keys.update(point["org_commits"])
        return len(keys)

    @property
    def total_commits(self) -> int:
        return sum(point["commits"] for point in self.points)

    @property
    def mean_monthly_commits(self) -> float:
        return self.total_commits / len(self.points)

    def values(self, field_name: str) -> list[int]:
        return [point[field_name] for point in self.points]


def _fallback_unit(raw_email: str) -> tuple[str, OrgUnit]:
    # Garbage author emails (no "@", etc.) still identify a contributor
    # string; attribute them deterministically instead of failing the run.
    key = raw_email.strip().lower() or "<no-email>"
    return key, OrgUnit(key, DomainClass.UNKNOWN)


class _ContributorIds(dict):
    """Raw author address -> contributor id, resolving each new address
    once: its contributor key, and for a new key its unit, once per domain."""

    def __init__(self, config: IdentityConfig):
        super().__init__()
        self.config = config
        self.key_ids: dict[str, int] = {}  # contributor key -> contributor id
        self.unit_ids: dict[str, int] = {}  # unit key -> unit id
        self.contributor_unit: list[int] = []  # contributor id -> unit id
        self.domain_units: dict[str, OrgUnit] = {}  # domain -> unit of its first address

    def __missing__(self, raw: str) -> int:
        try:
            key, unit = normalize_email(raw), None
        except IdentityError:
            key, unit = _fallback_unit(raw)
        contributor = self.key_ids.get(key)
        if contributor is None:
            contributor = self.key_ids[key] = len(self.key_ids)
            if unit is None:
                domain = key.rpartition("@")[2]
                unit = self.domain_units.get(domain)
                if unit is None:
                    unit = self.domain_units[domain] = resolve_org(key, self.config)
            # A provider address is its own one-person unit unless providers
            # are grouped; every other unit depends on the domain alone.
            one_person = unit.domain_class is DomainClass.PROVIDER and not self.config.group_providers
            self.contributor_unit.append(self.unit_ids.setdefault(key if one_person else unit.key, len(self.unit_ids)))
        self[raw] = contributor
        return contributor


def build_monthly_series(
    blocks: Iterable[RecordBlock],
    config: IdentityConfig = IdentityConfig(),
) -> MonthlySeries:
    """Aggregate blocks of records into a gap-filled monthly series.

    Every record given counts; merges are dropped before this, at ingest.
    Records whose email cannot be normalized are attributed to an Unknown
    one-person unit keyed by the trimmed, lowercased raw string, so every
    record lands in exactly one month bucket (conservation: sum of monthly
    commit counts equals the record count).  Order-insensitive, except that
    contributors are listed in order of first commit, and each month's units
    in unit-id order, which is the order of each unit's first commit in the
    whole input.  No artifact depends on either order.

    Each author id of a block's table is resolved once, through its raw
    address, which is normalized once, and its unit resolved once per
    domain (a provider address is its own one-person unit); a block's
    contributor column is then one gather over its ``author_ids``.  Per
    record only its month index and contributor id are kept, and the counts
    come from those two columns: ``np.bincount`` for commits, and one
    ``np.unique`` each over the (month, contributor) keys for active
    contributors and over the (month, unit) keys for each month's units.
    """
    ids = _ContributorIds(config)
    month_blocks, contributor_blocks = [], []
    table = contributor_of = None  # the contributor id of each author id of the table, or -1
    for block in blocks:
        if block.table is not table:
            table, contributor_of = block.table, np.empty(0, dtype=np.int32)
        if len(contributor_of) < len(table):
            contributor_of = np.concatenate([contributor_of, np.full(len(table), -1, dtype=np.int32)])
        column = contributor_of[block.author_ids]
        new = block.author_ids[column < 0]
        if new.size:  # resolved in order of first commit, which orders the contributors
            new, first_seen = np.unique(new, return_index=True)
            for author in new[np.argsort(first_seen)].tolist():
                contributor_of[author] = ids[table.emails[author]]
            column = contributor_of[block.author_ids]
        month_blocks.append(block.months)
        contributor_blocks.append(column)

    if not sum(map(len, month_blocks)):
        raise SeriesError("no records to aggregate (empty series)")

    key_ids, unit_ids = ids.key_ids, ids.unit_ids
    month = np.concatenate(month_blocks)
    contributor = np.concatenate(contributor_blocks)
    del month_blocks, contributor_blocks
    first = int(month.min())
    month = np.subtract(month, first, dtype=np.int64)
    span = int(month.max()) + 1
    commits = np.bincount(month, minlength=span)
    # return_counts makes np.unique sort; without it numpy 2.4 hashes first,
    # 29.7 ms against 3.0 ms on the (month, contributor) keys of 200k commits.
    distinct = np.unique(month * len(key_ids) + contributor, return_counts=True)[0]
    active = np.bincount(distinct // len(key_ids), minlength=span)
    pairs, counts = np.unique(
        month * len(unit_ids) + np.asarray(ids.contributor_unit, dtype=np.int64)[contributor], return_counts=True
    )
    pair_month, pair_unit = np.divmod(pairs, len(unit_ids))
    unit_keys = list(unit_ids)
    month_orgs: list[dict[str, int]] = [{} for _ in range(span)]
    for m, u, c in zip(pair_month.tolist(), pair_unit.tolist(), counts.tolist()):
        month_orgs[m][unit_keys[u]] = c

    points = tuple(
        {"month": str(MonthKey.from_index(first + m)), "active_contributors": n_active, "commits": n_commits,
         "active_orgs": len(orgs), "org_commits": orgs}
        for m, (n_active, n_commits, orgs) in enumerate(zip(active.tolist(), commits.tolist(), month_orgs))
    )
    return MonthlySeries(
        points=points,
        origin=MonthKey.from_index(first),
        contributor_commits=dict(zip(key_ids, np.bincount(contributor, minlength=len(key_ids)).tolist())),
    )


def moving_average(values: Sequence[float], window: int = 3) -> list[float]:
    """Centered moving average; the window shrinks at the edges.

    Window must be odd and positive.  window=1 is the identity.
    """
    if window < 1 or window % 2 == 0:
        raise SeriesError(f"window must be odd and positive, got {window}")
    half = window // 2
    n = len(values)
    out = []
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        out.append(sum(values[lo:hi]) / (hi - lo))
    return out


@dataclass(frozen=True)
class EligibilityThresholds:
    min_total_contributors: int = 100
    min_total_orgs: int = 20
    min_mean_monthly_commits: float = 100.0


def check_eligibility(series, thresholds: EligibilityThresholds = EligibilityThresholds()) -> dict[str, bool]:
    """Check study-inclusion thresholds over a project's full history.

    ``series`` is a MonthlySeries, or any object exposing its
    total_contributors, total_orgs and mean_monthly_commits.  Returns the
    three checks and ``eligible``, which holds when all three pass.
    """
    checks = {
        "contributors_ok": series.total_contributors >= thresholds.min_total_contributors,
        "orgs_ok": series.total_orgs >= thresholds.min_total_orgs,
        "commit_rate_ok": series.mean_monthly_commits >= thresholds.min_mean_monthly_commits,
    }
    return {**checks, "eligible": all(checks.values())}


def series_to_dict(series: MonthlySeries) -> dict:
    return {
        "origin": str(series.origin),
        "points": list(series.points),
        "contributor_commits": dict(series.contributor_commits),
    }


def _is_count(value) -> bool:
    return type(value) is int and 0 <= value < 2**63  # not bool; json reads ints no float can hold


def _is_counts(value) -> bool:
    return isinstance(value, dict) and all(map(_is_count, value.values()))


def _field(table: dict, key: str, check, default=None):  # None passes no check
    value = table.get(key, default)
    if not check(value):
        raise SeriesError(f"missing or bad field {key!r}")
    return value


def series_from_dict(data) -> MonthlySeries:
    """Inverse of ``series_to_dict``; ``contributor_commits`` may be absent.
    Raises SeriesError for any other missing or bad field: counts are
    non-negative integers, months "YYYY-MM" text, and the points' months
    run on one by one from ``origin``.  Each point keeps its five fields,
    its month written as ``MonthKey`` writes it ("2015-1" as "2015-01")."""
    if not isinstance(data, dict):
        raise SeriesError(f"series must be a JSON object, got {type(data).__name__}")
    entries = _field(data, "points", lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v))
    if not entries:
        raise SeriesError("series has no points")
    points = tuple(
        {
            "month": MonthKey.parse(_field(entry, "month", lambda v: isinstance(v, str))),
            "active_contributors": _field(entry, "active_contributors", _is_count),
            "commits": _field(entry, "commits", _is_count),
            "active_orgs": _field(entry, "active_orgs", _is_count),
            "org_commits": dict(_field(entry, "org_commits", _is_counts)),
        }
        for entry in entries
    )
    origin = MonthKey.parse(_field(data, "origin", lambda v: isinstance(v, str)))
    for i, point in enumerate(points):
        month = point["month"]
        if month.index != origin.index + i:
            raise SeriesError(f"point {i} is month {month}, not {origin.shift(i)}: months must be consecutive")
        point["month"] = str(month)
    return MonthlySeries(
        points=points,
        origin=origin,
        contributor_commits=dict(_field(data, "contributor_commits", _is_counts, {})),
    )


def load_series(path: str | Path) -> MonthlySeries:
    """The series in a series.json file.  Raises SeriesError naming the
    file when it cannot be read or is not a series."""
    try:
        return series_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, ValueError, RecursionError, SeriesError) as exc:  # ValueError: not JSON, or not UTF-8
        raise SeriesError(f"bad series file {path}: {exc}") from exc
