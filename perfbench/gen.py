"""Seeded synthetic commit logs in forgepulse's canonical dump format.

One line per commit, tab-separated:

    <hash> TAB <author-date RFC-3339> TAB <author-email> TAB <author-name> TAB <parent-count>

The same (spec, seed, stream) always gives the same bytes.  Everything that
shapes the log comes from one ``numpy.random.Generator``:

* monthly commit volume follows a sum of logistic episodes, so growth can
  have one phase or several;
* the author pool grows with the same curve and each author has a
  Pareto-distributed activity weight, so a few authors make most commits;
  each month about a fixed share of its commits come from distinct authors,
  so the active-contributor count tracks the curve for every seed;
* author email domains are drawn from corporate, provider, virtual-org and
  unclassifiable pools, plus a few addresses without an ``@``;
* a share of commits are merges (parent count 2);
* a share of lines are malformed, each with exactly one defect, and the
  reason the parser should report for it is counted here.

The generator does not import forgepulse: the program only ever sees the
bytes it writes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The parser's skip reasons, in the order it checks a line.
REASON_FIELD_COUNT = "bad field count"
REASON_HASH = "bad hash"
REASON_TIMESTAMP = "bad timestamp"
REASON_PARENT_COUNT = "bad parent count"
REASON_EMPTY_EMAIL = "empty email"
REASONS = (REASON_FIELD_COUNT, REASON_HASH, REASON_TIMESTAMP, REASON_PARENT_COUNT, REASON_EMPTY_EMAIL)

PROVIDER_DOMAINS = ("gmail.com", "hotmail.com", "yahoo.com", "outlook.com", "qq.com", "163.com")
VIRTUAL_ORG_DOMAINS = ("apache.org", "gnome.org", "dev.gnome.org")
UNKNOWN_DOMAINS = ("localhost", "10.0.0.7", "buildhost", "co.uk")
CORPORATE_SUFFIXES = (".com", ".io", ".co.uk", ".de", ".com.au")
OFFSETS = ("+00:00", "+00:00", "+00:00", "Z", "+05:30", "-08:00", "+02:00")
BLANK_EVERY = 20_000  # a blank line (not a record; the parser skips it silently) every this many
PARETO_SHAPE = 1.2  # of the per-author activity weights
ACTIVE_SHARE = 0.5  # distinct authors per commit in a month
MERGE_SHARE = 0.05
START_YEAR = 2000


@dataclass(frozen=True)
class LogSpec:
    """Shape of one synthetic project history."""

    commits: int  # non-blank lines, malformed ones included
    months: int = 240
    authors: int = 5000
    # Seeded month-to-month noise, relative, on the number of distinct
    # authors (ACTIVE_SHARE of the month's commits).  The active-contributor
    # count follows the growth curve this closely, so the cost of the growth
    # fits does not swing from seed to seed.
    active_noise: float = 0.03
    # When set, that noise comes from a generator of its own, seeded with
    # (noise_seed, stream) and not with the log's seed: every seed then
    # gives the same noisy active-contributor curve.
    noise_seed: int | None = None
    malformed_share: float = 0.001
    # (height, midpoint month, rate) of each logistic growth episode.
    episodes: tuple[tuple[float, float, float], ...] = ((1.0, 90.0, 0.05),)
    provider_share: float = 0.2
    virtual_org_share: float = 0.03
    unknown_share: float = 0.01
    no_at_share: float = 0.002
    corporate_domains: int = 60


@dataclass(frozen=True)
class GeneratedLog:
    """What the generator wrote and what the parser must report for it."""

    path: Path
    sha256: str
    lines: int  # non-blank
    merges: int
    skip_reasons: dict[str, int]

    @property
    def skipped(self) -> int:
        return sum(self.skip_reasons.values())

    @property
    def records(self) -> int:
        return self.lines - self.skipped

    @property
    def nonmerge_records(self) -> int:
        return self.records - self.merges


def growth_curve(spec: LogSpec) -> np.ndarray:
    t = np.arange(spec.months, dtype=float)
    curve = np.zeros(spec.months)
    for height, midpoint, rate in spec.episodes:
        curve += height / (1.0 + np.exp(-rate * (t - midpoint)))
    return curve / curve.max()


def _author_emails(spec: LogSpec, rng: np.random.Generator) -> list[str]:
    corporate = [
        f"corp{k}{CORPORATE_SUFFIXES[k % len(CORPORATE_SUFFIXES)]}" for k in range(spec.corporate_domains)
    ]
    corp_weights = 1.0 / np.arange(1, spec.corporate_domains + 1)
    corp_weights /= corp_weights.sum()
    shares = [spec.provider_share, spec.virtual_org_share, spec.unknown_share, spec.no_at_share]
    kinds = rng.choice(5, size=spec.authors, p=shares + [1.0 - sum(shares)])
    picks = rng.integers(0, 1 << 30, size=spec.authors)
    corp_picks = rng.choice(spec.corporate_domains, size=spec.authors, p=corp_weights)
    emails = []
    for a in range(spec.authors):
        kind, pick = int(kinds[a]), int(picks[a])
        if kind == 0:
            email = f"dev{a}@{PROVIDER_DOMAINS[pick % len(PROVIDER_DOMAINS)]}"
        elif kind == 1:
            email = f"dev{a}@{VIRTUAL_ORG_DOMAINS[pick % len(VIRTUAL_ORG_DOMAINS)]}"
        elif kind == 2:
            email = f"dev{a}@{UNKNOWN_DOMAINS[pick % len(UNKNOWN_DOMAINS)]}"
        elif kind == 3:
            email = f"dev{a}"
        else:
            domain = corporate[int(corp_picks[a])]
            email = f"dev{a}@{'eng.' + domain if pick % 5 == 0 else domain}"
        # Some authors write their address in upper case; identity folds it.
        emails.append(email.upper() if pick % 11 == 0 else email)
    return emails


def _month_counts(total: int, weights: np.ndarray) -> np.ndarray:
    """Commits per month in proportion to ``weights``, summing to ``total``
    (largest remainders get the leftover commits)."""
    exact = total * weights / weights.sum()
    counts = np.floor(exact).astype(np.int64)
    leftover = total - int(counts.sum())
    counts[np.argsort(counts - exact, kind="stable")[:leftover]] += 1
    return counts


def _month_authors(count: int, pool: int, active: int, activity: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Authors of one month's commits: ``active`` distinct authors, drawn
    from the pool without replacement by activity weight, and the remaining
    commits spread over those same authors by weight."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    active = max(1, min(pool, count, active))
    weights = activity[:pool]
    # Weighted sampling without replacement: the smallest exponential keys.
    keys = rng.exponential(size=pool) / weights
    chosen = np.argpartition(keys, active - 1)[:active] if active < pool else np.arange(pool)
    extra = rng.random(count - active) * weights[chosen].sum()
    repeats = chosen[np.minimum(np.searchsorted(np.cumsum(weights[chosen]), extra, side="right"), active - 1)]
    return rng.permutation(np.concatenate([chosen, repeats]))


def _malformed(line_fields: list[str], reason: str) -> str:
    sha, stamp, email, name, parents = line_fields
    if reason == REASON_FIELD_COUNT:
        return "\t".join((sha, stamp, email, name))
    if reason == REASON_HASH:
        return "\t".join(("g" + sha[1:], stamp, email, name, parents))
    if reason == REASON_TIMESTAMP:
        return "\t".join((sha, stamp[:19], email, name, parents))  # no UTC offset
    if reason == REASON_PARENT_COUNT:
        return "\t".join((sha, stamp, email, name, "-1"))
    return "\t".join((sha, stamp, "  ", name, parents))


def generate_log(spec: LogSpec, seed: int, path: Path, stream: int = 0) -> GeneratedLog:
    """Write one log for ``spec`` to ``path``; ``stream`` separates projects
    that share a seed."""
    rng = np.random.default_rng([seed, stream])
    noise = rng if spec.noise_seed is None else np.random.default_rng([spec.noise_seed, stream])
    curve = growth_curve(spec)
    month_counts = _month_counts(spec.commits, 0.02 + curve)
    emails = _author_emails(spec, rng)
    activity = rng.pareto(PARETO_SHAPE, size=spec.authors) + 1.0
    pool = np.maximum(1, np.ceil(spec.authors * curve)).astype(int)
    authors = np.empty(spec.commits, dtype=np.int64)
    months = np.repeat(np.arange(spec.months), month_counts)
    start = 0
    for t, count in enumerate(month_counts):
        active = round(ACTIVE_SHARE * count * (1.0 + spec.active_noise * noise.standard_normal()))
        authors[start:start + count] = _month_authors(int(count), int(pool[t]), active, activity, rng)
        start += count
    # Merges and malformed lines are drawn from an author's second and later
    # commits of a month, so dropping them never changes who was active.
    _, first_of_month = np.unique(months * spec.authors + authors, return_index=True)
    repeats = np.setdiff1d(np.arange(spec.commits), first_of_month)

    # Days 2..27: no UTC offset below moves a commit into another month.
    days = rng.integers(2, 28, size=spec.commits)
    seconds = rng.integers(0, 86_400, size=spec.commits)
    offsets = rng.integers(0, len(OFFSETS), size=spec.commits)
    hashes = rng.bytes(20 * spec.commits).hex()

    n_bad = round(spec.commits * spec.malformed_share)
    n_merge = round((spec.commits - n_bad) * MERGE_SHARE)
    picked = rng.choice(repeats, size=n_bad + n_merge, replace=False)
    bad_reason = {int(i): REASONS[k % len(REASONS)] for k, i in enumerate(np.sort(picked[:n_bad]))}
    merge_at = set(picked[n_bad:].tolist())

    out = []
    skip_reasons: dict[str, int] = {}
    for i in range(spec.commits):
        if i and i % BLANK_EVERY == 0:
            out.append("")
        month = int(months[i])
        sec = int(seconds[i])
        stamp = (
            f"{START_YEAR + month // 12:04d}-{month % 12 + 1:02d}-{int(days[i]):02d}"
            f"T{sec // 3600:02d}:{sec // 60 % 60:02d}:{sec % 60:02d}{OFFSETS[int(offsets[i])]}"
        )
        author = int(authors[i])
        fields = [
            hashes[40 * i:40 * i + 40],
            stamp,
            emails[author],
            f"Dev {author}",
            "2" if i in merge_at else ("0" if i == 0 else "1"),
        ]
        reason = bad_reason.get(i)
        if reason is None:
            out.append("\t".join(fields))
        else:
            out.append(_malformed(fields, reason))
            skip_reasons[reason] = skip_reasons.get(reason, 0) + 1
    data = ("\n".join(out) + "\n").encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return GeneratedLog(
        path=path,
        sha256=hashlib.sha256(data).hexdigest(),
        lines=spec.commits,
        merges=n_merge,
        skip_reasons=dict(sorted(skip_reasons.items())),
    )
