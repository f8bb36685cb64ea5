"""The per-commit path against the code it replaced.

``build_monthly_series_oracle`` (tests/oracles.py) is the dict-and-set loop
that used to be ``build_monthly_series``, and
``json.dumps(record_to_dict(r), sort_keys=True)`` is how records.jsonl lines
used to be encoded.  The fixture digests were
recorded with that code; ``records.jsonl``, ``ingest_report.json``,
``series.json`` and ``run_report.json`` hold only integers and strings, so
they do not depend on the platform.  Every other file of the run holds
floats, whose digests hold only for the environment they were recorded on,
as in tests/test_fit_golden.py.
"""

import hashlib
import io
import json
import random
import tracemalloc
from contextlib import redirect_stderr
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forgepulse import CommitRecord, IdentityConfig, RecordBlock
from forgepulse.cli import main
from forgepulse.jsonio import dumps_stable
from forgepulse.pipeline import ProjectSource, RunConfig, compute_metrics, fit_report, ingest, run_pipeline, summarize
from forgepulse.series import MonthlySeries, build_monthly_series, check_eligibility, series_to_dict

from conftest import DATA_DIR, series_of, sha_for
from oracles import build_monthly_series_oracle, record_to_dict
from test_fit_golden import environment

# Every file the fixture run writes, by its path under out_dir.
FIXTURE_DIGESTS = {
    "fixture/records.jsonl": "74bdce0dc497ab9226a7244e99c6067735f731bf2194e079a270f83169c8c918",
    "fixture/ingest_report.json": "743922978a7572d316cc71e63b7a5d82ab10d6d90316b2a0f1f0a8470d232f0e",
    "fixture/series.json": "929b5d19cbf1995e8e2a65b9f26063aca0331d585c4df96ab4510b7d834cf9c9",
    "run_report.json": "de24d664b99dd54e910905b2953b7c0fc9cfaeb7d6d7e53963e9ee850b362ee9",
}
FLOAT_DIGESTS_ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "machine": "x86_64"}
FLOAT_DIGESTS = {
    "fixture/metrics.json": "ca6926f220f3cbccc581a106dd1bc1cc4ad322cfbd0e38d70dbda5482fee54fa",
    "fixture/fit.json": "e2c22d238083a607ac081cda4b67fc92d84b50e1ee5b85bf46553e765bd160d4",
    "fixture/fit.csv": "263bb90ffc4619931ead3c6397cd77c6c8b2abd671dd466c6e42e38a69594fe3",
    "fixture/summary.json": "752636a0bcbda8bd9d785194d490904e051026413553225818db4631ecf3bc81",
    "summary.csv": "d8a9fb0dee8cd04dcdd6421ef9d5825aad52492ed64b5a84db1d80f6c9722f97",
    "summary.txt": "6a82439a0680a4f7290497c3339d46aff091561b51ac5cb7481bc70cf56fa703",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fixture_artifacts_keep_their_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(DATA_DIR.parent)  # ingest_report.json names the log as given
    log = Path(DATA_DIR.name) / "fixture_500.log"
    out_dir = tmp_path / "run"
    config = RunConfig(projects=(ProjectSource("fixture", log=log),), out_dir=out_dir, biphase=True)
    assert run_pipeline(config).exit_code == 0
    written = {path.relative_to(out_dir).as_posix() for path in out_dir.rglob("*") if path.is_file()}
    assert written == FIXTURE_DIGESTS.keys() | FLOAT_DIGESTS.keys()
    for name, digest in FIXTURE_DIGESTS.items():
        assert sha256(out_dir / name) == digest, name

    records, series = tmp_path / "records.jsonl", tmp_path / "series.json"
    with redirect_stderr(io.StringIO()):
        assert main(["ingest", "--log", str(log), "--out", str(records)]) == 0
        assert main(["series", "--in", str(records), "--out", str(series)]) == 0
    assert sha256(records) == FIXTURE_DIGESTS["fixture/records.jsonl"]
    assert sha256(series) == FIXTURE_DIGESTS["fixture/series.json"]

    if environment() != FLOAT_DIGESTS_ENVIRONMENT:
        pytest.skip(f"float digests recorded on {FLOAT_DIGESTS_ENVIRONMENT}, this is {environment()}")
    for name, digest in FLOAT_DIGESTS.items():
        assert sha256(out_dir / name) == digest, name


awkward_text = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\té \U0001f600'), st.characters()),
    max_size=20,
)
stamps = st.datetimes(
    min_value=datetime(1970, 1, 1), max_value=datetime(2099, 12, 31)
).map(lambda d: d.replace(tzinfo=timezone.utc))


@given(
    email=awkward_text,
    name=awkward_text,
    stamp=stamps,
    is_merge=st.booleans(),
    tag=st.integers(0, 1000),
)
def test_record_line_is_the_json_encoding(email, name, stamp, is_merge, tag):
    record = CommitRecord(sha_for(tag), email, name, stamp, is_merge)
    line = json.dumps(record_to_dict(record), sort_keys=True) + "\n"
    assert RecordBlock.from_records([record]).jsonl() == line.encode()
    # A hash is written unescaped only once it is known to be hex digits.
    odd = record._replace(hash=email)
    assert RecordBlock.from_records([odd]).jsonl() == (json.dumps(record_to_dict(odd), sort_keys=True) + "\n").encode()


DOMAINS = [
    "intel.com", "Dev.Intel.com", "lab.co.uk",  # corporate, a subdomain, a public suffix
    "gmail.com", "mail.yahoo.com",  # providers
    "apache.org", "gnome.org",  # virtual organizations
    "localhost", "10.0.0.1", "co.uk",  # no registrable domain: Unknown
    "research.berkeley.edu", "subsidiary.com",  # aliased
]
ALIASES = {"research.berkeley.edu": "berkeley.edu", "subsidiary.com": "gmail.com"}

well_formed = st.builds("{}@{}".format, st.sampled_from(["alice", "Bob", "c.d"]), st.sampled_from(DOMAINS))
malformed = st.sampled_from(["nobody", "a@b@c.com", "two@@ats", "trailing@", "Trailing@", "", "   "])
variant = st.sampled_from([str, str.upper, str.title, " {} ".format, "{}\t".format])
emails = st.builds(lambda email, change: change(email), st.one_of(well_formed, malformed), variant)
# Months 0-59 from January 2010, so most draws leave months without commits.
month_stamps = st.builds(
    lambda month, day: datetime(2010 + month // 12, month % 12 + 1, day, tzinfo=timezone.utc),
    st.integers(0, 59), st.integers(1, 28),
)
records = st.builds(CommitRecord, st.integers(0, 99).map(sha_for), emails, st.just("Dev"), month_stamps,
                    st.just(False))


@given(
    batch=st.lists(records, min_size=1, max_size=60),
    group_providers=st.booleans(),
    aliases=st.sampled_from([{}, ALIASES]),
)
@settings(max_examples=300)
def test_series_matches_the_dict_and_set_oracle(batch, group_providers, aliases):
    config = IdentityConfig(group_providers=group_providers, domain_aliases=aliases)
    built = series_of(batch, config)
    expected = build_monthly_series_oracle(batch, config)
    assert series_to_dict(built) == series_to_dict(expected)
    assert list(built.contributor_commits.items()) == list(expected.contributor_commits.items())
    # Each month's units come in key order.
    assert [list(p["org_commits"].items()) for p in built.points] == [
        sorted(p["org_commits"].items()) for p in expected.points
    ]


def artifact_texts(series: MonthlySeries) -> dict[str, str]:
    """The text of each file ``run_project`` writes from ``series`` with the
    default run config, plus metrics.json for the last 12 months."""
    fit, sidecar = fit_report(series, 3, "both", biphase=False)
    metrics = compute_metrics(series, "all")
    summary = {**summarize(series, metrics, fit, project="p"), "eligibility": check_eligibility(series)}
    payloads = {"series.json": series_to_dict(series), "metrics.json": metrics,
                "metrics-last12.json": compute_metrics(series, 12), "fit.json": fit, "summary.json": summary}
    return {name: dumps_stable(payload) for name, payload in payloads.items()} | {"fit.csv": sidecar}


def shuffled(series: MonthlySeries, rng) -> MonthlySeries:
    """``series`` with each month's units and the contributors in another order."""
    def shuffle(counts: dict) -> dict:
        items = list(counts.items())
        rng.shuffle(items)
        return dict(items)

    return MonthlySeries(
        points=tuple({**point, "org_commits": shuffle(point["org_commits"])} for point in series.points),
        origin=series.origin,
        contributor_commits=shuffle(series.contributor_commits),
    )


def test_fixture_artifacts_do_not_depend_on_order():
    series = build_monthly_series(ingest(None, DATA_DIR / "fixture_500.log")[0])
    expected = artifact_texts(series)
    for seed in range(3):
        assert artifact_texts(shuffled(series, random.Random(seed))) == expected


@given(batch=st.lists(records, min_size=1, max_size=200), rng=st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_artifacts_do_not_depend_on_order(batch, rng):
    series = series_of(batch)
    assert artifact_texts(shuffled(series, rng)) == artifact_texts(series)


def test_series_build_peak_memory_per_record(tmp_path):
    """The traced peak of ``build_monthly_series`` over a fixed log of 48k
    records, 1,592 contributors and 210 units: 81.4 bytes per record while
    each month's units were put in first-commit order (an argsort-based
    ``np.unique`` and a ``np.lexsort``), 60.5 since.  The bound is their
    midpoint, so a return to an argsort or an extra per-record copy fails."""
    rng = np.random.default_rng(5)
    months = np.sort(rng.integers(0, 240, 48_000)).tolist()
    authors = np.minimum(rng.pareto(1.2, 48_000) * 40, 4999).astype(int).tolist()
    domains = [f"corp{k}.com" for k in range(200)] + ["gmail.com", "apache.org"]
    author_domains = rng.integers(0, len(domains), 5000).tolist()
    log = tmp_path / "generated.log"
    log.write_text("".join(
        f"{i:040x}\t{2000 + m // 12}-{m % 12 + 1:02d}-15T12:00:00+00:00\tdev{a}@{domains[author_domains[a]]}\tDev\t1\n"
        for i, (m, a) in enumerate(zip(months, authors))
    ))
    blocks = list(ingest(None, log)[0])
    build_monthly_series(blocks)  # the first call also fills caches
    tracemalloc.start()
    try:
        build_monthly_series(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(months) < (81.4 + 60.5) / 2
