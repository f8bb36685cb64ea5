#!/usr/bin/env python3
"""Regenerate the deterministic test fixtures under tests/data/.

Everything here is seeded or hand-specified, so reruns are byte-identical:

* fixture_500.log -- a 500-commit, 12-month, 3-organization log in the
  canonical dump format.  The per-contributor monthly commit table is spelled
  out below; column sums, active-contributor counts and organization totals
  are asserted, so the expected summary statistics can be derived by hand:
  org totals 300/150/50 give shares 0.6/0.3/0.1 (Simpson 0.46, diversity
  index 1.47442...), and the tie-free monthly (contributors, commits) pairs
  give rank correlation 1 - 6*46/(12*143) = 120/143.

* gompertz_noisy.json / logistic_noisy.json -- 120-point synthetic growth
  series with 5% multiplicative Gaussian noise at fixed seeds, shipped as
  files so fit-recovery tests never regenerate their inputs.

* biphase_noisy.json -- a 240-month active-contributor count made of two
  logistic episodes with 3% multiplicative Gaussian noise at a fixed seed,
  rounded to whole contributors, so the bi-phase search runs on a shipped
  series with a real break.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"

CONTRIBUTORS = {
    "r1": "r1@redwood.com", "r2": "r2@redwood.com", "r3": "r3@redwood.com",
    "r4": "r4@redwood.com", "r5": "r5@redwood.com", "r6": "r6@redwood.com",
    "b1": "b1@bluesky.io", "b2": "b2@bluesky.io", "b3": "b3@bluesky.io",
    "b4": "b4@bluesky.io",
    "g1": "g1@gruver.org", "g2": "g2@gruver.org",
}

# Commits per contributor per month (2015-01 .. 2015-12).
MONTH_TABLE = [
    {"r1": 14, "b1": 4},
    {"r1": 12, "b1": 8, "g1": 4},
    {"r1": 12, "r2": 6, "b1": 9, "g1": 3},
    {"r1": 15, "r2": 8, "b1": 8, "b2": 6, "g1": 4},
    {"r1": 14, "r2": 9, "r3": 4, "b1": 7, "b2": 6, "g1": 5},
    {"r1": 13, "r2": 8, "r3": 6, "b1": 9, "b2": 5, "b3": 4, "g1": 5},
    {"r1": 14, "r2": 9, "r3": 5, "r4": 4, "b1": 9, "b2": 6, "b3": 3, "g1": 5},
    {"r1": 13, "r2": 9, "r3": 6, "r4": 7, "b1": 8, "b2": 4, "b3": 4, "g1": 6, "g2": 3},
    {"r1": 12, "r2": 8, "r3": 6, "r4": 4, "r5": 4, "b1": 8, "b2": 6, "b3": 4, "g1": 4, "g2": 2},
    {"r1": 12, "r2": 7, "r3": 5, "r4": 4, "r5": 3, "r6": 3,
     "b1": 8, "b2": 6, "b3": 4, "b4": 3, "g1": 3, "g2": 4},
    {"r1": 6, "r2": 5, "r3": 4, "r4": 3, "r5": 2, "r6": 2,
     "b1": 4, "b2": 3, "b3": 2, "b4": 2, "g1": 2},
    {"r1": 22},
]

EXPECTED_COMMITS = [18, 24, 30, 41, 45, 50, 55, 60, 58, 62, 35, 22]
EXPECTED_ACTIVE = [2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 11, 1]
EXPECTED_ORG_TOTALS = {"redwood.com": 300, "bluesky.io": 150, "gruver.org": 50}


def check_table() -> None:
    assert [sum(m.values()) for m in MONTH_TABLE] == EXPECTED_COMMITS
    assert [len(m) for m in MONTH_TABLE] == EXPECTED_ACTIVE
    org_totals = {"redwood.com": 0, "bluesky.io": 0, "gruver.org": 0}
    for month in MONTH_TABLE:
        for who, count in month.items():
            org_totals[CONTRIBUTORS[who].split("@")[1]] += count
    assert org_totals == EXPECTED_ORG_TOTALS
    assert sum(org_totals.values()) == 500


def write_fixture_log() -> None:
    lines = []
    index = 0
    for month_no, month in enumerate(MONTH_TABLE, start=1):
        for who, count in month.items():
            email = CONTRIBUTORS[who]
            name = f"Dev {who.upper()}"
            for _ in range(count):
                sha = hashlib.sha1(f"forgepulse:{index}".encode()).hexdigest()
                day = 5 + (index * 3) % 20  # mid-month: offsets never shift the month
                hour = (index * 7) % 24
                minute = (index * 11) % 60
                if index % 10 == 0:
                    offset = "+05:30"
                elif index % 17 == 0:
                    offset = "-08:00"
                else:
                    offset = "+00:00"
                stamp = f"2015-{month_no:02d}-{day:02d}T{hour:02d}:{minute:02d}:{index % 60:02d}{offset}"
                lines.append(f"{sha}\t{stamp}\t{email}\t{name}\t1")
                index += 1
    assert index == 500
    (DATA_DIR / "fixture_500.log").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_noisy_series() -> None:
    t = np.arange(120, dtype=float)

    gompertz_true = {"y_star": 100.0, "alpha": 0.05, "shape": 5.0}
    clean = gompertz_true["y_star"] * np.exp(
        -gompertz_true["shape"] * np.exp(-gompertz_true["alpha"] * t)
    )
    rng = np.random.default_rng(20150101)
    noisy = clean * (1.0 + 0.05 * rng.standard_normal(len(t)))
    (DATA_DIR / "gompertz_noisy.json").write_text(
        json.dumps(
            {
                "model": "gompertz",
                "true_params": gompertz_true,
                "noise": {"kind": "multiplicative-gaussian", "sigma": 0.05, "seed": 20150101},
                "values": noisy.tolist(),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    logistic_true = {"y_star": 500.0, "alpha": 0.12 / 500.0, "shape": 50.0}
    clean = logistic_true["y_star"] / (
        1.0 + logistic_true["shape"]
        * np.exp(-logistic_true["alpha"] * logistic_true["y_star"] * t)
    )
    rng = np.random.default_rng(20151231)
    noisy = clean * (1.0 + 0.05 * rng.standard_normal(len(t)))
    (DATA_DIR / "logistic_noisy.json").write_text(
        json.dumps(
            {
                "model": "logistic",
                "true_params": logistic_true,
                "noise": {"kind": "multiplicative-gaussian", "sigma": 0.05, "seed": 20151231},
                "values": noisy.tolist(),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def write_biphase_series() -> None:
    t = np.arange(240, dtype=float)
    episodes = [
        {"height": 60.0, "midpoint": 60.0, "rate": 0.12},
        {"height": 90.0, "midpoint": 170.0, "rate": 0.10},
    ]
    clean = sum(e["height"] / (1.0 + np.exp(-e["rate"] * (t - e["midpoint"]))) for e in episodes)
    rng = np.random.default_rng(20160229)
    noisy = np.round(clean * (1.0 + 0.03 * rng.standard_normal(len(t))))
    (DATA_DIR / "biphase_noisy.json").write_text(
        json.dumps(
            {
                "episodes": episodes,
                "noise": {"kind": "multiplicative-gaussian", "sigma": 0.03, "seed": 20160229, "rounded": True},
                "values": [int(v) for v in noisy],
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    check_table()
    write_fixture_log()
    write_noisy_series()
    write_biphase_series()
    for name in ("fixture_500.log", "gompertz_noisy.json", "logistic_noisy.json", "biphase_noisy.json"):
        path = DATA_DIR / name
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        print(f"{name}: {path.stat().st_size} bytes sha256:{digest}")


if __name__ == "__main__":
    main()
