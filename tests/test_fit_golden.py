"""fit.json of the shipped growth series, pinned bit for bit.

tests/data/fixture_500.log spans 12 months, too short for the bi-phase
search, so these series are the fixture-level gate for the growth solver:
``biphase_noisy`` (240 months, two logistic episodes) runs the search, and
``gompertz_noisy``/``logistic_noisy`` run the single fits.  For each one the
test pins the sha256 of the ``fit_report(..., biphase=True)`` payload
through ``dumps_stable``, and ``float.hex`` of every fit's SSE and
parameters with its iteration count.

Floating-point results depend on the numpy build and the machine, so the
golden values in tests/data/fit_golden.json hold for the environment they
were recorded on, as perfbench/reference.json does.  To re-record them:

    PYTHONPATH=src python tests/test_fit_golden.py
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from forgepulse import MonthKey
from forgepulse.jsonio import dumps_stable
from forgepulse.pipeline import fit_report
from forgepulse.series import MonthlySeries

DATA_DIR = Path(__file__).parent / "data"
GOLDEN = DATA_DIR / "fit_golden.json"
SERIES = ("biphase_noisy", "gompertz_noisy", "logistic_noisy")


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine()}


def _bits(fit: dict) -> dict:
    return {
        **{name: float(fit[name]).hex() for name in ("sse", "y_star", "alpha", "shape")},
        "iterations": fit["iterations"],
    }


def golden_entry(name: str) -> dict:
    """The pinned values of one shipped series' fit report."""
    values = json.loads((DATA_DIR / f"{name}.json").read_text())["values"]
    origin = MonthKey(2010, 1)
    series = MonthlySeries(
        points=tuple(
            {"month": str(origin.shift(i)), "active_contributors": value, "commits": 0, "active_orgs": 0,
             "org_commits": {}}
            for i, value in enumerate(values)
        ),
        origin=origin,
    )
    payload, _ = fit_report(series, 3, "both", True)
    entry = {
        "sha256": hashlib.sha256(dumps_stable(payload).encode()).hexdigest(),
        "fits": {model: _bits(fit) for model, fit in payload["model_fits"].items() if fit is not None},
    }
    if payload["biphase"] is not None:
        entry["biphase"] = {
            "breakpoint_index": payload["biphase"]["breakpoint_index"],
            **{side: _bits(payload["biphase"][side]) for side in ("first", "second")},
        }
    return entry


def _recorded() -> dict:
    recorded = json.loads(GOLDEN.read_text())
    if recorded["environment"] != environment():
        pytest.skip(f"golden fits recorded on {recorded['environment']}, this is {environment()}")
    return recorded["series"]


def test_biphase_fixture_runs_the_search():
    # Holds on any environment: the break falls between the two episodes'
    # midpoints (months 60 and 170, scripts/make_fixtures.py).
    assert 60 < golden_entry("biphase_noisy")["biphase"]["breakpoint_index"] < 170


@pytest.mark.parametrize("name", SERIES)
def test_fit_report_is_bit_for_bit_golden(name):
    assert golden_entry(name) == _recorded()[name]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({"environment": environment(), "series": {name: golden_entry(name) for name in SERIES}}, indent=1)
        + "\n"
    )
    sys.stdout.write(f"wrote {GOLDEN}\n")
