import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]  # median 1.09, IQR 0.09


@pytest.mark.parametrize(
    "change, wins, shown",
    [
        ([p - 0.10 for p in PARENT], 10, True),
        ([p - 0.10 for p in PARENT[:9]] + [1.18], 9, True),  # a tie counts for neither side
        ([p - 0.10 for p in PARENT[:8]] + [1.20, 1.20], 8, False),
        ([p - 0.05 for p in PARENT], 10, False),  # the median gains 0.05, less than the parent's IQR
    ],
)
def test_compare_states_whether_a_lower_is_better_gain_shows(change, wins, shown):
    entry = bench_pairs.compare(PARENT, change, "lower", 0.25)
    assert (entry["change_wins"], entry["parent_iqr"], entry["gain_shown"]) == (wins, 0.09, shown)
    assert entry["within_bound"]


def test_compare_states_whether_a_higher_is_better_gain_shows():
    assert bench_pairs.compare(PARENT, [p + 0.10 for p in PARENT], "higher", 0.25)["gain_shown"]
    entry = bench_pairs.compare(PARENT, [p - 0.10 for p in PARENT], "higher", 0.25)
    assert (entry["change_wins"], entry["gain_shown"], entry["within_bound"]) == (0, False, True)
