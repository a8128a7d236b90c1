"""The summary of ``tools/bench_pairs.py``: medians, quartiles and pair wins."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(pair: int, side: str, **metrics) -> dict:
    return {"pair": pair, "side": side,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()}}


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    runs = [
        run(0, "parent", rate=100, ms=5.0), run(0, "change", rate=150, ms=5.0),
        run(1, "change", rate=90, ms=4.0), run(1, "parent", rate=110, ms=6.0),
        run(2, "parent", rate=120, ms=5.0), run(2, "change", rate=120, ms=7.0),
        run(3, "parent", rate=130, ms=6.0), run(3, "change", rate=170, ms=3.0),
    ]
    summary = bench_pairs.summarize(runs, {"rate": "higher", "ms": "lower"})
    assert summary["rate"]["pairs"] == 4
    assert (summary["rate"]["change_wins"], summary["rate"]["parent_wins"]) == (2, 1)
    assert (summary["ms"]["change_wins"], summary["ms"]["parent_wins"]) == (2, 1)
    assert summary["rate"]["parent"] == {"median": 115, "q1": 107.5, "q3": 122.5}
    assert summary["rate"]["change"] == {"median": 135, "q1": 112.5, "q3": 155}
    assert summary["ms"]["better"] == "lower"


def test_summary_skips_unpaired_runs_and_handles_one_pair():
    runs = [run(0, "parent", rate=100), run(0, "change", rate=99), run(1, "parent", rate=1)]
    summary = bench_pairs.summarize(runs, {"rate": "higher"})
    assert summary["rate"]["pairs"] == 1
    assert summary["rate"]["parent"] == {"median": 100, "q1": 100, "q3": 100}
    assert (summary["rate"]["change_wins"], summary["rate"]["parent_wins"]) == (0, 1)
    assert bench_pairs.summarize([run(0, "parent", rate=1)], {"rate": "higher"}) == {}


@pytest.mark.parametrize("values, expected", [
    ([3.0], (3.0, 3.0, 3.0)),
    ([1, 2, 3, 4, 5], (2, 3, 4)),
])
def test_quartiles(values, expected):
    q = bench_pairs.quartiles(values)
    assert (q["q1"], q["median"], q["q3"]) == expected
