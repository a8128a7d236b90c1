"""``tools/bench_pairs.py``: the summary's medians, quartiles and pair wins, and
how a series is run and written."""
from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(pair: int, side: str, **metrics) -> dict:
    return {"pair": pair, "side": side,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()}}


def end_to_end(bound: float = 0.25, **better: str) -> dict:
    return {name: {"better": direction, "bound": bound} for name, direction in better.items()}


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    runs = [
        run(0, "parent", rate=100, ms=5.0), run(0, "change", rate=150, ms=5.0),
        run(1, "change", rate=90, ms=4.0), run(1, "parent", rate=110, ms=6.0),
        run(2, "parent", rate=120, ms=5.0), run(2, "change", rate=120, ms=7.0),
        run(3, "parent", rate=130, ms=6.0), run(3, "change", rate=170, ms=3.0),
    ]
    summary = bench_pairs.summarize(runs, end_to_end(rate="higher", ms="lower"))
    assert summary["rate"]["pairs"] == 4
    assert (summary["rate"]["change_wins"], summary["rate"]["parent_wins"]) == (2, 1)
    assert (summary["ms"]["change_wins"], summary["ms"]["parent_wins"]) == (2, 1)
    assert summary["rate"]["parent"] == {"median": 115, "q1": 107.5, "q3": 122.5}
    assert summary["rate"]["change"] == {"median": 135, "q1": 112.5, "q3": 155}
    assert summary["ms"]["better"] == "lower"


def test_summary_skips_unpaired_runs_and_handles_one_pair():
    runs = [run(0, "parent", rate=100), run(0, "change", rate=99), run(1, "parent", rate=1)]
    summary = bench_pairs.summarize(runs, end_to_end(rate="higher"))
    assert summary["rate"]["pairs"] == 1
    assert summary["rate"]["parent"] == {"median": 100, "q1": 100, "q3": 100}
    assert (summary["rate"]["change_wins"], summary["rate"]["parent_wins"]) == (0, 1)
    assert bench_pairs.summarize([run(0, "parent", rate=1)], end_to_end(rate="higher")) == {}


def test_summary_judges_each_metric_against_its_bound_in_its_direction():
    # Within a 25% bound: a rate down to 80 from 100, a time up to 12 from
    # 10.  Outside it: a rate down to 70, a time up to 13.
    runs = [run(0, "parent", rate_in=100, rate_out=100, ms_in=10, ms_out=10),
            run(0, "change", rate_in=80, rate_out=70, ms_in=12, ms_out=13)]
    summary = bench_pairs.summarize(runs, end_to_end(rate_in="higher", rate_out="higher",
                                                  ms_in="lower", ms_out="lower"))
    assert {name: entry["within_bound"] for name, entry in summary.items()} == {
        "rate_in": True, "rate_out": False, "ms_in": True, "ms_out": False}
    assert summary["ms_out"]["bound"] == 0.25
    assert (summary["ms_out"]["parent"]["median"], summary["ms_out"]["change"]["median"]) == \
        (10, 13)
    assert (summary["ms_out"]["change_wins"], summary["ms_out"]["parent_wins"]) == (0, 1)
    assert bench_pairs.report_line("ms_out", summary["ms_out"]) == (
        "ms_out (lower is better): parent 10, change 13; change won 0 and parent 1 of 1 "
        "pairs; OUTSIDE its 25% bound")
    assert bench_pairs.report_line("rate_in", summary["rate_in"]).endswith(
        "; within its 25% bound")


@pytest.mark.parametrize("values, expected", [
    ([3.0], (3.0, 3.0, 3.0)),
    ([1, 2, 3, 4, 5], (2, 3, 4)),
])
def test_quartiles(values, expected):
    q = bench_pairs.quartiles(values)
    assert (q["q1"], q["median"], q["q3"]) == expected


class FakeBenchmark:
    """Stands in for ``subprocess.run`` of ``perfbench/run.py``: records each call."""

    def __init__(self):
        self.calls = []

    def __call__(self, args, cwd, env, **kwargs):
        self.calls.append((Path(cwd), env["PYTHONPYCACHEPREFIX"]))
        line = {"metrics": {"compile_gates_per_s": {"value": 100.0 + len(self.calls),
                                                    "unit": "gates/s"}},
                "correct": True, "failed": 0}
        return subprocess.CompletedProcess(args, 0, f"digest\n{json.dumps(line)}\n", "")


@pytest.fixture
def fake_benchmark(monkeypatch):
    fake = FakeBenchmark()
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: f"commit-of-{rev}")
    monkeypatch.setattr(subprocess, "run", fake)
    return fake


def test_each_tree_runs_with_its_own_fresh_bytecode_prefix(fake_benchmark, tmp_path):
    assert bench_pairs.main(["HEAD~1", "--out", str(tmp_path / "BENCH.json"),
                             "--workload", "corpus", "--pairs", "3"]) == 0
    prefixes: dict[Path, set[str]] = {}
    for tree, prefix in fake_benchmark.calls:
        prefixes.setdefault(tree, set()).add(prefix)
    assert len(fake_benchmark.calls) == 6
    (change_prefix,) = prefixes.pop(bench_pairs.ROOT)
    ((parent_tree, (parent_prefix,)),) = prefixes.items()
    assert parent_prefix != change_prefix
    for prefix in (parent_prefix, change_prefix):
        # Next to the parent's export, in the temporary directory that is
        # gone once the series ends.
        assert Path(prefix).parent == parent_tree.parent and not Path(prefix).exists()


def test_rerun_replaces_only_its_own_series_in_the_named_file(fake_benchmark, tmp_path):
    out = tmp_path / "BENCH_9.json"
    kept = [{"workload": "random-grid", "seed": 3, "runs": ["kept"]},
            {"workload": "corpus", "seed": 1, "runs": ["kept"]}]
    out.write_text(json.dumps({"series": kept + [
        {"workload": "random-grid", "seed": 1, "runs": ["replaced"]}]}))
    assert bench_pairs.main(["HEAD~1", "--out", str(out), "--workload", "random-grid",
                             "--pairs", "2"]) == 0
    series = json.loads(out.read_text())["series"]
    assert series[:2] == kept
    (rerun,) = series[2:]
    assert (rerun["workload"], rerun["seed"], rerun["parent"]) == ("random-grid", 1,
                                                                  "commit-of-HEAD~1")
    assert f"--out {out} --workload random-grid --seed 1 --pairs 2" in rerun["command"]
    assert len(rerun["runs"]) == 4 and rerun["summary"]["compile_gates_per_s"]["pairs"] == 2


def test_out_is_required():
    with pytest.raises(SystemExit):
        bench_pairs.main(["HEAD~1", "--workload", "corpus"])


def test_series_stores_and_prints_each_metric_against_its_bound(fake_benchmark, tmp_path,
                                                                capsys):
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["HEAD~1", "--out", str(out), "--workload", "corpus",
                             "--pairs", "2"]) == 0
    (series,) = json.loads(out.read_text())["series"]
    entry = series["summary"]["compile_gates_per_s"]
    assert (entry["bound"], entry["within_bound"]) == (0.25, True)
    assert bench_pairs.report_line("compile_gates_per_s", entry) in \
        capsys.readouterr().out.splitlines()
