#!/usr/bin/env python3
"""Alternating parent/change runs of the compile benchmark, with a summary.

Usage, from the repository root:

    python3 tools/bench_pairs.py PARENT_REV --out BENCH_2.json \
        --workload qft-q54 --seed 1 --pairs 10

Exports ``PARENT_REV`` with ``git archive`` into a temporary directory, then
runs ``perfbench/run.py --trace 0`` there and in the working tree, one of each
per pair, for the ``run_seconds`` that ``BENCHMARK.json`` sets; even pairs run
the parent first, odd pairs the change.  Each side writes its bytecode under
its own fresh ``PYTHONPYCACHEPREFIX`` in the temporary directory, so neither
starts from bytecode that the other lacks.  Every result line goes into the
``--out`` file, relative to the repository root, with each end-to-end
metric's median, quartiles and per-pair win count.  The file keeps one series
per workload and seed, so runs at another seed are added next to the earlier
ones and a rerun replaces its own series.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (inclusive method), all equal for one value."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' median and quartiles, and who won each pair.

    ``runs`` holds ``{"pair": i, "side": "parent" | "change", "metrics":
    {name: {"value": v, ...}}}`` records; ``better`` maps each metric to
    ``"higher"`` or ``"lower"``.  A pair whose two values are equal counts
    for neither side.
    """
    values: dict[str, dict[int, dict[str, float]]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            values.setdefault(name, {}).setdefault(run["pair"], {})[run["side"]] = metric["value"]
    summary = {}
    for name in sorted(values):
        pairs = [v for _, v in sorted(values[name].items()) if len(v) == 2]
        if not pairs:
            continue
        sign = 1 if better[name] == "higher" else -1
        summary[name] = {
            "better": better[name],
            "pairs": len(pairs),
            **{side: quartiles([p[side] for p in pairs]) for side in SIDES},
            "change_wins": sum(sign * (p["change"] - p["parent"]) > 0 for p in pairs),
            "parent_wins": sum(sign * (p["parent"] - p["change"]) > 0 for p in pairs),
        }
    return summary


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float,
                  pycache: Path) -> dict:
    """One ``--trace 0`` run in ``tree``: its digest line and its result line.

    The run reads and writes bytecode only under ``pycache``.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"benchmark in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return {"digest": lines[-2], **json.loads(lines[-1])}


def export(rev: str, into: Path) -> str:
    """Write the files of ``rev`` under ``into``; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    parser.add_argument("--out", required=True, help="result file, e.g. BENCH_2.json")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_tree.mkdir()
        commit = export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_benchmark(trees[side], args.workload, args.seed,
                                       benchmark["run_seconds"], Path(tmp) / f"pycache-{side}")
                runs.append({"pair": pair, "side": side, **result})
                print(json.dumps({"pair": pair, "side": side,
                                  "compile_gates_per_s":
                                      result["metrics"]["compile_gates_per_s"]["value"]}),
                      flush=True)

    out = ROOT / args.out
    doc = json.loads(out.read_text()) if out.exists() else {"series": []}
    series = {
        "command": (f"python3 tools/bench_pairs.py {args.parent} --out {args.out} "
                    f"--workload {args.workload} --seed {args.seed} --pairs {args.pairs}"),
        "parent": commit,
        "workload": args.workload,
        "seed": args.seed,
        "summary": summarize(runs, better),
        "runs": runs,
    }
    doc["series"] = [s for s in doc["series"]
                     if (s["workload"], s["seed"]) != (args.workload, args.seed)] + [series]
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(series["summary"].get("compile_gates_per_s"), indent=1))
    return 0 if all(run["correct"] and not run["failed"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
