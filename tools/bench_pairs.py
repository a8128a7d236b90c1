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
metric's median, quartiles, per-pair win count and whether the change's
median stays within the metric's ``BENCHMARK.json`` bound; the same verdicts
are printed, one line per metric.  The file keeps one series per workload
and seed, so runs at another seed are added next to the earlier ones and a
rerun replaces its own series.
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


def within_bound(parent: float, change: float, better: str, bound: float) -> bool:
    """Is ``change`` worse than ``parent`` by at most ``bound``, a fraction of ``parent``?"""
    if better == "higher":
        return change >= parent * (1 - bound)
    return change <= parent * (1 + bound)


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric: both sides' median and quartiles, who won each pair, and
    whether the change's median is :func:`within_bound` of the parent's.

    ``runs`` holds ``{"pair": i, "side": "parent" | "change", "metrics":
    {name: {"value": v, ...}}}`` records; ``metrics`` maps each metric's name
    to its ``BENCHMARK.json`` entry, of which ``better`` (``"higher"`` or
    ``"lower"``) and ``bound`` are read.  A pair whose two values are equal
    counts for neither side.
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
        better, bound = metrics[name]["better"], metrics[name]["bound"]
        sign = 1 if better == "higher" else -1
        stats = {side: quartiles([p[side] for p in pairs]) for side in SIDES}
        summary[name] = {
            "better": better,
            "pairs": len(pairs),
            **stats,
            "change_wins": sum(sign * (p["change"] - p["parent"]) > 0 for p in pairs),
            "parent_wins": sum(sign * (p["parent"] - p["change"]) > 0 for p in pairs),
            "bound": bound,
            "within_bound": within_bound(stats["parent"]["median"],
                                         stats["change"]["median"], better, bound),
        }
    return summary


def report_line(name: str, entry: dict) -> str:
    """One metric of a summary, as one printed line."""
    verdict = "within" if entry["within_bound"] else "OUTSIDE"
    return (f"{name} ({entry['better']} is better): parent {entry['parent']['median']:.6g}, "
            f"change {entry['change']['median']:.6g}; change won {entry['change_wins']} "
            f"and parent {entry['parent_wins']} of {entry['pairs']} pairs; "
            f"{verdict} its {entry['bound']:.0%} bound")


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
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
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
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    doc["series"] = [s for s in doc["series"]
                     if (s["workload"], s["seed"]) != (args.workload, args.seed)] + [series]
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, entry in series["summary"].items():
        print(report_line(name, entry))
    return 0 if all(run["correct"] and not run["failed"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
