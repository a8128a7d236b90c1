"""Command-line driver: route one circuit, or benchmark a corpus directory.

``route`` loads an architecture and an OpenQASM file, schedules it, verifies
the result, and writes routed QASM plus a JSON report.  ``bench`` routes every
circuit in a directory from one start under the full policy and under the
duration-unaware, commutativity-off ablation (re-costed with device
durations), dependency-checks both, and emits a CSV and JSON comparison table.

Exit codes: 0 success, 1 input/diagnostic errors, 2 verification failure.
Every exit-1 failure raises ``SystemExit`` with its ``error: ...`` message,
which the interpreter prints to stderr.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from importlib import resources
from pathlib import Path

from . import __version__, verify
from .arch import Architecture, ArchitectureError, resolve_architecture
from .circuit import Circuit
from .pipeline import Compilation, compile_circuit
from .qasm import QasmError, emit_program, parse_file
from .router import (InvalidCircuitError, RouterConfig, TooManyQubitsError, _route,
                     rescore_true_durations)


#: ``--init`` value to :func:`initial_mapping` policy name.
_INIT_POLICIES = {"identity": "identity", "reverse": "reverse_pass"}


def _device(spec: str) -> Architecture:
    try:
        return resolve_architecture(spec)
    except (ArchitectureError, OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: {exc}") from None


def _load_circuit(path: Path) -> Circuit:
    if not path.exists():
        raise SystemExit(f"error: input file {path} does not exist")
    try:
        return parse_file(path)
    except QasmError as exc:
        raise SystemExit(f"error: {path}: {exc}") from None
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path}: {exc.strerror}") from None


def build_report(name: str, arch: Architecture, compiled: Compilation,
                 cfg: RouterConfig, init_policy: str) -> dict:
    schedule, ms = compiled.result.schedule, {k: v * 1000.0 for k, v in compiled.timings.items()}
    report = {
        "circuit": name,
        "arch": arch.name,
        "policy": {
            "duration_aware": cfg.duration_aware,
            "commutativity": cfg.commutativity_on,
            "initial_mapping": init_policy,
        },
        "weighted_depth": schedule.weighted_depth,
        "swap_count": schedule.swap_count,
        "gate_count": len(compiled.result.routed.gates),
        "stall_events": schedule.stall_events,
        "wall_time_ms": round(ms["router.init_map"] + ms["router.route"], 3),
        "timings": {k: round(v, 3) for k, v in ms.items()},
        "equivalence": compiled.equivalence.to_dict(),
        "schedule": schedule.to_dict(),
    }
    if not cfg.duration_aware:
        report["true_duration_depth"] = rescore_true_durations(schedule.items, arch)
    return report


def run_route(args) -> int:
    arch = _device(args.arch)
    path = Path(args.input)
    circuit = _load_circuit(path)
    cfg = RouterConfig(duration_aware=not args.no_duration_aware,
                       commutativity_on=not args.no_commutativity)
    init_policy = _INIT_POLICIES[args.init]
    try:
        compiled = compile_circuit(circuit, arch, init_policy, cfg)
    except (InvalidCircuitError, TooManyQubitsError) as exc:
        raise SystemExit("\n".join(f"error: {path}: {d}" for d in exc.diagnostics)) from None
    except ArchitectureError as exc:
        raise SystemExit(f"error: {path}: {exc}") from None
    result, equivalence = compiled.result, compiled.equivalence
    start = time.perf_counter()
    verify.add_oracle(equivalence, circuit, result.schedule)
    compiled.timings["verify.oracle"] = time.perf_counter() - start
    report = build_report(path.stem, arch, compiled, cfg, init_policy)

    routed_text = emit_program(result.routed, decompose_swap=args.decompose_swap)
    if args.output:
        _write_text(args.output, routed_text)
    else:
        sys.stdout.write(routed_text)
    if args.report:
        _write_text(args.report, json.dumps(report, sort_keys=True, indent=2) + "\n")

    summary = (f"{path.stem} on {arch.name}: depth={report['weighted_depth']} "
               f"swaps={report['swap_count']} stalls={report['stall_events']} "
               f"dependency_ok={equivalence.dependency_ok} oracle_ok={equivalence.oracle_ok}")
    print(summary, file=sys.stderr)
    if not equivalence.ok:
        for detail in equivalence.details:
            print(f"verification: {detail}", file=sys.stderr)
        return 2
    return 0


def bundled_corpus_dir() -> Path:
    return Path(str(resources.files("codar_router").joinpath("benchmarks")))


def bench_corpus(corpus_dir: Path, archs: list[Architecture],
                 init_policy: str = "identity") -> dict:
    """Route every .qasm under both policies; ratio = ablated depth / full depth."""
    rows: list[dict] = []
    skipped: list[dict] = []
    errors: list[dict] = []
    # Each program is parsed once; one that fails is an error on every device.
    programs: list[tuple[str, Circuit | None, str | None]] = []
    for path in sorted(corpus_dir.glob("*.qasm")):
        try:
            programs.append((path.stem, parse_file(path), None))
        except (QasmError, UnicodeDecodeError, OSError) as exc:
            programs.append((path.stem, None, str(exc)))
    for arch in archs:
        full_cfg = RouterConfig()
        ablated_cfg = RouterConfig(duration_aware=False, commutativity_on=False)
        for name, circuit, error in programs:
            if error is not None:
                errors.append({"circuit": name, "arch": arch.name, "error": error})
                continue
            if circuit.num_qubits > arch.num_qubits:
                skipped.append({"circuit": name, "arch": arch.name, "reason":
                                f"needs {circuit.num_qubits} qubits, device has {arch.num_qubits}"})
                continue
            try:
                compiled = compile_circuit(circuit, arch, init_policy, full_cfg)
                full = compiled.result
                ablated = _route(circuit, arch, full.schedule.initial_mapping, ablated_cfg)
            except ArchitectureError as exc:
                errors.append({"circuit": name, "arch": arch.name, "error": str(exc)})
                continue
            checks = (("full", compiled.equivalence),
                      ("ablated", verify.dependency_equivalence(circuit, ablated.schedule)))
            failed = [f"{side} route: {d}" for side, check in checks for d in check.details]
            if failed:
                errors.append({"circuit": name, "arch": arch.name, "error": "; ".join(failed)})
                continue
            # Depth of the produced circuit: its gate order replayed ASAP under
            # device durations.  Same metric on both sides; the ablated router
            # scheduled with unit locks, so its own depth is not comparable.
            depth_full = rescore_true_durations(full.schedule.items, arch)
            depth_ablated = rescore_true_durations(ablated.schedule.items, arch)
            ratio = depth_ablated / depth_full if depth_full else 1.0
            rows.append({
                "circuit": name,
                "arch": arch.name,
                "depth_full": depth_full,
                "swaps_full": full.schedule.swap_count,
                "stalls_full": full.schedule.stall_events,
                "depth_ablated": depth_ablated,
                "swaps_ablated": ablated.schedule.swap_count,
                "stalls_ablated": ablated.schedule.stall_events,
                "speedup_ratio": round(ratio, 6),
            })
    mean_by_arch = {}
    for arch in archs:
        ratios = [r["speedup_ratio"] for r in rows if r["arch"] == arch.name]
        if ratios:
            mean_by_arch[arch.name] = round(sum(ratios) / len(ratios), 6)
    return {"rows": rows, "skipped": skipped, "errors": errors,
            "mean_ratio_by_arch": mean_by_arch}


def comparison_csv(table: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["circuit", "arch", "policy", "depth", "swaps", "stalls", "ratio"])
    for row in table["rows"]:
        writer.writerow([row["circuit"], row["arch"], "full", row["depth_full"],
                         row["swaps_full"], row["stalls_full"], row["speedup_ratio"]])
        writer.writerow([row["circuit"], row["arch"], "ablated", row["depth_ablated"],
                         row["swaps_ablated"], row["stalls_ablated"], row["speedup_ratio"]])
    return out.getvalue()


def run_bench(args) -> int:
    corpus = Path(args.corpus) if args.corpus else bundled_corpus_dir()
    if not corpus.is_dir():
        raise SystemExit(f"error: corpus directory {corpus} does not exist")
    archs = [_device(spec) for spec in args.arch]
    names = [arch.name for arch in archs]
    if repeated := [name for i, name in enumerate(names) if name in names[:i]]:
        raise SystemExit(f"error: more than one --arch device is named {repeated[0]}")
    table = bench_corpus(corpus, archs, _INIT_POLICIES[args.init])
    csv_text = comparison_csv(table)
    if args.out_csv:
        _write_text(args.out_csv, csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.out_json:
        _write_text(args.out_json, json.dumps(table, sort_keys=True, indent=2) + "\n")
    for arch_name, mean in table["mean_ratio_by_arch"].items():
        print(f"{arch_name}: mean speedup ratio {mean} over "
              f"{sum(1 for r in table['rows'] if r['arch'] == arch_name)} circuits",
              file=sys.stderr)
    for skip in table["skipped"]:
        print(f"skipped {skip['circuit']} on {skip['arch']}: {skip['reason']}",
              file=sys.stderr)
    if table["errors"]:
        raise SystemExit("\n".join(f"error: {err['circuit']}: {err['error']}"
                                   for err in table["errors"]))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codar-router",
        description="Route quantum circuits onto coupling-limited devices.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_route = sub.add_parser("route", help="route one OpenQASM file")
    p_route.add_argument("--arch", required=True,
                         help="preset name, grid:RxC, or config file path")
    p_route.add_argument("--input", required=True, help="OpenQASM 2.0 input file")
    p_route.add_argument("--output", help="routed QASM path (default: stdout)")
    p_route.add_argument("--report", help="JSON report path")
    p_route.add_argument("--no-duration-aware", action="store_true",
                         help="schedule with unit gate durations")
    p_route.add_argument("--no-commutativity", action="store_true",
                         help="only gates with no pending predecessor are issuable")
    p_route.add_argument("--init", choices=_INIT_POLICIES, default="identity")
    p_route.add_argument("--decompose-swap", action="store_true",
                         help="emit each SWAP as three CX gates")
    p_route.set_defaults(func=run_route)

    p_bench = sub.add_parser("bench", help="compare policies over a corpus directory")
    p_bench.add_argument("--corpus", help="directory of .qasm files (default: bundled corpus)")
    p_bench.add_argument("--arch", action="append", required=True,
                         help="architecture (repeatable)")
    p_bench.add_argument("--out-csv", help="CSV output path (default: stdout)")
    p_bench.add_argument("--out-json", help="JSON output path")
    p_bench.add_argument("--init", choices=_INIT_POLICIES, default="identity")
    p_bench.set_defaults(func=run_bench)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
