#!/usr/bin/env python3
"""Compile benchmark for codar-router.

Usage, from the repository root:

    python3 perfbench/run.py --workload random-q20 --seed 1 --seconds 25 --trace 0

Compiles a seeded workload with the working tree's ``src/codar_router``
through its public entry points, the way ``codar-router route`` and ``bench``
do: parse, initial mapping plus route, equivalence check (with the
statevector oracle up to 10 qubits), emit.  One operation is one program
compiled on one device; a pass compiles every operation of the workload once,
and the run repeats whole passes while the next one should still end within
``--seconds``.  Every routed schedule of the first pass goes through the
checks in ``checks.py``; later passes must reproduce its schedules byte for
byte.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1``, the per-layer metrics of traced compiles,
each paired with an untraced compile of the same operation.
``--record-digests`` instead rewrites ``digests.json`` from one pass of every
workload at the default seed.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib only: keeps the set-up probe clean)

SETUP_PROBES = 5


def probe_setup(devices) -> tuple[float, float]:
    """Fresh-process set-up, import plus device loading: (raw, host-scaled) seconds."""
    import hostspeed
    clock = hostspeed.HostClock()
    hostspeed.kernel()
    clock.sample()
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import codar_router
    for device in devices:
        codar_router.resolve_architecture(device)
    end = perf_counter()
    clock.sample()
    return clock.op_time(start, end, False), clock.op_time(start, end, True)


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median raw and host-scaled set-up time over ``SETUP_PROBES`` fresh processes."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=60, check=True)
        r, s = out.stdout.split()[-2:]
        raw.append(float(r))
        scaled.append(float(s))
    return statistics.median(raw), statistics.median(scaled)


# --- the compile path ----------------------------------------------------------

@dataclass
class Compiled:
    circuit: object
    result: object
    report: object
    text: str
    ablated: object | None


def compile_op(cr, op: workloads.Op, arch) -> Compiled:
    """parse -> initial mapping + route -> verify -> emit, plus the ablated route.

    Every call goes through the package attribute at call time, so a traced
    pass sees the wrapped functions.
    """
    circuit = cr.parse_program(op.text)
    cfg = cr.RouterConfig()
    init = cr.initial_mapping(circuit, arch, op.init, cfg)
    result = cr.route(circuit, arch, init, cfg)
    report = cr.verify_equivalence(circuit, result.schedule)
    text = cr.emit_program(result.routed)
    ablated = None
    if op.ablated:
        ablated = cr.route(circuit, arch, init,
                           cr.RouterConfig(duration_aware=False, commutativity_on=False))
    return Compiled(circuit, result, report, text, ablated)


def schedule_digest(out: Compiled) -> str:
    digest = hashlib.sha256(out.result.schedule.to_json().encode())
    if out.ablated is not None:
        digest.update(out.ablated.schedule.to_json().encode())
    return digest.hexdigest()


def workload_digest(names, digests) -> str:
    return hashlib.sha256("".join(f"{n} {d}\n" for n, d in zip(names, digests)).encode()).hexdigest()


def output_problems(cr, checks, op: workloads.Op, out: Compiled, device) -> list[str]:
    """The router's own verdict plus every independent check, for one operation."""
    problems = []
    if not out.report.ok:
        problems.append(f"router verification failed: {out.report.details}")
    if not cr.parse_program(out.text).structurally_equal(out.result.routed):
        problems.append("parse_program(emit_program(routed)) differs from routed")
    source = checks.read_source(op.text)
    width = out.circuit.num_qubits
    problems += checks.check_schedule(out.result.schedule, device, source, width, True)
    if out.ablated is not None:
        problems += [f"ablated: {p}" for p in
                     checks.check_schedule(out.ablated.schedule, device, source, width, False)]
    return [f"{op.name}: {p}" for p in problems]


class Runner:
    """Runs passes of one workload and keeps what the checks and metrics need."""

    def __init__(self, cr, checks, workload: workloads.Workload, archs, clock):
        self.cr, self.checks, self.workload, self.archs = cr, checks, workload, archs
        self.clock = clock
        self.devices = {d: checks.load_device(d) for d in workload.devices}
        self.digests: list[str | None] = [None] * len(workload.ops)
        self.spans: list[list[tuple[float, float]]] = [[] for _ in workload.ops]
        self.gates = [0] * len(workload.ops)
        self.depth = self.swaps = self.stalls = 0
        self.passes = self.failed = 0
        self.problems: list[str] = []

    def _compile(self, op: workloads.Op, tracer=None) -> tuple[Compiled, float, float]:
        """One compile and its start and end times.

        A tracer's wrappers are installed for this compile only.
        """
        if tracer is None:
            start = perf_counter()
            out = compile_op(self.cr, op, self.archs[op.device])
            return out, start, perf_counter()
        tracer.install()
        try:
            start = perf_counter()
            with tracer.span("compile", op.name):
                out = compile_op(self.cr, op, self.archs[op.device])
            return out, start, perf_counter()
        finally:
            tracer.uninstall()

    def run_pass(self, tracer=None) -> tuple[float, float]:
        """Compile every operation once; returns the untraced and traced totals in seconds.

        With a tracer, each operation is compiled a second time with tracing on,
        right after or right before the untraced compile (alternating), so that
        both see the same host speed.
        """
        first = self.passes == 0
        plain = traced = 0.0
        for k, op in enumerate(self.workload.ops):
            gc.collect()
            try:
                if tracer is not None and k % 2:
                    traced_out, traced_start, traced_end = self._compile(op, tracer)
                out, start, end = self._compile(op)
                if tracer is not None and not k % 2:
                    traced_out, traced_start, traced_end = self._compile(op, tracer)
            except Exception as exc:  # an operation that fails is counted, not fatal
                self.failed += 1
                if first:
                    print(f"failed: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            plain += self.clock.op_time(start, end, False)
            self.spans[k].append((start, end))
            digest = schedule_digest(out)
            if tracer is not None:
                traced += traced_end - traced_start
                if schedule_digest(traced_out) != digest:
                    self.problems.append(f"{op.name}: tracing changed the schedule")
            if self.digests[k] is None:
                self.digests[k] = digest
                schedule = out.result.schedule
                self.gates[k] = len(out.circuit.gates)
                self.depth += schedule.weighted_depth
                self.swaps += schedule.swap_count
                self.stalls += schedule.stall_events
                self.problems += output_problems(self.cr, self.checks, op, out,
                                                 self.devices[op.device])
            elif digest != self.digests[k]:
                self.problems.append(f"{op.name}: schedule differs between passes")
        self.passes += 1
        return plain, traced

    def op_times(self, scaled: bool) -> list[float]:
        """Each operation's median compile time over the passes, raw or host-scaled."""
        return [statistics.median(self.clock.op_time(start, end, scaled) for start, end in spans)
                for spans in self.spans if spans]

    @property
    def attempted(self) -> int:
        return self.passes * len(self.workload.ops)

    def digest(self) -> str:
        return workload_digest([op.name for op in self.workload.ops],
                               [d or "failed" for d in self.digests])


def warm_up(cr, archs) -> None:
    """Untimed: one small reverse-pass compile per device fills lazy caches."""
    import random
    for device, arch in archs.items():
        text = workloads.random_program(6, 60, random.Random(0))
        compile_op(cr, workloads.Op("warm-up", device, text, "reverse_pass", True), arch)


def measured(runner: Runner, seconds: float) -> None:
    """Whole passes while the next one should still end within ``seconds``; at least one.

    The host-speed kernel samples on a timer throughout (see ``hostspeed``).
    """
    start = perf_counter()
    last = 0.0
    with runner.clock:
        while runner.passes == 0 or perf_counter() - start + last <= seconds:
            began = perf_counter()
            runner.run_pass()
            last = perf_counter() - began


def end_to_end(runner: Runner, setup_s: float) -> dict:
    """End-to-end metrics; times are host-scaled (see ``hostspeed``)."""
    per_op = runner.op_times(scaled=True)
    return {
        "setup_s": (setup_s, "s"),
        "compile_gates_per_s": (sum(runner.gates) / sum(per_op), "gates/s"),
        "compile_ms_p50": (1000 * statistics.median(per_op), "ms"),
        "depth_cycles": (runner.depth, "cycles"),
        "swap_count": (runner.swaps, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(runner: Runner, seconds: float, arch_load_s: float, tracing) -> dict:
    """An untraced checked pass, then traced passes; per-layer figures are their medians."""
    plain, tracers, traced_totals = [], [], []
    start = perf_counter()
    runner.run_pass()
    last = 0.0
    while not tracers or perf_counter() - start + last <= seconds:
        began = perf_counter()
        tracer = tracing.Tracer()
        untraced_s, traced_s = runner.run_pass(tracer)
        plain.append(untraced_s)
        traced_totals.append(traced_s)
        tracers.append(tracer)
        last = perf_counter() - began
    first = tracers[0]
    RESULTS.mkdir(exist_ok=True)
    first.write(RESULTS / f"trace-{runner.workload.name}.json")

    def self_s(*names):
        return statistics.median(sum(t.self_s[n] for n in names) for t in tracers)

    def total_s(name):
        return statistics.median(t.total_s[name] for t in tracers)

    return {
        "commutation.front_s": (self_s("commutation.front"), "s"),
        "commutation.front_calls": (first.calls["commutation.front"], "count"),
        "commutation.front_gates_scanned": (first.work["commutation.front"], "count"),
        "router.swap_search_s": (self_s("router.candidate_swaps", "router.heuristic_priority"), "s"),
        "router.swap_candidates_scored": (first.calls["router.heuristic_priority"], "count"),
        "router.launch_s": (self_s("router.launch"), "s"),
        "router.launches": (first.calls["router.launch"], "count"),
        "router.route_self_s": (self_s("router.route"), "s"),
        "router.init_map_s": (total_s("router.init_map"), "s"),
        "router.stall_events": (runner.stalls, "count"),
        "verify.dependency_s": (self_s("verify.dependency"), "s"),
        "verify.oracle_s": (self_s("verify.oracle"), "s"),
        "verify.oracle_checks": (first.work["verify.oracle"], "count"),
        "qasm.parse_s": (self_s("qasm.parse"), "s"),
        "qasm.emit_s": (self_s("qasm.emit"), "s"),
        "arch.load_s": (arch_load_s, "s"),
        "trace.compile_s": (statistics.median(traced_totals), "s"),
        "trace.overhead_s": (statistics.median(t - p for t, p in zip(traced_totals, plain)), "s"),
        "trace.untraced": (len(first.untraced), "count"),
    }


def load_archs(cr, tracing, devices) -> tuple[dict, float]:
    """Load every device in-process under a tracer; returns them and the load time."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        archs = {d: cr.resolve_architecture(d) for d in devices}
    finally:
        tracer.uninstall()
    return archs, tracer.self_s["arch.load"]


def record_digests() -> int:
    import codar_router as cr
    reference = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make_workload(name, workloads.DEFAULT_SEED)
        archs = {d: cr.resolve_architecture(d) for d in workload.devices}
        digests = [schedule_digest(compile_op(cr, op, archs[op.device])) for op in workload.ops]
        reference[name] = {str(workloads.DEFAULT_SEED): workload_digest(
            [op.name for op in workload.ops], digests)}
    DIGESTS.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "codar_router" / "__init__.py").is_file():
        print(f"error: no codar_router package under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        sys.path.insert(0, str(SRC))
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    workload = workloads.make_workload(args.workload, args.seed)
    if args.setup_probe:
        print("%.9f %.9f" % probe_setup(workload.devices))
        return 0

    import hostspeed
    if not args.trace:
        setup_raw, setup_s = setup_seconds(args.workload)
    sys.path.insert(0, str(SRC))
    import checks
    import codar_router as cr
    import tracing
    archs, arch_load_s = load_archs(cr, tracing, workload.devices)
    warm_up(cr, archs)
    runner = Runner(cr, checks, workload, archs, hostspeed.HostClock())
    if args.trace:
        metrics = traced(runner, args.seconds, arch_load_s, tracing)
    else:
        measured(runner, args.seconds)
        metrics = end_to_end(runner, setup_s)
        raw = runner.op_times(scaled=False)
        print(f"unscaled: setup_s={setup_raw:.6f} "
              f"compile_gates_per_s={sum(runner.gates) / sum(raw):.3f} "
              f"compile_ms_p50={1000 * statistics.median(raw):.3f} "
              f"host_sample_s={statistics.median(runner.clock.took):.6f}")

    digest = runner.digest()
    reference = {}
    if DIGESTS.is_file():
        reference = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload, {})
    expected = reference.get(str(args.seed))
    verdict = "none" if expected is None else ("match" if expected == digest else "differs")
    print(f"digest {args.workload} seed={args.seed} sha256={digest} reference={verdict}")
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
