"""Tests for the compile benchmark: output form, and that every check can fail.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import dataclasses
import json
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from codar_router import RouterConfig, initial_mapping, parse_program, route  # noqa: E402
from codar_router import resolve_architecture  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith(f"digest {workload} seed=3 sha256=")
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_output_form(workload):
    result = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.make_workload(workload, 3).ops)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_output_form():
    result = run_bench("corpus", 1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.untraced"] == 0
    assert metrics["verify.oracle_checks"] > 0
    assert metrics["commutation.front_calls"] > 0
    spans = json.loads((BENCH / "results" / "trace-corpus.json").read_text())
    assert "router.route" in spans["names"] and spans["spans"]


# --- the independent checks ---------------------------------------------------

@pytest.fixture(scope="module")
def routed():
    """A routed random program on q20-tokyo with SWAPs, and what checking it needs."""
    import random
    text = workloads.random_program(8, 80, random.Random(5))
    circuit = parse_program(text)
    arch = resolve_architecture("q20-tokyo")
    cfg = RouterConfig()
    schedule = route(circuit, arch, initial_mapping(circuit, arch, "identity", cfg), cfg).schedule
    assert schedule.swap_count > 0
    return schedule, checks.load_device("q20-tokyo"), checks.read_source(text)


def replace_items(schedule, items):
    return dataclasses.replace(schedule, items=items)


def all_problems(schedule, device, source):
    return checks.check_schedule(schedule, device, source, 8, True)


def test_clean_schedule_passes(routed):
    assert all_problems(*routed) == []


def test_dropped_swap_is_rejected(routed):
    schedule, device, source = routed
    k = next(i for i, it in enumerate(schedule.items) if it.inserted)
    broken = replace_items(schedule, schedule.items[:k] + schedule.items[k + 1:])
    items = checks.schedule_ops(broken.items)
    logical, _, empty = checks.replay(items, list(broken.initial_mapping.forward), 20)
    assert empty or checks.check_sequences(source, logical, 8)
    assert all_problems(broken, device, source)


def test_cx_on_non_edge_is_rejected(routed):
    schedule, device, source = routed
    k = next(i for i, it in enumerate(schedule.items) if it.gate.kind.value == "cx")
    item = schedule.items[k]
    a = item.gate.qubits[0]
    far = next(q for q in range(20) if q != a and (min(a, q), max(a, q)) not in device.edges)
    moved = dataclasses.replace(item, gate=item.gate.with_qubits((a, far)))
    items = checks.schedule_ops(schedule.items[:k] + [moved] + schedule.items[k + 1:])
    assert checks.check_edges(items, device)


def test_overlapping_gates_are_rejected(routed):
    schedule, device, source = routed
    by_qubit = {}
    for k, it in enumerate(schedule.items):
        for q in it.gate.qubits:
            by_qubit.setdefault(q, []).append(k)
    first, second = next(ks[:2] for ks in by_qubit.values() if len(ks) >= 2)
    early = dataclasses.replace(schedule.items[second], start=schedule.items[first].start)
    items = list(schedule.items)
    items[second] = early
    assert checks.check_locks(checks.schedule_ops(items))
    assert all_problems(replace_items(schedule, items), device, source)


def test_swapped_non_commuting_gates_are_rejected(routed):
    schedule, device, source = routed
    items = checks.schedule_ops(schedule.items)
    pair = None
    for k, (a, *_, a_inserted) in enumerate(items):
        for j in range(k + 1, len(items)):
            b, *_, b_inserted = items[j]
            if b_inserted:
                break
            shared = set(a.qubits) & set(b.qubits)
            if shared:
                if not a_inserted and any(not checks.commute_on(a, b, q) for q in shared):
                    pair = (k, j)
                break
        if pair:
            break
    k, j = pair
    swapped = list(schedule.items)
    swapped[k], swapped[j] = swapped[j], swapped[k]
    logical, _, _ = checks.replay(checks.schedule_ops(swapped),
                                  list(schedule.initial_mapping.forward), 20)
    assert checks.check_sequences(source, logical, 8)
    assert all_problems(replace_items(schedule, swapped), device, source)


def test_wrong_duration_and_depth_are_rejected(routed):
    schedule, device, source = routed
    items = checks.schedule_ops(schedule.items)
    slow = [(op, s, d + 1, t, ins) for op, s, d, t, ins in items]
    assert checks.check_durations(slow, device, True)
    assert checks.check_durations(items, device, False)
    assert checks.check_depth(items, schedule.weighted_depth + 1)


def test_statevector_rejects_a_changed_program(routed):
    _, _, source = routed
    assert checks.check_statevector(source, source, 8) == []
    k = next(i for i, op in enumerate(source) if op.kind in ("h", "x", "t", "s"))
    assert checks.check_statevector(source, source[:k] + source[k + 1:], 8)


def test_commutation_rule_is_sound():
    """Every pair the rule calls commuting has commuting unitaries."""
    kinds = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u1"]
    gates = [checks.Op(k, (0,), (0.7,) if k in ("rx", "ry", "rz", "u1") else ()) for k in kinds]
    gates += [checks.Op("cx", (0, 1)), checks.Op("cx", (1, 0))]
    for a in gates:
        for b in gates:
            if not checks.commute_on(a, b, 0):
                continue
            shift = [(a, {0: 0, 1: 1}), (b, {0: 0, 1: 2})]
            state = np.random.default_rng(1).normal(size=(2, 2, 2)).astype(complex)
            ops = [checks.Op(g.kind, tuple(m[q] for q in g.qubits), g.params) for g, m in shift]
            ab = checks.simulate(ops, state)
            ba = checks.simulate(ops[::-1], state)
            assert np.allclose(ab, ba), (a, b)


# --- tracing ------------------------------------------------------------------

def test_tracer_self_time_and_missing_names(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("router", "no_such_function", "router.gone", None),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import codar_router
        arch = codar_router.resolve_architecture("square4")
        circuit = codar_router.parse_program(
            "OPENQASM 2.0;\nqreg q[4];\ncx q[0],q[2];\ncx q[1],q[3];\n")
        codar_router.route(circuit, arch)
    finally:
        tracer.uninstall()
    assert tracer.untraced == ["router.no_such_function"]
    assert tracer.calls["router.route"] == 1 and tracer.calls["commutation.front"] > 0
    for name, total in tracer.total_s.items():
        assert 0 <= tracer.self_s[name] <= total + 1e-9
    route_total = tracer.total_s["router.route"]
    children = sum(tracer.total_s[n] for n in ("commutation.front", "router.launch",
                                                "router.candidate_swaps",
                                                "router.heuristic_priority",
                                                "router.init_map"))
    assert tracer.self_s["router.route"] == pytest.approx(route_total - children, abs=1e-6)
    assert codar_router.route.__name__ == "route"  # restored after uninstall


# --- host-speed scaling ------------------------------------------------------

def test_host_clock_removes_and_scales_samples():
    clock = hostspeed.HostClock()
    clock.at, clock.took = [1.0, 2.0, 3.0], [0.01, 0.02, 0.03]
    assert clock.op_time(1.5, 2.5, False) == pytest.approx(0.98)
    ref = hostspeed.REFERENCE_SAMPLE_S
    assert clock.op_time(1.5, 2.5, True) == pytest.approx(0.98 * ref / 0.02)
    assert clock.op_time(1.2, 1.4, True) == pytest.approx(0.2 * ref / 0.015)


def test_host_clock_samples_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostClock() as clock:
        end = perf_counter() + 0.5
        while perf_counter() < end:
            pass
    assert len(clock.took) >= 1
    assert signal.getsignal(signal.SIGALRM) is before
