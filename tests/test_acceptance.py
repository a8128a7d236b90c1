"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS lines; any
assertion failure marks the corresponding criterion red.
"""
from __future__ import annotations

import random
import time

from codar_router import (
    Circuit,
    Gate,
    GateKind,
    Mapping,
    RouterConfig,
    cf_front,
    parse_program,
    preset_architecture,
    route,
)
from codar_router.arch import (Architecture, CouplingGraph, DEFAULT_DURATIONS,
                               all_pairs_distances, grid_architecture)
from codar_router.cli import bench_corpus
from codar_router.verify import dependency_equivalence, statevector_oracle

from oracles import (
    cf_front_bruteforce,
    compliance_violations,
    floyd_warshall,
    heuristic_priority,
    no_predecessor_front_reference,
    random_unitary_gate,
)
from test_properties import connected_graph, make_arch, random_circuit


def report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_golden_timeline(square4, golden_fixture):
    route(golden_fixture, square4)  # warm caches before timing
    best = min(
        _timed(lambda: route(golden_fixture, square4))
        for _ in range(5)
    )
    result = route(golden_fixture, square4)
    timeline = [(it.gate.kind, it.gate.qubits, it.start) for it in result.schedule.items]
    assert timeline == [
        (GateKind.T, (1,), 0),
        (GateKind.CX, (0, 2), 0),
        (GateKind.SWAP, (1, 3), 1),
        (GateKind.CX, (0, 1), 7),
    ]
    assert result.schedule.weighted_depth == 9
    assert result.schedule.swap_count == 1
    assert best < 1e-3, f"routing took {best * 1e3:.3f} ms"
    report(1, f"golden timeline exact (depth 9, one SWAP, {best * 1e6:.0f} us)")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_six_qubit_walkthrough(demo6, walkthrough_fixture):
    result = route(walkthrough_fixture, demo6)
    swaps = [it for it in result.schedule.items if it.inserted]
    assert len(swaps) == 1
    assert swaps[0].start == 1, "a SWAP was inserted at cycle 0"
    assert set(swaps[0].gate.qubits) == {1, 3}
    assert swaps[0].end == 7  # both operand locks released at cycle 7
    score = heuristic_priority((3, 5), [Gate(GateKind.CX, (0, 3))],
                               Mapping.identity(6, 6).fwd, demo6.distances)
    assert score < 0
    report(2, f"six-qubit walkthrough exact (SWAP(3,1)@1, locks 7, H(3,5)={score})")


def test_criterion_3_context_sensitive_swap(square4, context_fixture):
    result = route(context_fixture, square4)
    swaps = [it for it in result.schedule.items if it.inserted]
    assert len(swaps) == 1
    assert 2 not in swaps[0].gate.qubits, "SWAP conflicts with the busy qubit"
    assert swaps[0].start == 0, "SWAP did not run in parallel with T"
    report(3, f"context-aware SWAP {swaps[0].gate.qubits} at cycle 0, avoiding Q2")


def test_criterion_4_cf_detection():
    gates = [Gate(GateKind.CX, (1, 3)), Gate(GateKind.CX, (2, 3))]
    assert cf_front(gates) == {0, 1}
    assert no_predecessor_front_reference(gates) == {0}
    report(4, "CF front exposes both shared-target CXs; ablation only the first")


def test_criterion_5_ablation_speedup(corpus_dir):
    start = time.perf_counter()
    archs = [grid_architecture(6, 6), preset_architecture("square4")]
    table = bench_corpus(corpus_dir, archs)
    elapsed = time.perf_counter() - start
    n_circuits = len({r["circuit"] for r in table["rows"]})
    assert n_circuits >= 10, f"corpus too small: {n_circuits}"
    assert table["errors"] == []
    means = table["mean_ratio_by_arch"]
    assert all(m >= 1.0 for m in means.values()), means
    qft_rows = {r["arch"]: r["speedup_ratio"] for r in table["rows"]
                if r["circuit"] == "qft_4"}
    assert all(r >= 1.0 for r in qft_rows.values()), qft_rows
    assert any(r > 1.0 for r in qft_rows.values()), qft_rows
    assert elapsed < 10.0, f"bench took {elapsed:.1f}s"
    report(5, f"means {means}, qft_4 ratios {qft_rows}, {elapsed:.1f}s")


def test_criterion_6_equivalence_suite(corpus_dir, square4):
    checked = oracle_checked = 0
    for arch in (grid_architecture(6, 6), square4):
        for path in sorted(corpus_dir.glob("*.qasm")):
            circuit = parse_program(path.read_text(encoding="utf-8"))
            if circuit.num_qubits > arch.num_qubits:
                continue
            result = route(circuit, arch)
            rep = dependency_equivalence(circuit, result.schedule)
            assert rep.dependency_ok, (path.name, arch.name, rep.details)
            checked += 1
            if circuit.num_qubits <= 10:
                ok, err = statevector_oracle(circuit, result.schedule)
                assert ok, (path.name, arch.name, err)
                oracle_checked += 1
    report(6, f"{checked} dependency checks, {oracle_checked} oracle checks, all clean")


def test_criterion_7_property_suites():
    rng = random.Random(20260809)
    for _ in range(1000):
        graph = connected_graph(rng, max_nodes=30)
        assert all_pairs_distances(graph) == floyd_warshall(graph.num_qubits, graph.edges)

    for _ in range(1000):
        n = rng.randint(1, 4)
        gates = [random_unitary_gate(rng, n) for _ in range(rng.randint(0, 8))]
        assert cf_front(gates) == cf_front_bruteforce(gates, n, tol=1e-9), \
            [str(g) for g in gates]

    for _ in range(1000):
        arch = make_arch(connected_graph(rng, max_nodes=8))
        circ = random_circuit(rng, rng.randint(1, arch.num_qubits))
        cfg = RouterConfig(duration_aware=rng.random() < 0.7,
                           commutativity_on=rng.random() < 0.7)
        schedule = route(circ, arch, config=cfg).schedule
        assert compliance_violations(schedule.items, arch) == []

    for _ in range(1000):
        arch = make_arch(connected_graph(rng, max_nodes=8))
        circ = random_circuit(rng, rng.randint(1, arch.num_qubits))
        assert route(circ, arch).schedule.to_json() == route(circ, arch).schedule.to_json()

    report(7, "4 property suites x 1000 random cases")


def test_criterion_8_progress_and_stalls(tune_router):
    rng = random.Random(4242)
    total_stalls = 0
    worst = 0.0
    for _ in range(100):
        arch = make_arch(connected_graph(rng, max_nodes=10))
        circ = random_circuit(rng, rng.randint(1, arch.num_qubits), max_gates=25)
        tune_router(stall_limit=rng.choice([1, 2, 6, None]))
        start = time.perf_counter()
        result = route(circ, arch)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert elapsed < 5.0, f"instance took {elapsed:.2f}s"
        assert len(result.schedule.items) >= len(circ.gates)
        assert result.schedule.stall_events >= 0
        total_stalls += result.schedule.stall_events
    report(8, f"100 instances terminated, worst {worst * 1e3:.1f} ms, "
              f"{total_stalls} stall events total")
