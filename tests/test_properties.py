"""Hypothesis property suites for the core invariants.

The acceptance module reruns the same properties with large seeded loops; the
versions here shrink counterexamples during development.
"""
from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from codar_router import Circuit, Mapping, RouterConfig, cf_front, route
from codar_router.arch import Architecture, CouplingGraph, DEFAULT_DURATIONS, all_pairs_distances
from codar_router.verify import verify_equivalence

from oracles import (
    cf_front_bruteforce,
    compliance_violations,
    floyd_warshall,
    no_predecessor_front_reference,
    random_unitary_gate,
)


def connected_graph(rng: random.Random, max_nodes: int = 12) -> CouplingGraph:
    n = rng.randint(2, max_nodes)
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = [(nodes[i - 1], nodes[i]) for i in range(1, n)]
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        edges.append((a, b))
    return CouplingGraph.from_edges(n, edges)


def make_arch(graph: CouplingGraph) -> Architecture:
    return Architecture(f"rand{graph.num_qubits}", graph, dict(DEFAULT_DURATIONS),
                        all_pairs_distances(graph))


def random_circuit(rng: random.Random, num_qubits: int, max_gates: int = 14) -> Circuit:
    circ = Circuit(num_qubits)
    for _ in range(rng.randint(0, max_gates)):
        roll = rng.random()
        if roll < 0.6 and num_qubits >= 2:
            a, b = rng.sample(range(num_qubits), 2)
            circ.cx(a, b)
        elif roll < 0.7:
            circ.measure(rng.randrange(num_qubits))
        elif roll < 0.78:
            qs = rng.sample(range(num_qubits), rng.randint(1, num_qubits))
            circ.barrier(*qs)
        else:
            circ.gates.append(random_unitary_gate(rng, num_qubits))
    return circ


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_distances_match_floyd_warshall(seed):
    rng = random.Random(seed)
    graph = connected_graph(rng, max_nodes=30)
    assert all_pairs_distances(graph) == floyd_warshall(graph.num_qubits, graph.edges)


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_cf_front_matches_unitary_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    gates = [random_unitary_gate(rng, n) for _ in range(rng.randint(0, 8))]
    assert cf_front(gates) == cf_front_bruteforce(gates, n)


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_no_predecessor_front_contained_in_cf(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    gates = [random_unitary_gate(rng, n) for _ in range(rng.randint(0, 10))]
    assert no_predecessor_front_reference(gates) <= cf_front(gates)


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_schedules_respect_locks_coupling_and_semantics(seed):
    rng = random.Random(seed)
    arch = make_arch(connected_graph(rng, max_nodes=8))
    circ = random_circuit(rng, rng.randint(1, arch.num_qubits))
    cfg = RouterConfig(duration_aware=rng.random() < 0.7,
                       commutativity_on=rng.random() < 0.7)
    result = route(circ, arch, config=cfg)
    assert compliance_violations(result.schedule.items, arch) == []
    report = verify_equivalence(circ, result.schedule)
    assert report.dependency_ok, report.details
    assert report.oracle_ok is not False, report.details


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_dependency_timing(seed):
    # Non-commuting gates on a shared program qubit must not overlap in time,
    # no matter how SWAPs relocate that qubit between them.
    from codar_router.commutation import commutes

    rng = random.Random(seed)
    arch = make_arch(connected_graph(rng, max_nodes=8))
    circ = random_circuit(rng, rng.randint(1, arch.num_qubits))
    schedule = route(circ, arch).schedule
    placement = schedule.initial_mapping.copy()
    timed = []
    for item in schedule.items:
        if item.inserted:
            placement.swap(*item.gate.qubits)
            continue
        logical = item.gate.with_qubits(tuple(placement.inv[q] for q in item.gate.qubits))
        timed.append((logical, item.start, item.end))
    for i, (gi, _, end_i) in enumerate(timed):
        for gj, start_j, _ in timed[i + 1:]:
            if set(gi.qubits) & set(gj.qubits) and not commutes(gi, gj):
                assert end_i <= start_j


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_byte_identical_determinism(seed):
    rng = random.Random(seed)
    arch = make_arch(connected_graph(rng, max_nodes=8))
    circ = random_circuit(rng, rng.randint(1, arch.num_qubits))
    first = route(circ, arch)
    second = route(circ, arch)
    assert first.schedule.to_json() == second.schedule.to_json()


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_initial_mapping_policies_stay_injective(seed):
    rng = random.Random(seed)
    arch = make_arch(connected_graph(rng, max_nodes=8))
    circ = random_circuit(rng, rng.randint(1, arch.num_qubits))
    from codar_router import initial_mapping
    for policy in ("identity", "reverse_pass"):
        m = initial_mapping(circ, arch, policy)
        Mapping(m.forward, m.num_physical)  # raises unless injective and on the device
        assert m.num_logical == circ.num_qubits


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_mapping_replay_reaches_final(seed):
    rng = random.Random(seed)
    arch = make_arch(connected_graph(rng, max_nodes=8))
    circ = random_circuit(rng, rng.randint(1, arch.num_qubits))
    result = route(circ, arch)
    placement = Mapping.identity(circ.num_qubits, arch.num_qubits)
    n = placement.num_logical
    inv = [logical if logical < n else -1 for logical in placement.inv]
    fwd = list(placement.forward)
    for item in result.schedule.items:
        if item.inserted:
            i, j = item.gate.qubits
            a, b = inv[i], inv[j]
            inv[i], inv[j] = b, a
            if a >= 0:
                fwd[a] = j
            if b >= 0:
                fwd[b] = i
    assert fwd == result.schedule.final_mapping.forward
