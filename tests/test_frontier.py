"""Differential tests: the lane frontier and the checker built on it against
the full-rescan references in ``oracles.py``, plus the restricted SWAP score.
"""
from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from codar_router import (
    BASELINE_TABLE,
    Circuit,
    Gate,
    GateKind,
    Mapping,
    RouterConfig,
    cf_front,
    commutes,
    grid_architecture,
    no_predecessor_front,
    preset_architecture,
    route,
)
from codar_router.commutation import LaneFrontier
from codar_router.router import _by_physical_qubit, _incident_gates, heuristic_priority
from codar_router.verify import _is_commuting_reordering, dependency_equivalence, replay_schedule

from oracles import (
    cf_front_reference,
    is_commuting_reordering_reference,
    no_predecessor_front_reference,
    random_unitary_gate,
)

# Rows no dense-matrix check would pass: H commuting with itself, with Z and
# with U3, X with the CX control slot.  The frontier must stay exact anyway.
UNVALIDATED = BASELINE_TABLE.with_extras([
    ["h", "single", "h", "single"],
    ["h", "single", "z", "single"],
    ["h", "single", "u3", "single"],
    ["x", "single", "cx", "cx_control"],
], validate=False)
# H against U3 only: neither is friendly to itself, so two such marks leave
# a qubit open to repeats of either gate alone.
MUTUAL = BASELINE_TABLE.with_extras([["h", "single", "u3", "single"]], validate=False)
TABLES = (BASELINE_TABLE, UNVALIDATED, MUTUAL)

ARCHS = (preset_architecture("square4"), preset_architecture("demo6"), grid_architecture(3, 3))
U3_ANGLES = ((0.4, 1.2, 2.0), (0.5, 1.2, 2.0))


def random_gates(rng: random.Random, num_qubits: int, count: int) -> list[Gate]:
    """CX, source SWAPs, measures, barriers, one-qubit gates and exact repeats."""
    gates: list[Gate] = []
    for _ in range(count):
        roll = rng.random()
        if gates and roll < 0.12:
            gates.append(rng.choice(gates))
        elif roll < 0.2:
            q = rng.randrange(num_qubits)
            gates.append(Gate(GateKind.MEASURE, (q,), cbit=q))
        elif roll < 0.27:
            qs = rng.sample(range(num_qubits), rng.randint(1, num_qubits))
            gates.append(Gate(GateKind.BARRIER, tuple(qs)))
        elif roll < 0.35:
            gates.append(Gate(GateKind.U3, (rng.randrange(num_qubits),), rng.choice(U3_ANGLES)))
        else:
            gates.append(random_unitary_gate(rng, num_qubits))
    return gates


def lane_front_of(table, commutativity_on: bool):
    if commutativity_on:
        return lambda gates, q: cf_front(gates, table, lane=q)
    return lambda gates, q: no_predecessor_front(gates)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_lane_frontier_matches_full_rescan(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    gates = random_gates(rng, n, rng.randint(0, 40))
    for table in TABLES:
        for commutativity_on in (True, False):
            frontier = LaneFrontier(gates, lane_front_of(table, commutativity_on))
            remaining = list(range(len(gates)))
            while True:
                rest = [gates[i] for i in remaining]
                expected = (cf_front_reference(rest, table) if commutativity_on
                            else no_predecessor_front_reference(rest))
                assert frontier.front == {remaining[k] for k in expected}
                for q in range(n):
                    assert frontier.lane(q) == [i for i in remaining if q in gates[i].qubits]
                if not remaining:
                    break
                # Mostly launch-like rounds from the front; sometimes any gates.
                pool = sorted(frontier.front) if frontier.front and rng.random() < 0.75 else remaining
                batch = rng.sample(pool, rng.randint(1, min(3, len(pool))))
                frontier.remove(batch)
                remaining = [i for i in remaining if i not in batch]


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_cf_front_early_exit_matches_full_scan(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    gates = random_gates(rng, n, rng.randint(0, 30))
    q = rng.randrange(n)
    lane = [g for g in gates if q in g.qubits]
    for table in TABLES:
        assert cf_front(gates, table) == cf_front_reference(gates, table)
        assert cf_front(lane, table, lane=q) == cf_front_reference(lane, table)
    assert no_predecessor_front(gates) == no_predecessor_front_reference(gates)


def test_cf_front_stops_only_when_the_lane_qubit_is_closed():
    h, u3 = Gate(GateKind.H, (0,)), Gate(GateKind.U3, (0,), U3_ANGLES[0])
    # H and U3 commute in MUTUAL, yet neither with itself at another angle.
    assert cf_front([h, u3, h, u3, h], MUTUAL, lane=0) == {0, 1, 2, 3, 4}
    other, x = Gate(GateKind.U3, (0,), U3_ANGLES[1]), Gate(GateKind.X, (0,))
    assert cf_front([h, u3, other, h], MUTUAL, lane=0) == {0, 1, 3}
    assert cf_front([h, u3, other, x, h], MUTUAL, lane=0) == {0, 1}


def test_repeat_passes_only_past_marks_of_its_own_signature():
    # Same entry, another signature: the repeat is blocked by the middle gate.
    u3, other = (Gate(GateKind.U3, (0,), angles) for angles in U3_ANGLES)
    swap01, swap02 = Gate(GateKind.SWAP, (0, 1)), Gate(GateKind.SWAP, (0, 2))
    for gates in ([u3, other, u3], [swap01, swap02, swap01]):
        assert cf_front(gates) == cf_front(gates, lane=0) == {0}
    assert cf_front([u3, u3, swap01, swap01], lane=0) == {0, 1}


def check_verdict(original, candidate, table) -> bool:
    ok, _ = _is_commuting_reordering(original, candidate, table)
    assert ok == is_commuting_reordering_reference(original, candidate, table)
    return ok


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_dependency_check_matches_reference_on_routed_and_corrupted(seed):
    rng = random.Random(seed)
    arch = rng.choice(ARCHS)
    n = rng.randint(2, arch.num_qubits)
    table = rng.choice(TABLES)
    circuit = Circuit(n, random_gates(rng, n, rng.randint(1, 30)))
    config = RouterConfig(commutativity_on=rng.random() < 0.8, table=table)
    schedule = route(circuit, arch, config=config).schedule
    items = schedule.items
    original = list(circuit.gates)

    logical = replay_schedule(items, schedule.initial_mapping).logical_gates
    assert check_verdict(original, logical, table)

    inserted = [k for k, it in enumerate(items) if it.inserted]
    if inserted:
        k = rng.choice(inserted)
        dropped = replay_schedule(items[:k] + items[k + 1:], schedule.initial_mapping)
        check_verdict(original, dropped.logical_gates, table)

    exchanged = [k for k in range(len(logical) - 1)
                 if logical[k].signature() != logical[k + 1].signature()
                 and not commutes(logical[k], logical[k + 1], table)]
    if exchanged:
        k = rng.choice(exchanged)
        bad = logical[:k] + [logical[k + 1], logical[k]] + logical[k + 2:]
        assert not check_verdict(original, bad, table)

    shuffled = list(logical)
    for _ in range(3):
        if len(shuffled) > 1:
            k = rng.randrange(len(shuffled) - 1)
            shuffled[k], shuffled[k + 1] = shuffled[k + 1], shuffled[k]
    check_verdict(original, shuffled, table)


def dependency_details(source: list[GateKind], candidate: list[GateKind]) -> list[str]:
    from codar_router.router import Schedule, ScheduledGate

    init = Mapping.identity(1, 1)
    items = [ScheduledGate(Gate(kind, (0,)), i, 1, 1) for i, kind in enumerate(candidate)]
    report = dependency_equivalence(Circuit(1, [Gate(kind, (0,)) for kind in source]),
                                    Schedule(items, init, init.copy()))
    assert not report.dependency_ok
    return report.details


def test_blocker_is_the_earliest_unplaced_non_commuting_gate():
    # h 0 is already placed when x 0 arrives, so it cannot be the blocker.
    H, X, Y, Z = GateKind.H, GateKind.X, GateKind.Y, GateKind.Z
    assert dependency_details([H, Z, X], [H, X, Z]) == [
        "x 0 at position 1 jumped before non-commuting z 0"]
    assert dependency_details([H, Z, Y, X], [H, X, Z, Y]) == [
        "x 0 at position 1 jumped before non-commuting z 0"]


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_incident_swap_score_equals_full_front_score(seed):
    rng = random.Random(seed)
    arch = rng.choice(ARCHS + (preset_architecture("q20-tokyo"),))
    n = rng.randint(2, arch.num_qubits)
    fwd = rng.sample(range(arch.num_qubits), n)
    mapping = Mapping(fwd, arch.num_qubits)
    front = [Gate(rng.choice((GateKind.CX, GateKind.SWAP)), tuple(rng.sample(range(n), 2)))
             for _ in range(rng.randint(0, 8))]
    # One-qubit gates score 0 and may sit in the list too.
    front += [Gate(GateKind.H, (rng.randrange(n),)) for _ in range(rng.randint(0, 2))]
    index = _by_physical_qubit(front, fwd)
    for edge in arch.graph.edges:
        edge = (min(edge), max(edge))
        assert (heuristic_priority(edge, _incident_gates(edge, index), mapping, arch.distances)
                == heuristic_priority(edge, front, mapping, arch.distances))
