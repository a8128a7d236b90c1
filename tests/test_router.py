import copy
import dataclasses
import hashlib
import pickle

import pytest

import codar_router.router as router_module
from codar_router import (
    DEFAULT_DURATIONS,
    Circuit,
    Gate,
    GateKind,
    Mapping,
    RouterConfig,
    TooManyQubitsError,
    commutes,
    emit_program,
    grid_architecture,
    initial_mapping,
    rescore_true_durations,
    route,
    validate,
)
from codar_router.router import (InvalidCircuitError, LockViolationError, RouterError,
                                 ScheduledGate, _SwapSearch, launch)
from codar_router.verify import replay_schedule, verify_equivalence

from oracles import candidate_swaps_reference, compliance_violations, heuristic_priority


def sched_map(result):
    return {(it.gate.kind, it.gate.qubits): it for it in result.schedule.items}


def test_golden_timeline(square4, golden_fixture):
    result = route(golden_fixture, square4)
    items = result.schedule.items
    assert [(it.gate.kind.value, it.gate.qubits, it.start) for it in items] == [
        ("t", (1,), 0),
        ("cx", (0, 2), 0),
        ("swap", (1, 3), 1),
        ("cx", (0, 1), 7),
    ]
    assert result.schedule.weighted_depth == 9
    assert result.schedule.swap_count == 1


def test_walkthrough_six_qubit(demo6, walkthrough_fixture):
    result = route(walkthrough_fixture, demo6)
    items = result.schedule.items
    swaps = [it for it in items if it.inserted]
    assert len(swaps) == 1
    swap = swaps[0]
    assert set(swap.gate.qubits) == {1, 3}
    assert swap.start == 1
    assert swap.end == 7  # both operand locks set to start + SWAP duration
    assert all(it.start > 0 or not it.inserted for it in items)


def test_walkthrough_negative_candidate(demo6):
    blocked = [Gate(GateKind.CX, (0, 3))]
    mapping = Mapping.identity(6, 6)
    assert heuristic_priority((3, 5), blocked, mapping.fwd, demo6.distances) < 0
    assert heuristic_priority((1, 3), blocked, mapping.fwd, demo6.distances) == 1


def test_context_swap_avoids_busy_qubit(square4, context_fixture):
    result = route(context_fixture, square4)
    swaps = [it for it in result.schedule.items if it.inserted]
    assert len(swaps) == 1
    assert swaps[0].start == 0  # parallel with the T gate
    assert 2 not in swaps[0].gate.qubits


def test_empty_circuit(square4):
    result = route(Circuit(4), square4)
    assert result.schedule.items == []
    assert result.schedule.weighted_depth == 0
    assert result.schedule.final_mapping == result.schedule.initial_mapping


def test_single_cx_depth(square4):
    result = route(Circuit(4).cx(0, 1), square4)
    assert result.schedule.items[0].start == 0
    assert result.schedule.weighted_depth == 2


def test_single_t_depth(square4):
    assert route(Circuit(4).t(0), square4).schedule.weighted_depth == 1


def test_launch_sets_locks(square4):
    locks = [0, 0, 0, 0]
    items = []
    launch(Gate(GateKind.T, (1,)), 0, locks, items, square4)
    assert locks[1] == 1
    launch(Gate(GateKind.CX, (0, 2)), 0, locks, items, square4)
    assert locks[0] == 2 and locks[2] == 2
    assert max(it.end for it in items) == 2


def test_launch_on_busy_qubit_raises(square4):
    locks = [0, 5, 0, 0]
    with pytest.raises(LockViolationError):
        launch(Gate(GateKind.T, (1,)), 0, locks, [], square4)


def test_candidate_swaps_walkthrough(demo6):
    # The blocked CX(0,3) under the identity mapping: endpoints 0 and 3.
    blocked = [Gate(GateKind.CX, (0, 3))]
    mapping = Mapping.identity(6, 6)
    # cycle 0 of the walkthrough: locks as just after CX(0,2) and T(1) launch
    locks = [2, 1, 2, 0, 0, 0]
    assert candidate_swaps_reference(blocked, mapping, locks, 0, demo6) == [(3, 5)]
    # cycle 1: q1 releases, q2 still busy
    assert candidate_swaps_reference(blocked, mapping, locks, 1, demo6) == [(1, 3), (3, 5)]


def test_forced_search_walkthrough(demo6):
    # The same state, with CX(0,3) forced: (3,5) only moves q3 away, so no
    # edge gains at cycle 0, and (1,3) gains 1 once q1 releases.
    search = _SwapSearch([Gate(GateKind.CX, (0, 3))], Mapping.identity(6, 6), demo6)
    search.add([0])
    locks = [2, 1, 2, 0, 0, 0]
    assert search.forced(0, locks, 0) == {}
    assert search.forced(0, locks, 1) == {(1, 3): 1}


def test_candidate_swaps_no_blocked_gates(square4):
    # CX(0,1) is compliant on square4, so nothing is blocked: no endpoints.
    assert candidate_swaps_reference([Gate(GateKind.CX, (0, 1))], Mapping.identity(4, 4),
                                     [0] * 4, 0, square4) == []


def test_heuristic_square4_positive(square4):
    blocked = [Gate(GateKind.CX, (0, 3))]
    mapping = Mapping.identity(4, 4)
    assert heuristic_priority((1, 3), blocked, mapping.fwd, square4.distances) == 1


def test_heuristic_no_two_qubit_gates(square4):
    mapping = Mapping.identity(4, 4)
    assert heuristic_priority((1, 3), [Gate(GateKind.T, (0,))], mapping.fwd,
                              square4.distances) == 0


def test_identity_initial_mapping(square4):
    m = initial_mapping(Circuit(4).cx(0, 1), square4, "identity")
    assert m.forward == [0, 1, 2, 3]


def test_initial_mapping_empty_circuit_is_identity(square4):
    assert initial_mapping(Circuit(4), square4, "reverse_pass").forward == [0, 1, 2, 3]
    assert initial_mapping(Circuit(3), square4, "reverse_pass") == Mapping.identity(3, 4)


def test_initial_mapping_rejects_unknown_policy_on_empty_circuit(square4):
    with pytest.raises(RouterError, match="unknown initial mapping policy 'bogus'"):
        initial_mapping(Circuit(4), square4, "bogus")


def test_reverse_pass_brings_interaction_adjacent(square4):
    circ = Circuit(4).t(1).cx(0, 3)
    m = initial_mapping(circ, square4, "reverse_pass")
    assert square4.distances[m.fwd[0]][m.fwd[3]] == 1


def test_too_many_qubits(square4):
    with pytest.raises(TooManyQubitsError):
        route(Circuit(6).cx(0, 5), square4)
    with pytest.raises(TooManyQubitsError):
        initial_mapping(Circuit(6).cx(0, 5), square4, "reverse_pass")


def test_identity_start_refuses_too_many_qubits(square4):
    # The identity start runs no check of the circuit; the mapping refuses it.
    with pytest.raises(TooManyQubitsError):
        initial_mapping(Circuit(6).cx(0, 5), square4, "identity")


@pytest.mark.parametrize("circuit", [
    Circuit(3).h(0).cx(0, 1).add(GateKind.CX, 2),
    Circuit(6).add(GateKind.CX, 2).cx(0, 5),
])
def test_reverse_pass_reports_the_callers_gates(square4, circuit):
    # The reverse pass checks the circuit it was given, not its reversed copy,
    # so it fails as route does and names each bad gate by the caller's index.
    with pytest.raises(InvalidCircuitError) as routed:
        route(circuit, square4)
    with pytest.raises(InvalidCircuitError) as mapped:
        initial_mapping(circuit, square4, "reverse_pass")
    assert mapped.value.diagnostics == validate(circuit, 4)
    assert str(mapped.value) == str(routed.value)


@pytest.mark.parametrize("forward, num_physical, message", [
    ([1, 1], 4, "mapping is not injective"),
    ([0, 4], 4, "mapping targets a qubit outside the device"),
    ([0, 1, 2], 4, "initial mapping does not match circuit/architecture sizes"),
    ([0, 1], 5, "initial mapping does not match circuit/architecture sizes"),
])
def test_route_rejects_bad_initial_mapping(square4, forward, num_physical, message):
    with pytest.raises(RouterError, match=message):
        route(Circuit(2).cx(0, 1), square4, Mapping(forward, num_physical))


def occupants(mapping: Mapping) -> list[int]:
    """Physical-to-logical list; -1 marks a qubit that holds no program qubit."""
    return [logical if logical < mapping.num_logical else -1 for logical in mapping.inv]


def test_mapping_swap_updates_both_directions_and_ignores_ancillas():
    mapping = Mapping([2, 0], 5)  # physical 1, 3 and 4 hold no program qubit
    before = mapping.copy()
    assert occupants(mapping) == [1, -1, 0, -1, -1]
    fwd = list(mapping.fwd)
    mapping.swap(3, 4)
    assert mapping.fwd != fwd  # the two ancillas traded places ...
    assert mapping == before  # ... which carries no program state
    mapping.swap(0, 1)  # program qubit 1 onto an unoccupied qubit
    assert mapping.forward == [2, 1] and occupants(mapping) == [-1, 1, 0, -1, -1]
    assert mapping != before
    mapping.swap(0, 1)
    assert mapping == before and occupants(mapping) == [1, -1, 0, -1, -1]
    for phys, logical in enumerate(mapping.inv):
        assert mapping.fwd[logical] == phys


def test_commutativity_ablation_changes_front(square4):
    # CX(0,3) is blocked and stays pending; the later CX(1,3) shares its
    # target and commutes, so only the CF front lets it jump the queue.
    circ = Circuit(4).cx(0, 3).cx(1, 3)
    on = route(circ, square4, config=RouterConfig())
    off = route(circ, square4, config=RouterConfig(commutativity_on=False))

    def first_cx_start(result):
        return min(it.start for it in result.schedule.items
                   if it.gate.kind is GateKind.CX)

    assert first_cx_start(on) == 0
    assert first_cx_start(off) > 0  # rides behind the blocked gate instead
    assert on.schedule.weighted_depth < off.schedule.weighted_depth


def test_duration_unaware_uses_unit_locks(square4, golden_fixture):
    result = route(golden_fixture, square4, config=RouterConfig(duration_aware=False))
    for it in result.schedule.items:
        assert it.duration == 1
        assert it.true_duration >= 1
    assert result.schedule.weighted_depth < 9


def test_ablation_dominance_on_golden_fixture(square4, golden_fixture):
    full = route(golden_fixture, square4)
    ablated = route(golden_fixture, square4,
                    config=RouterConfig(duration_aware=False, commutativity_on=False))
    rescored = rescore_true_durations(ablated.schedule.items, square4)
    assert full.schedule.weighted_depth < rescored


def test_gate_conservation_and_mapping_replay(square4, golden_fixture):
    from collections import Counter
    result = route(golden_fixture, square4)
    replay = replay_schedule(result.schedule.items, result.schedule.initial_mapping)
    assert replay.violations == []
    assert replay.final_mapping == result.schedule.final_mapping
    assert Counter(g.signature() for g in replay.logical_gates) == \
        Counter(g.signature() for g in golden_fixture.gates)


def test_routed_circuit_is_physical_and_schedule_ordered(square4, golden_fixture):
    result = route(golden_fixture, square4)
    assert result.routed.num_qubits == square4.num_qubits
    assert [g.signature() for g in result.routed.gates] == \
        [it.gate.signature() for it in result.schedule.items]
    starts = [it.start for it in result.schedule.items]
    assert starts == sorted(starts)


def test_determinism_byte_identical(square4, golden_fixture):
    a = route(golden_fixture, square4)
    b = route(golden_fixture, square4)
    assert a.schedule.to_json() == b.schedule.to_json()


def test_barrier_fences_commutation(square4):
    circ = Circuit(4).cx(1, 3)
    circ.barrier()
    circ.cx(2, 3)
    result = route(circ, square4)
    cx_items = [it for it in result.schedule.items if it.gate.kind is GateKind.CX]
    assert cx_items[0].end <= cx_items[1].start


def test_measure_keeps_original_classical_bit(square4):
    circ = Circuit(4).t(1).cx(0, 3)
    circ.measure(3, 3)
    result = route(circ, square4)
    measures = [it.gate for it in result.schedule.items if it.gate.kind is GateKind.MEASURE]
    assert len(measures) == 1
    assert measures[0].cbit == 3
    final = result.schedule.final_mapping
    assert measures[0].qubits == (final.fwd[3],)


def test_measure_built_without_a_classical_bit_keeps_it_when_routed(square4):
    circ = Circuit(4, [Gate(GateKind.CX, (0, 3)), Gate(GateKind.MEASURE, (0,))], num_clbits=4)
    result = route(circ, square4)
    (item,) = [it for it in result.schedule.items if it.gate.kind is GateKind.MEASURE]
    assert item.gate.qubits == (1,)  # moved by the one SWAP
    assert "measure q[0] -> c[0];" in emit_program(circ).splitlines()
    assert "measure q[1] -> c[0];" in emit_program(result.routed).splitlines()
    assert verify_equivalence(circ, result.schedule).ok
    # Written to the bit of the qubit it was moved to, it is another program.
    moved = dataclasses.replace(item, gate=Gate(GateKind.MEASURE, (1,), cbit=1))
    items = [moved if it is item else it for it in result.schedule.items]
    report = verify_equivalence(circ, dataclasses.replace(result.schedule, items=items))
    assert not report.ok and "extra or missing gate" in report.details[0]


def test_swap_with_unoccupied_physical_qubit():
    from codar_router import grid_architecture
    arch = grid_architecture(1, 4)  # line of 4, circuit uses only 3 qubits
    circ = Circuit(3).cx(0, 2)
    init = Mapping([0, 1, 3], 4)
    result = route(circ, arch, init)
    report_gates = [it.gate for it in result.schedule.items]
    assert any(g.kind is GateKind.SWAP for g in report_gates)
    assert occupants(result.schedule.final_mapping).count(-1) == 1  # one physical qubit still unoccupied


def test_forced_move_counts_stall_event(tune_router):
    from codar_router import grid_architecture
    tune_router(stall_limit=1)
    arch = grid_architecture(1, 3)
    circ = Circuit(3).cx(0, 1).cx(0, 2)
    result = route(circ, arch)
    assert result.schedule.stall_events >= 1
    # forced routing still produces a legal, complete schedule
    kinds = [it.gate.kind for it in result.schedule.items]
    assert kinds.count(GateKind.CX) == 2


def test_idle_cycles_skip_to_the_stall_limit_under_a_long_lock(monkeypatch, tune_router):
    # CX(1,2) holds qubits 1 and 2 for 20 cycles, so nothing can move CX(0,3)
    # closer; with stall limit 1 the router forces it at cycle 2, long before
    # the lock releases, then waits for the first release at cycle 6.
    tune_router(stall_limit=1)
    arch = dataclasses.replace(grid_architecture(1, 5),
                               durations={**DEFAULT_DURATIONS, GateKind.CX: 20})
    circ = Circuit(5).cx(1, 2).cx(0, 3).t(0).cx(2, 4).cx(1, 4).h(3)
    cycles = []
    launch_ready = router_module._Router._launch_ready

    def record(self):
        cycles.append(self.t)
        return launch_ready(self)

    monkeypatch.setattr(router_module._Router, "_launch_ready", record)
    schedule = route(circ, arch).schedule
    assert cycles[:4] == [0, 1, 2, 6]
    assert schedule.stall_events == 2
    assert schedule.weighted_depth == 79
    # The schedule that simulating every cycle, with no skip, produces.
    assert hashlib.sha256(schedule.to_json().encode()).hexdigest() == (
        "a58680d4a0730fd1defe322fddcde80460711b99240e495c0f16da538ec7347f")


@pytest.mark.parametrize("cls, args", [
    (Gate, (GateKind.MEASURE, (3,), (0.5,), 2, 7)),
    (ScheduledGate, (Gate(GateKind.SWAP, (1, 2)), 4, 6, 3, True)),
])
def test_hand_written_constructors_set_every_field(cls, args):
    fields = dataclasses.fields(cls)
    assert len(args) == len(fields)
    # Every argument differs from its field's default, so one that is
    # dropped or swapped for another shows.
    for field, arg in zip(fields, args):
        assert field.default is dataclasses.MISSING or arg != field.default
    by_position = cls(*args)
    by_keyword = cls(**{field.name: arg for field, arg in zip(fields, args)})
    for record in (by_position, by_keyword):
        assert [getattr(record, field.name) for field in fields] == list(args)
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert repr(by_position) == repr(by_keyword)
    assert dataclasses.replace(by_position) == by_position
    changed = dataclasses.replace(by_position, **{fields[1].name: 9})
    assert getattr(changed, fields[1].name) == 9 and changed != by_position
    for field in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(by_position, field.name, None)


def test_with_qubits_keeps_every_other_field():
    gate = Gate(GateKind.MEASURE, (3,), (0.5,), cbit=2, source_line=7)
    # Every field differs from its default, so one that is dropped shows.
    for field in dataclasses.fields(Gate):
        assert field.default is dataclasses.MISSING or getattr(gate, field.name) != field.default
    moved = gate.with_qubits((5,))
    assert moved.qubits == (5,)
    for field in dataclasses.fields(Gate):
        if field.name != "qubits":
            assert getattr(moved, field.name) == getattr(gate, field.name), field.name
    # A measure built without a bit writes its own qubit's, also once moved.
    assert Gate(GateKind.MEASURE, (3,)) == Gate(GateKind.MEASURE, (3,), cbit=3)
    assert Gate(GateKind.MEASURE, (3,)).with_qubits((5,)).cbit == 3


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_of_records_keep_fields_and_refill_caches(duplicate):
    gates = [Gate(GateKind.CX, (0, 1)), Gate(GateKind.U1, (0,), (0.5,)),
             Gate(GateKind.H, (1,)), Gate(GateKind.SWAP, (1, 0)),
             Gate(GateKind.MEASURE, (0,), source_line=4)]
    # Fill both caches first, so a copy that carried them half-way shows.
    signatures = [g.signature() for g in gates]
    table = [[commutes(a, b) for b in gates] for a in gates]
    copies = [duplicate(g) for g in gates]
    for g, c in zip(gates, copies):
        assert c == g and hash(c) == hash(g) and repr(c) == repr(g)
    assert [c.signature() for c in copies] == signatures
    assert [[commutes(a, b) for b in gates] for a in copies] == table
    assert [[commutes(a, b) for b in copies] for a in copies] == table
    item = ScheduledGate(gates[0], 4, 2, 2, True)
    copied = duplicate(item)
    assert copied == item and hash(copied) == hash(item) and repr(copied) == repr(item)
    assert copied.gate.signature() == signatures[0]
    assert [commutes(copied.gate, b) for b in gates] == table[0]


def test_records_have_no_instance_dict():
    gate = Gate(GateKind.CX, (0, 1))
    gate.signature()
    commutes(gate, gate)
    for record in (gate, ScheduledGate(gate, 0, 2, 2)):
        assert not hasattr(record, "__dict__")


def test_gate_kind_table():
    # name: (arity, num_params, is_unitary)
    table = {
        "H": (1, 0, True), "X": (1, 0, True), "Y": (1, 0, True), "Z": (1, 0, True),
        "S": (1, 0, True), "SDG": (1, 0, True), "T": (1, 0, True), "TDG": (1, 0, True),
        "RX": (1, 1, True), "RY": (1, 1, True), "RZ": (1, 1, True), "U1": (1, 1, True),
        "U2": (1, 2, True), "U3": (1, 3, True), "CX": (2, 0, True), "SWAP": (2, 0, True),
        "MEASURE": (1, 0, False), "BARRIER": (None, 0, False),
    }
    assert {kind.name: (kind.arity, kind.num_params, kind.is_unitary)
            for kind in GateKind} == table


def test_lock_exclusivity_and_coupling(square4, corpus_dir):
    from codar_router import parse_program
    for path in sorted(corpus_dir.glob("*.qasm")):
        circ = parse_program(path.read_text(encoding="utf-8"))
        if circ.num_qubits > square4.num_qubits:
            continue
        schedule = route(circ, square4).schedule
        assert compliance_violations(schedule.items, square4) == []


def test_compliance_check_flags_an_uncoupled_cx_and_an_overlapping_lock(square4):
    # square4 couples 0-1, 0-2, 1-3 and 2-3.
    items = [ScheduledGate(Gate(GateKind.CX, (0, 1)), 0, 2, 2),
             ScheduledGate(Gate(GateKind.SWAP, (2, 3)), 0, 6, 6, inserted=True),
             ScheduledGate(Gate(GateKind.H, (1,)), 2, 1, 1),
             ScheduledGate(Gate(GateKind.CX, (1, 3)), 6, 2, 2)]
    assert compliance_violations(items, square4) == []
    uncoupled = items + [ScheduledGate(Gate(GateKind.CX, (0, 3)), 8, 2, 2)]
    assert compliance_violations(uncoupled, square4) == ["cx 0,3 at 8 is not on a coupled pair"]
    overlapping = items + [ScheduledGate(Gate(GateKind.T, (1,)), 1, 1, 1)]
    assert compliance_violations(overlapping, square4) == ["qubit 1: [0, 2) overlaps [1, 2)"]
