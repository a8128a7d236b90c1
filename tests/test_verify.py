import dataclasses

import numpy as np
import pytest

from codar_router import Circuit, Gate, GateKind, Mapping, parse_program, route, verify
from codar_router.router import Schedule, ScheduledGate
from codar_router.verify import (
    ORACLE_QUBIT_LIMIT,
    OracleLimitError,
    dependency_equivalence,
    replay_schedule,
    simulate_gates,
    statevector_oracle,
    states_close,
    verify_equivalence,
)

from oracles import embed_unitary, random_unitary_gate, statevector_reference


def identity_schedule(circuit: Circuit, num_physical: int | None = None) -> Schedule:
    """Schedule that executes the circuit verbatim on an identity placement."""
    n_phys = num_physical or circuit.num_qubits
    init = Mapping.identity(circuit.num_qubits, n_phys)
    items = [ScheduledGate(g, i, 1, 1) for i, g in enumerate(circuit.gates)]
    return Schedule(items, init, init.copy())


def random_state(rng, num_qubits: int) -> np.ndarray:
    state = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return state / np.linalg.norm(state)


def test_swap_equals_three_cx():
    swap = embed_unitary(Gate(GateKind.SWAP, (0, 1)), 2)
    three_cx = [Gate(GateKind.CX, (0, 1)), Gate(GateKind.CX, (1, 0)), Gate(GateKind.CX, (0, 1))]
    for col in np.eye(4):
        assert np.allclose(simulate_gates(three_cx, 2, col), swap @ col, atol=1e-12)
        assert np.allclose(simulate_gates([Gate(GateKind.SWAP, (0, 1))], 2, col), swap @ col,
                           atol=1e-12)


def test_swap_decomposition_passes_oracle():
    native = Circuit(2).swap(0, 1)
    decomposed = Circuit(2).cx(0, 1).cx(1, 0).cx(0, 1)
    ok, err = statevector_oracle(native, identity_schedule(decomposed))
    assert ok and err < 1e-12
    # and against a non-trivial input state built by gates
    native2 = Circuit(2).h(0).t(1).swap(0, 1)
    decomposed2 = Circuit(2).h(0).t(1).cx(0, 1).cx(1, 0).cx(0, 1)
    ok2, _ = statevector_oracle(native2, identity_schedule(decomposed2))
    assert ok2


def test_simulate_gates_matches_embedded_unitaries():
    # Seeded random gate lists on 0 to 6 qubits, from a random start, against
    # the product of independently embedded unitaries.  The coverage below is
    # asserted so that a change of seed or generator cannot thin it out:
    # every unitary kind, CX both ways round, SWAP between non-adjacent
    # qubits, and both in-place phases and matmuls on the first and last
    # qubit, where the kernel's reshape has an outer or inner axis of one.
    import random
    phases = {GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG, GateKind.U1}
    rng = random.Random(5)
    nprng = np.random.default_rng(5)
    seen = set()
    for trial in range(90):
        n = trial % 7
        gates = [random_unitary_gate(rng, n) for _ in range(rng.randint(1, 14))] if n else []
        start = random_state(nprng, n)
        got = simulate_gates(gates, n, start)
        assert np.allclose(got, statevector_reference(gates, n, start), atol=1e-12), (trial, gates)
        for g in gates:
            seen.add(g.kind)
            if g.kind is GateKind.CX:
                seen.add("cx-up" if g.qubits[0] < g.qubits[1] else "cx-down")
            elif g.kind is GateKind.SWAP and abs(g.qubits[0] - g.qubits[1]) > 1:
                seen.add("swap-apart")
            elif len(g.qubits) == 1 and g.qubits[0] in (0, n - 1) and n > 1:
                seen.add(("edge", g.qubits[0] == 0, g.kind in phases))
    unitary_kinds = {k for k in GateKind if k.is_unitary}
    assert seen >= unitary_kinds | {"cx-up", "cx-down", "swap-apart"}
    assert {("edge", first, phase) for first in (True, False) for phase in (True, False)} <= seen


def test_simulate_gates_matches_reference_at_the_oracle_limit():
    # A few hundred gates at ORACLE_QUBIT_LIMIT, drawn from a pool of distinct
    # gates so the reference embeds each 1024x1024 unitary once.
    import random
    n = ORACLE_QUBIT_LIMIT
    rng = random.Random(11)
    pool = [random_unitary_gate(rng, n) for _ in range(14)] + [
        Gate(GateKind.CX, (0, n - 1)), Gate(GateKind.CX, (n - 1, 0)),
        Gate(GateKind.SWAP, (0, n - 1)), Gate(GateKind.H, (0,)), Gate(GateKind.T, (n - 1,)),
        Gate(GateKind.U1, (0,), (0.9,))]
    gates = [rng.choice(pool) for _ in range(300)]
    start = random_state(np.random.default_rng(11), n)
    assert np.allclose(simulate_gates(gates, n, start), statevector_reference(gates, n, start),
                       atol=1e-12)


def test_simulate_gates_edge_cases():
    # No qubits: the 1-element start comes back unchanged, and the oracle
    # compares one amplitude on each side.
    assert np.array_equal(simulate_gates([], 0, np.array([1j])), np.array([1j]))
    assert statevector_oracle(Circuit(0), identity_schedule(Circuit(0))) == (True, 0.0)
    # Barriers and measurements are skipped, and the caller's start is not
    # written to by the in-place phases.
    start = random_state(np.random.default_rng(2), 3)
    kept = start.copy()
    gates = [Gate(GateKind.T, (2,)), Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 2))]
    fenced = [gates[0], Gate(GateKind.BARRIER, (0, 1, 2)), gates[1],
              Gate(GateKind.MEASURE, (1,), cbit=1), gates[2], Gate(GateKind.MEASURE, (0,), cbit=0)]
    assert np.array_equal(simulate_gates(fenced, 3, start), simulate_gates(gates, 3, start))
    assert np.array_equal(start, kept)
    with pytest.raises(ValueError, match="shape"):
        simulate_gates(gates, 3, np.ones(4))


def test_identical_circuits_pass_oracle():
    circ = Circuit(2).h(0).cx(0, 1)
    ok, err = statevector_oracle(circ, identity_schedule(circ))
    assert ok and err < 1e-12


def _replace_swaps_with_cx(schedule: Schedule) -> Schedule:
    items = [
        it if not it.inserted else
        ScheduledGate(Gate(GateKind.CX, it.gate.qubits), it.start, it.duration,
                      it.true_duration, inserted=False)
        for it in schedule.items
    ]
    return Schedule(items, schedule.initial_mapping, schedule.final_mapping)


def test_oracle_detects_swap_replaced_by_cx(square4):
    circ = Circuit(4).h(0).t(1).cx(0, 2).cx(0, 3)
    result = route(circ, square4)
    assert result.schedule.swap_count >= 1
    ok, _ = statevector_oracle(circ, _replace_swaps_with_cx(result.schedule))
    assert not ok


def test_dependency_detects_swap_replaced_by_cx(square4, golden_fixture):
    result = route(golden_fixture, square4)
    report = dependency_equivalence(golden_fixture, _replace_swaps_with_cx(result.schedule))
    assert not report.dependency_ok


def test_oracle_routed_golden_fixture(square4, golden_fixture):
    result = route(golden_fixture, square4)
    ok, err = statevector_oracle(golden_fixture, result.schedule)
    assert ok and err < 1e-9


def test_oracle_global_phase_insensitive():
    a = Circuit(1).rz(0, 1.2)
    b = Circuit(1).u1(0, 1.2)  # same operator up to global phase
    ok, err = statevector_oracle(a, identity_schedule(b))
    assert ok and err < 1e-12
    # also at the raw comparison level
    state = simulate_gates(a.gates, 1, np.array([0.6, 0.8]))
    assert states_close(state, np.exp(0.25j) * state)[0]


def test_oracle_size_limit():
    big = Circuit(11)
    with pytest.raises(OracleLimitError, match="^11 qubits exceeds the 10-qubit oracle limit$"):
        statevector_oracle(big, identity_schedule(big))


def test_oracle_rejects_mid_circuit_measure(monkeypatch):
    def simulated(*args):
        raise AssertionError("simulated before the measure was rejected")

    monkeypatch.setattr(verify, "simulate_gates", simulated)
    circ = Circuit(1).measure(0)
    circ.x(0)
    with pytest.raises(OracleLimitError):
        statevector_oracle(circ, identity_schedule(circ))
    # Also when only the routed side measures mid-circuit.
    routed = Circuit(1).x(0).measure(0)
    routed.x(0)
    with pytest.raises(OracleLimitError):
        statevector_oracle(Circuit(1).x(0).x(0), identity_schedule(routed))


def test_oracle_starts_from_a_random_state():
    # From |0>, exchanging ``x 0; t 0`` gives the same state up to phase
    # (T only rephases |1>), so only a random input tells the orders apart.
    a = Gate(GateKind.X, (0,))
    b = Gate(GateKind.T, (0,))
    ok, err = statevector_oracle(Circuit(1, [a, b]), identity_schedule(Circuit(1, [b, a])))
    assert not ok and err > 0.1
    # The comparison stays phase-insensitive: ``x 0; z 0`` exchanged is the
    # same operator up to the global phase -1 (XZ = -ZX), so it passes.
    z = Gate(GateKind.Z, (0,))
    assert statevector_oracle(Circuit(1, [a, z]), identity_schedule(Circuit(1, [z, a])))[0]


def test_verify_equivalence_reports_an_oracle_mismatch():
    a, b = Gate(GateKind.X, (0,)), Gate(GateKind.T, (0,))
    report = verify_equivalence(Circuit(1, [a, b]), identity_schedule(Circuit(1, [b, a])))
    assert report.oracle_ok is False and not report.ok
    assert report.max_amplitude_error > 0.1
    assert report.details[-1].startswith("statevector mismatch, max amplitude error ")


def test_inserted_non_swap_fails_replay_and_dependency_check():
    init = Mapping.identity(2, 2)
    items = [ScheduledGate(Gate(GateKind.H, (0,)), 0, 1, 1),
             ScheduledGate(Gate(GateKind.CX, (0, 1)), 1, 2, 2, inserted=True)]
    assert replay_schedule(items, init).violations == ["inserted non-SWAP gate cx 0,1"]
    report = dependency_equivalence(Circuit(2).h(0), Schedule(items, init, init.copy()))
    assert not report.dependency_ok
    assert report.details == ["inserted non-SWAP gate cx 0,1"]


@pytest.mark.parametrize("qubits", [(0,), (0, 1, 2), (1, 1)], ids=["one", "three", "repeated"])
def test_inserted_swap_of_other_than_two_qubits_is_a_violation(qubits):
    # Reported once, by the dependency check; the replay does not move any
    # qubit for it, and the oracle rejects a schedule it cannot replay.  A
    # SWAP of a qubit with itself would spend SWAP time on no relocation.
    circuit = Circuit(3).h(0).cx(0, 1)
    init = Mapping.identity(3, 3)
    items = [ScheduledGate(Gate(GateKind.H, (0,)), 0, 1, 1),
             ScheduledGate(Gate(GateKind.SWAP, qubits), 1, 3, 3, inserted=True),
             ScheduledGate(Gate(GateKind.CX, (0, 1)), 4, 2, 2)]
    schedule = Schedule(items, init, init.copy())
    detail = f"inserted swap {','.join(map(str, qubits))} does not name two qubits"
    replay = replay_schedule(items, init)
    assert replay.violations == [detail]
    assert replay.final_mapping == init and len(replay.logical_gates) == 2
    report = dependency_equivalence(circuit, schedule)
    assert not report.dependency_ok and report.details == [detail]
    assert statevector_oracle(circuit, schedule) == (False, float("inf"))
    report = verify_equivalence(circuit, schedule)
    assert not report.ok and report.oracle_ok is False
    assert report.details == [detail, "statevector mismatch, max amplitude error inf"]


@pytest.mark.parametrize("circuit, placed, extra", [
    (Circuit(2).h(0).cx(0, 1), 3, [Gate(GateKind.T, (2,))]),
    (Circuit(2).h(0), 1, []),
], ids=["more", "fewer"])
def test_initial_mapping_of_the_wrong_size_fails_every_check(circuit, placed, extra):
    # One more program qubit, acted on, reaches past the oracle's state
    # vector; one fewer leaves a program qubit without a place, though no
    # gate acts on it.
    init = Mapping(list(range(placed)), 3)
    items = [ScheduledGate(gate, k, 1, 1) for k, gate in enumerate(circuit.gates + extra)]
    schedule = Schedule(items, init, init.copy())
    detail = f"initial mapping places {placed} program qubit(s), the circuit has 2"
    report = dependency_equivalence(circuit, schedule)
    assert not report.dependency_ok and report.details[0] == detail
    assert statevector_oracle(circuit, schedule) == (False, float("inf"))
    report = verify_equivalence(circuit, schedule)
    assert not report.ok and report.oracle_ok is False
    assert report.details[0] == detail
    assert report.details[-1] == "statevector mismatch, max amplitude error inf"


def test_operands_outside_the_device_fail_both_checks(square4):
    # A routed h q[1] moved to qubit -3 must not wrap round to qubit 1, nor one
    # moved to qubit 7 raise IndexError; an inserted SWAP off the device is
    # rejected the same way.
    circuit = Circuit(4).h(1).cx(0, 3)
    schedule = route(circuit, square4).schedule
    kinds = [it.gate.kind for it in schedule.items]
    h, swap = kinds.index(GateKind.H), kinds.index(GateKind.SWAP)
    assert schedule.items[swap].inserted
    for k, qubits in ((h, (-3,)), (h, (7,)), (swap, (3, 4))):
        items = list(schedule.items)
        items[k] = dataclasses.replace(items[k], gate=items[k].gate.with_qubits(qubits))
        moved = dataclasses.replace(schedule, items=items)
        report = verify_equivalence(circuit, moved)
        assert not report.dependency_ok and report.oracle_ok is False and not report.ok
        assert f"{items[k].gate} acts on a qubit outside the device" in report.details
        assert statevector_oracle(circuit, moved)[0] is False


def test_dependency_identity_routing():
    circ = Circuit(3).h(0).cx(0, 1).t(1).cx(1, 2)
    report = dependency_equivalence(circ, identity_schedule(circ))
    assert report.dependency_ok


def test_dependency_routed_golden_fixture(square4, golden_fixture):
    result = route(golden_fixture, square4)
    assert dependency_equivalence(golden_fixture, result.schedule).dependency_ok


def test_dependency_detects_missing_gate(square4, golden_fixture):
    result = route(golden_fixture, square4)
    items = [it for it in result.schedule.items if it.gate.kind is not GateKind.T]
    broken = Schedule(items, result.schedule.initial_mapping, result.schedule.final_mapping)
    report = dependency_equivalence(golden_fixture, broken)
    assert not report.dependency_ok
    assert any("missing" in d or "count" in d for d in report.details)


def test_dependency_detects_illegal_reorder():
    circ = Circuit(1).h(0).t(0)
    swapped = Circuit(1).t(0).h(0)
    report = dependency_equivalence(circ, identity_schedule(swapped))
    assert not report.dependency_ok


def test_dependency_allows_commuting_reorder():
    circ = Circuit(2).t(0).cx(0, 1)  # T on the control commutes with CX
    reordered = Circuit(2).cx(0, 1).t(0)
    assert dependency_equivalence(circ, identity_schedule(reordered)).dependency_ok


def test_dependency_names_the_gate_a_repeated_operand_jumps():
    # The public API accepts a gate that names one qubit twice; the check
    # reports the reordering rather than failing to find its blocker.
    circ = Circuit(1).x(0).cx(0, 0)
    reordered = Circuit(1).cx(0, 0).x(0)
    report = dependency_equivalence(circ, identity_schedule(reordered))
    assert not report.dependency_ok
    assert report.details == ["cx 0,0 at position 0 jumped before non-commuting x 0"]


def test_dependency_flags_wrong_final_mapping(square4, golden_fixture):
    result = route(golden_fixture, square4)
    wrong = Schedule(result.schedule.items, result.schedule.initial_mapping,
                     Mapping.identity(4, 4))
    report = dependency_equivalence(golden_fixture, wrong)
    assert not report.dependency_ok
    assert any("final mapping" in d for d in report.details)


def test_replay_keeps_program_swaps():
    circ = Circuit(2).swap(0, 1).x(0)
    replay = replay_schedule(identity_schedule(circ).items, Mapping.identity(2, 2))
    assert [g.kind for g in replay.logical_gates] == [GateKind.SWAP, GateKind.X]


def test_data_swap_circuit_verifies(square4):
    circ = Circuit(4).h(0).swap(0, 3).x(0).cx(0, 1)
    result = route(circ, square4)
    report = verify_equivalence(circ, result.schedule)
    assert report.dependency_ok and report.oracle_ok


def test_emitted_decomposed_file_simulates_to_original(square4):
    # Full physical-form loop: route, emit with SWAPs as 3 CX, reparse, run
    # the file as-is on device wires, then read logical qubit l off wire
    # final(l).  No replay shortcuts anywhere.
    from codar_router import emit_program

    circ = Circuit(4).h(0).t(1).cx(0, 2).cx(0, 3)
    result = route(circ, square4)
    reparsed = parse_program(emit_program(result.routed, decompose_swap=True))
    assert all(g.kind is not GateKind.SWAP for g in reparsed.gates)
    zero = np.eye(16)[0]
    phys = simulate_gates(reparsed.gates, square4.num_qubits, zero)
    perm = result.schedule.final_mapping.forward
    relabeled = np.transpose(phys.reshape([2] * 4), perm).reshape(-1)
    ref = simulate_gates(circ.gates, 4, zero)
    ok, err = states_close(ref, relabeled)
    assert ok and err < 1e-12


def test_verify_equivalence_oracle_modes(corpus_dir):
    big = parse_program((corpus_dir / "random_cx_16.qasm").read_text(encoding="utf-8"))
    from codar_router import grid_architecture
    result = route(big, grid_architecture(6, 6))
    report = verify_equivalence(big, result.schedule)
    assert report.dependency_ok
    assert report.oracle_ok is None  # 16 qubits: skipped, reason recorded
    assert any("oracle skipped" in d for d in report.details)


# --- dependency check against the oracle on corrupted schedules -------------

def corrupted_schedules(schedule: Schedule, num_logical: int, rng, per_kind: int = 3):
    """Up to ``per_kind`` corruptions of each kind, as (kind, schedule) pairs.

    ``exchange`` swaps two adjacent items whose gates the table cannot prove
    commuting, ``drop-swap`` deletes an inserted SWAP, and ``retarget`` moves
    one operand of a program gate onto a physical qubit that holds no program
    qubit at that point.
    """
    from dataclasses import replace

    from codar_router import commutes

    items = schedule.items
    found: dict[str, list[list[ScheduledGate]]] = {
        "exchange": [], "drop-swap": [], "retarget": []}
    mapping = schedule.initial_mapping.copy()
    for i, item in enumerate(items):
        if i + 1 < len(items) and not commutes(item.gate, items[i + 1].gate):
            found["exchange"].append(items[:i] + [items[i + 1], item] + items[i + 2:])
        if item.inserted:
            found["drop-swap"].append(items[:i] + items[i + 1:])
            mapping.swap(*item.gate.qubits)
            continue
        free = [p for p in range(mapping.num_physical) if mapping.inv[p] >= num_logical]
        if free:
            qubits = list(item.gate.qubits)
            qubits[rng.randrange(len(qubits))] = rng.choice(free)
            moved = replace(item, gate=item.gate.with_qubits(tuple(qubits)))
            found["retarget"].append(items[:i] + [moved] + items[i + 1:])
    for kind, variants in found.items():
        for variant in rng.sample(variants, min(per_kind, len(variants))):
            yield kind, replace(schedule, items=variant)


def test_dependency_check_never_accepts_what_the_oracle_rejects(demo6):
    # One direction only: the oracle compares up to global phase, so it
    # accepts exchanges whose two orders differ only by a phase (``x 0; z 0``,
    # as XZ = -ZX) that the dependency check rejects as non-commuting.
    import random

    from codar_router import grid_architecture

    archs = (demo6, grid_architecture(3, 3))
    rejected = {"exchange": 0, "drop-swap": 0, "retarget": 0}
    checked = 0
    for seed in range(24):
        rng = random.Random(seed)
        arch = archs[seed % len(archs)]
        n = rng.randint(3, min(arch.num_qubits - 1, 7))
        circuit = Circuit(n, [random_unitary_gate(rng, n) for _ in range(rng.randint(15, 30))])
        schedule = route(circuit, arch).schedule
        assert dependency_equivalence(circuit, schedule).dependency_ok
        for kind, bad in corrupted_schedules(schedule, n, rng):
            oracle_ok, _ = statevector_oracle(circuit, bad)
            if not oracle_ok:
                rejected[kind] += 1
                assert not dependency_equivalence(circuit, bad).dependency_ok, (seed, kind)
            checked += 1
    # Each kind of corruption is caught by the oracle somewhere, so the
    # implication above is tested, not vacuous.
    assert all(rejected.values()), rejected
    assert checked > 100
