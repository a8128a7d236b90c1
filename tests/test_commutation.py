import random

from codar_router import (
    BASELINE_TABLE,
    Gate,
    GateKind,
    cf_front,
    commutes,
    no_predecessor_front,
)
from codar_router.commutation import (
    ROLE_CONTROL,
    ROLE_SINGLE,
    ROLE_TARGET,
    CommutationTable,
    _entry_commutes_numerically,
    validate_table_numerically,
)

from oracles import cf_front_bruteforce, random_unitary_gate, unitary_commute


def CX(a, b):
    return Gate(GateKind.CX, (a, b))


def T(q):
    return Gate(GateKind.T, (q,))


def H(q):
    return Gate(GateKind.H, (q,))


def test_shared_target_cx_pair_commutes():
    assert commutes(CX(1, 3), CX(2, 3))


def test_t_against_cx_target_does_not_commute():
    a, b = T(2), CX(0, 2)
    assert not commutes(a, b)
    assert not unitary_commute(a, b, 3)


def test_disjoint_gates_commute():
    assert commutes(H(0), T(5))


def test_barrier_blocks_shared_span():
    barrier = Gate(GateKind.BARRIER, (0, 1, 2))
    assert not commutes(barrier, T(1))
    assert commutes(barrier, T(3))
    assert not commutes(barrier, Gate(GateKind.BARRIER, (0, 1, 2)))


def test_measure_commutes_with_nothing_on_its_qubit():
    m = Gate(GateKind.MEASURE, (0,), cbit=0)
    assert not commutes(m, Gate(GateKind.Z, (0,)))
    assert not commutes(m, Gate(GateKind.MEASURE, (0,), cbit=0))
    assert commutes(m, Gate(GateKind.MEASURE, (1,), cbit=1))


def test_commutes_symmetric_on_fixture_pairs():
    gates = [T(0), H(0), CX(0, 1), CX(1, 0), CX(0, 2), Gate(GateKind.RZ, (1,), (0.9,)),
             Gate(GateKind.SWAP, (0, 1)), Gate(GateKind.X, (1,))]
    for a in gates:
        for b in gates:
            assert commutes(a, b) == commutes(b, a)


def test_cf_front_exposes_both_shared_target_cxs():
    assert cf_front([CX(1, 3), CX(2, 3)]) == {0, 1}
    assert no_predecessor_front([CX(1, 3), CX(2, 3)]) == {0}


def test_cf_front_empty():
    assert cf_front([]) == set()


def test_cf_front_control_chain():
    assert cf_front([T(1), CX(0, 2), CX(0, 3)]) == {0, 1, 2}


def test_cf_front_h_blocks_cx_control():
    assert cf_front([H(0), CX(0, 1)]) == {0}
    assert not unitary_commute(H(0), CX(0, 1), 2)


def test_no_predecessor_subset_of_cf_front_random():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 4)
        gates = [random_unitary_gate(rng, n) for _ in range(rng.randint(0, 8))]
        assert no_predecessor_front(gates) <= cf_front(gates)


def test_cf_front_matches_unitary_oracle_random():
    rng = random.Random(17)
    for _ in range(250):
        n = rng.randint(1, 4)
        gates = [random_unitary_gate(rng, n) for _ in range(rng.randint(0, 8))]
        assert cf_front(gates) == cf_front_bruteforce(gates, n), [str(g) for g in gates]


def test_every_table_entry_is_sound():
    assert validate_table_numerically(BASELINE_TABLE) == []


def test_identical_gates_commute():
    g = Gate(GateKind.U3, (0,), (0.4, 1.2, 2.0))
    assert commutes(g, g)
    assert not commutes(g, Gate(GateKind.U3, (0,), (0.5, 1.2, 2.0)))


# Entries the dense-matrix check can judge.  SWAP, MEASURE and BARRIER are
# left out.  The check builds a one-qubit representative for every kind but
# CX, so it cannot build a SWAP.  MEASURE and BARRIER are not unitary and
# have no commutator.  The table holds none of the three, so ``commutes``
# refuses them on a shared qubit, bar an exact repeat of one SWAP.
CHECKED_ENTRIES = [(kind, role) for kind in GateKind
                   if kind not in (GateKind.SWAP, GateKind.MEASURE, GateKind.BARRIER)
                   for role in ((ROLE_CONTROL, ROLE_TARGET) if kind is GateKind.CX
                                else (ROLE_SINGLE,))]
H_H = ((GateKind.H, ROLE_SINGLE), (GateKind.H, ROLE_SINGLE))


def test_baseline_table_is_complete():
    # Every pair that passes the commutator check is in the table, except
    # (h, h): H has no parameters, so two H on one qubit are the same gate,
    # which the identical-signature rule already admits.  This is why the
    # table is fixed rather than extensible per device.
    missing = [(a, b) for i, a in enumerate(CHECKED_ENTRIES) for b in CHECKED_ENTRIES[i:]
               if _entry_commutes_numerically(a, b) and not BASELINE_TABLE.allows(a, b)]
    assert missing == [H_H]


def test_h_h_row_changes_no_front():
    # Built with the constructor, which runs no check.
    with_h_h = CommutationTable(BASELINE_TABLE.pairs | {frozenset(H_H)})
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 4)
        gates = [random_unitary_gate(rng, n) for _ in range(rng.randint(0, 12))]
        if gates and rng.random() < 0.3:
            q = rng.randrange(n)
            gates.insert(rng.randrange(len(gates)), Gate(GateKind.MEASURE, (q,), cbit=q))
        assert cf_front(gates, with_h_h) == cf_front(gates, BASELINE_TABLE), \
            [str(g) for g in gates]
        lane = [g for g in gates if 0 in g.qubits]
        assert cf_front(lane, with_h_h, lane=0) == cf_front(lane, BASELINE_TABLE, lane=0)
