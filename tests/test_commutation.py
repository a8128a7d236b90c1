import random

import pytest

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


def test_table_extension_accepts_sound_entry():
    # S-dagger against the CX control slot: both diagonal, genuinely commuting.
    table = BASELINE_TABLE.with_extras([["sdg", ROLE_SINGLE, "cx", ROLE_CONTROL]])
    assert table.allows((GateKind.SDG, ROLE_SINGLE), (GateKind.CX, ROLE_CONTROL))


def test_table_extension_rejects_unsound_entry():
    with pytest.raises(ValueError):
        BASELINE_TABLE.with_extras([["h", ROLE_SINGLE, "x", ROLE_SINGLE]])


def test_table_extension_rejects_measure():
    with pytest.raises(ValueError):
        BASELINE_TABLE.with_extras([["measure", ROLE_SINGLE, "z", ROLE_SINGLE]])
