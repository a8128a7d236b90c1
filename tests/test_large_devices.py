"""Golden routes of seeded programs on the large devices.

Each route must pass the dependency check and the slow reference checker in
``oracles.py``, schedule every source gate, keep every qubit's gates apart in
time, put every two-qubit gate on a coupling edge, and reproduce the SHA-256
of its ``Schedule.to_json()``.  The ``grid:10x10`` and ``grid:20x20``
routes hit stall events, so they go through forced single-gate routing as
well.  The 200-gate routes stall after every blocked cycle (stall limit 1)
and, like the desperate-mode route, run out of a lowered SWAP budget and
finish in desperate mode.  A program with barriers (zero-length locks) and terminal
measures, and a QFT, whose lanes hold long runs of commuting diagonal gates,
are routed with the default and with the ablated config (unit durations).
"""
from __future__ import annotations

import hashlib
import math
import random

import pytest

from codar_router import Circuit, GateKind, RouterConfig, resolve_architecture, route
from codar_router.verify import dependency_equivalence, replay_schedule

from oracles import compliance_violations, is_commuting_reordering_reference

ONE_QUBIT = (GateKind.H, GateKind.X, GateKind.Z, GateKind.S, GateKind.SDG,
             GateKind.T, GateKind.TDG)
ANGLES = (0.25, 0.5, 1.0, 1.5, 2.5)


def random_program(num_qubits: int, num_gates: int, rng: random.Random) -> Circuit:
    """Half CX on random pairs; the rest rotations and fixed one-qubit gates."""
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.5:
            circuit.cx(*rng.sample(range(num_qubits), 2))
        elif roll < 0.6:
            circuit.add(rng.choice((GateKind.RZ, GateKind.U1)), rng.randrange(num_qubits),
                        params=(rng.choice(ANGLES),))
        else:
            circuit.add(rng.choice(ONE_QUBIT), rng.randrange(num_qubits))
    return circuit


@pytest.mark.parametrize("device, seed, gates, stall_limit, swap_cap, stalls, digest", [
    ("q54-sycamore", 1, 600, None, None, 0,
     "e68bd6abd3944087ef84e4456b906a52c7fe09d98ff91bac03720714dc143f13"),
    ("grid:10x10", 5, 600, None, None, 2,
     "7b47939ffe5192c9c14b0b5b7b0647ea3657370b84c88ed835f68f0bfa0c3475"),
    ("q20-tokyo", 3, 200, 1, 50, 70,
     "52ff61d11756a704f2e4bfa3ac0fedfad6828e8c16f97b542aadf8fd259cb281"),
    ("grid:6x6", 1, 200, 1, 50, 71,
     "497403abe31368e7d78706124c7329165762d6e56783459b543d2c54b7f57e5e"),
    ("grid:20x20", 1, 2000, None, None, 3,
     "57cdc98b78b191893126b779c152a9ce23903ffb29bcb7c790e3fe472e6b2387"),
], ids=["q54-sycamore", "grid-10x10", "q20-tokyo-stall-1", "grid-6x6-stall-1", "grid-20x20"])
def test_large_device_golden_route(tune_router, device, seed, gates, stall_limit, swap_cap,
                                   stalls, digest):
    tune_router(stall_limit=stall_limit, swap_cap=swap_cap)
    arch = resolve_architecture(device)
    circuit = random_program(arch.num_qubits, gates, random.Random(seed))
    schedule = route(circuit, arch).schedule
    check_golden(arch, circuit, schedule, stalls, digest)


def test_desperate_mode_drains_the_program(tune_router):
    routers = tune_router(swap_cap=200)
    arch = resolve_architecture("grid:10x10")
    circuit = random_program(arch.num_qubits, 300, random.Random(2))
    schedule = route(circuit, arch).schedule

    (router,) = routers
    assert router.desperate and router.n_swaps > router.swap_cap
    assert not router.frontier.front
    # Desperate mode forces the oldest blocked gate whenever none is forced,
    # one stall event each time.
    check_golden(arch, circuit, schedule, 100,
                 "8bf70bda43b41fd86b84c2f6de045c447524d155c89ef6695c1b8b09c2b8303b")


def fenced_program(num_qubits: int, num_gates: int, rng: random.Random) -> Circuit:
    """``random_program`` with a barrier over a few qubits before about one gate
    in twenty, and a measure of every qubit at the end."""
    circuit = Circuit(num_qubits)
    for gate in random_program(num_qubits, num_gates, rng).gates:
        if rng.random() < 0.05:
            circuit.barrier(*rng.sample(range(num_qubits), rng.randint(2, 6)))
        circuit.gates.append(gate)
    for q in range(num_qubits):
        circuit.measure(q)
    return circuit


@pytest.mark.parametrize("config, digest", [
    (RouterConfig(), "a9bbe9d0d5cb278ad0f57d15f6e7ec333f8727e482b8d4be16250ede5b20b468"),
    (RouterConfig(duration_aware=False, commutativity_on=False),
     "45a86e1ab5091d592654ca6ec4bc46a96a001bde4f44cc2da8c2687b0435f6f8"),
], ids=["default", "ablated"])
def test_barriers_and_measures_golden_route(config, digest):
    arch = resolve_architecture("grid:10x10")
    circuit = fenced_program(arch.num_qubits, 400, random.Random(4))
    schedule = route(circuit, arch, config=config).schedule
    check_golden(arch, circuit, schedule, 0, digest)


def qft_circuit(num_qubits: int) -> Circuit:
    """QFT with each controlled phase as u1/cx/u1/cx/u1 and exact angles."""
    circuit = Circuit(num_qubits)
    for i in range(num_qubits):
        circuit.h(i)
        for j in range(i + 1, num_qubits):
            lam = math.pi / 2 ** (j - i)
            circuit.add(GateKind.U1, j, params=(lam / 2,))
            circuit.cx(j, i)
            circuit.add(GateKind.U1, i, params=(-lam / 2,))
            circuit.cx(j, i)
            circuit.add(GateKind.U1, i, params=(lam / 2,))
    return circuit


@pytest.mark.parametrize("config, digest", [
    (RouterConfig(), "d8e99dfc543c322def284f48ac762c3115904c0195850d719966414dcd6ec254"),
    (RouterConfig(duration_aware=False, commutativity_on=False),
     "c58eaf69b3ed7dcc85179a243a08def5885500a69cf0e43dc5c60dd64559c34b"),
], ids=["default", "ablated"])
def test_qft_golden_route(config, digest):
    arch = resolve_architecture("q54-sycamore")
    circuit = qft_circuit(16)
    schedule = route(circuit, arch, config=config).schedule
    check_golden(arch, circuit, schedule, 0, digest)


def check_golden(arch, circuit, schedule, stalls, digest):
    report = dependency_equivalence(circuit, schedule)
    assert report.dependency_ok, report.details
    # Nothing is left pending, and the order holds by a checker that shares
    # no frontier code with the router.
    assert sum(not item.inserted for item in schedule.items) == len(circuit.gates)
    replayed = replay_schedule(schedule.items, schedule.initial_mapping).logical_gates
    assert is_commuting_reordering_reference(circuit.gates, replayed)
    assert compliance_violations(schedule.items, arch) == []

    assert schedule.stall_events == stalls
    assert hashlib.sha256(schedule.to_json().encode()).hexdigest() == digest
