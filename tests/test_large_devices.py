"""Golden routes of seeded programs on the large devices.

Each route must pass the dependency check, keep every qubit's gates apart in
time, put every two-qubit gate on a coupling edge, and reproduce the SHA-256
of its ``Schedule.to_json()``.  The grid cases hit stall events, so they go
through forced single-gate routing as well; one of them runs out of its SWAP
budget and finishes in desperate mode.
"""
from __future__ import annotations

import hashlib
import random

import pytest

import codar_router.router as router_module
from codar_router import Circuit, GateKind, resolve_architecture, route
from codar_router.verify import dependency_equivalence

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


@pytest.mark.parametrize("device, seed, stalls, digest", [
    ("q54-sycamore", 1, 0, "e68bd6abd3944087ef84e4456b906a52c7fe09d98ff91bac03720714dc143f13"),
    ("grid:10x10", 5, 2, "7b47939ffe5192c9c14b0b5b7b0647ea3657370b84c88ed835f68f0bfa0c3475"),
], ids=["q54-sycamore", "grid-10x10"])
def test_large_device_golden_route(device, seed, stalls, digest):
    arch = resolve_architecture(device)
    circuit = random_program(arch.num_qubits, 600, random.Random(seed))
    schedule = route(circuit, arch).schedule
    check_golden(arch, circuit, schedule, stalls, digest)


def test_desperate_mode_drains_the_program(monkeypatch):
    routers = []
    init = router_module._Router.__init__

    def init_with_small_cap(self, *args):
        init(self, *args)
        self.swap_cap = 200
        routers.append(self)

    monkeypatch.setattr(router_module._Router, "__init__", init_with_small_cap)
    arch = resolve_architecture("grid:10x10")
    circuit = random_program(arch.num_qubits, 300, random.Random(2))
    schedule = route(circuit, arch).schedule

    (router,) = routers
    assert router.desperate and router.n_swaps > router.swap_cap
    assert not router.pending
    assert sum(not item.inserted for item in schedule.items) == len(circuit.gates)
    # Desperate mode forces the oldest blocked gate whenever none is forced,
    # one stall event each time.
    check_golden(arch, circuit, schedule, 100,
                 "8bf70bda43b41fd86b84c2f6de045c447524d155c89ef6695c1b8b09c2b8303b")


def check_golden(arch, circuit, schedule, stalls, digest):
    report = dependency_equivalence(circuit, schedule)
    assert report.dependency_ok, report.details
    busy: dict[int, list[tuple[int, int]]] = {}
    for item in schedule.items:
        if item.gate.kind in (GateKind.CX, GateKind.SWAP):
            assert arch.graph.has_edge(*item.gate.qubits)
        for q in item.gate.qubits:
            busy.setdefault(q, []).append((item.start, item.end))
    for spans in busy.values():
        spans.sort()
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))

    assert schedule.stall_events == stalls
    assert hashlib.sha256(schedule.to_json().encode()).hexdigest() == digest
