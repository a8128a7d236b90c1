"""Equivalence checking for routed circuits.

Two independent routes: a scalable dependency check (strip routing SWAPs,
map operands back to program qubits, and confirm the result is a commuting
reordering of the source), and a dense statevector oracle for programs of at
most ``ORACLE_QUBIT_LIMIT`` qubits.  The oracle runs source and routed
programs from one seeded random input state and compares the outputs up to
global phase.  Its kernel works on a flat state vector: CX and SWAP are index
permutations, diagonal one-qubit gates multiply amplitudes in place, and
other one-qubit gates are one matmul over the qubit's axis.

numpy is imported inside the functions that use it, so importing the package,
routing and the dependency check never load it: the oracle's first run does.
"""
from __future__ import annotations

import cmath
import functools
import math
import random
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from .circuit import Circuit, Gate, GateKind
from .commutation import LaneFrontier, commutes
from .router import Mapping, Schedule, ScheduledGate

if TYPE_CHECKING:
    import numpy as np

ORACLE_QUBIT_LIMIT = 10
ORACLE_TOL = 1e-9

# Module constants spare a ``GateKind`` class lookup per gate.
_CX, _SWAP, _BARRIER, _MEASURE = GateKind.CX, GateKind.SWAP, GateKind.BARRIER, GateKind.MEASURE
_RX, _RY, _RZ, _U1, _U2, _U3 = (GateKind.RX, GateKind.RY, GateKind.RZ,
                                GateKind.U1, GateKind.U2, GateKind.U3)


class OracleLimitError(ValueError):
    """The statevector oracle cannot run on this instance."""


# --- gate matrices -------------------------------------------------------

_SQ2 = 1 / math.sqrt(2)
# Plain tuples, built without numpy; :func:`_fixed_matrix` makes each an array
# once per process.
_FIXED_1Q = {
    GateKind.H: ((_SQ2, _SQ2), (_SQ2, -_SQ2)),
    GateKind.X: ((0, 1), (1, 0)),
    GateKind.Y: ((0, -1j), (1j, 0)),
}


@functools.cache
def _fixed_matrix(kind: GateKind) -> np.ndarray:
    import numpy as np
    return np.array(_FIXED_1Q[kind], dtype=complex)


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    import numpy as np
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([
        [c, -cmath.exp(1j * lam) * s],
        [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
    ], dtype=complex)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary (2x2) of a one-qubit gate that is not U1 or in ``_PHASES``.

    :func:`simulate_gates` applies those as phases, without a matrix.
    """
    kind, p = gate.kind, gate.params
    if kind in _FIXED_1Q:
        return _fixed_matrix(kind)
    import numpy as np
    if kind is _RX:
        c, s = math.cos(p[0] / 2), math.sin(p[0] / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind is _RY:
        c, s = math.cos(p[0] / 2), math.sin(p[0] / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind is _RZ:
        return np.array([[cmath.exp(-1j * p[0] / 2), 0],
                         [0, cmath.exp(1j * p[0] / 2)]], dtype=complex)
    if kind is _U2:
        return _u3(math.pi / 2, p[0], p[1])
    if kind is _U3:
        return _u3(p[0], p[1], p[2])
    raise ValueError(f"{kind.value} is not a one-qubit unitary")


# --- simulation kernel -----------------------------------------------------
# The state is a flat vector of 2**n amplitudes with qubit 0 as the most
# significant bit of the index, so ``state.reshape(2**q, 2, -1)`` puts qubit q
# on the middle axis.

# The phase each fixed diagonal gate puts on |1>; U1's is its angle.
_PHASES = {
    GateKind.Z: -1,
    GateKind.S: 1j,
    GateKind.SDG: -1j,
    GateKind.T: cmath.exp(1j * math.pi / 4),
    GateKind.TDG: cmath.exp(-1j * math.pi / 4),
}


def _permutation(gate: Gate, num_qubits: int) -> np.ndarray:
    """Index array ``perm`` such that ``state[perm]`` applies a CX or a SWAP.

    Both gates permute the basis and are their own inverse, so the array
    that scatters the amplitudes also gathers them.
    """
    import numpy as np
    index = np.arange(1 << num_qubits)
    a, b = (num_qubits - 1 - q for q in gate.qubits)
    if gate.kind is _CX:
        return index ^ (((index >> a) & 1) << b)
    differ = ((index >> a) ^ (index >> b)) & 1
    return index ^ (differ << a) ^ (differ << b)


def simulate_gates(gates, num_qubits: int, start: np.ndarray) -> np.ndarray:
    """Statevector after applying the gate list to ``start``, of 2**n amplitudes.

    A CX or SWAP gathers the amplitudes through an index array built once
    per kind and operands in this call, a diagonal one-qubit gate multiplies
    the |1> half of its qubit in place, and any other one-qubit gate is a
    matmul over its qubit's axis.  Barriers and measurements are skipped.
    """
    import numpy as np
    state = np.array(start, dtype=complex)  # a copy: phases are applied in place
    if state.shape != (1 << num_qubits,):
        raise ValueError(f"start state has shape {state.shape}, expected ({1 << num_qubits},)")
    perms: dict[tuple, np.ndarray] = {}
    for gate in gates:
        kind = gate.kind
        if kind is _CX or kind is _SWAP:
            key = (kind, gate.qubits)
            perm = perms.get(key)
            if perm is None:
                perm = perms[key] = _permutation(gate, num_qubits)
            state = state[perm]
        elif kind is _BARRIER or kind is _MEASURE:
            continue
        else:
            view = state.reshape(1 << gate.qubits[0], 2, -1)
            if kind is _U1:
                view[:, 1] *= cmath.exp(1j * gate.params[0])
            elif kind in _PHASES:
                view[:, 1] *= _PHASES[kind]
            else:
                state = np.matmul(gate_matrix(gate), view).reshape(-1)
    return state


def states_close(a: np.ndarray, b: np.ndarray) -> tuple[bool, float]:
    """Global-phase-insensitive comparison; returns (equal, max amplitude error)."""
    import numpy as np
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-15 else 1.0
    err = float(np.max(np.abs(a - phase * b))) if a.size else 0.0
    return bool(abs(overlap) >= 1 - ORACLE_TOL), err


# --- schedule replay ------------------------------------------------------

@dataclass
class ReplayResult:
    logical_gates: list[Gate]
    final_mapping: Mapping
    violations: list[str]


def _replay(items: list[ScheduledGate], mapping: Mapping, violations: list[str]):
    """Yield ``(gate, operands)`` for each program item, in schedule order.

    ``mapping`` starts as the initial placement, and inserted SWAPs update it
    in place.  ``operands`` are the program qubits on the gate's physical
    qubits at that point.  An item is skipped, with a line in ``violations``,
    when it has an operand outside ``range(mapping.num_physical)``, when it
    is inserted but not a SWAP of two distinct qubits, or when it is a
    program gate on a physical qubit that holds no program qubit.
    """
    inv = mapping.inv  # swapped in place
    device, program = set(range(len(inv))), set(range(mapping.num_logical))
    for item in items:
        gate = item.gate
        qubits = gate.qubits
        if not device.issuperset(qubits):
            violations.append(f"{gate} acts on a qubit outside the device")
        elif item.inserted:
            if gate.kind is not _SWAP:
                violations.append(f"inserted non-SWAP gate {gate}")
            elif len(qubits) != 2 or qubits[0] == qubits[1]:
                violations.append(f"inserted {gate} does not name two qubits")
            else:
                mapping.swap(*qubits)
        else:
            operands = tuple(map(inv.__getitem__, qubits))
            if program.issuperset(operands):
                yield gate, operands
            else:
                violations.append(f"{gate} acts on an unoccupied physical qubit")


def replay_schedule(items: list[ScheduledGate], init: Mapping) -> ReplayResult:
    """Strip inserted SWAPs while tracking where every program qubit lives.

    Routing SWAPs become mapping updates; every other gate has its physical
    operands translated back to the program qubits occupying them at that
    point.  SWAPs present in the source program are kept as real gates.
    Items that cannot be replayed are violations (see :func:`_replay`).
    """
    mapping = init.copy()
    violations: list[str] = []
    logical = [gate.with_qubits(operands)
               for gate, operands in _replay(items, mapping, violations)]
    return ReplayResult(logical, mapping, violations)


# --- dependency check -----------------------------------------------------

@dataclass
class EquivalenceReport:
    dependency_ok: bool
    oracle_ok: bool | None = None
    max_amplitude_error: float | None = None
    details: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.dependency_ok and self.oracle_ok is not False

    def to_dict(self) -> dict:
        return asdict(self)


def dependency_equivalence(original: Circuit, schedule: Schedule) -> EquivalenceReport:
    """Check that the schedule preserves the source program's dependencies.

    One walk of the schedule replays inserted SWAPs onto the mapping and
    reads every other gate on program qubits.  Each such gate must reach
    the earliest unused source gate of the same signature, and the source's
    :class:`LaneFrontier` must take that gate from its front, i.e. the
    schedule is the source reordered by commuting exchanges.  The initial
    mapping must place exactly the circuit's qubits, the gate counts must
    agree, and the replayed placement must land on the schedule's final mapping.
    Only the first misplaced gate is reported, and none when the counts
    differ.
    """
    source = original.gates
    # Per signature, the unused source gates, the earliest last.
    unused: dict[tuple, list[int]] = defaultdict(list)
    for i in reversed(range(len(source))):
        unused[source[i].signature()].append(i)
    frontier = LaneFrontier(source)
    mapping = schedule.initial_mapping.copy()
    details: list[str] = []
    if mapping.num_logical != original.num_qubits:
        details.append(f"initial mapping places {mapping.num_logical} program qubit(s), "
                       f"the circuit has {original.num_qubits}")
    walk = _replay(schedule.items, mapping, details)
    problem = None
    position = -1
    for position, (gate, operands) in enumerate(walk):
        stack = unused.get(gate._signature_on(operands))
        if not stack:
            problem = f"extra or missing gate at position {position}: {gate.with_qubits(operands)}"
            break
        idx = stack.pop()
        if not frontier.take(idx):
            # The earliest unused source gate that keeps it out of the front.
            blocker = min(j for left_over in unused.values() for j in left_over
                          if j < idx and not commutes(source[j], source[idx]))
            problem = (f"{gate.with_qubits(operands)} at position {position} jumped "
                       f"before non-commuting {source[blocker]}")
            break
    count = position + 1 + sum(1 for _ in walk)
    if mapping != schedule.final_mapping:
        details.append("replayed SWAPs do not reproduce the reported final mapping")
    if count != len(source):
        problem = f"gate count differs: {len(source)} vs {count}"
    if problem:
        details.append(problem)
    return EquivalenceReport(dependency_ok=not details, details=details)


# --- statevector oracle ----------------------------------------------------

def _check_terminal_measures(gates: list[Gate]) -> None:
    """Raise :class:`OracleLimitError` if a non-barrier gate follows a measure on its qubit."""
    last_touch: dict[int, int] = {}
    for i, gate in enumerate(gates):
        if gate.kind is not _BARRIER:
            for q in gate.qubits:
                last_touch[q] = i
    for i, gate in enumerate(gates):
        if gate.kind is _MEASURE and last_touch.get(gate.qubits[0]) != i:
            raise OracleLimitError("mid-circuit measurement is outside the oracle's scope")


def statevector_oracle(original: Circuit, schedule: Schedule) -> tuple[bool, float]:
    """Simulate source and routed programs and compare up to global phase.

    Both start from the same seeded random state rather than |0...0>, so a
    gate that acts trivially on the zero state still counts: exchanging
    ``x 0; t 0`` gives the same ray from |0> but not from a random input.
    The routed side is replayed in program-qubit coordinates (inserted SWAPs
    become relocations), which keeps the state space at the program's qubit
    count no matter how large the device is.  The simulation skips terminal
    measurements on both sides; mid-circuit measurement raises
    :class:`OracleLimitError`.  A schedule that the replay cannot follow, or
    whose initial mapping does not place exactly the circuit's qubits, gives
    ``(False, inf)``.
    """
    n = original.num_qubits
    if n > ORACLE_QUBIT_LIMIT:
        raise OracleLimitError(f"{n} qubits exceeds the {ORACLE_QUBIT_LIMIT}-qubit oracle limit")
    replay = replay_schedule(schedule.items, schedule.initial_mapping)
    if replay.violations or schedule.initial_mapping.num_logical != n:
        return False, float("inf")
    _check_terminal_measures(original.gates)
    _check_terminal_measures(replay.logical_gates)
    import numpy as np
    # Uniform random real and imaginary parts, from the standard library's
    # generator: ``np.random`` would add its extension modules to every
    # process that verifies.
    words = np.frombuffer(random.Random(0).randbytes(16 << n), dtype="<u8")
    start = (words / 2.0 ** 64 - 0.5).view(complex)
    start /= math.sqrt(np.vdot(start, start).real)
    return states_close(simulate_gates(original.gates, n, start),
                        simulate_gates(replay.logical_gates, n, start))


def verify_equivalence(original: Circuit, schedule: Schedule) -> EquivalenceReport:
    """Run the dependency check plus the oracle (see :func:`add_oracle`)."""
    report = dependency_equivalence(original, schedule)
    add_oracle(report, original, schedule)
    return report


def add_oracle(report: EquivalenceReport, original: Circuit, schedule: Schedule) -> None:
    """Run the statevector oracle and record its verdict in ``report``.

    Where the oracle cannot run it is skipped, with the reason in the details.
    """
    try:
        ok, err = statevector_oracle(original, schedule)
    except OracleLimitError as exc:
        report.details.append(f"oracle skipped: {exc}")
        return
    report.oracle_ok = ok
    report.max_amplitude_error = err
    if not ok:
        report.details.append(f"statevector mismatch, max amplitude error {err:.3e}")
