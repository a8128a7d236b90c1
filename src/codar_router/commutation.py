"""Pairwise gate commutation and the commutative-forward (CF) frontier.

A gate is commutative-forward within a pending sequence when it commutes with
every gate before it, which makes it instantly issuable from the software
point of view even though it is not at the head of the program.

Commutation on a shared qubit is decided by one key per operand.  The key is
the family of the operand's (gate kind, operand role) entry when it has one:
diagonal, X-axis or Y-axis.  Otherwise it is the gate's signature for a
unitary gate, so only an exact repeat matches it, and ``None`` for MEASURE and
BARRIER, which match nothing.  Two gates commute on a qubit exactly when their
keys there are equal and not ``None``.  The rule is deliberately sound rather
than complete: a missing pair only costs look-ahead, while a wrong one would
corrupt program semantics, so every same-family pair must survive a
dense-matrix commutator check (see :func:`validate_table_numerically`).
"""
from __future__ import annotations

from .circuit import Gate, GateKind

ROLE_SINGLE = "single"
ROLE_CONTROL = "cx_control"
ROLE_TARGET = "cx_target"

Entry = tuple[GateKind, str]

_NO_GATES: frozenset[int] = frozenset()
# Stands for a qubit with no marks yet in a scan.
_UNMARKED = object()


def role_of(gate: Gate, position: int) -> str:
    """Role the operand at ``position`` plays inside ``gate``."""
    if gate.kind is GateKind.CX:
        return ROLE_CONTROL if position == 0 else ROLE_TARGET
    return ROLE_SINGLE


# Operations diagonal in the computational basis commute with each other on a
# shared qubit, as does the CX control slot; the X-axis family does the same
# around X, with the CX target slot; Y rotations form a third family.
_DIAGONAL: tuple[Entry, ...] = (
    (GateKind.Z, ROLE_SINGLE), (GateKind.S, ROLE_SINGLE), (GateKind.SDG, ROLE_SINGLE),
    (GateKind.T, ROLE_SINGLE), (GateKind.TDG, ROLE_SINGLE), (GateKind.RZ, ROLE_SINGLE),
    (GateKind.U1, ROLE_SINGLE), (GateKind.CX, ROLE_CONTROL),
)
_X_AXIS: tuple[Entry, ...] = (
    (GateKind.X, ROLE_SINGLE), (GateKind.RX, ROLE_SINGLE), (GateKind.CX, ROLE_TARGET),
)
_Y_AXIS: tuple[Entry, ...] = (
    (GateKind.Y, ROLE_SINGLE), (GateKind.RY, ROLE_SINGLE),
)
_FAMILIES: dict[str, tuple[Entry, ...]] = {
    "diagonal": _DIAGONAL, "x-axis": _X_AXIS, "y-axis": _Y_AXIS}
# The key of a family entry is the family's name, which equals no signature.
_FAMILY_OF: dict[Entry, str] = {
    entry: name for name, family in _FAMILIES.items() for entry in family}


def _keys(gate: Gate) -> tuple[tuple[int, object], ...]:
    """``((qubit, key), ...)``, one pair per operand (see the module docstring).

    Cached on the gate, like its signature: a routing pass, its reverse pass
    and the dependency check all scan the same gates.
    """
    own = gate.signature() if gate.kind.is_unitary else None
    keys = tuple((q, _FAMILY_OF.get((gate.kind, role_of(gate, pos)), own))
                 for pos, q in enumerate(gate.qubits))
    object.__setattr__(gate, "_keys", keys)
    return keys


def commutes(a: Gate, b: Gate) -> bool:
    """True when the two gates' keys are equal and not ``None`` on every shared qubit.

    Disjoint-qubit gates always commute; identical unitary gates commute with
    themselves; BARRIER and MEASURE commute with nothing they touch.  The
    result is symmetric in its arguments and errs toward False.
    """
    keys_b = dict(getattr(b, "_keys", None) or _keys(b))
    for q, key in getattr(a, "_keys", None) or _keys(a):
        if q in keys_b and (key is None or key != keys_b[q]):
            return False
    return True


def cf_front(gates, *, lane: int | None = None) -> set[int]:
    """Indices of gates commuting with everything before them in the list.

    One linear pass over the gates' cached keys.  Each qubit keeps the key
    that all its marks share, or ``None`` once two keys differ or one is
    ``None``.  A gate passes a qubit when the qubit has no marks yet, or when
    its key there is not ``None`` and equals the kept key; it is CF when it
    passes all its qubits.

    ``lane`` names a qubit that every gate of the list touches, as in the
    lanes of a :class:`LaneFrontier`.  The pass then stops as soon as that
    qubit's kept key is ``None``, since no later gate can pass it.
    """
    front: set[int] = set()
    kept: dict[int, object] = {}
    for k, gate in enumerate(gates):
        passes = True
        for q, key in getattr(gate, "_keys", None) or _keys(gate):
            held = kept.get(q, _UNMARKED)
            if held is _UNMARKED:
                kept[q] = key
            elif key is None or held != key:
                kept[q] = None
                passes = False
        if passes:
            front.add(k)
        if kept.get(lane, _UNMARKED) is None:
            return front
    return front


def no_predecessor_front(gates) -> set[int]:
    """Indices of gates sharing no qubit with any earlier gate (ablated front)."""
    front: set[int] = set()
    touched: set[int] = set()
    for k, gate in enumerate(gates):
        if not (set(gate.qubits) & touched):
            front.add(k)
        touched.update(gate.qubits)
    return front


class LaneFrontier:
    """CF front of a gate list that loses gates, kept over per-qubit lanes.

    The lane of a qubit is the ordered list of remaining gates that touch it.
    A gate commutes with every earlier gate sharing a qubit exactly when, for
    each qubit it touches, it does so within that qubit's lane, so a gate is
    in the front when ``front_of`` puts it in the front of every one of its
    lanes.  Removing gates rescans only the lanes they sat in.

    ``front_of(gates, qubit)`` maps the gates of a qubit's lane to the lane
    positions in its front, e.g. ``cf_front(gates, lane=qubit)``.
    """

    def __init__(self, gates, front_of):
        self._gates = gates
        self._front_of = front_of
        self._lanes: dict[int, list[int]] = {}
        self._lane_gates: dict[int, list[Gate]] = {}
        for i, gate in enumerate(gates):
            for q in dict.fromkeys(gate.qubits):
                self._lanes.setdefault(q, []).append(i)
                self._lane_gates.setdefault(q, []).append(gate)
        self._lane_front: dict[int, set[int]] = {}
        #: Indices, into the gate list, of the remaining gates in the front.
        self.front: set[int] = {i for i, gate in enumerate(gates) if not gate.qubits}
        self._update(self._rescan(self._lanes))

    def lane(self, qubit: int) -> list[int]:
        """Indices of the remaining gates on ``qubit``, in list order."""
        return self._lanes.get(qubit, [])

    def remove(self, indices) -> set[int]:
        """Drop gates from the list and bring the front up to date.

        Returns the gates that entered the front.  Dropping gates only
        removes marks from lanes, so no remaining gate leaves the front: the
        entrants are the whole change besides the dropped gates themselves.
        """
        touched: set[int] = set()
        for i in indices:
            for q in dict.fromkeys(self._gates[i].qubits):
                lane = self._lanes[q]
                pos = lane.index(i)
                del lane[pos]
                del self._lane_gates[q][pos]
                touched.add(q)
        self.front.difference_update(indices)
        return self._update(self._rescan(touched).difference(indices))

    def _rescan(self, qubits) -> set[int]:
        """Rescan lanes; returns the gates that entered or left one of their fronts."""
        moved: set[int] = set()
        for q in qubits:
            lane = self._lanes[q]
            new = {lane[p] for p in self._front_of(self._lane_gates[q], q)}
            moved |= new.symmetric_difference(self._lane_front.get(q, _NO_GATES))
            self._lane_front[q] = new
        return moved

    def _update(self, moved) -> set[int]:
        """Re-test the gates that moved in a lane front; returns those now in the front."""
        lane_front = self._lane_front
        entered = set()
        for i in moved:
            if all(i in lane_front[q] for q in self._gates[i].qubits):
                entered.add(i)
            else:
                self.front.discard(i)
        self.front |= entered
        return entered


_ANGLE_SAMPLES = (0.37, 1.1, 2.0, 4.4)
_COMMUTATOR_TOL = 1e-9


def _representative_gates(entry: Entry) -> tuple[list[Gate], int]:
    """Gates realizing an entry with the shared qubit fixed at index 0."""
    kind, role = entry
    if kind is GateKind.CX:
        qubits = (0, 1) if role == ROLE_CONTROL else (1, 0)
        return [Gate(kind, qubits)], 2
    n = kind.num_params
    if n == 0:
        return [Gate(kind, (0,))], 1
    from itertools import product
    gates = [Gate(kind, (0,), params)
             for params in product(_ANGLE_SAMPLES, repeat=n)]
    return gates, 1


def _entry_commutes_numerically(a: Entry, b: Entry) -> bool:
    import numpy as np

    from .verify import gate_unitary

    gates_a, width_a = _representative_gates(a)
    gates_b, width_b = _representative_gates(b)
    # Shared qubit is 0 for both; push b's partner qubit past a's operands.
    shift = {0: 0, 1: width_a}
    n = width_a + width_b - 1
    for ga in gates_a:
        ua = gate_unitary(ga, n)
        for gb in gates_b:
            gb_shifted = gb.with_qubits(tuple(shift[q] for q in gb.qubits))
            ub = gate_unitary(gb_shifted, n)
            if np.linalg.norm(ua @ ub - ub @ ua) > _COMMUTATOR_TOL:
                return False
    return True


def validate_table_numerically() -> list[tuple[Entry, Entry]]:
    """Return the same-family entry pairs that FAIL the dense-matrix commutator oracle.

    An empty list certifies soundness of every family.
    """
    return [(a, b) for family in _FAMILIES.values()
            for i, a in enumerate(family) for b in family[i:]
            if not _entry_commutes_numerically(a, b)]
