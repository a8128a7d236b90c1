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
dense-matrix commutator check; the tests run one.
"""
from __future__ import annotations

from .circuit import Gate, GateKind

ROLE_SINGLE = "single"
ROLE_CONTROL = "cx_control"
ROLE_TARGET = "cx_target"

Entry = tuple[GateKind, str]

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
    """CF front of a gate list that loses front gates, kept over per-qubit lanes.

    The lane of a qubit is the ordered list of remaining gates that touch it.
    A gate commutes with every earlier gate sharing a qubit exactly when, for
    each qubit it touches, it does so within that qubit's lane, so a gate is
    in the front when every one of its lanes' fronts holds it.

    ``front_of(gates, qubit)`` maps the gates of a qubit's lane to the lane
    positions in its front, e.g. ``cf_front(gates, lane=qubit)``.  For the
    gates :func:`~codar_router.qasm.validate` accepts, such a front is a
    *run*: the lane's first positions, here the gates whose key on the lane's
    qubit equals the head's.  So the frontier keeps two counts per lane, the
    length of its run and how many of the run's gates remain, and one per
    gate, the number of its lanes whose runs do not hold it yet; a gate is in
    the front when that count is 0.

    Only front gates can be removed, and a front gate lies inside the run of
    each of its lanes, so a removal only counts down the runs it sits in.  A
    lane changes only once its run is spent: it then drops the run whole and
    goes back through ``front_of``.
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
        self._run = dict.fromkeys(self._lanes, 0)
        self._left = dict.fromkeys(self._lanes, 0)
        self._outside = [len(set(gate.qubits)) for gate in gates]
        #: Indices, into the gate list, of the remaining gates in the front.
        self.front: set[int] = {i for i, gate in enumerate(gates) if not gate.qubits}
        self.front |= self._extend(self._lanes)

    def remove(self, indices: set[int]) -> set[int]:
        """Drop a set of front gates from the list and bring the front up to date.

        Returns the gates that entered the front.  Dropping gates only
        removes marks from lanes, so no remaining gate leaves the front: the
        entrants are the whole change besides the dropped gates themselves.
        Raises :class:`ValueError`, before any change, when an index is not
        in the front.  A set names each gate once; any other collection
        raises :class:`TypeError`.
        """
        front = self.front
        if not indices <= front:
            raise ValueError(f"gate {min(indices - front)} is not in the front")
        spent: list[int] = []
        left = self._left
        for i in indices:
            for q in dict.fromkeys(self._gates[i].qubits):
                left[q] -= 1
                if not left[q]:
                    spent.append(q)
        front.difference_update(indices)
        entered = self._extend(spent)
        front |= entered
        return entered

    def _extend(self, qubits) -> set[int]:
        """Drop the spent runs of lanes and rescan them; returns the gates now in the front."""
        entered = set()
        outside = self._outside
        for q in qubits:
            lane, lane_gates = self._lanes[q], self._lane_gates[q]
            run = self._run[q]
            del lane[:run]
            del lane_gates[:run]
            run = self._run[q] = self._left[q] = len(self._front_of(lane_gates, q))
            for i in lane[:run]:
                outside[i] -= 1
                if not outside[i]:
                    entered.add(i)
        return entered
