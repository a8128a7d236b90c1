"""Pairwise gate commutation and the commutative-forward (CF) frontier.

A gate is commutative-forward within a pending sequence when it commutes with
every gate before it, which makes it instantly issuable from the software
point of view even though it is not at the head of the program.

Commutation between same-qubit operations is looked up in a small table keyed
by (gate kind, operand role).  The table is deliberately sound rather than
complete: a missing entry only costs look-ahead, while a wrong entry would
corrupt program semantics, so every positive entry must survive a dense-matrix
commutator check (see :func:`validate_table_numerically`).
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Gate, GateKind

ROLE_SINGLE = "single"
ROLE_CONTROL = "cx_control"
ROLE_TARGET = "cx_target"

Entry = tuple[GateKind, str]

_NO_GATES: frozenset[int] = frozenset()
# Stands for two or more signatures among the marks of one entry on a qubit;
# it equals no signature.
_SEVERAL = object()


def role_of(gate: Gate, position: int) -> str:
    """Role the operand at ``position`` plays inside ``gate``."""
    if gate.kind is GateKind.CX:
        return ROLE_CONTROL if position == 0 else ROLE_TARGET
    return ROLE_SINGLE


# Every (kind, role) entry a gate can have, numbered once: entry i is bit
# 1 << i, so a set of entries is an int and a table's adjacency is one mask
# per entry.
_ENTRY_BITS: dict[Entry, int] = {
    entry: 1 << i for i, entry in enumerate(
        (kind, role) for kind in GateKind
        for role in ((ROLE_CONTROL, ROLE_TARGET) if kind is GateKind.CX else (ROLE_SINGLE,)))}
_UNITARY_ENTRIES = sum(bit for (kind, _), bit in _ENTRY_BITS.items() if kind.is_unitary)


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


def _family_pairs(family: tuple[Entry, ...]) -> set[frozenset[Entry]]:
    return {frozenset((a, b)) for a in family for b in family}


@dataclass(frozen=True)
class CommutationTable:
    """Symmetric allow-list of same-qubit (kind, role) pairs that commute."""

    pairs: frozenset[frozenset[Entry]]

    def _adjacency(self) -> dict[Entry, frozenset[Entry]]:
        cached = getattr(self, "_adj", None)
        if cached is None:
            adj: dict[Entry, set[Entry]] = {}
            for pair in self.pairs:
                items = tuple(pair)
                a, b = items if len(items) == 2 else (items[0], items[0])
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
            cached = {k: frozenset(v) for k, v in adj.items()}
            object.__setattr__(self, "_adj", cached)
        return cached

    def _friend_masks(self) -> dict[int, int]:
        """Entry bit to the mask of the entries it commutes with, for every entry."""
        cached = getattr(self, "_masks", None)
        if cached is None:
            adj = self._adjacency()
            cached = {bit: sum(_ENTRY_BITS.get(f, 0) for f in adj.get(entry, ()))
                      for entry, bit in _ENTRY_BITS.items()}
            object.__setattr__(self, "_masks", cached)
        return cached

    def allows(self, a: Entry, b: Entry) -> bool:
        return b in self._adjacency().get(a, ())

    def entries(self) -> list[tuple[Entry, Entry]]:
        out = []
        for pair in self.pairs:
            items = sorted(pair, key=lambda e: (e[0].value, e[1]))
            a = items[0]
            b = items[-1]
            out.append((a, b))
        return sorted(out, key=lambda ab: (ab[0][0].value, ab[0][1], ab[1][0].value, ab[1][1]))


BASELINE_TABLE = CommutationTable(frozenset(
    _family_pairs(_DIAGONAL) | _family_pairs(_X_AXIS) | _family_pairs(_Y_AXIS)))


def commutes(a: Gate, b: Gate, table: CommutationTable = BASELINE_TABLE) -> bool:
    """True when the table can prove the two gates commute.

    Disjoint-qubit gates always commute; identical unitary gates commute with
    themselves; BARRIER and MEASURE commute with nothing they touch.  The
    result is symmetric in its arguments and errs toward False.
    """
    shared = set(a.qubits) & set(b.qubits)
    if not shared:
        return True
    if GateKind.BARRIER in (a.kind, b.kind):
        return False
    if a.signature() == b.signature() and a.kind.is_unitary:
        return True
    for q in shared:
        entry_a = (a.kind, role_of(a, a.qubits.index(q)))
        entry_b = (b.kind, role_of(b, b.qubits.index(q)))
        if not table.allows(entry_a, entry_b):
            return False
    return True


def _lane_record(gate: Gate, table: CommutationTable) -> tuple:
    """``(table, signature, is_unitary, ((qubit, entry_bit, friend_mask), ...))``.

    What :func:`cf_front` needs of a gate, one triple per operand.  Cached on
    the gate, like its signature, for the table it was built for: a routing
    pass, its reverse pass and the dependency check all scan the same gates.
    """
    masks = table._friend_masks()
    entries = []
    for pos, q in enumerate(gate.qubits):
        bit = _ENTRY_BITS[(gate.kind, role_of(gate, pos))]
        entries.append((q, bit, masks[bit]))
    record = (table, gate.signature(), gate.kind.is_unitary, tuple(entries))
    object.__setattr__(gate, "_lane_record", record)
    return record


def cf_front(gates, table: CommutationTable = BASELINE_TABLE, *,
             lane: int | None = None) -> set[int]:
    """Indices of gates commuting with everything before them in the list.

    One linear pass over the gates' cached lane records (see
    :func:`_lane_record`).  Each qubit keeps ``present``, the int mask of the
    table entries of the gates seen so far on it, and per entry the signature
    those marks share (or ``_SEVERAL``).  A gate passes a qubit when
    ``present & ~friends`` is 0 for its entry's friend mask there, or when
    that value is its own entry bit, it is unitary and every mark of its
    entry is this very operation: equal signatures mean the same entry on a
    shared qubit, so this is the table rule exactly.  A gate is CF when it
    passes all its qubits.

    ``lane`` names a qubit that every gate of the list touches, as in the
    lanes of a :class:`LaneFrontier`.  The pass then stops as soon as the
    marks on that qubit admit no further gate, since no later gate can be CF:
    no entry is friendly to every mark, and no repeat of a mark can pass.
    """
    front: set[int] = set()
    present: dict[int, int] = {}
    # Per qubit and entry bit: the one signature of those marks, or _SEVERAL.
    marks: dict[int, dict[int, object]] = {}
    # Entries friendly to every mark on the lane qubit; all of them before the first.
    open_entries = -1
    for k, gate in enumerate(gates):
        record = getattr(gate, "_lane_record", None)
        if record is None or record[0] is not table:
            record = _lane_record(gate, table)
        _, sig, unitary, entries = record
        # BARRIER and MEASURE need no special casing: they have no friends
        # and are non-unitary, so any shared-qubit mark blocks them and their
        # marks block everyone.
        for q, bit, friends in entries:
            blocking = present.get(q, 0) & ~friends
            if blocking and not (blocking == bit and unitary and marks[q][bit] == sig):
                break
        else:
            front.add(k)
        for q, bit, friends in entries:
            qpresent = present[q] = present.get(q, 0) | bit
            qmarks = marks.get(q)
            if qmarks is None:
                qmarks = marks[q] = {bit: sig}
            elif qmarks.setdefault(bit, sig) != sig:
                qmarks[bit] = _SEVERAL
            if q == lane:
                open_entries &= friends
                if not open_entries:
                    # Some repeat may still pass: a unitary mark whose entry
                    # is the only one unfriendly to it, with one signature.
                    masks = table._friend_masks()
                    if not any(mark & _UNITARY_ENTRIES and qpresent & ~masks[mark] == mark
                               and only is not _SEVERAL for mark, only in qmarks.items()):
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
    positions in its front, e.g. ``cf_front(gates, table, lane=qubit)``.
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


def validate_table_numerically(
        table: CommutationTable = BASELINE_TABLE) -> list[tuple[Entry, Entry]]:
    """Return the table entries that FAIL the dense-matrix commutator oracle.

    An empty list certifies soundness of every positive entry.
    """
    return [(a, b) for a, b in table.entries()
            if not _entry_commutes_numerically(a, b)]
