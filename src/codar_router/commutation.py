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

_NO_ENTRIES: frozenset[Entry] = frozenset()
_NO_GATES: frozenset[int] = frozenset()


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

    def allows(self, a: Entry, b: Entry) -> bool:
        return b in self._adjacency().get(a, _NO_ENTRIES)

    def entries(self) -> list[tuple[Entry, Entry]]:
        out = []
        for pair in self.pairs:
            items = sorted(pair, key=lambda e: (e[0].value, e[1]))
            a = items[0]
            b = items[-1]
            out.append((a, b))
        return sorted(out, key=lambda ab: (ab[0][0].value, ab[0][1], ab[1][0].value, ab[1][1]))

    def with_extras(self, extras, validate: bool = True) -> CommutationTable:
        """Extend with ``[[kindA, roleA, kindB, roleB], ...]`` config rows.

        Each added pair is checked against the dense-matrix oracle first, so a
        config cannot smuggle in a semantics-breaking entry.
        """
        added: set[frozenset[Entry]] = set()
        for row in extras:
            kind_a, role_a, kind_b, role_b = row
            a = (GateKind(str(kind_a).lower()), str(role_a))
            b = (GateKind(str(kind_b).lower()), str(role_b))
            for entry in (a, b):
                _check_entry_shape(entry)
            if validate and not _entry_commutes_numerically(a, b):
                raise ValueError(
                    f"commutation_extra entry {row!r} fails the unitary commutator check")
            added.add(frozenset((a, b)))
        return CommutationTable(self.pairs | frozenset(added))


def _check_entry_shape(entry: Entry) -> None:
    kind, role = entry
    if kind is GateKind.CX:
        if role not in (ROLE_CONTROL, ROLE_TARGET):
            raise ValueError(f"cx entries need {ROLE_CONTROL}/{ROLE_TARGET}, got {role!r}")
    elif role != ROLE_SINGLE:
        raise ValueError(f"{kind.value} entries use role {ROLE_SINGLE!r}, got {role!r}")
    if kind in (GateKind.MEASURE, GateKind.BARRIER):
        raise ValueError(f"{kind.value} never commutes on a shared qubit")


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


def cf_front(gates, table: CommutationTable = BASELINE_TABLE, *,
             lane: int | None = None) -> set[int]:
    """Indices of gates commuting with everything before them in the list.

    One linear pass: each qubit accumulates the (kind, role, signature) marks
    of the gates seen so far, grouped by (kind, role) entry, and a gate is CF
    exactly when every mark on each of its qubits is table-commuting with (or
    identical to) it.

    ``lane`` names a qubit that every gate of the list touches, as in the
    lanes of a :class:`LaneFrontier`.  The pass then stops as soon as the
    marks on that qubit admit no further gate, since no later gate can be CF.
    """
    adjacency = table._adjacency()
    front: set[int] = set()
    marks: dict[int, dict[Entry, set[tuple]]] = {}
    # Entries friendly to every mark on the lane qubit; None before the first.
    open_entries: frozenset[Entry] | None = None
    for k, gate in enumerate(gates):
        sig = gate.signature()
        unitary = gate.kind.is_unitary
        entries = [(gate.kind, role_of(gate, pos)) for pos in range(len(gate.qubits))]
        ok = True
        # BARRIER and MEASURE need no special casing: they have no table
        # entries and are non-unitary, so any shared-qubit mark blocks them
        # and their marks block everyone.
        for q, entry in zip(gate.qubits, entries):
            qmarks = marks.get(q)
            if not qmarks:
                continue
            friends = adjacency.get(entry, _NO_ENTRIES)
            for mark_entry, mark_sigs in qmarks.items():
                if mark_entry in friends:
                    continue
                if unitary and len(mark_sigs) == 1 and sig in mark_sigs:
                    continue
                ok = False
                break
            if not ok:
                break
        if ok:
            front.add(k)
        for q, entry in zip(gate.qubits, entries):
            qmarks = marks.setdefault(q, {})
            qmarks.setdefault(entry, set()).add(sig)
            if q == lane:
                friends = adjacency.get(entry, _NO_ENTRIES)
                open_entries = friends if open_entries is None else open_entries & friends
                if not open_entries and not _admits_a_repeat(qmarks, adjacency):
                    return front
    return front


def _admits_a_repeat(qmarks: dict[Entry, set[tuple]],
                     adjacency: dict[Entry, frozenset[Entry]]) -> bool:
    """Can a gate identical to one of a qubit's marks still pass that qubit?

    ``qmarks`` maps each mark entry to its signatures.  A repeat of signature
    ``s`` with entry ``e`` passes when every mark whose entry is not friendly
    to ``e`` has signature ``s``, and ``e`` is of a unitary kind.  Any gate
    that passes the qubit has an entry friendly to every mark or is such a
    repeat, so the early exit in :func:`cf_front` is exact for any table.
    """
    for entry, sigs in qmarks.items():
        if not entry[0].is_unitary:
            continue
        friends = adjacency.get(entry, _NO_ENTRIES)
        blocking = set().union(*(other_sigs for other, other_sigs in qmarks.items()
                                 if other not in friends))
        if len(blocking) == 1 and blocking <= sigs:
            return True
    return False


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


def _entry_commutes_numerically(a: Entry, b: Entry, tol: float = 1e-9) -> bool:
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
            if np.linalg.norm(ua @ ub - ub @ ua) > tol:
                return False
    return True


def validate_table_numerically(table: CommutationTable = BASELINE_TABLE,
                               tol: float = 1e-9) -> list[tuple[Entry, Entry]]:
    """Return the table entries that FAIL the dense-matrix commutator oracle.

    An empty list certifies soundness of every positive entry.
    """
    return [(a, b) for a, b in table.entries()
            if not _entry_commutes_numerically(a, b, tol)]
