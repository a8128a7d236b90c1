"""Pairwise gate commutation and the commutative-forward (CF) frontier.

A gate is commutative-forward within a pending sequence when it commutes with
every gate before it, which makes it instantly issuable from the software
point of view even though it is not at the head of the program.
:class:`LaneFrontier` is the one CF test: it finds the CF gates of a list, and
keeps them as the list loses its front gates, from per-qubit runs of commuting
gates found once up front.  :func:`cf_front` is the front of a fresh frontier
over a list, and :func:`commutes` asks whether the second of two gates is in
the front of the pair.

Commutation on a shared qubit is decided by one key per operand.  The key is
the family of the operand's (gate kind, operand role) entry when it has one:
diagonal, X-axis or Y-axis.  Otherwise it is the gate's signature for a
unitary gate, so only an exact repeat matches it, and ``None`` for MEASURE and
BARRIER, which match nothing.  Two gates commute on a qubit exactly when their
keys there are equal and not ``None``; a gate that names a qubit twice is
judged by its first operand there.  The rule is deliberately sound rather
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

_CX = GateKind.CX
# Fills a gate's ``_keys`` cache slot.
_cache_keys = Gate._keys.__set__


def role_of(gate: Gate, position: int) -> str:
    """Role the operand at ``position`` plays inside ``gate``."""
    if gate.kind is _CX:
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
    _cache_keys(gate, keys)
    return keys


def commutes(a: Gate, b: Gate) -> bool:
    """True when the two gates' keys are equal and not ``None`` on every shared qubit.

    That is, ``b`` is in the CF front of ``[a, b]``.  Disjoint-qubit gates
    always commute; identical unitary gates commute with themselves; BARRIER
    and MEASURE commute with nothing they touch.  The result is symmetric in
    its arguments and errs toward False.
    """
    return 1 in LaneFrontier((a, b)).front


def cf_front(gates) -> set[int]:
    """Indices of gates commuting with everything before them in the list."""
    return LaneFrontier(gates).front


class LaneFrontier:
    """CF front of a gate list that loses front gates, kept over per-qubit lanes.

    The lane of a qubit is the ordered list of remaining gates that touch it.
    A gate commutes with every earlier gate sharing a qubit exactly when, for
    each qubit it touches, it does so within that qubit's lane, so a gate is
    in the front when every one of its lanes' fronts holds it.

    A lane's own CF front is a *run*: the gates from the lane's head whose key
    on the lane's qubit equals the head's, or the head alone when its key is
    ``None``.  A lane only ever loses its whole head run, so the
    constructor splits every lane into its runs once, in one pass over the
    gates' keys.  With ``commutative=False`` every gate is a run of its own:
    the front is then the gates with no predecessor on any of their qubits.

    The frontier keeps, per lane, the number of its current run and how many
    of that run's gates remain, and, per gate, the number of its lanes whose
    current runs do not hold it yet; a gate is in the front when that count
    is 0.  Only front gates can be removed, and a front gate lies inside the
    current run of each of its lanes, so a removal only counts down runs.
    Once a lane's run is spent, the lane moves on to its next run.
    """

    def __init__(self, gates, commutative: bool = True):
        self._gates = gates
        #: Per qubit, the lane's runs in order, each a list of gate indices.
        self.runs: dict[int, list[list[int]]] = {}
        self._outside = outside = [0] * len(gates)
        # Per qubit, the lane's last run so far and the key its gates share.
        tail: dict[int, list[int]] = {}
        shared: dict[int, object] = {}
        for i, gate in enumerate(gates):
            for q, key in gate._keys or _keys(gate):
                run = tail.get(q)
                if run and run[-1] == i:
                    continue  # the gate repeats the operand
                if run and commutative and key is not None and key == shared[q]:
                    run.append(i)
                else:
                    run = tail[q] = [i]
                    self.runs.setdefault(q, []).append(run)
                    shared[q] = key
                outside[i] += 1
        self._next = dict.fromkeys(self.runs, 0)
        self._left = dict.fromkeys(self.runs, 0)
        #: Indices, into the gate list, of the remaining gates in the front.
        self.front: set[int] = {i for i, count in enumerate(outside) if not count}
        self.front |= self._extend(self.runs)

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
        """Move lanes on to their next runs; returns the gates now in the front."""
        entered = set()
        outside, runs, nxt, left = self._outside, self.runs, self._next, self._left
        for q in qubits:
            k = nxt[q]
            if k == len(runs[q]):
                continue
            nxt[q] = k + 1
            run = runs[q][k]
            left[q] = len(run)
            for i in run:
                outside[i] -= 1
                if not outside[i]:
                    entered.add(i)
        return entered
