"""Routing core: cycle-accurate scheduling under per-qubit time locks.

The router simulates the execution timeline one cycle at a time.  Each cycle
it launches every commutative-forward gate that is coupling-compliant and
whose physical qubits are free, then inserts lock-free SWAPs chosen by a
total-distance heuristic for the CF two-qubit gates that still sit on
non-adjacent qubits.  Locks carry each gate's duration, which is what makes
the search context-sensitive and duration-aware.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .arch import Architecture, duration_of
from .circuit import Circuit, Gate, GateKind, TWO_QUBIT_KINDS
from .commutation import LaneFrontier
from .qasm import Diagnostic, validate

_SWAP = GateKind.SWAP


class RouterError(ValueError):
    pass


class TooManyQubitsError(RouterError):
    def __init__(self, needed: int, available: int):
        super().__init__(f"circuit needs {needed} qubits, architecture has {available}")


class InvalidCircuitError(RouterError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class LockViolationError(RuntimeError):
    """Internal invariant breach: a gate was issued on a busy qubit."""


class Mapping:
    """Injective map from logical qubits onto physical qubits.

    The placement is kept total over the device: ``fwd[l]`` is the physical
    qubit of logical ``l`` and ``inv[p]`` the logical id on physical ``p``.
    Unoccupied physical qubits hold ancilla ids at and above ``num_logical``,
    so a SWAP is always a relocation, even when one side carries no program
    state.  Ancillas carry no state, so equality compares only ``forward``
    and ``num_physical``.
    """

    def __init__(self, forward: list[int], num_physical: int):
        forward = list(forward)
        taken = set(forward)
        if len(taken) != len(forward):
            raise RouterError("mapping is not injective")
        if forward and (min(forward) < 0 or max(forward) >= num_physical):
            raise RouterError("mapping targets a qubit outside the device")
        self.num_logical = len(forward)
        self.fwd = forward + [p for p in range(num_physical) if p not in taken]
        self.inv = [0] * num_physical
        for logical, phys in enumerate(self.fwd):
            self.inv[phys] = logical

    @staticmethod
    def identity(num_logical: int, num_physical: int) -> Mapping:
        if num_logical > num_physical:
            raise TooManyQubitsError(num_logical, num_physical)
        return Mapping(list(range(num_logical)), num_physical)

    @property
    def forward(self) -> list[int]:
        """Logical-to-physical list of the program qubits (a copy)."""
        return self.fwd[:self.num_logical]

    @property
    def num_physical(self) -> int:
        return len(self.inv)

    def swap(self, i: int, j: int) -> None:
        """Exchange the occupants of physical qubits ``i`` and ``j``."""
        a, b = self.inv[i], self.inv[j]
        self.inv[i], self.inv[j] = b, a
        self.fwd[a], self.fwd[b] = j, i

    def copy(self) -> Mapping:
        return Mapping(self.forward, self.num_physical)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self.forward == other.forward and self.num_physical == other.num_physical

    def __repr__(self) -> str:
        return f"Mapping({self.forward}, {self.num_physical})"


@dataclass(frozen=True, init=False, slots=True)
class ScheduledGate:
    """One issued gate: physical operands plus its time slot.

    ``duration`` is what the locks used (1 in the duration-unaware ablation);
    ``true_duration`` always carries the device value.  ``inserted`` marks
    routing SWAPs as opposed to gates of the source program.
    """

    gate: Gate
    start: int
    duration: int
    true_duration: int
    inserted: bool = False

    def __init__(self, gate: Gate, start: int, duration: int, true_duration: int,
                 inserted: bool = False):
        # Sets each slot through its member descriptor, as ``Gate.__init__``
        # does: one record is built per launch.  A test checks that every
        # field is set.
        _set_gate(self, gate)
        _set_start(self, start)
        _set_duration(self, duration)
        _set_true_duration(self, true_duration)
        _set_inserted(self, inserted)

    @property
    def end(self) -> int:
        return self.start + self.duration


_set_gate, _set_start, _set_duration, _set_true_duration, _set_inserted = (
    getattr(ScheduledGate, name).__set__
    for name in ("gate", "start", "duration", "true_duration", "inserted"))


@dataclass
class Schedule:
    items: list[ScheduledGate]
    initial_mapping: Mapping
    final_mapping: Mapping
    stall_events: int = 0

    @property
    def weighted_depth(self) -> int:
        """Completion cycle of the schedule: latest gate end, 0 when empty."""
        return max((it.start + it.duration for it in self.items), default=0)

    @property
    def swap_count(self) -> int:
        return sum(1 for it in self.items if it.inserted)

    def to_dict(self) -> dict:
        return {
            "items": [
                {
                    "gate": it.gate.kind.value,
                    "qubits": list(it.gate.qubits),
                    "params": list(it.gate.params),
                    "cbit": it.gate.cbit,
                    "start": it.start,
                    "duration": it.duration,
                    "true_duration": it.true_duration,
                    "inserted": it.inserted,
                }
                for it in self.items
            ],
            "initial_mapping": self.initial_mapping.forward,
            "final_mapping": self.final_mapping.forward,
            "weighted_depth": self.weighted_depth,
            "swap_count": self.swap_count,
            "stall_events": self.stall_events,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def rescore_true_durations(items, arch: Architecture) -> int:
    """Depth of the scheduled gate order replayed ASAP under device durations.

    This is how a duration-unaware schedule is costed fairly: the gate order
    it chose is kept, but every qubit is busy for the real cycle count.
    """
    release: dict[int, int] = {}
    depth = 0
    for it in items:
        start = max((release.get(q, 0) for q in it.gate.qubits), default=0)
        end = start + duration_of(arch, it.gate.kind)
        for q in it.gate.qubits:
            release[q] = end
        depth = max(depth, end)
    return depth


@dataclass(frozen=True)
class RouterConfig:
    """Routing policy knobs; defaults give the full context-sensitive router."""

    duration_aware: bool = True
    commutativity_on: bool = True


@dataclass
class RoutingResult:
    schedule: Schedule
    routed: Circuit


def launch(pgate: Gate, t: int, locks: list[int], schedule: list[ScheduledGate],
           arch: Architecture, duration_aware: bool = True,
           inserted: bool = False) -> ScheduledGate:
    """Issue a physical gate at cycle ``t``: lock its qubits until it ends.

    Every operand must be free at ``t``; a busy operand raises
    :class:`LockViolationError` because callers are expected to have checked.
    """
    for q in pgate.qubits:
        if locks[q] > t:
            raise LockViolationError(
                f"{pgate} launched at {t} but qubit {q} is busy until {locks[q]}")
    true_dur = duration_of(arch, pgate.kind)
    dur = true_dur if duration_aware else 1
    for q in pgate.qubits:
        locks[q] = t + dur
    item = ScheduledGate(pgate, t, dur, true_dur, inserted)
    schedule.append(item)
    return item


class _SwapSearch:
    """SWAP-search state kept for a whole route and updated only where it changed.

    It holds the front's two-qubit gates indexed by the physical qubit of each
    operand, with the physical qubit of the other operand, the source
    indices of the blocked (non-compliant) ones among them and their count
    per physical qubit, and :attr:`found`, the map from each strictly
    positive scoring SWAP candidate to its score, as
    ``candidate_swaps_reference`` and ``heuristic_priority`` in
    ``tests/oracles.py`` give them over the whole front.

    A coupling edge's candidacy depends only on the locks of its two qubits
    and the gates on them, and its score only on those gates and the
    placement of their other operands, never on the clock itself.  So the map
    lasts for the whole route: every change marks the physical qubits it
    touched as :attr:`dirty`, and :meth:`refresh` revisits the edges of the
    dirty qubits alone.  The search marks the gates that enter, leave or move
    itself; the router reports each lock it takes, and each lock that ends,
    from its calendar of lock ends, as the clock reaches it.
    """

    def __init__(self, gates: list[Gate], placement: Mapping, arch: Architecture):
        self.gates = gates
        self.placement = placement
        self.arch = arch
        #: Per physical qubit, source index of each front two-qubit gate on
        #: it mapped to the physical qubit of its other operand.
        self.on_qubit: list[dict[int, int]] = [{} for _ in range(arch.num_qubits)]
        #: Source indices of the blocked front two-qubit gates.
        self.blocked: set[int] = set()
        #: Per physical qubit, how many blocked gates have an operand on it.
        self.n_blocked = [0] * arch.num_qubits
        self.found: dict[tuple[int, int], int] = {}
        #: Physical qubits whose lock or gates changed since the last refresh.
        self.dirty: set[int] = set()
        self.edges_at = [[(p, m) if p < m else (m, p) for m in neighbors]
                         for p, neighbors in enumerate(arch.graph.adjacency())]

    def add(self, seqs) -> None:
        """Index gates that entered the front; one-qubit gates and barriers are skipped."""
        fwd = self.placement.fwd
        dist = self.arch.distances
        for seq in seqs:
            gate = self.gates[seq]
            if gate.kind not in TWO_QUBIT_KINDS:
                continue
            a, b = fwd[gate.qubits[0]], fwd[gate.qubits[1]]
            self.on_qubit[a][seq] = b
            self.on_qubit[b][seq] = a
            if dist[a][b] != 1:
                self.blocked.add(seq)
                self.n_blocked[a] += 1
                self.n_blocked[b] += 1
            self.dirty.add(a)
            self.dirty.add(b)

    def discard(self, seqs) -> None:
        """Drop gates that left the front, or are about to move."""
        fwd = self.placement.fwd
        for seq in seqs:
            gate = self.gates[seq]
            if gate.kind not in TWO_QUBIT_KINDS:
                continue
            a, b = fwd[gate.qubits[0]], fwd[gate.qubits[1]]
            del self.on_qubit[a][seq]
            del self.on_qubit[b][seq]
            if seq in self.blocked:
                self.blocked.remove(seq)
                self.n_blocked[a] -= 1
                self.n_blocked[b] -= 1
            self.dirty.add(a)
            self.dirty.add(b)

    def swap(self, i: int, j: int) -> None:
        """Exchange the placement of physical qubits ``i`` and ``j``, moving their gates."""
        moved = self.on_qubit[i].keys() | self.on_qubit[j].keys()
        self.discard(moved)
        self.placement.swap(i, j)
        self.add(moved)

    def score(self, i: int, j: int) -> int:
        """``heuristic_priority`` of SWAP ``(i, j)`` over the gates on ``i`` and ``j``.

        A gate with an operand on ``i`` and the other on ``o`` gains
        ``D[i][o] - D[j][o]``; one on both qubits keeps its distance.
        """
        dist = self.arch.distances
        di, dj = dist[i], dist[j]
        score = 0
        for o in self.on_qubit[i].values():
            if o != j:
                score += di[o] - dj[o]
        for o in self.on_qubit[j].values():
            if o != i:
                score += dj[o] - di[o]
        return score

    def refresh(self, locks: list[int], t: int) -> dict[tuple[int, int], int]:
        """Bring :attr:`found` up to date for cycle ``t`` and return it.

        An edge qualifies while both its qubits are free at ``t`` and one of
        them holds an operand of a blocked gate, as in
        ``candidate_swaps_reference``, and it stays in the map while its
        score is positive.
        """
        found, edges_at, dirty = self.found, self.edges_at, self.dirty
        n_blocked, score = self.n_blocked, self.score
        for p in dirty:
            if locks[p] > t:
                if found:
                    for edge in edges_at[p]:
                        found.pop(edge, None)
                continue
            for edge in edges_at[p]:
                a, b = edge
                if locks[a] <= t and locks[b] <= t and (n_blocked[a] or n_blocked[b]):
                    gain = score(a, b)
                    if gain > 0:
                        found[edge] = gain
                        continue
                found.pop(edge, None)
        dirty.clear()
        return found

    def forced(self, seq: int, locks: list[int], t: int) -> dict[tuple[int, int], int]:
        """Candidate map of the search over the blocked gate ``seq`` alone, at cycle ``t``.

        A free operand ``p`` of the gate, with ``o`` the other one, offers
        each edge to a free neighbour ``m``, which gains ``D[p][o] - D[m][o]``.
        The operands of a blocked gate are not adjacent, so ``m`` is never
        ``o``.  Only strictly positive gains are kept.
        """
        fwd, dist = self.placement.fwd, self.arch.distances
        a, b = (fwd[q] for q in self.gates[seq].qubits)
        found = {}
        for p, o in ((a, b), (b, a)):
            if locks[p] > t:
                continue
            for edge in self.edges_at[p]:
                m = edge[0] if edge[1] == p else edge[1]
                gain = dist[p][o] - dist[m][o]
                if gain > 0 and locks[m] <= t:
                    found[edge] = gain
        return found

    @staticmethod
    def best(found: dict[tuple[int, int], int]) -> tuple[int, int] | None:
        """Highest scoring edge of a candidate map, ties to the smallest edge."""
        best, best_score = None, 0
        for edge, score in found.items():
            if score > best_score or score == best_score and edge < best:
                best, best_score = edge, score
        return best


class _Router:
    def __init__(self, circuit: Circuit, arch: Architecture, init: Mapping,
                 config: RouterConfig):
        self.arch = arch
        self.config = config
        self.init = init.copy()
        self.placement = init.copy()
        self.locks = [0] * arch.num_qubits
        # Release calendar: cycle -> physical qubits whose locks end then.
        # Its keys are the lock values above the clock.
        self.releases: dict[int, list[int]] = {}
        self.items: list[ScheduledGate] = []
        self.gates = circuit.gates
        self.frontier = LaneFrontier(self.gates, config.commutativity_on)
        self.search = _SwapSearch(self.gates, self.placement, arch)
        self.search.add(self.frontier.front)
        self.t = 0
        self.stall_counter = 0
        self.stall_events = 0
        self.forced_seq: int | None = None
        self.n_swaps = 0
        self.desperate = False
        # Generous ceiling on inserted SWAPs; if the aggregate heuristic ever
        # cycles, fall back to single-gate forced routing, which always drains.
        self.swap_cap = 8 * (len(circuit.gates) + 4) * (arch.diameter + 2) + 64
        # Blocked cycles with no launch or SWAP before the oldest blocked gate
        # is forced: as many as one SWAP takes.
        self.stall_limit = max(1, duration_of(arch, _SWAP))

    # launch phase --------------------------------------------------------
    def _launch_ready(self) -> bool:
        launched = False
        gates, fwd, blocked = self.gates, self.placement.fwd, self.search.blocked
        locks, t = self.locks, self.t
        ready = self.frontier.front
        while True:
            taken: set[int] = set()
            for seq in sorted(ready):
                if seq in blocked:
                    continue
                gate = gates[seq]
                operands = tuple(map(fwd.__getitem__, gate.qubits))
                for p in operands:
                    if locks[p] > t:
                        break
                else:
                    self._issue(gate.with_qubits(operands))
                    taken.add(seq)
            if not taken:
                return launched
            launched = True
            self.search.discard(taken)
            # Within a cycle the placement is fixed and locks only tighten,
            # so a gate that could not launch still cannot: only the gates
            # that just entered the front are worth another look.
            ready = self.frontier.remove(taken)
            self.search.add(ready)

    def _issue(self, pgate: Gate, inserted: bool = False) -> None:
        """Launch ``pgate`` now, book its lock's end and report the lock to the search."""
        end = launch(pgate, self.t, self.locks, self.items, self.arch,
                     self.config.duration_aware, inserted).end
        if end > self.t:
            self.releases.setdefault(end, []).extend(pgate.qubits)
        self.search.dirty.update(pgate.qubits)

    def _advance(self, t: int) -> None:
        """Move the clock to ``t`` and report the locks that end there."""
        self.t = t
        released = self.releases.pop(t, None)
        if released:
            self.search.dirty.update(released)

    # swap phase ----------------------------------------------------------
    def _launch_swap(self, edge: tuple[int, int]) -> None:
        self._issue(Gate(_SWAP, edge), inserted=True)
        self.n_swaps += 1
        self.search.swap(*edge)

    def _forced_swap(self) -> bool:
        """Launch the best SWAP of the search over the forced gate alone, if one gains."""
        if self.forced_seq not in self.search.blocked:
            return False
        best = self.search.best(self.search.forced(self.forced_seq, self.locks, self.t))
        if best is None:
            return False
        self._launch_swap(best)
        return True

    def _heuristic_swaps(self) -> bool:
        search, locks, t = self.search, self.locks, self.t
        found = search.refresh(locks, t)
        launched = bool(found)
        while found:
            self._launch_swap(search.best(found))
            if self.n_swaps > self.swap_cap:
                self.desperate = True
                break
            search.refresh(locks, t)
        return launched

    # main loop -----------------------------------------------------------
    def run(self) -> Schedule:
        # The earliest remaining gate is always in the front, so the program
        # is drained exactly when the front is empty.
        while self.frontier.front:
            launched = self._launch_ready()
            if self.forced_seq not in self.frontier.front:
                self.forced_seq = None
            blocked = self.search.blocked
            if self.forced_seq is None and blocked and (
                    self.desperate or self.stall_counter >= self.stall_limit):
                self.forced_seq = min(blocked)
                self.stall_events += 1
            if self.forced_seq is not None:
                launched = self._forced_swap() or launched
            elif blocked:
                launched = self._heuristic_swaps() or launched
            if launched:
                self.stall_counter = 0
                self._advance(self.t + 1)
                continue
            # An idle cycle leaves everything the next one reads as it was,
            # except the stall counter, so the cycles after it stay idle
            # until a lock releases or, while no gate is forced and one is
            # blocked, the counter reaches the stall limit (it is below the
            # limit here, or this cycle would have forced a gate).  Skip to
            # the earlier of the two, counting the skipped cycles as stalled.
            events = list(self.releases)
            if self.forced_seq is None and blocked:
                events.append(self.t + self.stall_limit - self.stall_counter)
            resume = min(events, default=self.t + 1)
            self.stall_counter += resume - self.t
            self._advance(resume)
        return Schedule(self.items, self.init, self.placement, self.stall_events)


def _check(circuit: Circuit, arch: Architecture) -> None:
    """Raise when ``circuit`` cannot be routed on ``arch``, naming its own gates."""
    diagnostics = validate(circuit, arch.num_qubits)
    if diagnostics:
        if len(diagnostics) == 1 and diagnostics[0].code == "TooManyQubits":
            raise TooManyQubitsError(circuit.num_qubits, arch.num_qubits)
        raise InvalidCircuitError(diagnostics)


def initial_mapping(circuit: Circuit, arch: Architecture, policy: str = "identity",
                    config: RouterConfig | None = None) -> Mapping:
    """Starting placement: identity, or the final mapping of a reverse-order pass.

    This is the one place that decides a non-identity start; ``route`` with
    no ``init`` starts from the identity.  The reverse pass checks ``circuit``
    as ``route`` does, then runs the router once on its reversed copy.
    """
    if policy not in ("identity", "reverse_pass"):
        raise RouterError(f"unknown initial mapping policy {policy!r}")
    if policy == "reverse_pass":
        _check(circuit, arch)
    ident = Mapping.identity(circuit.num_qubits, arch.num_qubits)
    if policy == "identity":
        return ident
    return _Router(circuit.reversed(), arch, ident, config or RouterConfig()).run().final_mapping


def route(circuit: Circuit, arch: Architecture, init: Mapping | None = None,
          config: RouterConfig | None = None) -> RoutingResult:
    """Schedule a circuit onto an architecture, inserting SWAPs as needed.

    Returns the cycle-accurate schedule together with the routed circuit over
    physical qubit indices (its gate order is schedule order).  Deterministic:
    equal inputs give identical output, with ties broken by program order for
    gates and by the lexicographically smallest edge for SWAPs.
    """
    config = config or RouterConfig()
    _check(circuit, arch)
    if init is None:
        init = Mapping.identity(circuit.num_qubits, arch.num_qubits)
    if init.num_logical != circuit.num_qubits or init.num_physical != arch.num_qubits:
        raise RouterError("initial mapping does not match circuit/architecture sizes")
    schedule = _Router(circuit, arch, init, config).run()
    routed = Circuit(arch.num_qubits, [it.gate for it in schedule.items],
                     circuit.register_name, circuit.creg_name,
                     circuit.num_clbits)
    return RoutingResult(schedule, routed)

