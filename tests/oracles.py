"""Independent reference implementations used only to check the package.

Everything here is built a different way from the library on purpose:
distances come from Floyd-Warshall instead of BFS, and unitaries are embedded
by explicit bit manipulation instead of the library's index permutations and
per-axis matmuls, so a shared bug cannot hide.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from codar_router import Gate, GateKind, Mapping, RouterConfig, Schedule, ScheduledGate, commutes
from codar_router.commutation import LaneFrontier

INF = 10 ** 9


def floyd_warshall(num_qubits: int, edges) -> list[list[int]]:
    d = np.full((num_qubits, num_qubits), INF, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for i, j in edges:
        d[i, j] = d[j, i] = 1
    for k in range(num_qubits):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d.tolist()


def _rot(axis: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "y":
        return np.array([[c, -s], [s, c]])
    return np.array([[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]])


def small_matrix(gate: Gate) -> np.ndarray:
    k, p = gate.kind, gate.params
    r2 = 1 / math.sqrt(2)
    table = {
        GateKind.H: [[r2, r2], [r2, -r2]],
        GateKind.X: [[0, 1], [1, 0]],
        GateKind.Y: [[0, -1j], [1j, 0]],
        GateKind.Z: [[1, 0], [0, -1]],
        GateKind.S: [[1, 0], [0, 1j]],
        GateKind.SDG: [[1, 0], [0, -1j]],
        GateKind.T: [[1, 0], [0, cmath.exp(0.25j * math.pi)]],
        GateKind.TDG: [[1, 0], [0, cmath.exp(-0.25j * math.pi)]],
        GateKind.CX: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        GateKind.SWAP: [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    }
    if k in table:
        return np.array(table[k], dtype=complex)
    if k is GateKind.RX:
        return _rot("x", p[0])
    if k is GateKind.RY:
        return _rot("y", p[0])
    if k is GateKind.RZ:
        return _rot("z", p[0])
    if k is GateKind.U1:
        return np.array([[1, 0], [0, cmath.exp(1j * p[0])]])
    if k is GateKind.U2:
        phi, lam = p
        return np.array([[r2, -r2 * cmath.exp(1j * lam)],
                         [r2 * cmath.exp(1j * phi), r2 * cmath.exp(1j * (phi + lam))]])
    if k is GateKind.U3:
        th, phi, lam = p
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -s * cmath.exp(1j * lam)],
                         [s * cmath.exp(1j * phi), c * cmath.exp(1j * (phi + lam))]])
    raise ValueError(f"no matrix for {k}")


def embed_unitary(gate: Gate, num_qubits: int) -> np.ndarray:
    """Full-register matrix via bit surgery; qubit 0 is the most significant bit."""
    small = small_matrix(gate)
    k = len(gate.qubits)
    dim = 1 << num_qubits
    bitpos = [num_qubits - 1 - q for q in gate.qubits]
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub_in = 0
        for b in bitpos:
            sub_in = (sub_in << 1) | ((col >> b) & 1)
        base = col
        for b in bitpos:
            base &= ~(1 << b)
        for sub_out in range(1 << k):
            amp = small[sub_out, sub_in]
            if amp == 0:
                continue
            row = base
            for idx, b in enumerate(bitpos):
                if (sub_out >> (k - 1 - idx)) & 1:
                    row |= 1 << b
            full[row, col] += amp
    return full


def statevector_reference(gates, num_qubits: int, start: np.ndarray) -> np.ndarray:
    """``start`` multiplied by each gate's embedded unitary in turn.

    The slow reference for ``verify.simulate_gates``; barriers and
    measurements are skipped as there.  Each distinct gate is embedded once
    and applied through its nonzero entries, since a dense product costs
    milliseconds per gate at 10 qubits.
    """
    entries: dict[Gate, tuple] = {}
    state = np.array(start, dtype=complex)
    for gate in gates:
        if not gate.kind.is_unitary:
            continue
        if gate not in entries:
            full = embed_unitary(gate, num_qubits)
            rows, cols = np.nonzero(full)
            entries[gate] = rows, cols, full[rows, cols]
        rows, cols, values = entries[gate]
        out = np.zeros_like(state)
        np.add.at(out, rows, values * state[cols])
        state = out
    return state


def unitary_commute(a: Gate, b: Gate, num_qubits: int, tol: float = 1e-9) -> bool:
    ua = embed_unitary(a, num_qubits)
    ub = embed_unitary(b, num_qubits)
    return np.linalg.norm(ua @ ub - ub @ ua) < tol


def cf_front_bruteforce(gates: list[Gate], num_qubits: int, tol: float = 1e-9) -> set[int]:
    """CF definition applied literally with full commutator tests."""
    return {k for k in range(len(gates))
            if all(unitary_commute(gates[j], gates[k], num_qubits, tol)
                   for j in range(k))}


SAFE_ANGLES = (0.37, 0.9, 1.54, 2.2, 4.4)
SIMPLE_KINDS = (GateKind.H, GateKind.X, GateKind.Y, GateKind.Z,
                GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG)
ROTATION_KINDS = (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.U1,
                  GateKind.U2, GateKind.U3)


def random_unitary_gate(rng, num_qubits: int) -> Gate:
    """Random gate whose commutation is palette-safe for the oracle.

    Angles come from a fixed generic set so no pair commutes accidentally in a
    way the kind/role commutation rule cannot see.
    """
    roll = rng.random()
    if roll < 0.35 and num_qubits >= 2:
        a, b = rng.sample(range(num_qubits), 2)
        return Gate(GateKind.CX, (a, b))
    if roll < 0.45 and num_qubits >= 2:
        a, b = rng.sample(range(num_qubits), 2)
        return Gate(GateKind.SWAP, (a, b))
    if roll < 0.75:
        return Gate(rng.choice(SIMPLE_KINDS), (rng.randrange(num_qubits),))
    kind = rng.choice(ROTATION_KINDS)
    params = tuple(rng.choice(SAFE_ANGLES) for _ in range(kind.num_params))
    return Gate(kind, (rng.randrange(num_qubits),), params)


# --- full-list frontier scan and DAG dependency check ---------------------
# The implementations the lane frontier (codar_router.commutation) and the
# dependency check built on it (codar_router.verify) replaced, kept as slow
# references: no early exit, no lanes, and a pairwise commutation test on
# every pair, written here from the rule's definition.

# Slots, as (kind, operand position), that commute with each other on a
# shared qubit: the diagonal family with the CX control, the X family with
# the CX target, and the Y family.
_FAMILIES = (
    {(GateKind.Z, 0), (GateKind.S, 0), (GateKind.SDG, 0), (GateKind.T, 0),
     (GateKind.TDG, 0), (GateKind.RZ, 0), (GateKind.U1, 0), (GateKind.CX, 0)},
    {(GateKind.X, 0), (GateKind.RX, 0), (GateKind.CX, 1)},
    {(GateKind.Y, 0), (GateKind.RY, 0)},
)


def commutes_reference(a: Gate, b: Gate) -> bool:
    """Do ``a`` and ``b`` commute on every qubit they share?

    Identical unitary gates do; otherwise both slots on each shared qubit must
    lie in one family.  Measure and barrier commute with nothing they touch.
    """
    shared = set(a.qubits) & set(b.qubits)
    if not shared:
        return True
    if a.kind.is_unitary and a.signature() == b.signature():
        return True
    for q in shared:
        slot_a = (a.kind, a.qubits.index(q))
        slot_b = (b.kind, b.qubits.index(q))
        if not any(slot_a in family and slot_b in family for family in _FAMILIES):
            return False
    return True


def cf_front_reference(gates) -> set[int]:
    """The CF front by testing every pair, with no early exit."""
    gates = list(gates)
    return {k for k, gate in enumerate(gates)
            if all(commutes_reference(earlier, gate) for earlier in gates[:k])}


def no_predecessor_front_reference(gates) -> set[int]:
    """Gates sharing no qubit with any earlier gate, by one full pass."""
    front: set[int] = set()
    touched: set[int] = set()
    for k, gate in enumerate(gates):
        if not set(gate.qubits) & touched:
            front.add(k)
        touched.update(gate.qubits)
    return front


def compliance_violations(items, arch) -> list[str]:
    """Each CX or SWAP off a coupled pair, and each two gates that overlap on a
    qubit, in a list of scheduled gates."""
    problems = []
    busy: dict[int, list[tuple[int, int]]] = {}
    for item in items:
        if item.gate.kind in (GateKind.CX, GateKind.SWAP) \
                and not arch.graph.has_edge(*item.gate.qubits):
            problems.append(f"{item.gate} at {item.start} is not on a coupled pair")
        for q in item.gate.qubits:
            busy.setdefault(q, []).append((item.start, item.end))
    for q, spans in sorted(busy.items()):
        spans.sort()
        problems += [f"qubit {q}: [{s0}, {e0}) overlaps [{s1}, {e1})"
                     for (s0, e0), (s1, e1) in zip(spans, spans[1:]) if s1 < e0]
    return problems


def dependency_preds_reference(gates) -> list[list[int]]:
    """For each gate, the earlier gates it must stay behind (non-commuting)."""
    per_qubit: dict[int, list[int]] = {}
    preds: list[set[int]] = [set() for _ in gates]
    for i, gate in enumerate(gates):
        for q in gate.qubits:
            for j in per_qubit.get(q, []):
                if not commutes_reference(gates[j], gate):
                    preds[i].add(j)
            per_qubit.setdefault(q, []).append(i)
    return [sorted(p) for p in preds]


def is_commuting_reordering_reference(original, candidate) -> bool:
    """Is ``candidate`` a linear extension of ``original``'s non-commutation DAG?

    Each candidate gate is matched to the earliest unused source gate with the
    same signature, which must have every predecessor already placed.
    """
    if len(original) != len(candidate):
        return False
    buckets: dict[tuple, list[int]] = {}
    for i, gate in enumerate(original):
        buckets.setdefault(gate.signature(), []).append(i)
    preds = dependency_preds_reference(original)
    placed: set[int] = set()
    cursor: dict[tuple, int] = {}
    for gate in candidate:
        sig = gate.signature()
        queue = buckets.get(sig, [])
        pos = cursor.get(sig, 0)
        if pos >= len(queue) or not placed.issuperset(preds[queue[pos]]):
            return False
        placed.add(queue[pos])
        cursor[sig] = pos + 1
    return True


# --- the dependency check as a replay plus a frontier walk ------------------
# The package's dependency check before it became one walk of the schedule:
# a replay that builds each program gate on program qubits, then a
# LaneFrontier that drops each matched source gate in turn.  It shares
# LaneFrontier and commutes with the package, so it pins the single walk's
# verdicts and details rather than checking the order independently
# (is_commuting_reordering_reference does that).  An inserted SWAP that does
# not name two qubits raises TypeError here, and one that names a qubit twice
# moves nothing; the package reports both as violations.

def replay_reference(items, init):
    """(program gates on program qubits, final mapping, violations) of a replay."""
    mapping = init.copy()
    inv = mapping.inv
    device, program = set(range(init.num_physical)), set(range(init.num_logical))
    logical, violations = [], []
    for item in items:
        gate = item.gate
        if not device.issuperset(gate.qubits):
            violations.append(f"{gate} acts on a qubit outside the device")
            continue
        if item.inserted:
            if gate.kind is not GateKind.SWAP:
                violations.append(f"inserted non-SWAP gate {gate}")
                continue
            mapping.swap(*gate.qubits)
            continue
        operands = tuple(map(inv.__getitem__, gate.qubits))
        if not program.issuperset(operands):
            violations.append(f"{gate} acts on an unoccupied physical qubit")
            continue
        logical.append(gate.with_qubits(operands))
    return logical, mapping, violations


def frontier_reordering_reference(original, candidate) -> tuple[bool, list[str]]:
    """Match each candidate gate to the earliest unused source gate of its
    signature, which must be in the CF front of the unused source gates."""
    if len(original) != len(candidate):
        return False, [f"gate count differs: {len(original)} vs {len(candidate)}"]
    unused: dict[tuple, list[int]] = {}
    for i in reversed(range(len(original))):
        unused.setdefault(original[i].signature(), []).append(i)
    frontier = LaneFrontier(original)
    used = [False] * len(original)
    for k, gate in enumerate(candidate):
        stack = unused.get(gate.signature())
        if not stack:
            return False, [f"extra or missing gate at position {k}: {gate}"]
        idx = stack[-1]
        if idx not in frontier.front:
            source = original[idx]
            blocker = min(j for j in range(idx)
                          if not used[j] and not commutes(original[j], source))
            return False, [
                f"{gate} at position {k} jumped before non-commuting {original[blocker]}"]
        stack.pop()
        used[idx] = True
        frontier.remove({idx})
    return True, []


def dependency_equivalence_reference(original, schedule) -> tuple[bool, list[str]]:
    """(dependency_ok, details) of the replay plus the frontier walk."""
    logical, mapping, details = replay_reference(schedule.items, schedule.initial_mapping)
    if mapping != schedule.final_mapping:
        details.append("replayed SWAPs do not reproduce the reported final mapping")
    ok, problems = frontier_reordering_reference(original.gates, logical)
    details.extend(problems)
    return ok and not details, details


# --- SWAP search from scratch ---------------------------------------------
# The search the router's incremental SWAP-search state replaced: blocked
# endpoints re-derived from every front gate, and every candidate scored by
# heuristic_priority over the whole front, on each call.

def heuristic_priority(swap: tuple[int, int], cf_gates, fwd: list[int],
                       distances: list[list[int]]) -> int:
    """Total-distance gain of a SWAP over the pending CF two-qubit gates.

    ``fwd`` is the logical-to-physical list of the current placement.
    Positive means the swap moves interacting qubits closer on aggregate.
    Already-adjacent pairs sit at distance 1 and can only be penalized, which
    stops the search from tearing apart a gate that is merely waiting for its
    qubits to unlock.
    """
    i, j = swap
    score = 0
    for gate in cf_gates:
        if gate.kind not in (GateKind.CX, GateKind.SWAP):
            continue
        pa, pb = fwd[gate.qubits[0]], fwd[gate.qubits[1]]
        na = j if pa == i else i if pa == j else pa
        nb = j if pb == i else i if pb == j else pb
        score += distances[pa][pb] - distances[na][nb]
    return score


def candidate_swaps_reference(cf_gates, mapping, locks: list[int], t: int,
                              arch) -> list[tuple[int, int]]:
    """Free coupling edges touching an operand of a non-compliant two-qubit gate."""
    fwd = mapping.forward
    endpoints: set[int] = set()
    for gate in cf_gates:
        if gate.kind in (GateKind.CX, GateKind.SWAP) and arch.distances[
                fwd[gate.qubits[0]]][fwd[gate.qubits[1]]] != 1:
            endpoints.update(fwd[q] for q in gate.qubits)
    found: set[tuple[int, int]] = set()
    for p in endpoints:
        if locks[p] > t:
            continue
        for m in arch.graph.adjacency()[p]:
            if locks[m] <= t:
                found.add((min(p, m), max(p, m)))
    return sorted(found)


def swap_scores_reference(cf_gates, mapping, locks: list[int], t: int,
                          arch) -> dict[tuple[int, int], int]:
    """Every candidate SWAP with its score over the whole front."""
    return {edge: heuristic_priority(edge, cf_gates, mapping.fwd, arch.distances)
            for edge in candidate_swaps_reference(cf_gates, mapping, locks, t, arch)}


def best_swap_reference(cf_gates, mapping, locks: list[int], t: int, arch):
    """Highest strictly positive scoring candidate, ties to the smallest edge."""
    best, best_score = None, 0
    for edge, score in swap_scores_reference(cf_gates, mapping, locks, t, arch).items():
        if score > best_score:
            best, best_score = edge, score
    return best


# --- the whole route from scratch --------------------------------------------

def reference_route(circuit, arch, config=None, stall_limit=None, swap_cap=None):
    """The router's rule, cycle by cycle, with nothing kept between cycles but
    the placement, the locks, the forced gate and the counters.

    Each cycle first repeats launch rounds until one launches nothing.  A
    round rederives the front of the remaining gates and launches, in program
    order, each front gate whose physical qubits are free and, for a
    two-qubit gate, coupled.  A gate that is not coupled is blocked.  Once
    ``stall_limit`` cycles in a row launched neither a gate nor a SWAP, or
    once the SWAP count has passed ``swap_cap``, the oldest blocked gate is
    forced until it launches.  While a gate is forced, the cycle takes one SWAP, the best for
    that gate alone; otherwise, it takes the best SWAP over the whole front
    until none scores above 0.  Then the clock moves one cycle.
    """
    config = config or RouterConfig()
    gates = circuit.gates
    init = Mapping.identity(circuit.num_qubits, arch.num_qubits)
    placement = init.copy()
    if stall_limit is None:
        stall_limit = max(1, arch.durations[GateKind.SWAP])
    if swap_cap is None:
        swap_cap = 8 * (len(gates) + 4) * (arch.diameter + 2) + 64
    front_of = cf_front_reference if config.commutativity_on else no_predecessor_front_reference
    locks = [0] * arch.num_qubits
    items: list[ScheduledGate] = []
    remaining = list(range(len(gates)))
    t = stall_counter = stall_events = swaps = 0
    forced, desperate = None, False

    def launch(pgate, inserted=False):
        true_duration = arch.durations[pgate.kind]
        duration = true_duration if config.duration_aware else 1
        for q in pgate.qubits:
            locks[q] = t + duration
        items.append(ScheduledGate(pgate, t, duration, true_duration, inserted))

    def physical(seq):
        return tuple(placement.fwd[q] for q in gates[seq].qubits)

    def is_blocked(seq):
        return gates[seq].kind in (GateKind.CX, GateKind.SWAP) \
            and arch.distances[physical(seq)[0]][physical(seq)[1]] != 1

    def best_swap(*seqs):
        return best_swap_reference([gates[seq] for seq in seqs], placement, locks, t, arch)

    def swap(edge):
        nonlocal swaps
        launch(Gate(GateKind.SWAP, edge), inserted=True)
        placement.swap(*edge)
        swaps += 1

    while remaining:
        launched = False
        while True:
            front = [remaining[k] for k in sorted(front_of([gates[i] for i in remaining]))]
            taken = set()
            for seq in front:
                if not is_blocked(seq) and all(locks[p] <= t for p in physical(seq)):
                    launch(gates[seq].with_qubits(physical(seq)))
                    taken.add(seq)
            if not taken:
                break
            launched = True
            remaining = [i for i in remaining if i not in taken]
        blocked = [seq for seq in front if is_blocked(seq)]
        if forced not in front:
            forced = None
        if forced is None and blocked and (desperate or stall_counter >= stall_limit):
            forced = blocked[0]
            stall_events += 1
        if forced is not None:
            edge = forced in blocked and best_swap(forced)
            if edge:
                swap(edge)
                launched = True
        elif blocked:
            while edge := best_swap(*front):
                swap(edge)
                launched = True
                if swaps > swap_cap:
                    desperate = True
                    break
        stall_counter = 0 if launched else stall_counter + 1
        t += 1
    return Schedule(items, init, placement, stall_events)
