"""Differential tests against the references in ``oracles.py``: the lane
frontier's runs and the checker built on it against full rescans, the router's
event-driven SWAP-search map against the search from scratch, and whole
routes against the reference router.
"""
from __future__ import annotations

import random
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

import codar_router.commutation as commutation_module
import codar_router.router as router_module
from codar_router import (
    Circuit,
    Gate,
    GateKind,
    Mapping,
    RouterConfig,
    cf_front,
    commutes,
    grid_architecture,
    preset_architecture,
    resolve_architecture,
    route,
)
from codar_router.commutation import LaneFrontier
from codar_router.router import _SwapSearch
from codar_router.router import Schedule, ScheduledGate
from codar_router.verify import dependency_equivalence, replay_schedule

from oracles import (
    best_swap_reference,
    candidate_swaps_reference,
    cf_front_reference,
    dependency_equivalence_reference,
    frontier_reordering_reference,
    heuristic_priority,
    is_commuting_reordering_reference,
    no_predecessor_front_reference,
    random_unitary_gate,
    reference_route,
    swap_scores_reference,
)
from test_large_devices import fenced_program, qft_circuit, random_program


ARCHS = (preset_architecture("square4"), preset_architecture("demo6"), grid_architecture(3, 3))
U3_ANGLES = ((0.4, 1.2, 2.0), (0.5, 1.2, 2.0))


def random_gates(rng: random.Random, num_qubits: int, count: int) -> list[Gate]:
    """CX, source SWAPs, measures, barriers, one-qubit gates and exact repeats."""
    gates: list[Gate] = []
    for _ in range(count):
        roll = rng.random()
        if gates and roll < 0.12:
            gates.append(rng.choice(gates))
        elif roll < 0.2:
            q = rng.randrange(num_qubits)
            gates.append(Gate(GateKind.MEASURE, (q,), cbit=q))
        elif roll < 0.27:
            qs = rng.sample(range(num_qubits), rng.randint(1, num_qubits))
            gates.append(Gate(GateKind.BARRIER, tuple(qs)))
        elif roll < 0.35:
            gates.append(Gate(GateKind.U3, (rng.randrange(num_qubits),), rng.choice(U3_ANGLES)))
        else:
            gates.append(random_unitary_gate(rng, num_qubits))
    return gates


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_lane_frontier_matches_full_rescan(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    gates = random_gates(rng, n, rng.randint(0, 40))
    for commutativity_on in (True, False):
        frontier = LaneFrontier(gates, commutativity_on)
        remaining = list(range(len(gates)))
        while True:
            rest = [gates[i] for i in remaining]
            expected = (cf_front_reference(rest) if commutativity_on
                        else no_predecessor_front_reference(rest))
            assert frontier.front == {remaining[k] for k in expected}
            if not remaining:
                break
            # Launch-like rounds: only front gates are ever removed.
            pool = sorted(frontier.front)
            batch = set(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
            before = set(frontier.front)
            entered = frontier.remove(batch)
            # No remaining gate leaves the front, so the entrants are the
            # whole change.
            assert before - batch <= frontier.front
            assert entered == frontier.front - before
            remaining = [i for i in remaining if i not in batch]


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_cf_front_early_exit_matches_full_scan(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    gates = random_gates(rng, n, rng.randint(0, 30))
    assert cf_front(gates) == cf_front_reference(gates)


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_lane_front_is_a_run_from_the_head(seed):
    # LaneFrontier keeps a lane's front as a length; this is what makes that
    # enough.
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    gates = random_gates(rng, n, rng.randint(0, 30))
    for q in range(n):
        lane = [g for g in gates if q in g.qubits]
        front = cf_front_reference(lane)
        assert front == set(range(len(front)))


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_lane_runs_match_fronts_of_the_lane_suffixes(seed):
    # A lane only ever loses its head run, so its fronts are the fronts of the
    # suffixes that start where a run ends.
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    gates = random_gates(rng, n, rng.randint(0, 30))
    for commutativity_on in (True, False):
        runs = LaneFrontier(gates, commutativity_on).runs
        for q in range(n):
            lane = [i for i, g in enumerate(gates) if q in g.qubits]
            assert [i for run in runs.get(q, []) for i in run] == lane
            ends = list(accumulate(len(run) for run in runs.get(q, [])))
            if not commutativity_on:
                assert ends == list(range(1, len(lane) + 1))
            expected, start = [], 0
            while start < len(lane):
                front = cf_front_reference([gates[i] for i in lane[start:]])
                assert front == set(range(len(front)))
                start += len(front)
                expected.append(start)
            if commutativity_on:
                assert ends == expected


def test_lane_frontier_and_routes_never_call_cf_front(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cf_front called")

    monkeypatch.setattr(commutation_module, "cf_front", refuse)
    rng = random.Random(7)
    gates = random_gates(rng, 5, 80)
    for commutativity_on in (True, False):
        frontier = LaneFrontier(gates, commutativity_on)
        drained = 0
        while frontier.front:
            drained += len(frontier.front)
            frontier.remove(set(frontier.front))
        assert drained == len(gates)
    ablated = RouterConfig(duration_aware=False, commutativity_on=False)
    for arch in ARCHS:
        circuit = Circuit(arch.num_qubits, random_gates(rng, arch.num_qubits, 80))
        for config in (RouterConfig(), ablated):
            schedule = route(circuit, arch, config=config).schedule
            assert dependency_equivalence(circuit, schedule).dependency_ok


def test_lane_frontier_rescans_a_lane_only_once_its_run_empties(monkeypatch):
    moved = []
    extend = LaneFrontier._extend

    def counting(self, qubits):
        qubits = list(qubits)
        moved.extend(qubits)
        return extend(self, qubits)

    monkeypatch.setattr(LaneFrontier, "_extend", counting)
    diagonal = [Gate(GateKind.T, (0,)), Gate(GateKind.Z, (0,)), Gate(GateKind.S, (0,)),
                Gate(GateKind.U1, (0,), (0.3,)), Gate(GateKind.RZ, (0,), (0.9,))]
    frontier = LaneFrontier(diagonal + [Gate(GateKind.H, (0,))])
    assert frontier.front == set(range(len(diagonal)))
    for i in range(len(diagonal) - 1):
        assert frontier.remove({i}) == set()
    assert moved == [0]
    assert frontier.remove({len(diagonal) - 1}) == {len(diagonal)}
    # The lane moves on once at construction and once when its run empties,
    # not once per removal.
    assert moved == [0, 0]


def test_ablated_lane_rescan_reads_only_the_lane_head(monkeypatch):
    # Every gate of a lane touches its qubit, so only the head can lack a
    # predecessor: the ablated router's frontier makes each gate a run of its
    # own, and routes as the reference router, which rescans whole lists.
    rng = random.Random(7)
    config = RouterConfig(duration_aware=False, commutativity_on=False)
    cases = [(Circuit(arch.num_qubits, random_gates(rng, arch.num_qubits, 80)), arch)
             for arch in ARCHS + (preset_architecture("q20-tokyo"),)]
    built = []

    class Recording(LaneFrontier):
        def __init__(self, gates, commutative=True):
            super().__init__(gates, commutative)
            built.append(self)

    monkeypatch.setattr(router_module, "LaneFrontier", Recording)
    for circuit, arch in cases:
        schedule = route(circuit, arch, config=config).schedule
        assert schedule.to_json() == reference_route(circuit, arch, config).to_json()
    assert built
    for frontier in built:
        assert {len(run) for runs in frontier.runs.values() for run in runs} == {1}
        assert not frontier.front


def test_lane_frontier_refuses_to_remove_a_gate_outside_the_front():
    # CX(0,1) waits behind H(0); X(1) commutes with its target, so it is in
    # the front with H(0) and X(2).
    gates = [Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1)), Gate(GateKind.X, (1,)),
             Gate(GateKind.X, (2,))]
    frontier = LaneFrontier(gates)
    assert frontier.front == {0, 2, 3}
    with pytest.raises(ValueError, match="gate 1 is not in the front"):
        frontier.remove({3, 1, 2})
    # Nothing changed: the front gates named with the bad one are still
    # there, and removing them later works as if the refused call never ran.
    assert frontier.front == {0, 2, 3}
    assert frontier.remove({3, 2}) == set()
    # A gate removed once has left the front, so a second removal is refused.
    with pytest.raises(ValueError, match="gate 3 is not in the front"):
        frontier.remove({3})
    assert frontier.front == {0}
    assert frontier.remove({0}) == {1}
    assert frontier.front == {1}


def test_lane_frontier_takes_only_a_set():
    # A set cannot name a gate twice; a tuple could, and would count a run
    # down twice for one gate.
    gates = [Gate(GateKind.T, (0,)), Gate(GateKind.Z, (0,))]
    frontier = LaneFrontier(gates)
    for indices in ((0, 0), [1]):
        with pytest.raises(TypeError):
            frontier.remove(indices)
    assert frontier.front == {0, 1}
    assert frontier.remove({0}) == set()
    assert frontier.front == {1}


def test_lane_frontier_counts_a_repeated_operand_once():
    # ``validate`` refuses a CX on one qubit twice, but the dependency check
    # takes any gate list: the lane holds the CX once, as its own run.
    gates = [Gate(GateKind.CX, (0, 0)), Gate(GateKind.H, (0,))]
    frontier = LaneFrontier(gates)
    assert frontier.front == {0}
    assert frontier.remove({0}) == {1}
    assert check_verdict(gates, gates)


def test_repeat_passes_only_past_marks_of_its_own_signature():
    # Same entry, another signature: the repeat is blocked by the middle gate.
    u3, other = (Gate(GateKind.U3, (0,), angles) for angles in U3_ANGLES)
    swap01, swap02 = Gate(GateKind.SWAP, (0, 1)), Gate(GateKind.SWAP, (0, 2))
    for gates in ([u3, other, u3], [swap01, swap02, swap01]):
        assert cf_front(gates) == {0}
    assert cf_front([u3, u3, swap01, swap01]) == {0, 1}


def check_verdict(original, candidate) -> bool:
    """The dependency check's verdict on ``candidate`` run in place, against both references."""
    n = 1 + max((q for gate in original + candidate for q in gate.qubits), default=0)
    init = Mapping.identity(n, n)
    items = [ScheduledGate(gate, k, 1, 1) for k, gate in enumerate(candidate)]
    report = dependency_equivalence(Circuit(n, original), Schedule(items, init, init.copy()))
    ok, problems = frontier_reordering_reference(original, candidate)
    assert (report.dependency_ok, report.details) == (ok, problems)
    assert ok == is_commuting_reordering_reference(original, candidate)
    return ok


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_dependency_check_matches_reference_on_routed_and_corrupted(seed):
    rng = random.Random(seed)
    arch = rng.choice(ARCHS)
    n = rng.randint(2, arch.num_qubits)
    circuit = Circuit(n, random_gates(rng, n, rng.randint(1, 30)))
    config = RouterConfig(commutativity_on=rng.random() < 0.8)
    schedule = route(circuit, arch, config=config).schedule
    items = schedule.items
    original = list(circuit.gates)

    logical = replay_schedule(items, schedule.initial_mapping).logical_gates
    inserted = [k for k, it in enumerate(items) if it.inserted]
    dropped = None
    if inserted:
        k = rng.choice(inserted)
        dropped = replay_schedule(items[:k] + items[k + 1:], schedule.initial_mapping)
    shuffled = list(logical)
    for _ in range(3):
        if len(shuffled) > 1:
            k = rng.randrange(len(shuffled) - 1)
            shuffled[k], shuffled[k + 1] = shuffled[k + 1], shuffled[k]

    assert check_verdict(original, logical)
    if dropped is not None:
        check_verdict(original, dropped.logical_gates)
    exchanged = [k for k in range(len(logical) - 1)
                 if logical[k].signature() != logical[k + 1].signature()
                 and not commutes(logical[k], logical[k + 1])]
    if exchanged:
        k = rng.choice(exchanged)
        bad = logical[:k] + [logical[k + 1], logical[k]] + logical[k + 2:]
        assert not check_verdict(original, bad)
    check_verdict(original, shuffled)


def dependency_details(source: list[GateKind], candidate: list[GateKind]) -> list[str]:
    from codar_router.router import Schedule, ScheduledGate

    init = Mapping.identity(1, 1)
    items = [ScheduledGate(Gate(kind, (0,)), i, 1, 1) for i, kind in enumerate(candidate)]
    report = dependency_equivalence(Circuit(1, [Gate(kind, (0,)) for kind in source]),
                                    Schedule(items, init, init.copy()))
    assert not report.dependency_ok
    return report.details


def test_blocker_is_the_earliest_unplaced_non_commuting_gate():
    # h 0 is already placed when x 0 arrives, so it cannot be the blocker.
    H, X, Y, Z = GateKind.H, GateKind.X, GateKind.Y, GateKind.Z
    assert dependency_details([H, Z, X], [H, X, Z]) == [
        "x 0 at position 1 jumped before non-commuting z 0"]
    assert dependency_details([H, Z, Y, X], [H, X, Z, Y]) == [
        "x 0 at position 1 jumped before non-commuting z 0"]


def dependency_mutants(schedule: Schedule, rng: random.Random):
    """(kind, schedule): one mutant of each kind, at random places."""
    from dataclasses import replace

    items = schedule.items
    k = rng.randrange(len(items) - 1)
    i, j = sorted(rng.sample(range(len(items)), 2))
    item = items[k]
    qubits = list(item.gate.qubits)
    # One past the device now and then, to reach the off-device violation.
    qubits[rng.randrange(len(qubits))] = rng.randrange(schedule.initial_mapping.num_physical + 1)
    c = rng.choice([k for k, it in enumerate(items) if it.gate.kind is GateKind.CX])
    a = rng.choice(items[c].gate.qubits)
    forward = schedule.final_mapping.forward
    variants = {
        "drop": items[:k] + items[k + 1:],
        "duplicate": items[:k + 1] + items[k:],
        "adjacent": items[:k] + [items[k + 1], item] + items[k + 2:],
        "exchange": items[:i] + [items[j]] + items[i + 1:j] + [items[i]] + items[j + 1:],
        "flip-inserted": items[:k] + [replace(item, inserted=not item.inserted)] + items[k + 1:],
        "retarget": items[:k] + [replace(item, gate=item.gate.with_qubits(tuple(qubits)))]
        + items[k + 1:],
        "repeated-operand": items[:c] + [replace(items[c], gate=items[c].gate.with_qubits((a, a)))]
        + items[c + 1:],
    }
    for kind, variant in variants.items():
        yield kind, replace(schedule, items=variant)
    yield "final-mapping", replace(schedule, final_mapping=Mapping(
        forward[1:] + forward[:1], schedule.final_mapping.num_physical))


def test_dependency_check_matches_replay_and_frontier_reference(corpus_dir):
    """Verdicts and details equal the replay plus frontier walk it replaced.

    On routes of the corpus programs that fit each of three devices, of
    500-gate programs on ``grid:10x10`` and of a 27-qubit QFT on
    ``q54-sycamore``, and on two mutants of each kind of each route.
    """
    from codar_router import parse_file

    routes = []
    for device in ("q16-melbourne", "q20-tokyo", "q54-sycamore"):
        arch = resolve_architecture(device)
        programs = [parse_file(path) for path in sorted(corpus_dir.glob("*.qasm"))]
        routes += [(circuit, arch) for circuit in programs
                   if circuit.num_qubits <= arch.num_qubits]
    grid = resolve_architecture("grid:10x10")
    routes += [(random_program(grid.num_qubits, 500, random.Random(seed)), grid)
               for seed in (1, 2)]
    routes.append((qft_circuit(27), resolve_architecture("q54-sycamore")))
    messages = ("outside the device", "inserted non-SWAP", "unoccupied physical qubit",
                "final mapping", "gate count differs", "extra or missing", "jumped before")
    seen = dict.fromkeys(messages, 0)
    verdicts = {True: 0, False: 0}
    for seed, (circuit, arch) in enumerate(routes):
        schedule = route(circuit, arch).schedule
        assert dependency_equivalence(circuit, schedule).dependency_ok
        rng = random.Random(seed)
        for _ in range(2):
            for kind, mutant in dependency_mutants(schedule, rng):
                report = dependency_equivalence(circuit, mutant)
                expected = dependency_equivalence_reference(circuit, mutant)
                assert (report.dependency_ok, report.details) == expected, (seed, kind)
                verdicts[report.dependency_ok] += 1
                for message in messages:
                    seen[message] += any(message in line for line in report.details)
    assert all(seen.values()), seen
    assert all(verdicts.values()), verdicts


def test_passing_dependency_check_builds_no_gate(monkeypatch):
    arch = resolve_architecture("grid:10x10")
    circuit = random_program(arch.num_qubits, 500, random.Random(1))
    schedule = route(circuit, arch).schedule
    built = []
    init = Gate.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Gate, "__init__", counted)
    assert dependency_equivalence(circuit, schedule).dependency_ok
    assert built == []
    # The count is live: the replay builds each program gate on program qubits.
    replay_schedule(schedule.items, schedule.initial_mapping)
    assert len(built) == len(circuit.gates)


def test_swap_search_state_matches_search_from_scratch():
    """Random front entries, launches, SWAPs, locks and clock steps on large devices.

    After every step the state's blocked set, its count of blocked gates on
    each physical qubit and its oldest gate must equal what the search from
    scratch derives from the whole front; the counts are checked after
    every SWAP as well.  Locks change as in a route: the clock only moves
    forward, a lock is taken only on a free qubit, some of zero length as a
    barrier's, and every lock taken or released is reported to the search.
    A cycle then refreshes the map and takes SWAPs from it: the map and each
    pick must equal the search from scratch before the first SWAP and after
    every SWAP, with that SWAP's qubits locked and its gates moved, and at
    times a candidate's qubits locked as well.
    """
    ties = multi_swap_cycles = releases = 0
    for seed in range(24):
        rng = random.Random(seed)
        arch = preset_architecture("q20-tokyo") if seed % 2 else grid_architecture(10, 10)
        num_physical = arch.num_qubits
        # Few logical qubits crowd the front onto the same pairs and tie scores.
        n = rng.choice((3, 6, 12, num_physical))
        placement = Mapping(rng.sample(range(num_physical), n), num_physical)
        gates = [Gate(rng.choice((GateKind.CX, GateKind.CX, GateKind.SWAP)),
                      tuple(rng.sample(range(n), 2))) if rng.random() < 0.85
                 else Gate(GateKind.H, (rng.randrange(n),)) for _ in range(40)]
        search = _SwapSearch(gates, placement, arch)
        waiting = list(range(len(gates)))
        front: set[int] = set()
        edges = sorted(arch.graph.edges)
        locks = [0] * num_physical
        t = 0

        def blocked_counts():
            """Per physical qubit, the blocked front gates with an operand on it."""
            fwd, counts = placement.fwd, [0] * num_physical
            for seq in front:
                if gates[seq].kind is not GateKind.H:
                    a, b = (fwd[q] for q in gates[seq].qubits)
                    if arch.distances[a][b] != 1:
                        counts[a] += 1
                        counts[b] += 1
            return counts

        for _ in range(40):
            roll = rng.random()
            if roll < 0.35 and waiting:
                entering = [waiting.pop(rng.randrange(len(waiting)))
                            for _ in range(min(len(waiting), rng.randint(1, 4)))]
                search.add(entering)
                front.update(entering)
            elif roll < 0.55 and front:
                launched = rng.sample(sorted(front), rng.randint(1, min(3, len(front))))
                search.discard(launched)
                front.difference_update(launched)
            else:
                search.swap(*rng.choice(edges))
            step = rng.choice((0, 1, 1, 2, 7))
            released = [p for p in range(num_physical) if t < locks[p] <= t + step]
            search.dirty.update(released)
            releases += len(released)
            t += step
            taken = [p for p in rng.sample(range(num_physical), rng.randint(0, num_physical // 2))
                     if locks[p] <= t]
            for p in taken:
                locks[p] = t + rng.choice((0, 1, 2, 6))
            search.dirty.update(taken)

            cf_gates = [gates[seq] for seq in sorted(front)]
            fwd = placement.fwd
            blocked = [seq for seq in sorted(front)
                       if gates[seq].kind is not GateKind.H
                       and arch.distances[fwd[gates[seq].qubits[0]]][fwd[gates[seq].qubits[1]]] != 1]
            assert search.blocked == set(blocked)
            assert min(search.blocked, default=None) == (blocked[0] if blocked else None)
            assert search.n_blocked == blocked_counts()

            found = search.refresh(locks, t)
            swaps = 0
            while True:
                scores = swap_scores_reference(cf_gates, placement, locks, t, arch)
                assert found == {edge: score for edge, score in scores.items() if score > 0}
                best = search.best(found)
                assert best == best_swap_reference(cf_gates, placement, locks, t, arch)
                top = max(scores.values(), default=0)
                ties += top > 0 and list(scores.values()).count(top) > 1
                if best is None:
                    break
                i, j = best
                locks[i] = locks[j] = t + rng.choice((1, 6))
                search.dirty.update(best)
                search.swap(i, j)
                assert search.n_blocked == blocked_counts()
                # Some free qubits are locked as well, with candidates left.
                if found and rng.random() < 0.5:
                    taken = [p for edge in rng.sample(sorted(found), 1) for p in edge]
                    for p in taken:
                        locks[p] = t + 2
                    search.dirty.update(taken)
                found = search.refresh(locks, t)
                swaps += 1
            multi_swap_cycles += swaps > 1
    assert ties > 0 and multi_swap_cycles > 0 and releases > 0


@pytest.mark.parametrize("device", ["grid:10x10", "q20-tokyo"])
def test_edge_score_matches_heuristic_priority(device):
    """The search's own edge score is heuristic_priority over the gates on both
    qubits, and its forced map, for each blocked gate under random locks, is
    the search from scratch over that gate alone."""
    arch = resolve_architecture(device)
    num_physical = arch.num_qubits
    edges = sorted(arch.graph.edges)
    checked = forced = ties = 0
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.choice((3, 8, num_physical))
        placement = Mapping(rng.sample(range(num_physical), n), num_physical)
        gates = [Gate(rng.choice((GateKind.CX, GateKind.CX, GateKind.SWAP)),
                      tuple(rng.sample(range(n), 2))) if rng.random() < 0.85
                 else Gate(GateKind.H, (rng.randrange(n),)) for _ in range(rng.randint(1, 30))]
        search = _SwapSearch(gates, placement, arch)
        search.add(range(len(gates)))
        for _ in range(3):
            search.swap(*rng.choice(edges))
        fwd = placement.fwd
        for i, j in edges:
            on_edge = [gate for gate in gates if gate.kind is not GateKind.H
                       and {fwd[q] for q in gate.qubits} & {i, j}]
            expected = heuristic_priority((i, j), on_edge, fwd, arch.distances)
            assert search.score(i, j) == expected
            assert heuristic_priority((i, j), gates, fwd, arch.distances) == expected
            checked += bool(on_edge)
        locks, t = [rng.randrange(3) for _ in range(num_physical)], 1
        for seq in search.blocked:
            found = search.forced(seq, locks, t)
            target = (gates[seq],)
            assert found == {edge: score for edge, score in swap_scores_reference(
                target, placement, locks, t, arch).items() if score > 0}
            assert search.best(found) == best_swap_reference(target, placement, locks, t, arch)
            forced += bool(found)
            ties += list(found.values()).count(max(found.values(), default=0)) > 1
    assert checked > 100
    # Forced maps are often non-empty, and some best scores are shared.
    assert forced > 50 and ties > 20


def test_candidate_map_matches_search_from_scratch_in_every_phase(monkeypatch, tune_router):
    """Each refresh in a route gives the map the search from scratch would.

    The map lasts across cycles and hears of lock changes only through the
    router's reports, the releases from its calendar, so the phases that
    follow idle cycles and idle skips over several cycles are checked too,
    under both configs, and, with a stall limit of 1, the phases that follow
    forced SWAPs.
    """
    current: list = []
    stats: dict[str, int] = {}
    refresh = _SwapSearch.refresh
    heuristic_swaps = router_module._Router._heuristic_swaps
    advance = router_module._Router._advance

    def checked_refresh(self, locks, t):
        found = refresh(self, locks, t)
        (router,) = current
        front = [router.gates[seq] for seq in sorted(router.frontier.front)]
        scores = swap_scores_reference(front, router.placement, locks, t, router.arch)
        assert found == {edge: score for edge, score in scores.items() if score > 0}
        return found

    def checked_heuristic_swaps(self):
        current[:] = [self]
        stats["phases"] += 1
        stats["after_idle"] += self.stall_counter > 0
        return heuristic_swaps(self)

    def counted_advance(self, t):
        stats["skips"] += t - self.t > 1
        advance(self, t)

    monkeypatch.setattr(_SwapSearch, "refresh", checked_refresh)
    monkeypatch.setattr(router_module._Router, "_heuristic_swaps", checked_heuristic_swaps)
    monkeypatch.setattr(router_module._Router, "_advance", counted_advance)
    ablated = RouterConfig(duration_aware=False, commutativity_on=False)
    for config, stall_limit in ((RouterConfig(), None), (ablated, None), (RouterConfig(), 1)):
        tune_router(stall_limit=stall_limit)
        stats.update(phases=0, after_idle=0, skips=0, stalls=0)
        for seed in range(4):
            rng = random.Random(seed)
            arch = preset_architecture("q20-tokyo") if seed % 2 else grid_architecture(10, 10)
            circuit = Circuit(arch.num_qubits, random_gates(rng, arch.num_qubits, 150))
            stats["stalls"] += route(circuit, arch, config=config).schedule.stall_events
        assert stats["phases"] > 40
        # Under unit durations every lock ends on the next cycle, so an idle
        # cycle frees every qubit and repeats until a gate is forced; with a
        # stall limit of 1 the first idle cycle forces one.
        assert (stats["skips"] > 0) == config.duration_aware
        assert (stats["after_idle"] > 0) == (config.duration_aware and stall_limit is None)
        assert (stats["stalls"] > 0) == (stall_limit == 1)


def test_heuristic_swaps_match_search_from_scratch(monkeypatch):
    """Every heuristic SWAP is the search from scratch over the live front.

    The reference sees the front, placement, locks and clock just before the
    SWAP launches, so the picks after the first in a cycle check the update
    of the cycle's candidates.
    """
    per_cycle: dict[tuple[object, int], int] = {}
    launch_swap = router_module._Router._launch_swap

    def checked_launch_swap(self, edge):
        if self.forced_seq is None:
            front = [self.gates[seq] for seq in sorted(self.frontier.front)]
            assert edge == best_swap_reference(front, self.placement, self.locks, self.t,
                                               self.arch)
            key = (self, self.t)
            per_cycle[key] = per_cycle.get(key, 0) + 1
        return launch_swap(self, edge)

    monkeypatch.setattr(router_module._Router, "_launch_swap", checked_launch_swap)
    for config in (RouterConfig(), RouterConfig(duration_aware=False, commutativity_on=False)):
        per_cycle.clear()
        for seed in range(4):
            rng = random.Random(seed)
            arch = preset_architecture("q20-tokyo") if seed % 2 else grid_architecture(10, 10)
            circuit = Circuit(arch.num_qubits, random_gates(rng, arch.num_qubits, 150))
            route(circuit, arch, config=config)
        # Many cycles launch several heuristic SWAPs.
        assert sum(count > 1 for count in per_cycle.values()) > 20


def test_forced_swap_matches_single_gate_search_from_scratch(monkeypatch, tune_router):
    """Every forced SWAP is the search from scratch over the forced gate alone."""
    forced = []
    forced_swap = router_module._Router._forced_swap

    def checked_forced_swap(self):
        target = self.gates[self.forced_seq]
        mapping, locks, t = self.placement.copy(), list(self.locks), self.t
        swapped = forced_swap(self)
        chosen = self.items[-1].gate.qubits if swapped else None
        assert chosen == best_swap_reference([target], mapping, locks, t, self.arch)
        if swapped:
            forced.append(len(candidate_swaps_reference([target], mapping, locks, t,
                                                        self.arch)))
        return swapped

    monkeypatch.setattr(router_module._Router, "_forced_swap", checked_forced_swap)
    tune_router(stall_limit=1)
    for seed in range(6):
        rng = random.Random(seed)
        arch = preset_architecture("q20-tokyo") if seed % 2 else grid_architecture(6, 6)
        circuit = Circuit(arch.num_qubits, random_gates(rng, arch.num_qubits, 120))
        route(circuit, arch)
    # Forced SWAPs happen, and most of them choose among several edges.
    assert forced and sum(count > 1 for count in forced) > len(forced) // 2


def test_route_matches_reference_router(tune_router):
    """Whole routes equal, byte for byte, the router rederived every cycle.

    Seeded fenced programs (barriers and terminal measures) of 50 to 120
    gates, under the default and the ablated config, half of them with a
    stall limit of 1 or 2 and a SWAP cap of 15 or 40, so that routes stall,
    force gates and run into desperate mode.
    """
    ablated = RouterConfig(duration_aware=False, commutativity_on=False)
    stalls = desperate = 0
    for device in ("grid:4x4", "grid:5x5", "q20-tokyo"):
        arch = resolve_architecture(device)
        for seed in range(8):
            rng = random.Random(seed)
            circuit = fenced_program(arch.num_qubits, rng.randint(50, 120), rng)
            for config in (RouterConfig(), ablated):
                tuning = {}
                if rng.random() < 0.5:
                    tuning = dict(stall_limit=rng.choice((1, 2)), swap_cap=rng.choice((15, 40)))
                routers = tune_router(**tuning)
                schedule = route(circuit, arch, config=config).schedule
                expected = reference_route(circuit, arch, config, **tuning)
                assert schedule.to_json() == expected.to_json(), (device, seed, config, tuning)
                stalls += schedule.stall_events
                desperate += routers[-1].desperate
    assert stalls > 0 and desperate > 0
