"""Output checks computed apart from the router.

Every routed schedule is checked against the device description and the
source program with code written here, not with the router's own verifier:

- each two-qubit gate sits on a coupling edge of the device;
- each gate's durations match the device's duration table;
- no two gates overlap in time on a physical qubit (the lock property);
- ``weighted_depth`` is the latest gate end and at least every physical
  qubit's total busy time;
- replaying the inserted SWAPs from the initial mapping gives every logical
  qubit the source's gate sequence, up to exchanges of adjacent gates that
  commute by :func:`commute_on`;
- for programs of at most ``SIM_QUBIT_LIMIT`` qubits, a statevector
  simulation of source and replayed schedule agrees up to global phase.

Each check returns a list of problems; an empty list means it passed.
"""
from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from workloads import CONFIG_DIR

SIM_QUBIT_LIMIT = 10

# Duration table of ``grid:RxC`` devices, which have no config file.
GRID_DURATIONS = {
    **{k: 1 for k in ("h", "x", "y", "z", "s", "sdg", "t", "tdg",
                      "rx", "ry", "rz", "u1", "u2", "u3", "measure")},
    "cx": 2, "swap": 6, "barrier": 0,
}


@dataclass(frozen=True)
class Device:
    num_qubits: int
    edges: frozenset[tuple[int, int]]
    durations: dict[str, int]


def load_device(spec: str) -> Device:
    if spec.startswith("grid:"):
        rows, cols = (int(x) for x in spec[5:].split("x"))
        edges = set()
        for r in range(rows):
            for c in range(cols):
                q = r * cols + c
                if c + 1 < cols:
                    edges.add((q, q + 1))
                if r + 1 < rows:
                    edges.add((q, q + cols))
        return Device(rows * cols, frozenset(edges), dict(GRID_DURATIONS))
    config = json.loads((CONFIG_DIR / f"{spec}.json").read_text(encoding="utf-8"))
    edges = frozenset((min(a, b), max(a, b)) for a, b in config["edges"])
    return Device(int(config["num_qubits"]), edges, dict(config["durations"]))


# --- source programs ---------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """A gate as plain data: kind name, qubits, parameters, classical bit."""

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    cbit: int | None = None


_GATE_RE = re.compile(r"^([a-z][a-z0-9]*)(?:\(([^)]*)\))?\s+(.*);$")
_QUBIT_RE = re.compile(r"q\[(\d+)\]")


def read_source(text: str) -> list[Op]:
    """Gate list of a flat OpenQASM 2.0 program with literal parameters."""
    ops = []
    for raw in text.splitlines():
        line = raw.split("//", 1)[0].strip()
        if not line or line.startswith(("OPENQASM", "include", "qreg", "creg")):
            continue
        if line.startswith("measure"):
            qubit, cbit = re.match(r"measure q\[(\d+)\] -> c\[(\d+)\];$", line).groups()
            ops.append(Op("measure", (int(qubit),), (), int(cbit)))
            continue
        match = _GATE_RE.match(line)
        if match is None:
            raise ValueError(f"unreadable source line {raw!r}")
        kind, params, operands = match.groups()
        values = tuple(float(p) for p in params.split(",")) if params else ()
        ops.append(Op(kind, tuple(int(q) for q in _QUBIT_RE.findall(operands)), values))
    return ops


def schedule_ops(items) -> list[tuple[Op, int, int, int, bool]]:
    """(gate, start, duration, true_duration, inserted) for each scheduled item."""
    return [(Op(it.gate.kind.value, tuple(it.gate.qubits), tuple(it.gate.params), it.gate.cbit),
             it.start, it.duration, it.true_duration, it.inserted) for it in items]


# --- schedule checks ---------------------------------------------------------

def check_edges(items, device: Device) -> list[str]:
    return [f"{op.kind} on {op.qubits} at {start} is not on a device edge"
            for op, start, _, _, _ in items
            if len(op.qubits) == 2 and (min(op.qubits), max(op.qubits)) not in device.edges]


def check_durations(items, device: Device, duration_aware: bool) -> list[str]:
    problems = []
    for op, start, dur, true_dur, _ in items:
        want = device.durations[op.kind]
        if true_dur != want or dur != (want if duration_aware else 1):
            problems.append(f"{op.kind} at {start} lasts {dur}/{true_dur}, device says {want}")
    return problems


def check_locks(items) -> list[str]:
    by_qubit: dict[int, list[tuple[int, int]]] = {}
    for op, start, dur, _, _ in items:
        for q in op.qubits:
            by_qubit.setdefault(q, []).append((start, start + dur))
    problems = []
    for q, spans in by_qubit.items():
        spans.sort()
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            if s1 < e0:
                problems.append(f"qubit {q}: [{s0},{e0}) overlaps [{s1},{e1})")
    return problems


def check_depth(items, weighted_depth: int) -> list[str]:
    latest = max((start + dur for _, start, dur, _, _ in items), default=0)
    problems = []
    if weighted_depth != latest:
        problems.append(f"weighted_depth {weighted_depth} != latest gate end {latest}")
    busy: dict[int, int] = {}
    for op, _, dur, _, _ in items:
        for q in op.qubits:
            busy[q] = busy.get(q, 0) + dur
    for q, total in busy.items():
        if total > weighted_depth:
            problems.append(f"qubit {q} is busy {total} cycles, more than depth {weighted_depth}")
    return problems


# --- logical replay ----------------------------------------------------------

_DIAGONAL = {("z", 0), ("s", 0), ("sdg", 0), ("t", 0), ("tdg", 0), ("rz", 0), ("u1", 0),
             ("cx", 0)}
_X_FAMILY = {("x", 0), ("rx", 0), ("cx", 1)}
_Y_FAMILY = {("y", 0), ("ry", 0)}


def commute_on(a: Op, b: Op, q: int) -> bool:
    """Do ``a`` and ``b``, both acting on qubit ``q``, commute there?

    The rule: identical gates commute; so do two gates whose slots on ``q``
    are both diagonal (z, s, sdg, t, tdg, rz, u1, cx control), both in the X
    family (x, rx, cx target) or both in the Y family (y, ry).  Measure and
    barrier commute only with an identical gate.
    """
    if a == b:
        return True
    slot_a = (a.kind, a.qubits.index(q))
    slot_b = (b.kind, b.qubits.index(q))
    return any(slot_a in fam and slot_b in fam for fam in (_DIAGONAL, _X_FAMILY, _Y_FAMILY))


def replay(items, init: list[int], num_physical: int) -> tuple[list[Op], list[int], list[str]]:
    """Map a schedule back to logical qubits, applying inserted SWAPs as relocations.

    Returns the logical gate list, the final logical-to-physical map and any
    gate that landed on a physical qubit holding no logical qubit.
    """
    occupant = [-1] * num_physical
    for logical, phys in enumerate(init):
        occupant[phys] = logical
    gates, problems = [], []
    for op, start, _, _, inserted in items:
        if inserted:
            if op.kind != "swap":
                problems.append(f"inserted {op.kind} at {start}")
                continue
            i, j = op.qubits
            occupant[i], occupant[j] = occupant[j], occupant[i]
            continue
        logical = tuple(occupant[q] for q in op.qubits)
        if -1 in logical:
            problems.append(f"{op.kind} on {op.qubits} at {start} touches an empty qubit")
            continue
        gates.append(Op(op.kind, logical, op.params, op.cbit))
    final = [-1] * len(init)
    for phys, logical in enumerate(occupant):
        if logical >= 0:
            final[logical] = phys
    return gates, final, problems


def check_sequences(source: list[Op], routed: list[Op], num_qubits: int) -> list[str]:
    """Is each qubit's routed gate sequence its source sequence up to commuting exchanges?

    Per qubit, each routed gate must match the earliest remaining equal source
    gate that every remaining source gate before it commutes with.  Passing on
    every qubit means the routed program is a commuting reordering of the
    source, because any two gates that do not commute fail to commute on a
    qubit they share and keep their order in that qubit's sequence.
    """
    problems = []
    for q in range(num_qubits):
        remaining = [op for op in source if q in op.qubits]
        for k, op in enumerate(g for g in routed if q in g.qubits):
            for idx, cand in enumerate(remaining):
                if cand == op:
                    del remaining[idx]
                    break
                if not commute_on(cand, op, q):
                    problems.append(f"qubit {q}: routed gate {k} ({op.kind} {op.qubits}) "
                                    f"passes non-commuting {cand.kind} {cand.qubits}")
                    break
            else:
                problems.append(f"qubit {q}: routed gate {k} ({op.kind} {op.qubits}) "
                                f"is not in the source")
            if problems:
                return problems
        if remaining:
            return [f"qubit {q}: {len(remaining)} source gates missing from the schedule"]
    return problems


# --- statevector simulation --------------------------------------------------

_S2 = 1 / math.sqrt(2)


def _matrix(op: Op) -> np.ndarray:
    p = op.params
    fixed = {
        "h": [[_S2, _S2], [_S2, -_S2]],
        "x": [[0, 1], [1, 0]],
        "y": [[0, -1j], [1j, 0]],
        "z": [[1, 0], [0, -1]],
        "s": [[1, 0], [0, 1j]],
        "sdg": [[1, 0], [0, -1j]],
        "t": [[1, 0], [0, cmath.exp(1j * math.pi / 4)]],
        "tdg": [[1, 0], [0, cmath.exp(-1j * math.pi / 4)]],
        "cx": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        "swap": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    }
    if op.kind in fixed:
        return np.array(fixed[op.kind], dtype=complex)
    if op.kind == "u1":
        return np.diag([1, cmath.exp(1j * p[0])])
    if op.kind == "rz":
        return np.diag([cmath.exp(-0.5j * p[0]), cmath.exp(0.5j * p[0])])
    if op.kind == "rx":
        c, s = math.cos(p[0] / 2), math.sin(p[0] / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if op.kind == "ry":
        c, s = math.cos(p[0] / 2), math.sin(p[0] / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if op.kind in ("u2", "u3"):
        theta, phi, lam = (math.pi / 2, *p) if op.kind == "u2" else p
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -cmath.exp(1j * lam) * s],
                         [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]])
    raise ValueError(f"no matrix for {op.kind}")


def simulate(ops: list[Op], state: np.ndarray) -> np.ndarray:
    """Apply ``ops`` to a state tensor of shape (2,)*n; measures are skipped."""
    for op in ops:
        if op.kind in ("measure", "barrier"):
            continue
        k = len(op.qubits)
        mat = _matrix(op).reshape((2,) * (2 * k))
        state = np.tensordot(mat, state, axes=(list(range(k, 2 * k)), list(op.qubits)))
        state = np.moveaxis(state, list(range(k)), list(op.qubits))
    return state


def check_statevector(source: list[Op], routed: list[Op], num_qubits: int) -> list[str]:
    """Source and routed programs map one random input state to the same output.

    A random input, not |0...0>, so gates that act trivially on the zero state
    still count.  Measurements must be terminal and are skipped on both sides.
    """
    rng = np.random.default_rng(0)
    start = rng.normal(size=(2,) * num_qubits) + 1j * rng.normal(size=(2,) * num_qubits)
    start /= np.linalg.norm(start)
    a = simulate(source, start).reshape(-1)
    b = simulate(routed, start).reshape(-1)
    overlap = abs(np.vdot(a, b))
    if overlap < 1 - 1e-9:
        return [f"statevectors differ: |<source|routed>| = {overlap:.12f}"]
    return []


def check_schedule(schedule, device: Device, source: list[Op], num_qubits: int,
                   duration_aware: bool) -> list[str]:
    """Every check on one routed schedule; an empty list means it passed."""
    items = schedule_ops(schedule.items)
    problems = (check_edges(items, device)
                + check_durations(items, device, duration_aware)
                + check_locks(items)
                + check_depth(items, schedule.weighted_depth))
    logical, final, replay_problems = replay(
        items, list(schedule.initial_mapping.forward), device.num_qubits)
    problems += replay_problems
    if final != list(schedule.final_mapping.forward):
        problems.append("replayed SWAPs do not give the reported final mapping")
    problems += check_sequences(source, logical, num_qubits)
    if num_qubits <= SIM_QUBIT_LIMIT and not problems:
        problems += check_statevector(source, logical, num_qubits)
    return problems
