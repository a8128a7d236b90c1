"""Seeded benchmark inputs: OpenQASM programs paired with the device they run on.

One operation is one program compiled on one device.  A workload is a fixed
list of operations (one *pass*); the same seed always gives the same list.
Programs are handed to the router as OpenQASM text, so every compile starts
from the parser and shares no gate objects with earlier compiles.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "src" / "codar_router" / "benchmarks"
CONFIG_DIR = ROOT / "src" / "codar_router" / "configs"

DEFAULT_SEED = 1

ONE_QUBIT = ("h", "x", "z", "s", "sdg", "t", "tdg")
ROTATIONS = ("rz", "u1")


@dataclass(frozen=True)
class Op:
    """One program on one device, with the policy it is compiled under.

    ``init`` is the initial-mapping policy.  ``ablated`` also routes the
    duration-unaware, commutativity-off baseline from the same placement,
    as ``codar-router bench`` does.
    """

    name: str
    device: str
    text: str
    init: str = "identity"
    ablated: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    devices: tuple[str, ...]
    ops: tuple[Op, ...]


def _program(num_qubits: int, lines: list[str], num_clbits: int = 0) -> str:
    head = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{num_qubits}];"]
    if num_clbits:
        head.append(f"creg c[{num_clbits}];")
    return "\n".join(head + lines) + "\n"


def random_program(num_qubits: int, num_gates: int, rng: random.Random) -> str:
    """Random program: exactly half CX on random pairs, the rest one-qubit gates.

    A fixed CX count, in random positions, keeps the routing work of programs
    of one size closer together than drawing each gate's kind would.
    """
    kinds = ["cx"] * (num_gates // 2) + [""] * (num_gates - num_gates // 2)
    rng.shuffle(kinds)
    lines = []
    for kind in kinds:
        if kind == "cx":
            a, b = rng.sample(range(num_qubits), 2)
            lines.append(f"cx q[{a}],q[{b}];")
            continue
        q = rng.randrange(num_qubits)
        kind = rng.choice(ONE_QUBIT + ROTATIONS)
        if kind in ROTATIONS:
            lines.append(f"{kind}({rng.uniform(0.1, 3.0)!r}) q[{q}];")
        else:
            lines.append(f"{kind} q[{q}];")
    return _program(num_qubits, lines)


def qft_program(num_qubits: int, rng: random.Random) -> str:
    """QFT with each controlled phase as u1/cx/u1/cx/u1, as the bundled corpus writes it.

    The gate structure is fixed by the qubit count.  The seed draws a small
    offset on every controlled-phase angle, so the program text differs per
    seed while routing sees the same dependency structure.
    """
    lines = []
    for i in range(num_qubits):
        lines.append(f"h q[{i}];")
        for j in range(i + 1, num_qubits):
            lam = math.pi / 2 ** (j - i) + rng.uniform(-1e-3, 1e-3)
            lines += [
                f"u1({lam / 2!r}) q[{j}];",
                f"cx q[{j}],q[{i}];",
                f"u1({-lam / 2!r}) q[{i}];",
                f"cx q[{j}],q[{i}];",
                f"u1({lam / 2!r}) q[{i}];",
            ]
    return _program(num_qubits, lines)


def device_qubits(device: str) -> int:
    if device.startswith("grid:"):
        rows, cols = device[5:].split("x")
        return int(rows) * int(cols)
    return int(json.loads((CONFIG_DIR / f"{device}.json").read_text())["num_qubits"])


def _qreg_size(text: str) -> int:
    for line in text.splitlines():
        if line.startswith("qreg "):
            return int(line[line.index("[") + 1:line.index("]")])
    raise ValueError("program has no qreg")


CORPUS_DEVICES = ("q16-melbourne", "q20-tokyo", "q54-sycamore")


def corpus(seed: int) -> Workload:
    """The bundled corpus on the paper's devices; the seed only shuffles order.

    Programs wider than a device are left out, as ``codar-router bench``
    skips them (``random_cx_16`` on the 15-qubit ``q16-melbourne``).
    """
    files = sorted(CORPUS_DIR.glob("*.qasm"))
    if not files:
        raise FileNotFoundError(f"no corpus programs under {CORPUS_DIR}")
    ops = []
    for device in CORPUS_DEVICES:
        width = device_qubits(device)
        for path in files:
            text = path.read_text(encoding="utf-8")
            if _qreg_size(text) <= width:
                ops.append(Op(f"{path.stem}@{device}", device, text,
                              init="reverse_pass", ablated=True))
    random.Random(seed).shuffle(ops)
    return Workload("corpus", CORPUS_DEVICES, tuple(ops))


def random_q20(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = tuple(Op(f"random{n}@q20-tokyo", "q20-tokyo", random_program(20, n, rng))
                for n in (1000, 1150, 1300, 1450))
    return Workload("random-q20", ("q20-tokyo",), ops)


def qft_q54(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = tuple(Op(f"qft{n}@q54-sycamore", "q54-sycamore", qft_program(n, rng))
                for n in (24, 27))
    return Workload("qft-q54", ("q54-sycamore",), ops)


def random_grid(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = tuple(Op(f"random500.{k}@grid:10x10", "grid:10x10", random_program(100, 500, rng))
                for k in range(16))
    return Workload("random-grid", ("grid:10x10",), ops)


WORKLOADS = {
    "corpus": corpus,
    "random-q20": random_q20,
    "qft-q54": qft_q54,
    "random-grid": random_grid,
}


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
