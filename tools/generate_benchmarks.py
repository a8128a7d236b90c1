#!/usr/bin/env python3
"""Regenerate the bundled benchmark corpus (src/codar_router/benchmarks).

Plain string emission on purpose: corpus files are package inputs, not router
output, so they carry no tool header and stay byte-stable under reruns.
"""
from __future__ import annotations

import random
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "src" / "codar_router" / "benchmarks"


def program(n_qubits: int, lines: list[str], n_clbits: int = 0) -> str:
    head = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n_qubits}];"]
    if n_clbits:
        head.append(f"creg c[{n_clbits}];")
    return "\n".join(head + lines) + "\n"


def cu1(lam: float, c: int, t: int) -> list[str]:
    return [
        f"u1({lam / 2!r}) q[{c}];",
        f"cx q[{c}],q[{t}];",
        f"u1({-lam / 2!r}) q[{t}];",
        f"cx q[{c}],q[{t}];",
        f"u1({lam / 2!r}) q[{t}];",
    ]


def qft(n: int) -> str:
    lines: list[str] = []
    for i in range(n):
        lines.append(f"h q[{i}];")
        for j in range(i + 1, n):
            lines += cu1(3.141592653589793 / 2 ** (j - i), j, i)
    return program(n, lines)


def ghz(n: int) -> str:
    lines = ["h q[0];"]
    lines += [f"cx q[{i}],q[{i + 1}];" for i in range(n - 1)]
    lines += [f"measure q[{i}] -> c[{i}];" for i in range(n)]
    return program(n, lines, n)


def ccx(a: int, b: int, c: int) -> list[str]:
    return [
        f"h q[{c}];",
        f"cx q[{b}],q[{c}];",
        f"tdg q[{c}];",
        f"cx q[{a}],q[{c}];",
        f"t q[{c}];",
        f"cx q[{b}],q[{c}];",
        f"tdg q[{c}];",
        f"cx q[{a}],q[{c}];",
        f"t q[{b}];",
        f"t q[{c}];",
        f"h q[{c}];",
        f"cx q[{a}],q[{b}];",
        f"t q[{a}];",
        f"tdg q[{b}];",
        f"cx q[{a}],q[{b}];",
    ]


def adder(bits: int, a_val: int, b_val: int) -> str:
    """Ripple-carry adder, b += a; qubits: [cin, a0, b0, a1, b1, ..., cout]."""
    def qa(i):
        return 1 + 2 * i

    def qb(i):
        return 2 + 2 * i

    cin, cout = 0, 1 + 2 * bits
    n = 2 * bits + 2
    lines = []
    for i in range(bits):
        if (a_val >> i) & 1:
            lines.append(f"x q[{qa(i)}];")
        if (b_val >> i) & 1:
            lines.append(f"x q[{qb(i)}];")

    def maj(c, b, a):
        return [f"cx q[{a}],q[{b}];", f"cx q[{a}],q[{c}];"] + ccx(c, b, a)

    def uma(c, b, a):
        return ccx(c, b, a) + [f"cx q[{a}],q[{c}];", f"cx q[{c}],q[{b}];"]

    chain = [cin] + [qa(i) for i in range(bits)]
    for i in range(bits):
        lines += maj(chain[i], qb(i), qa(i))
    lines.append(f"cx q[{qa(bits - 1)}],q[{cout}];")
    for i in reversed(range(bits)):
        lines += uma(chain[i], qb(i), qa(i))
    lines += [f"measure q[{qb(i)}] -> c[{i}];" for i in range(bits)]
    lines.append(f"measure q[{cout}] -> c[{bits}];")
    return program(n, lines, bits + 1)


def bernstein_vazirani(n_data: int, secret: int) -> str:
    anc = n_data
    lines = [f"x q[{anc}];", f"h q[{anc}];"]
    lines += [f"h q[{i}];" for i in range(n_data)]
    lines += [f"cx q[{i}],q[{anc}];" for i in range(n_data) if (secret >> i) & 1]
    lines += [f"h q[{i}];" for i in range(n_data)]
    lines += [f"measure q[{i}] -> c[{i}];" for i in range(n_data)]
    return program(n_data + 1, lines, n_data)


def random_cx(n: int, n_gates: int, seed: int) -> str:
    rng = random.Random(seed)
    lines = []
    for _ in range(n_gates):
        if rng.random() < 0.78:
            a, b = rng.sample(range(n), 2)
            lines.append(f"cx q[{a}],q[{b}];")
        else:
            kind = rng.choice(["h", "t", "tdg", "x", "s"])
            lines.append(f"{kind} q[{rng.randrange(n)}];")
    return program(n, lines)


def random_mixed(n: int, n_gates: int, seed: int) -> str:
    rng = random.Random(seed)
    lines = []
    for _ in range(n_gates):
        pick = rng.random()
        if pick < 0.45:
            a, b = rng.sample(range(n), 2)
            lines.append(f"cx q[{a}],q[{b}];")
        elif pick < 0.7:
            lines.append(f"rz({rng.uniform(0.1, 3.0)!r}) q[{rng.randrange(n)}];")
        else:
            kind = rng.choice(["h", "t", "x", "y", "sdg"])
            lines.append(f"{kind} q[{rng.randrange(n)}];")
    return program(n, lines)


def corpus_files() -> dict[str, str]:
    """File name to text of every program in the bundled corpus."""
    return {
        "qft_4.qasm": qft(4),
        "qft_8.qasm": qft(8),
        "ghz_4.qasm": ghz(4),
        "ghz_8.qasm": ghz(8),
        "ghz_10.qasm": ghz(10),
        "adder_2bit.qasm": adder(2, 3, 1),
        "adder_4bit.qasm": adder(4, 11, 5),
        "bv_6.qasm": bernstein_vazirani(6, 0b101101),
        "random_cx_8.qasm": random_cx(8, 60, 80081),
        "random_cx_12.qasm": random_cx(12, 90, 80122),
        "random_cx_16.qasm": random_cx(16, 120, 80163),
        "random_mixed_6.qasm": random_mixed(6, 50, 80064),
    }


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for name, text in corpus_files().items():
        (OUT / name).write_text(text, encoding="utf-8")
        print(f"wrote {name} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main()
