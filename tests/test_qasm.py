import importlib.util
import math
import random
import re
import sys
import time
from pathlib import Path

import pytest

from codar_router import (
    Circuit,
    Gate,
    GateKind,
    emit_program,
    parse_program,
    preset_architecture,
    route,
    validate,
)
from codar_router import qasm
from codar_router.qasm import (
    DuplicateOperandError,
    MultipleQregError,
    QasmError,
    QasmSyntaxError,
    QubitOutOfRangeError,
    UnknownGateError,
)
from codar_router.router import InvalidCircuitError


def test_single_statement_program():
    c = parse_program("OPENQASM 2.0; qreg q[4]; cx q[0],q[3];")
    assert c.num_qubits == 4
    assert [g.signature() for g in c.gates] == [(GateKind.CX, (0, 3), (), None)]


def test_t_then_cx_fragment():
    c = parse_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\nt q[2];\ncx q[0],q[3];\n')
    assert c.num_qubits == 4
    assert [(g.kind, g.qubits) for g in c.gates] == [(GateKind.T, (2,)), (GateKind.CX, (0, 3))]


def test_duplicate_operand_rejected():
    with pytest.raises(DuplicateOperandError):
        parse_program("OPENQASM 2.0; qreg q[2]; cx q[0],q[0];")


def test_unknown_gate_rejected_not_passed_through():
    with pytest.raises(UnknownGateError) as info:
        parse_program("OPENQASM 2.0; qreg q[2]; zz q[0];")
    assert info.value.gate_name == "zz"
    assert info.value.line == 1


def test_qubit_out_of_range():
    with pytest.raises(QubitOutOfRangeError):
        parse_program("OPENQASM 2.0; qreg q[2]; h q[5];")


def test_multiple_qreg_rejected():
    with pytest.raises(MultipleQregError):
        parse_program("OPENQASM 2.0; qreg q[2]; qreg r[2];")


def test_located_syntax_error():
    with pytest.raises(QasmSyntaxError) as info:
        parse_program("OPENQASM 2.0;\nqreg q[2];\nh q[0)\n")
    assert info.value.line == 3


@pytest.mark.parametrize("text", ["qreg q[2];\nh q[0];\ncx q[0],\n", "qreg q[2];\n\nh q[0]  // no ;\n"])
def test_unexpected_end_is_located_at_the_last_token(text):
    with pytest.raises(QasmSyntaxError, match="unexpected end of input") as info:
        parse_program(text)
    assert info.value.line == 3


def test_tokenizer_error_on_a_later_line_comes_first():
    # The whole text is split into tokens before any statement is parsed.
    with pytest.raises(QasmSyntaxError, match="unexpected character '\\$'") as info:
        parse_program("qreg q[2];\nh q[5];\nx q[0]; $\n")
    assert info.value.line == 3


def test_parameter_expressions():
    c = parse_program("OPENQASM 2.0; qreg q[1]; rz(pi/4) q[0]; u3(0.5,-pi,2*pi) q[0]; u1(1e-3) q[0];")
    assert c.gates[0].params == (math.pi / 4,)
    assert c.gates[1].params == (0.5, -math.pi, 2 * math.pi)
    assert c.gates[2].params == (0.001,)


@pytest.mark.parametrize("param", ["1e999", "1e999-1e999", "0.5,-1e999,0"],
                         ids=["inf", "nan", "u3-minus-inf"])
def test_non_finite_parameter_is_a_located_syntax_error(param):
    gate = "u3" if "," in param else "rz"
    with pytest.raises(QasmSyntaxError, match="not a finite number") as info:
        parse_program(f"OPENQASM 2.0;\nqreg q[1];\n{gate}({param}) q[0];\n")
    assert info.value.line == 3


@pytest.mark.parametrize("param", ["-" * 5000 + "1", "(" * 5000 + "1" + ")" * 5000],
                         ids=["signs", "parentheses"])
def test_deeply_nested_parameter_is_a_located_syntax_error(param):
    with pytest.raises(QasmSyntaxError, match="nested too deeply") as info:
        parse_program(f"OPENQASM 2.0;\nqreg q[1];\nu1({param}) q[0];\n")
    assert info.value.line == 3


def test_parameter_nested_to_the_limit_parses():
    # Parentheses and signs count alike.
    deep = qasm._MAX_NESTING - 1
    param = "(" * deep + "-1" + ")" * deep
    assert parse_program(f"qreg q[1]; u1({param}) q[0];").gates[0].params == (-1.0,)
    with pytest.raises(QasmSyntaxError, match="nested too deeply"):
        parse_program(f"qreg q[1]; u1(({param})) q[0];")


@pytest.mark.parametrize("text, message", [
    ('qreg q"["1"]";', "expected '\\[', got '\"\\[\"'"),
    ('qreg q[1]; u1("-"1) q[0];', "bad parameter token '\"-\"'"),
    ('qreg q[1]; h q[0] "a"', "expected ';', got '\"a\"'"),
])
def test_string_never_stands_in_for_punctuation(text, message):
    with pytest.raises(QasmSyntaxError, match=message):
        parse_program(text)


@pytest.mark.parametrize("text, message", [
    ("include 5;\nqreg q[1];\nh q[0];\n", "expected quoted file name after include, got '5'"),
    ("include qelib1;\nqreg q[1];\n", "expected quoted file name after include, got 'qelib1'"),
    ("OPENQASM q;\nqreg q[1];\n", "expected version number after OPENQASM, got 'q'"),
    ('OPENQASM "2.0";\nqreg q[1];\n', "expected version number after OPENQASM, got '\"2.0\"'"),
])
def test_header_statements_take_a_number_and_a_quoted_name(text, message):
    with pytest.raises(QasmSyntaxError, match=re.escape(message)) as info:
        parse_program(text)
    assert info.value.line == 1


def test_header_statements_accept_a_number_and_a_quoted_name():
    c = parse_program('OPENQASM 2.0;\nOPENQASM 2;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\n')
    assert c.gates == [Gate(GateKind.H, (0,), (), None, 5)]


def test_comment_marker_inside_a_string_belongs_to_the_string():
    c = parse_program('include "lib//qelib1.inc"; // "\nqreg q[1];\nh q[0];\n')
    assert c.gates == [Gate(GateKind.H, (0,), (), None, 3)]
    with pytest.raises(QasmSyntaxError, match="unterminated string") as info:
        parse_program('qreg q[1];\ninclude "lib;\n')
    assert info.value.line == 2


@pytest.mark.parametrize("text", ["OPENQASM 2.0;\nqreg q[1];\nu1(1/0\n\n) q[0];\n",
                                  "OPENQASM 2.0;\nqreg q[1];\nu1(1/0"])
def test_division_by_zero_is_located_at_the_division(text):
    with pytest.raises(QasmSyntaxError, match="division by zero") as info:
        parse_program(text)
    assert info.value.line == 3


def test_measure_and_barrier_forms():
    c = parse_program(
        "OPENQASM 2.0; qreg q[3]; creg c[3]; barrier q; barrier q[0],q[2]; "
        "measure q[1] -> c[2]; measure q -> c;")
    assert c.gates[0].qubits == (0, 1, 2)
    assert c.gates[1].qubits == (0, 2)
    assert (c.gates[2].qubits, c.gates[2].cbit) == ((1,), 2)
    assert [(g.qubits[0], g.cbit) for g in c.gates[3:]] == [(0, 0), (1, 1), (2, 2)]


@pytest.mark.parametrize("text, message, line", [
    ("qreg q[2];\nmeasure q[0] -> c[5];\ncreg c[2];\n", "measure before creg declaration", 3),
    ("qreg q[2];\nmeasure q -> c;\n", "measure before creg declaration", 3),
    ("qreg q[3];\ncreg c[2];\nmeasure q -> c;\n", "creg as large as the qreg", 4),
    ("qreg q[2];\ncreg c[1];\nmeasure q[1] -> c;\n", "one-qubit measure needs a bit target", 4),
    ("qreg q[2];\ncreg c[2];\nmeasure q[1] -> c;\n", "one-qubit measure needs a bit target", 4),
], ids=["bit-before-creg", "register-without-creg", "register-into-smaller-creg",
        "bit-into-register-past-the-creg", "bit-into-register"])
def test_measure_past_the_creg_is_a_located_syntax_error(text, message, line):
    # Parsed, these would emit text that does not parse back.
    with pytest.raises(QasmSyntaxError, match=message) as info:
        parse_program("OPENQASM 2.0;\n" + text)
    assert info.value.line == line


@pytest.mark.parametrize("text, message", [
    ("OPENQASM 2.0;", "no qreg declared"),
    ("OPENQASM 2.0; qreg q[x];", "expected register size"),
    ("OPENQASM 2.0; qreg q[0];", "register size must be positive"),
    ("OPENQASM 2.0; qreg q[2]; creg c[2]; measure q -> c[0];",
     "register-wide measure needs a register target"),
], ids=["no-qreg", "size-not-a-number", "size-zero", "register-into-one-bit"])
def test_register_errors_are_syntax_errors(text, message):
    with pytest.raises(QasmSyntaxError, match=message):
        parse_program(text)


def test_statement_order_preserved():
    text = "OPENQASM 2.0; qreg q[3]; h q[0]; t q[1]; cx q[1],q[2]; x q[0];"
    kinds = [g.kind for g in parse_program(text).gates]
    assert kinds == [GateKind.H, GateKind.T, GateKind.CX, GateKind.X]


def test_emit_contains_swap_and_header():
    text = emit_program(Circuit(2).swap(0, 1))
    assert "swap q[0],q[1];" in text
    assert text.startswith("// routed-by: codar-router ")


def test_emit_decomposed_swap():
    text = emit_program(Circuit(2).swap(0, 1), decompose_swap=True)
    assert "swap" not in text.replace("// routed-by", "")
    body = [line for line in text.splitlines() if line.startswith("cx")]
    assert body == ["cx q[0],q[1];", "cx q[1],q[0];", "cx q[0],q[1];"]


def test_emit_empty_circuit():
    text = emit_program(Circuit(3))
    lines = [l for l in text.splitlines() if l and not l.startswith("//")]
    assert lines == ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[3];"]


def test_roundtrip_structural_equality():
    c = Circuit(4)
    c.h(0).cx(0, 1).rz(2, 0.7853981633974483).t(3).swap(1, 2)
    c.barrier(0, 1).measure(0).measure(3, 1)
    again = parse_program(emit_program(c))
    assert again.structurally_equal(c)
    assert parse_program(emit_program(again)).structurally_equal(again)


def test_roundtrip_of_measures_built_without_a_classical_bit():
    # Each measure writes its own qubit's bit, so emit declares a register
    # large enough for the highest one.
    c = Circuit(3, [Gate(GateKind.H, (0,)), Gate(GateKind.MEASURE, (0,)),
                    Gate(GateKind.MEASURE, (2,))])
    text = emit_program(c)
    assert "creg c[3];" in text.splitlines()
    assert "measure q[2] -> c[2];" in text.splitlines()
    assert parse_program(text).structurally_equal(c)


def test_emit_full_register_barrier_and_integral_parameter():
    c = Circuit(3).rz(0, 1.0)
    c.barrier()
    lines = emit_program(c).splitlines()
    assert lines[-2:] == ["rz(1) q[0];", "barrier q;"]
    assert parse_program("\n".join(lines)).structurally_equal(c)


def test_roundtrip_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.qasm")):
        first = parse_program(path.read_text(encoding="utf-8"))
        second = parse_program(emit_program(first))
        assert second.structurally_equal(first), path.name


def test_parser_total_on_mutated_corpus(corpus_dir):
    import random

    from codar_router.qasm import QasmError

    rng = random.Random(99)
    texts = [p.read_text(encoding="utf-8") for p in sorted(corpus_dir.glob("*.qasm"))]
    junk = ";[](),->" + "qregcx" + "\x00é "
    for _ in range(400):
        text = rng.choice(texts)
        chars = list(text)
        for _ in range(rng.randint(1, 6)):
            op = rng.random()
            pos = rng.randrange(len(chars) + 1)
            if op < 0.4 and chars:
                del chars[min(pos, len(chars) - 1)]
            elif op < 0.8:
                chars.insert(pos, rng.choice(junk))
            elif chars:
                chars[min(pos, len(chars) - 1)] = rng.choice(junk)
        try:
            parse_program("".join(chars))
        except QasmError as exc:
            assert isinstance(exc.line, int)


def test_validate_ok_small_circuit():
    assert validate(Circuit(4).cx(0, 1), 20) == []


def test_validate_too_many_qubits():
    diags = validate(Circuit(36).cx(0, 1), 20)
    assert [d.code for d in diags] == ["TooManyQubits"]


def test_validate_bad_params():
    c = Circuit(2)
    c.gates.append(Gate(GateKind.RZ, (0,), ()))
    assert "BadParams" in [d.code for d in validate(c, 2)]


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_validate_non_finite_param_from_the_api(value):
    # The parser refuses these in text; a gate built in code reaches validate.
    c = Circuit(1)
    c.gates.append(Gate(GateKind.RZ, (0,), (value,)))
    assert [(d.code, d.gate_index) for d in validate(c, 4)] == [("BadParams", 0)]
    with pytest.raises(InvalidCircuitError, match="rz parameter is not a finite number"):
        route(c, preset_architecture("square4"))


def test_validate_bad_arity_and_negative_classical_bit():
    c = Circuit(2)
    c.gates.append(Gate(GateKind.CX, (0,)))
    c.gates.append(Gate(GateKind.MEASURE, (1,), cbit=-1))
    assert [(d.code, d.message, d.gate_index) for d in validate(c, 2)] == [
        ("BadArity", "cx takes 2 qubit(s), got 1", 0),
        ("BadParams", "negative classical bit", 1)]


def test_measure_outside_the_classical_register_is_refused():
    # emit_program would write creg c[1] and measure q[0] -> c[5], which
    # parse_program rejects; an unset bit stands for the qubit's own index.
    c = Circuit(2, [Gate(GateKind.H, (0,)), Gate(GateKind.MEASURE, (0,), cbit=5)],
                num_clbits=1)
    assert [(d.code, d.message, d.gate_index) for d in validate(c, 2)] == [
        ("BadParams", "classical bit 5 outside c[1]", 1)]
    with pytest.raises(InvalidCircuitError, match=re.escape("classical bit 5 outside c[1]")):
        route(c, preset_architecture("square4"))
    unset = Circuit(2, [Gate(GateKind.MEASURE, (0,)), Gate(GateKind.MEASURE, (1,))],
                    num_clbits=1)
    assert [(d.code, d.gate_index) for d in validate(unset, 2)] == [("BadParams", 1)]
    assert validate(Circuit(2, unset.gates, num_clbits=2), 2) == []


def test_validate_duplicate_and_range():
    c = Circuit(2)
    c.gates.append(Gate(GateKind.CX, (1, 1)))
    c.gates.append(Gate(GateKind.H, (5,)))
    codes = [d.code for d in validate(c, 2)]
    assert "DuplicateOperand" in codes and "QubitOutOfRange" in codes


# The fast path for common gate lines, against the general parser it skips.


def _outcome(text: str):
    """What parsing ``text`` gives: the error, or every field of the circuit."""
    try:
        c = parse_program(text)
    except QasmError as exc:
        return type(exc), str(exc), exc.line
    return (c.num_qubits, c.register_name, c.creg_name, c.num_clbits,
            [(g.kind, g.qubits, [repr(p) for p in g.params], g.cbit, g.source_line)
             for g in c.gates])


def _assert_same_both_ways(text: str, monkeypatch) -> None:
    fast = _outcome(text)
    with monkeypatch.context() as m:
        m.setattr(qasm, "_FAST_RE", re.compile("(?!)"))
        general = _outcome(text)
    assert fast == general, text


def _benchmark_programs(monkeypatch) -> list[str]:
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return [op.text for name in sorted(workloads.WORKLOADS)
            for op in workloads.make_workload(name, 1).ops]


def test_fast_path_matches_general_parser_on_corpus_and_benchmarks(corpus_dir, monkeypatch):
    texts = [p.read_text(encoding="utf-8") for p in sorted(corpus_dir.glob("*.qasm"))]
    for text in texts + _benchmark_programs(monkeypatch):
        _assert_same_both_ways(text, monkeypatch)


# Statements around the fast line's shape; on the header's q[3], a few are valid.
_STATEMENTS = [
    "h q[0];", "cx q[2],q[0];", "u1(0.25) q[1];", "u3(1, -2.5e-3, .5) q[2];",
    "rz(-0.0) q[0];", "swap q[0],q[2];", "h q[0];  // note", "  \t x q[1] ;",
    # expressions and non-finite values
    "u1(pi/4) q[1];", "rz(-pi) q[0];", "u3(0.5, 1, 2*pi) q[2];", "u1(1/0) q[0];",
    "u1(1e999) q[0];", "u1(-1e999) q[0];", "u3(1e999, 0, 0) q[1];",
    # indices and registers
    "h q[3];", "h q[99];", "cx q[1],q[1];", "cx q[0],r[1];", "h r[0];", "h q;",
    "h q[01];", "h q[\u0663];", "u1(\u0661.5) q[0];",
    # declarations and non-gate statements in gate shape
    "qreg q[2];", "qreg r[3];", "creg c[2];", "creg c[2]; measure q[0] -> c[0];",
    "measure q[0];", "barrier q[0],q[1];", "barrier q[1];",
    # statements split across lines, or two on a line
    "cx q[0],\nq[1];", "h\nq[0];", "u1(0.5\n) q[0];", "cx q[0],q[1]\n;",
    "h q[0]; h q[1];", "h q[0]//;", "cx q[0],\nh q[1];", "u1(0.5,\nh q[1];",
    "include\nx q[1];", "barrier q[0],\ncx q[1],q[2];",
    # names, arity and parameter counts
    "H q[0];", "CX q[0], q[1];", "h() q[0];", "h (0.5) q[0];", "u1 q[0];",
    "u3(1,2) q[0];", "cx q[0];", "h q[0],q[1];", "h q[1],q[1];", "hq[0];", "zz q[0];",
    # number forms
    "u1(--1) q[0];", "u1(- 1) q[0];", "u1(+1) q[0];", "u1(1.e5) q[0];",
    "u1(1e) q[0];", "u1(1.5.3) q[0];", "u1(1 2) q[0];", "u1(1,) q[0];",
    "u1(1e+2) q[0];", "u1(7E-1)q[0];",
    # whitespace and junk
    "h\u2003q[0];", "h\xa0q[ 0 ];", "h q [ 0 ] ;", "cx q[0],q[1]; // \"",
    "u3(1,\x1f2,3) q[0];", "u2(0,\x1f1) q[0];",  # float() keeps U+001F
    "x q[0]; \"", "h q[0]; $", "OPENQASM 2.0;", 'include "qelib1.inc";',
]
_JUNK = ";[](),->/\"\x00\x1f\u00e9\t q1.e-"


def _mutated_program(rng: random.Random) -> str:
    lines = [rng.choice(_STATEMENTS[:8]) for _ in range(rng.randint(2, 8))]
    for _ in range(rng.randint(1, 3)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(_STATEMENTS))
    if rng.random() < 0.5:
        i = rng.randrange(len(lines))
        chars = list(lines[i])
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(chars) + 1)
            op = rng.random()
            if op < 0.3 and chars:
                del chars[min(pos, len(chars) - 1)]
            elif op < 0.7:
                chars.insert(pos, rng.choice(_JUNK))
            elif chars:
                chars[min(pos, len(chars) - 1)] = rng.choice(_JUNK)
        lines[i] = "".join(chars)
    head = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[3];"]
    if rng.random() < 0.1:
        head.pop()  # gates before any qreg, or in a register declared later
    return "\n".join(head[rng.randrange(2):] + lines) + rng.choice(["\n", ""])


def test_fast_path_matches_general_parser_on_mutated_statements(monkeypatch):
    rng = random.Random(13)
    errors = 0
    for _ in range(3000):
        text = _mutated_program(rng)
        _assert_same_both_ways(text, monkeypatch)
        errors += isinstance(_outcome(text)[0], type)
    # Both outcomes are well represented.
    assert 300 < errors < 2700


def test_fast_line_is_one_item_and_makes_no_tokens(monkeypatch):
    text = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n"
    items = qasm._tokenize(text)
    # ``qreg q[2];`` has the shape too; the general parser takes it.
    assert [type(item) for item in items] == [qasm._Token] * 3 + [qasm._GateLine] * 2
    assert [item.line for item in items[3:]] == [2, 3]
    split: list[int] = []
    line_tokens = qasm._line_tokens

    def counting(raw, lineno):
        split.append(lineno)
        return line_tokens(raw, lineno)

    monkeypatch.setattr(qasm, "_line_tokens", counting)
    assert parse_program(text).gates == [Gate(GateKind.CX, (0, 1), (), None, 3)]
    # Line 1 while the text is split, line 2 once the parser hands it back.
    assert split == [1, 2]


_WIDE = " \t" * 50_000


@pytest.mark.parametrize("line", [
    "h q[0];", "u3(1, -2, .5) q[0];", "cx q[0], q[1]; // c", "h q", "h q[0] x",
    "u1(1, 2, 3, 4 q[0];", "cx q[0], q[1], q[2];", "u1(-1e999) q[0];",
])
def test_wide_whitespace_parses_in_linear_time(line):
    # Whitespace between every pair of tokens, and before the end.
    tokens = [m.group() for m in re.finditer(r"//.*|[A-Za-z_]\w*|[-.\w]+|\S", line)]
    text = "qreg q[2];\n" + _WIDE.join(tokens + [""])
    start = time.perf_counter()
    try:
        parse_program(text)
    except QasmError:
        pass
    # Far above the ~0.1 s this takes, far below the quadratic backtracking
    # of two adjacent whitespace quantifiers (about 100 s).
    assert time.perf_counter() - start < 10.0
