import math

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
from codar_router.qasm import (
    DuplicateOperandError,
    MultipleQregError,
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
], ids=["bit-before-creg", "register-without-creg", "register-into-smaller-creg"])
def test_measure_past_the_creg_is_a_located_syntax_error(text, message, line):
    # Parsed, these would emit text that does not parse back.
    with pytest.raises(QasmSyntaxError, match=message) as info:
        parse_program("OPENQASM 2.0;\n" + text)
    assert info.value.line == line


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


def test_validate_duplicate_and_range():
    c = Circuit(2)
    c.gates.append(Gate(GateKind.CX, (1, 1)))
    c.gates.append(Gate(GateKind.H, (5,)))
    codes = [d.code for d in validate(c, 2)]
    assert "DuplicateOperand" in codes and "QubitOutOfRange" in codes
