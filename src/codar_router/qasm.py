"""OpenQASM 2.0 frontend: a flat-program subset parser, emitter, and validator.

Supported statements: the version header, ``include`` (ignored), one ``qreg``,
an optional ``creg``, gate applications from the fixed vocabulary, ``measure``
and ``barrier``.  User-defined ``gate`` blocks, ``if`` and ``opaque`` are out
of scope; the benchmark corpus is flat gate lists.

A line of the common shape ``name(num, ...)? reg[i](, reg[j])?;`` is matched
whole by one regular expression and, at the start of a statement, becomes its
gate directly when every check passes.  Any other line, and a fast line that
fails a check or sits inside a statement, is split into tokens by one regular
expression for the general parser, which is the only source of diagnostics.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from . import __version__
from .circuit import Circuit, Gate, GateKind

EMIT_HEADER = "// routed-by: codar-router {version}"


class QasmError(ValueError):
    """Base class for located frontend errors."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class QasmSyntaxError(QasmError):
    pass


class UnknownGateError(QasmError):
    def __init__(self, name: str, line: int = 0):
        super().__init__(f"unknown gate '{name}'", line)
        self.gate_name = name


class QubitOutOfRangeError(QasmError):
    def __init__(self, index: int, size: int, line: int = 0):
        super().__init__(f"qubit index {index} out of range for register of size {size}", line)
        self.index = index


class DuplicateOperandError(QasmError):
    def __init__(self, index: int, line: int = 0):
        super().__init__(f"duplicate operand q[{index}]", line)
        self.index = index


class MultipleQregError(QasmError):
    def __init__(self, line: int = 0):
        super().__init__("only one qreg is supported", line)


_GATE_NAMES = {kind.value: kind for kind in GateKind
               if kind not in (GateKind.MEASURE, GateKind.BARRIER)}
# Per-gate reads of module constants and a plain dict, in place of ``GateKind``
# class lookups and the ``Enum.value`` property.
_QASM_NAME = {kind: kind.value for kind in GateKind}
_MEASURE, _BARRIER, _SWAP = GateKind.MEASURE, GateKind.BARRIER, GateKind.SWAP

# The whole token grammar of a line, tried at each position in this order.  A
# comment or whitespace makes no token; ``\s`` is exactly ``str.isspace``.  A
# string keeps its quotes, so it never equals punctuation, and a ``//`` inside
# it belongs to it.  Any other character is an error.
_TOKEN_RE = re.compile(r"""
    //.*|\s+
  | (?P<string>"[^"]*")
  | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>->|[\[\](),;+\-*/])
  | (?P<bad>.)
""", re.VERBOSE)

# One whole line of the common shape ``name(num, ...)? reg[i](, reg[j])?;``,
# with an optional trailing comment.  Each group ends where the tokenizer's
# token would, and no two quantifiers can split the same whitespace, so a
# match takes time linear in the line.  Only spaces and tabs count as
# whitespace here, since ``float`` does not strip every character that
# ``str.isspace`` accepts; a line with any other goes to the general parser.
_NUM = r"-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
_FAST_RE = re.compile(rf"""
    [ \t]*(?P<name>[A-Za-z_][A-Za-z0-9_]*)
    (?:[ \t]*\([ \t]*(?P<params>{_NUM}(?:[ \t]*,[ \t]*{_NUM})*)[ \t]*\)|[ \t])
    [ \t]*(?P<reg>[A-Za-z_][A-Za-z0-9_]*)[ \t]*\[[ \t]*(?P<a>\d+)[ \t]*\]
    (?:[ \t]*,[ \t]*(?P<reg2>[A-Za-z_][A-Za-z0-9_]*)[ \t]*\[[ \t]*(?P<b>\d+)[ \t]*\])?
    [ \t]*;[ \t]*(?://.*)?
""", re.VERBOSE)

# The token kinds each header statement takes as its argument, and their name.
_HEADER_ARGS = {"OPENQASM": (("float", "int"), "version number"),
                "include": (("string",), "quoted file name")}

# Unary signs and parentheses a parameter may nest before it is refused.
_MAX_NESTING = 100


class _Token(NamedTuple):
    kind: str
    text: str
    line: int


class _GateLine(NamedTuple):
    """A whole line that ``_FAST_RE`` matched, not yet split into tokens."""

    match: re.Match
    line: int


def _line_tokens(raw: str, lineno: int) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(raw):
        kind = m.lastgroup
        if kind == "bad":
            text = m.group()
            raise QasmSyntaxError("unterminated string" if text == '"'
                                  else f"unexpected character {text!r}", lineno)
        if kind is not None:
            tokens.append(_Token(kind, m.group(), lineno))
    return tokens


def _tokenize(text: str) -> list[_Token | _GateLine]:
    """Tokens of the whole text, with each fast-shaped line kept as one item.

    Every other line is split here, so a tokenizer error anywhere is raised
    before any statement is parsed.  A fast-shaped line always tokenizes.
    """
    items: list[_Token | _GateLine] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _FAST_RE.fullmatch(raw)
        if m is not None:
            items.append(_GateLine(m, lineno))
        else:
            items += _line_tokens(raw, lineno)
    return items


class _TokenStream:
    """The items of :func:`_tokenize`, a gate line split into its tokens once a
    token is asked for.  Kept reversed, so that taking an item is a pop."""

    def __init__(self, items: list[_Token | _GateLine]):
        self._items = items[::-1]
        self._last_line = items[-1].line if items else 0

    def gate_line(self) -> _GateLine | None:
        """Take the next item if it is a whole gate line."""
        items = self._items
        if items and type(items[-1]) is _GateLine:
            return items.pop()
        return None

    def put_back(self, item: _GateLine) -> None:
        """Return a gate line to the stream as its tokens."""
        self._items += reversed(_line_tokens(item.match.string, item.line))

    def peek(self) -> _Token | None:
        items = self._items
        if not items:
            return None
        if type(items[-1]) is _GateLine:
            self.put_back(items.pop())
        return items[-1]

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise QasmSyntaxError("unexpected end of input", self._last_line)
        self._items.pop()
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise QasmSyntaxError(f"expected {text!r}, got {tok.text!r}", tok.line)
        return tok

    def at(self, *texts: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text in texts


def _nest(depth: int, line: int) -> int:
    if depth >= _MAX_NESTING:
        raise QasmSyntaxError("parameter expression nested too deeply", line)
    return depth + 1


def _parse_additive(ts: _TokenStream, depth: int) -> float:
    """Arithmetic over numbers and pi with + - * / and parentheses."""
    value = _parse_multiplicative(ts, depth)
    while ts.at("+", "-"):
        op = ts.next().text
        rhs = _parse_multiplicative(ts, depth)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_multiplicative(ts: _TokenStream, depth: int) -> float:
    value = _parse_unary(ts, depth)
    while ts.at("*", "/"):
        op = ts.next()
        rhs = _parse_unary(ts, depth)
        if op.text == "*":
            value = value * rhs
        elif rhs == 0:
            raise QasmSyntaxError("division by zero in parameter", op.line)
        else:
            value = value / rhs
    return value


def _parse_unary(ts: _TokenStream, depth: int) -> float:
    if ts.at("-", "+"):
        sign = ts.next()
        value = _parse_unary(ts, _nest(depth, sign.line))
        return -value if sign.text == "-" else value
    tok = ts.next()
    if tok.kind in ("float", "int"):
        return float(tok.text)
    if tok.kind == "name" and tok.text.lower() == "pi":
        return math.pi
    if tok.text == "(":
        value = _parse_additive(ts, _nest(depth, tok.line))
        ts.expect(")")
        return value
    raise QasmSyntaxError(f"bad parameter token {tok.text!r}", tok.line)


class _Parser:
    def __init__(self, text: str):
        self.ts = _TokenStream(_tokenize(text))
        self.qreg_name: str | None = None
        self.qreg_size = 0
        self.creg_name: str | None = None
        self.creg_size = 0
        self.gates: list[Gate] = []

    def run(self) -> Circuit:
        ts, gates = self.ts, self.gates
        while True:
            line = ts.gate_line()
            if line is not None:
                gate = self._fast_gate(line)
                if gate is not None:
                    gates.append(gate)
                    continue
                ts.put_back(line)
            if ts.peek() is None:
                break
            self._statement()
        if self.qreg_name is None:
            raise QasmSyntaxError("no qreg declared", 0)
        circuit = Circuit(self.qreg_size, self.gates, self.qreg_name,
                          self.creg_name or "c", self.creg_size)
        return circuit

    def _fast_gate(self, line: _GateLine) -> Gate | None:
        """The gate on a fast line, or None to leave the line to the general parser.

        Never raises: a line is taken only when the general parser would
        accept it and build the same gate.
        """
        name, params, reg, a, reg2, b = line.match.groups()
        kind = _GATE_NAMES.get(name.lower())
        if kind is None or reg != self.qreg_name or reg2 not in (None, reg):
            return None
        qubits = (int(a),) if b is None else (int(a), int(b))
        values = () if params is None else tuple(map(float, params.split(",")))
        if (len(qubits) != kind.arity or len(set(qubits)) != len(qubits)
                or max(qubits) >= self.qreg_size
                or len(values) != kind.num_params or not all(map(math.isfinite, values))):
            return None
        return Gate(kind, qubits, values, None, line.line)

    def _statement(self) -> None:
        tok = self.ts.next()
        if tok.text == ";":
            return
        if tok.kind != "name":
            raise QasmSyntaxError(f"expected statement, got {tok.text!r}", tok.line)
        name = tok.text
        if name in _HEADER_ARGS:
            kinds, what = _HEADER_ARGS[name]
            arg = self.ts.next()
            if arg.kind not in kinds:
                raise QasmSyntaxError(f"expected {what} after {name}, got {arg.text!r}", arg.line)
            self.ts.expect(";")
        elif name in ("qreg", "creg"):
            self._register(tok.line, quantum=name == "qreg")
        elif self.qreg_name is None:
            raise QasmSyntaxError("statement before qreg declaration", tok.line)
        elif name == "measure":
            self._measure(tok.line)
        elif name == "barrier":
            self._barrier(tok.line)
        else:
            self._gate(name, tok.line)

    def _register(self, line: int, quantum: bool) -> None:
        name_tok = self.ts.next()
        if name_tok.kind != "name":
            raise QasmSyntaxError("expected register name", name_tok.line)
        self.ts.expect("[")
        size_tok = self.ts.next()
        if size_tok.kind != "int":
            raise QasmSyntaxError("expected register size", size_tok.line)
        self.ts.expect("]")
        self.ts.expect(";")
        size = int(size_tok.text)
        if size < 1:
            raise QasmSyntaxError("register size must be positive", line)
        if quantum:
            if self.qreg_name is not None:
                raise MultipleQregError(line)
            self.qreg_name, self.qreg_size = name_tok.text, size
        else:
            if self.creg_name is not None:
                raise QasmSyntaxError("only one creg is supported", line)
            self.creg_name, self.creg_size = name_tok.text, size

    def _qubit_operand(self, line: int) -> int | None:
        """One qubit ref; None means the whole register (bare name)."""
        name_tok = self.ts.next()
        if name_tok.kind != "name" or name_tok.text != self.qreg_name:
            raise QasmSyntaxError(f"expected qubit register {self.qreg_name!r}", name_tok.line)
        if not self.ts.at("["):
            return None
        self.ts.expect("[")
        idx_tok = self.ts.next()
        if idx_tok.kind != "int":
            raise QasmSyntaxError("expected qubit index", idx_tok.line)
        self.ts.expect("]")
        index = int(idx_tok.text)
        if index >= self.qreg_size:
            raise QubitOutOfRangeError(index, self.qreg_size, line)
        return index

    def _cbit_operand(self, line: int) -> int | None:
        if self.creg_name is None:
            raise QasmSyntaxError("measure before creg declaration", line)
        name_tok = self.ts.next()
        if name_tok.kind != "name" or name_tok.text != self.creg_name:
            raise QasmSyntaxError("expected classical register", name_tok.line)
        if not self.ts.at("["):
            return None
        self.ts.expect("[")
        idx_tok = self.ts.next()
        if idx_tok.kind != "int":
            raise QasmSyntaxError("expected bit index", idx_tok.line)
        self.ts.expect("]")
        index = int(idx_tok.text)
        if index >= self.creg_size:
            raise QasmSyntaxError(f"classical index {index} out of range", line)
        return index

    def _measure(self, line: int) -> None:
        q = self._qubit_operand(line)
        self.ts.expect("->")
        c = self._cbit_operand(line)
        self.ts.expect(";")
        if q is None:
            if c is not None:
                raise QasmSyntaxError("register-wide measure needs a register target", line)
            if self.creg_size < self.qreg_size:
                raise QasmSyntaxError("register-wide measure needs a creg as large as the qreg",
                                      line)
            for i in range(self.qreg_size):
                self.gates.append(Gate(GateKind.MEASURE, (i,), (), i, line))
        elif c is None:
            raise QasmSyntaxError("one-qubit measure needs a bit target", line)
        else:
            self.gates.append(Gate(GateKind.MEASURE, (q,), (), c, line))

    def _barrier(self, line: int) -> None:
        qubits: list[int] = []
        while True:
            q = self._qubit_operand(line)
            if q is None:
                qubits.extend(range(self.qreg_size))
            else:
                qubits.append(q)
            if self.ts.at(","):
                self.ts.next()
                continue
            break
        self.ts.expect(";")
        seen: set[int] = set()
        ordered = [q for q in qubits if not (q in seen or seen.add(q))]
        self.gates.append(Gate(GateKind.BARRIER, tuple(ordered), (), None, line))

    def _gate(self, name: str, line: int) -> None:
        kind = _GATE_NAMES.get(name.lower())
        if kind is None:
            raise UnknownGateError(name, line)
        params: list[float] = []
        if self.ts.at("("):
            self.ts.next()
            if not self.ts.at(")"):
                params.append(_parse_additive(self.ts, 0))
                while self.ts.at(","):
                    self.ts.next()
                    params.append(_parse_additive(self.ts, 0))
            self.ts.expect(")")
        if len(params) != kind.num_params:
            raise QasmSyntaxError(
                f"{name} takes {kind.num_params} parameter(s), got {len(params)}", line)
        if not all(map(math.isfinite, params)):
            raise QasmSyntaxError(f"{name} parameter is not a finite number", line)
        qubits: list[int] = []
        while True:
            q = self._qubit_operand(line)
            if q is None:
                raise QasmSyntaxError(f"{name} does not accept register-wide operands", line)
            qubits.append(q)
            if self.ts.at(","):
                self.ts.next()
                continue
            break
        self.ts.expect(";")
        if len(qubits) != kind.arity:
            raise QasmSyntaxError(
                f"{name} takes {kind.arity} qubit(s), got {len(qubits)}", line)
        if len(set(qubits)) != len(qubits):
            raise DuplicateOperandError(qubits[0], line)
        self.gates.append(Gate(kind, tuple(qubits), tuple(params), None, line))


def parse_program(text: str) -> Circuit:
    """Parse OpenQASM 2.0 text into a :class:`Circuit`.

    Raises a located :class:`QasmError` subclass on any malformed input;
    unknown gate names are rejected, never passed through.
    """
    return _Parser(text).run()


def parse_file(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())


def _format_param(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def emit_program(circuit: Circuit, decompose_swap: bool = False) -> str:
    """Serialize a circuit back to OpenQASM 2.0 text.

    With ``decompose_swap`` each SWAP becomes the standard three-CX ladder.
    Without it, ``parse_program(emit_program(c))`` is structurally equal to
    ``c``.
    """
    q = circuit.register_name
    c = circuit.creg_name
    lines = [
        EMIT_HEADER.format(version=__version__),
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg {q}[{circuit.num_qubits}];",
    ]
    n_clbits = circuit.num_clbits or (
        max((g.cbit for g in circuit.gates if g.cbit is not None), default=-1) + 1)
    if n_clbits > 0:
        lines.append(f"creg {c}[{n_clbits}];")
    for gate in circuit.gates:
        kind = gate.kind
        if kind is _MEASURE:
            lines.append(f"measure {q}[{gate.qubits[0]}] -> {c}[{gate.cbit}];")
        elif kind is _BARRIER:
            if set(gate.qubits) == set(range(circuit.num_qubits)):
                lines.append(f"barrier {q};")
            else:
                ops = ",".join(f"{q}[{i}]" for i in gate.qubits)
                lines.append(f"barrier {ops};")
        elif kind is _SWAP and decompose_swap:
            a, b = gate.qubits
            lines.append(f"cx {q}[{a}],{q}[{b}];")
            lines.append(f"cx {q}[{b}],{q}[{a}];")
            lines.append(f"cx {q}[{a}],{q}[{b}];")
        else:
            ops = ",".join([f"{q}[{i}]" for i in gate.qubits])
            if gate.params:
                pars = ",".join(_format_param(p) for p in gate.params)
                lines.append(f"{_QASM_NAME[kind]}({pars}) {ops};")
            else:
                lines.append(f"{_QASM_NAME[kind]} {ops};")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    gate_index: int | None = None

    def __str__(self) -> str:
        where = f" [gate {self.gate_index}]" if self.gate_index is not None else ""
        return f"{self.code}: {self.message}{where}"


def validate(circuit: Circuit, arch_qubits: int) -> list[Diagnostic]:
    """Check a circuit against per-gate invariants and an architecture size.

    Returns diagnostics instead of raising so batch tooling can keep going.
    """
    out: list[Diagnostic] = []
    if circuit.num_qubits > arch_qubits:
        out.append(Diagnostic(
            "TooManyQubits",
            f"circuit uses {circuit.num_qubits} qubits but architecture has {arch_qubits}"))
    for i, gate in enumerate(circuit.gates):
        kind = gate.kind
        arity = kind.arity
        if arity is not None and len(gate.qubits) != arity:
            out.append(Diagnostic(
                "BadArity", f"{kind.value} takes {arity} qubit(s), got {len(gate.qubits)}", i))
        if len(set(gate.qubits)) != len(gate.qubits):
            out.append(Diagnostic("DuplicateOperand", f"{gate} repeats an operand", i))
        if any(q < 0 or q >= circuit.num_qubits for q in gate.qubits):
            out.append(Diagnostic(
                "QubitOutOfRange", f"{gate} indexes outside q[{circuit.num_qubits}]", i))
        if len(gate.params) != kind.num_params:
            out.append(Diagnostic(
                "BadParams",
                f"{kind.value} takes {kind.num_params} parameter(s), got {len(gate.params)}",
                i))
        if not all(map(math.isfinite, gate.params)):
            out.append(Diagnostic(
                "BadParams", f"{kind.value} parameter is not a finite number", i))
        if kind is _MEASURE and gate.cbit is not None:
            if gate.cbit < 0:
                out.append(Diagnostic("BadParams", "negative classical bit", i))
            elif circuit.num_clbits and gate.cbit >= circuit.num_clbits:
                out.append(Diagnostic(
                    "BadParams",
                    f"classical bit {gate.cbit} outside {circuit.creg_name}[{circuit.num_clbits}]",
                    i))
    return out
