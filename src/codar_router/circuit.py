"""Gate-level circuit IR: gate kinds, gates, and ordered gate sequences."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class GateKind(Enum):
    """Supported gate vocabulary (OpenQASM 2.0 subset plus SWAP/MEASURE/BARRIER)."""

    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    U1 = "u1"
    U2 = "u2"
    U3 = "u3"
    CX = "cx"
    SWAP = "swap"
    MEASURE = "measure"
    BARRIER = "barrier"

    # Members are singletons compared by identity, so identity hashing agrees
    # with equality; it spares the Python-level ``Enum.__hash__`` in the hot
    # sets and dicts of (kind, role) entries and gate signatures.
    __hash__ = object.__hash__

    def __init__(self, value: str):
        # Plain member attributes, set once: the parser, ``validate`` and the
        # commutation keys read them for every gate.  ``arity`` is None for
        # the variadic BARRIER.
        self.arity = 2 if value in ("cx", "swap") else None if value == "barrier" else 1
        self.num_params = {"rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 2, "u3": 3}.get(value, 0)
        self.is_unitary = value not in ("measure", "barrier")


TWO_QUBIT_KINDS = frozenset({GateKind.CX, GateKind.SWAP})
# Module constants spare a ``GateKind`` class lookup per gate.
_MEASURE, _SWAP, _BARRIER = GateKind.MEASURE, GateKind.SWAP, GateKind.BARRIER


class _GateCaches:
    """Slots of the caches :meth:`Gate.signature` and the commutation keys fill."""

    __slots__ = ("_sig", "_keys")


@dataclass(frozen=True, init=False, slots=True)
class Gate(_GateCaches):
    """One gate application.

    ``qubits`` are logical indices in a source circuit and physical indices in
    a routed one.  ``cbit`` is the classical target of a MEASURE.  A MEASURE
    built without one targets the bit of its own qubit's index, fixed when
    the gate is built, so the gate keeps writing that bit when it is moved
    to other qubits.  Structural checks (arity, duplicates) live in the
    parser and in :func:`validate`, so programmatically built gates can be
    diagnosed instead of rejected.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    cbit: int | None = None
    source_line: int = 0

    def __init__(self, kind: GateKind, qubits: tuple[int, ...],
                 params: tuple[float, ...] = (), cbit: int | None = None,
                 source_line: int = 0):
        # Sets each slot through its member descriptor: the generated frozen
        # ``__init__`` pays an ``object.__setattr__`` call per field, and
        # routing builds a gate per launch.  A test checks that every field
        # is set.
        if kind is _MEASURE and cbit is None and qubits:
            cbit = qubits[0]
        _set_kind(self, kind)
        _set_qubits(self, qubits)
        _set_params(self, params)
        _set_cbit(self, cbit)
        _set_source_line(self, source_line)
        _set_sig(self, None)
        _set_keys(self, None)

    def __reduce__(self):
        # Copies and pickles rebuild through the constructor: the dataclass's
        # own pickled state holds the fields only, not the cache slots.
        return type(self), (self.kind, self.qubits, self.params, self.cbit,
                            self.source_line)

    def signature(self) -> tuple:
        """Identity key ignoring provenance; equal signatures mean the same operation.

        Operand order carries no meaning for SWAP and BARRIER, so it is
        normalized away here.  Cached: routing scans ask repeatedly.
        """
        sig = self._sig
        if sig is None:
            sig = self._signature_on(self.qubits)
            _set_sig(self, sig)
        return sig

    def _signature_on(self, qubits: tuple[int, ...]) -> tuple:
        # The signature of this gate moved to ``qubits``, without building
        # that gate: the dependency check reads each routed gate this way.
        kind = self.kind
        if kind is _SWAP or kind is _BARRIER:
            qubits = tuple(sorted(qubits))
        return (kind, qubits, self.params, self.cbit)

    def with_qubits(self, qubits: tuple[int, ...]) -> Gate:
        # The constructor, not ``dataclasses.replace``, which inspects the
        # fields on every call; a test checks that no field is left out.
        return Gate(self.kind, qubits, self.params, self.cbit, self.source_line)

    def __str__(self) -> str:
        args = ",".join(str(q) for q in self.qubits)
        if self.params:
            pars = ",".join(f"{p:g}" for p in self.params)
            return f"{self.kind.value}({pars}) {args}"
        return f"{self.kind.value} {args}"


(_set_kind, _set_qubits, _set_params, _set_cbit, _set_source_line, _set_sig,
 _set_keys) = (getattr(Gate, name).__set__ for name in (
     "kind", "qubits", "params", "cbit", "source_line", "_sig", "_keys"))


@dataclass
class Circuit:
    """Ordered gate sequence over a single quantum register.

    Gate order is program order and is semantics-bearing.
    """

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)
    register_name: str = "q"
    creg_name: str = "c"
    num_clbits: int = 0

    def add(self, kind: GateKind, *qubits: int,
            params: tuple[float, ...] = (), cbit: int | None = None) -> Circuit:
        self.gates.append(Gate(kind, tuple(qubits), tuple(params), cbit))
        return self

    # Shorthand builders, mostly for tests and corpus generation.
    def h(self, q: int) -> Circuit:
        return self.add(GateKind.H, q)

    def x(self, q: int) -> Circuit:
        return self.add(GateKind.X, q)

    def t(self, q: int) -> Circuit:
        return self.add(GateKind.T, q)

    def tdg(self, q: int) -> Circuit:
        return self.add(GateKind.TDG, q)

    def s(self, q: int) -> Circuit:
        return self.add(GateKind.S, q)

    def rz(self, q: int, theta: float) -> Circuit:
        return self.add(GateKind.RZ, q, params=(theta,))

    def u1(self, q: int, lam: float) -> Circuit:
        return self.add(GateKind.U1, q, params=(lam,))

    def cx(self, control: int, target: int) -> Circuit:
        return self.add(GateKind.CX, control, target)

    def swap(self, a: int, b: int) -> Circuit:
        return self.add(GateKind.SWAP, a, b)

    def barrier(self, *qubits: int) -> Circuit:
        qs = qubits if qubits else tuple(range(self.num_qubits))
        return self.add(GateKind.BARRIER, *qs)

    def measure(self, q: int, c: int | None = None) -> Circuit:
        c = q if c is None else c
        self.num_clbits = max(self.num_clbits, c + 1)
        return self.add(GateKind.MEASURE, q, cbit=c)

    def reversed(self) -> Circuit:
        """Same gates in reverse program order (used for reverse-pass mapping)."""
        return Circuit(self.num_qubits, list(reversed(self.gates)),
                       self.register_name, self.creg_name, self.num_clbits)

    def structurally_equal(self, other: Circuit) -> bool:
        """Equality ignoring source line numbers and register naming."""
        return (self.num_qubits == other.num_qubits
                and len(self.gates) == len(other.gates)
                and all(a.signature() == b.signature()
                        for a, b in zip(self.gates, other.gates)))

    def __len__(self) -> int:
        return len(self.gates)
