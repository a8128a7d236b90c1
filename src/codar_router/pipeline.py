"""One compile: validate once, build the start, route, and check dependencies.

Parsing, emitting and the statevector oracle stay with the caller: the
oracle loads numpy, which a compile does not need.
"""
from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from . import verify
from .arch import Architecture
from .circuit import Circuit
from .router import RouterConfig, RoutingResult, _check, _route, _start


@dataclass
class Compilation:
    result: RoutingResult
    equivalence: verify.EquivalenceReport
    #: Seconds per layer, keyed as the benchmark's per-layer names.
    timings: dict[str, float]


def compile_circuit(circuit: Circuit, arch: Architecture, policy: str = "identity",
                    config: RouterConfig | None = None) -> Compilation:
    """Route ``circuit`` from the ``policy`` start and dependency-check the schedule.

    Takes what :func:`~codar_router.router.initial_mapping` takes and raises
    what it and ``route`` raise; the circuit is validated once, first.
    """
    t0 = perf_counter()
    _check(circuit, arch)
    t1 = perf_counter()
    init = _start(circuit, arch, policy, config)
    t2 = perf_counter()
    result = _route(circuit, arch, init, config)
    t3 = perf_counter()
    equivalence = verify.dependency_equivalence(circuit, result.schedule)
    t4 = perf_counter()
    return Compilation(result, equivalence, {
        "qasm.validate": t1 - t0, "router.init_map": t2 - t1,
        "router.route": t3 - t2, "verify.dependency": t4 - t3})
