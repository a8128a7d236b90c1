"""The package's public names, its settings, and the helpers kept off that list."""
from __future__ import annotations

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import codar_router
import codar_router.router as router_module
import codar_router.verify as verify_module
from codar_router.pipeline import compile_circuit

EXPECTED = {
    "Architecture", "ArchitectureError", "CouplingGraph", "DEFAULT_DURATIONS",
    "DisconnectedGraphError", "architecture_to_config", "grid_architecture",
    "load_architecture", "load_architecture_file", "preset_architecture",
    "resolve_architecture",
    "Circuit", "Gate", "GateKind",
    "cf_front", "commutes",
    "Diagnostic", "QasmError", "emit_program", "parse_file", "parse_program", "validate",
    "Mapping", "RouterConfig", "RoutingResult", "Schedule", "ScheduledGate",
    "TooManyQubitsError", "initial_mapping", "rescore_true_durations", "route",
    "EquivalenceReport", "OracleLimitError", "dependency_equivalence",
    "statevector_oracle", "verify_equivalence",
    "__version__",
}


def test_public_surface_is_pinned():
    assert sorted(codar_router.__all__) == sorted(EXPECTED)
    for name in EXPECTED:
        getattr(codar_router, name)
    assert not hasattr(codar_router, "Router")
    assert not hasattr(router_module, "Router")


def test_router_helpers_stay_module_level_functions():
    # launch is an internal helper: off the public list, but a module-level
    # function of the router, where route looks it up at call time.  The SWAP
    # search is _SwapSearch alone; its from-scratch form lives in the tests.
    assert "launch" not in codar_router.__all__
    assert not hasattr(codar_router, "launch")
    for name in ("route", "initial_mapping", "launch"):
        assert inspect.isfunction(getattr(router_module, name)), name
    for name in ("candidate_swaps", "heuristic_priority"):
        assert not hasattr(router_module, name), name


def test_verify_equivalence_looks_up_its_checks_at_call_time(monkeypatch):
    # The benchmark times the verifier's two checks by wrapping these
    # module-level functions by name, so verify_equivalence must reach them
    # through the module, not through references bound at import.
    calls = []
    for name in ("dependency_equivalence", "statevector_oracle"):
        check = getattr(verify_module, name)
        assert inspect.isfunction(check), name

        def wrapped(original, schedule, _check=check, _name=name):
            calls.append(_name)
            return _check(original, schedule)

        monkeypatch.setattr(verify_module, name, wrapped)
    circuit = codar_router.Circuit(3).h(0).cx(0, 2).t(2)
    schedule = codar_router.route(circuit, codar_router.preset_architecture("square4")).schedule
    assert verify_module.verify_equivalence(circuit, schedule).ok
    assert calls == ["dependency_equivalence", "statevector_oracle"]


def test_settings_are_pinned():
    # Each field and parameter is a value a caller can set.  A new one needs a
    # caller outside the tests that sets it to something other than the default.
    cr = codar_router
    assert [f.name for f in dataclasses.fields(cr.RouterConfig)] == [
        "duration_aware", "commutativity_on"]
    expected = {
        cr.route: ["circuit", "arch", "init", "config"],
        cr.initial_mapping: ["circuit", "arch", "policy", "config"],
        compile_circuit: ["circuit", "arch", "policy", "config"],
        cr.verify_equivalence: ["original", "schedule"],
        cr.dependency_equivalence: ["original", "schedule"],
        cr.statevector_oracle: ["original", "schedule"],
        cr.emit_program: ["circuit", "decompose_swap"],
        cr.cf_front: ["gates"],
        cr.commutes: ["a", "b"],
        cr.grid_architecture: ["rows", "cols"],
    }
    for fn, names in expected.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__qualname__


def test_sources_parse_at_the_declared_python_floor():
    # ``requires-python`` is a promise the test interpreter, which may be
    # newer, cannot check by running: parse every module with the floor's
    # grammar instead.
    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text()
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    sources = sorted((root / "src" / "codar_router").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
