"""The package's public names, and the router helpers kept off that list."""
from __future__ import annotations

import inspect

import codar_router
import codar_router.router as router_module

EXPECTED = {
    "Architecture", "ArchitectureError", "CouplingGraph", "DEFAULT_DURATIONS",
    "DisconnectedGraphError", "all_pairs_distances", "architecture_to_config",
    "duration_of", "grid_architecture", "load_architecture", "load_architecture_file",
    "preset_architecture", "resolve_architecture",
    "Circuit", "Gate", "GateKind",
    "BASELINE_TABLE", "CommutationTable", "cf_front", "commutes", "no_predecessor_front",
    "Diagnostic", "QasmError", "emit_program", "parse_file", "parse_program", "validate",
    "Mapping", "RouterConfig", "RoutingResult", "Schedule", "ScheduledGate",
    "TooManyQubitsError", "initial_mapping", "rescore_true_durations", "route",
    "weighted_depth",
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
    # Internal helpers: off the public list, but module-level functions of
    # the router, where route looks them up at call time.
    for name in ("launch", "heuristic_priority", "candidate_swaps"):
        assert name not in codar_router.__all__
        assert not hasattr(codar_router, name)
    for name in ("route", "initial_mapping", "cf_front", "no_predecessor_front",
                 "candidate_swaps", "heuristic_priority", "launch"):
        assert inspect.isfunction(getattr(router_module, name)), name
