"""codar-router: duration-aware SWAP routing for coupling-limited devices."""

__version__ = "0.1.0"

from .arch import (
    Architecture,
    ArchitectureError,
    CouplingGraph,
    DEFAULT_DURATIONS,
    DisconnectedGraphError,
    architecture_to_config,
    grid_architecture,
    load_architecture,
    load_architecture_file,
    preset_architecture,
    resolve_architecture,
)
from .circuit import Circuit, Gate, GateKind
from .commutation import cf_front, commutes
from .qasm import Diagnostic, QasmError, emit_program, parse_file, parse_program, validate
from .router import (
    Mapping,
    RouterConfig,
    RoutingResult,
    Schedule,
    ScheduledGate,
    TooManyQubitsError,
    initial_mapping,
    rescore_true_durations,
    route,
)
from .verify import (
    EquivalenceReport,
    OracleLimitError,
    dependency_equivalence,
    statevector_oracle,
    verify_equivalence,
)

__all__ = [
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
]
