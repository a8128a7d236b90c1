"""Device model: coupling graph, per-kind gate durations, hop-distance matrix.

Couplings are undirected (symmetric superconducting model); distances are
unweighted BFS hop counts.  Durations enter scheduling through qubit locks,
not through the distance matrix.
"""
from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from importlib import resources

from .circuit import GateKind

# Single-qubit kinds run in one cycle, two-qubit in two, and a SWAP costs as
# much as its three-CX decomposition.  BARRIER is a pure scheduling fence.
DEFAULT_DURATIONS: dict[GateKind, int] = {
    **{k: 1 for k in GateKind if k.arity == 1},
    GateKind.CX: 2,
    GateKind.SWAP: 6,
    GateKind.MEASURE: 1,
    GateKind.BARRIER: 0,
}


class ArchitectureError(ValueError):
    pass


class BadEdgeError(ArchitectureError):
    def __init__(self, i: int, j: int):
        super().__init__(f"bad coupling edge ({i}, {j})")
        self.edge = (i, j)


class DisconnectedGraphError(ArchitectureError):
    pass


class MissingDurationError(ArchitectureError):
    def __init__(self, kind: GateKind):
        super().__init__(f"no duration configured for {kind.value}")
        self.kind = kind


class NonPositiveDurationError(ArchitectureError):
    def __init__(self, kind: GateKind, value):
        super().__init__(f"duration for {kind.value} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected coupling graph over physical qubits."""

    num_qubits: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_edges(num_qubits: int, edges) -> CouplingGraph:
        normalized = set()
        for i, j in edges:
            if i == j or min(i, j) < 0 or max(i, j) >= num_qubits:
                raise BadEdgeError(i, j)
            normalized.add((min(i, j), max(i, j)))
        return CouplingGraph(num_qubits, frozenset(normalized))

    def adjacency(self) -> list[list[int]]:
        cached = getattr(self, "_adj", None)
        if cached is None:
            adj: list[list[int]] = [[] for _ in range(self.num_qubits)]
            for i, j in self.edges:
                adj[i].append(j)
                adj[j].append(i)
            cached = [sorted(n) for n in adj]
            object.__setattr__(self, "_adj", cached)
        return cached

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


def all_pairs_distances(graph: CouplingGraph) -> list[list[int]]:
    """BFS hop distances between every physical qubit pair.

    Raises :class:`DisconnectedGraphError` when any pair is unreachable.  The
    graph is undirected, so it is connected exactly when qubit 0 reaches every
    qubit; that is decided, by the edge count and then by the first BFS,
    before any other row is built.
    """
    n = graph.num_qubits
    if len(graph.edges) < n - 1:
        raise DisconnectedGraphError("qubit 0 cannot reach the whole device")
    adj = graph.adjacency()
    dist = []
    for src in range(n):
        row = [-1] * n
        row[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
        if not dist and -1 in row:
            raise DisconnectedGraphError("qubit 0 cannot reach the whole device")
        dist.append(row)
    return dist


@dataclass(frozen=True)
class Architecture:
    """Static device description shared by all routing jobs."""

    name: str
    graph: CouplingGraph
    durations: dict[GateKind, int]
    distances: list[list[int]]

    @property
    def num_qubits(self) -> int:
        return self.graph.num_qubits

    @property
    def diameter(self) -> int:
        return max(max(row) for row in self.distances)


def duration_of(arch: Architecture, kind: GateKind) -> int:
    """Configured cycle count for one gate kind."""
    try:
        return arch.durations[kind]
    except KeyError:
        raise MissingDurationError(kind) from None


def _check_durations(durations: dict[GateKind, int]) -> dict[GateKind, int]:
    for kind, value in durations.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0 \
                or (value == 0 and kind is not GateKind.BARRIER):
            raise NonPositiveDurationError(kind, value)
    if GateKind.SWAP not in durations:
        raise MissingDurationError(GateKind.SWAP)
    return dict(durations)


def _build(name: str, graph: CouplingGraph, durations: dict[GateKind, int]) -> Architecture:
    distances = all_pairs_distances(graph)
    return Architecture(name, graph, _check_durations(durations), distances)


def load_architecture(config: dict) -> Architecture:
    """Build an architecture from a JSON-compatible config document.

    Expected fields: ``name``, ``num_qubits``, ``edges`` (pair list) and
    ``durations`` (gate-kind name to cycle count).  The duration table is
    taken as given, so a config that omits SWAP fails here rather than at
    routing time.  A document of the wrong shape raises
    :class:`ArchitectureError` too.  Other fields are ignored.
    """
    if not isinstance(config, dict):
        raise ArchitectureError(f"config must be a JSON object, got {type(config).__name__}")
    try:
        num_qubits = config["num_qubits"]
        edges = config["edges"]
    except KeyError as exc:
        raise ArchitectureError(f"config missing field {exc.args[0]!r}") from None
    if type(num_qubits) is not int:
        raise ArchitectureError(f"num_qubits must be an integer, got {num_qubits!r}")
    if num_qubits < 1:
        raise ArchitectureError("num_qubits must be >= 1")
    if not isinstance(edges, (list, tuple)):
        raise ArchitectureError(f"edges must be a list of qubit pairs, got {edges!r}")
    for edge in edges:
        if not (isinstance(edge, (list, tuple)) and len(edge) == 2
                and all(type(q) is int for q in edge)):
            raise ArchitectureError(f"coupling edge {edge!r} is not a pair of qubit indices")
    given = config.get("durations", {})
    if not isinstance(given, dict):
        raise ArchitectureError(f"durations must map gate kinds to cycles, got {given!r}")
    durations: dict[GateKind, int] = {}
    for key, value in given.items():
        try:
            kind = GateKind(key.lower())
        except ValueError:
            raise ArchitectureError(f"unknown gate kind {key!r} in durations") from None
        durations[kind] = value
    graph = CouplingGraph.from_edges(num_qubits, edges)
    return _build(str(config.get("name", "custom")), graph, durations)


def load_architecture_file(path) -> Architecture:
    with open(path, "r", encoding="utf-8") as fh:
        return load_architecture(json.load(fh))


def architecture_to_config(arch: Architecture) -> dict:
    """Lossless config document for :func:`load_architecture`."""
    return {
        "name": arch.name,
        "num_qubits": arch.num_qubits,
        "edges": [list(e) for e in sorted(arch.graph.edges)],
        "durations": {k.value: v for k, v in sorted(arch.durations.items(), key=lambda kv: kv[0].value)},
    }


def grid_architecture(rows: int, cols: int) -> Architecture:
    """Rows-by-cols lattice with horizontal and vertical neighbor couplings."""
    if rows < 1 or cols < 1:
        raise ArchitectureError("grid dimensions must be >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + cols))
    graph = CouplingGraph.from_edges(rows * cols, edges)
    return _build(f"grid-{rows}x{cols}", graph, DEFAULT_DURATIONS)


PRESET_NAMES = ("square4", "demo6", "q16-melbourne", "q20-tokyo", "q54-sycamore")

_GRID_RE = re.compile(r"^grid:(\d+)x(\d+)$")


def preset_architecture(name: str) -> Architecture:
    if name not in PRESET_NAMES:
        raise ArchitectureError(f"unknown preset {name!r}; have {', '.join(PRESET_NAMES)}")
    ref = resources.files("codar_router").joinpath("configs").joinpath(f"{name}.json")
    return load_architecture(json.loads(ref.read_text(encoding="utf-8")))


def resolve_architecture(spec: str) -> Architecture:
    """CLI-facing lookup: preset name, ``grid:RxC``, or a config file path."""
    m = _GRID_RE.match(spec)
    if m:
        return grid_architecture(int(m.group(1)), int(m.group(2)))
    if spec in PRESET_NAMES:
        return preset_architecture(spec)
    return load_architecture_file(spec)
