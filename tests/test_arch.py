import random
import re
import tracemalloc

import pytest

from codar_router import (
    ArchitectureError,
    GateKind,
    architecture_to_config,
    grid_architecture,
    load_architecture,
    preset_architecture,
    resolve_architecture,
)
from codar_router.arch import (
    BadEdgeError,
    CouplingGraph,
    DisconnectedGraphError,
    MissingDurationError,
    NonPositiveDurationError,
    PRESET_NAMES,
    all_pairs_distances,
    duration_of,
)

from oracles import floyd_warshall


def test_square4_distances(square4):
    assert square4.distances[0][3] == 2
    assert square4.distances[0][1] == 1
    assert all(square4.distances[i][i] == 0 for i in range(4))


def test_path_graph_distance():
    g = CouplingGraph.from_edges(3, [(0, 1), (1, 2)])
    d = all_pairs_distances(g)
    assert d[0][2] == 2 and d[2][0] == 2


def test_distance_matrix_invariants(square4):
    d = square4.distances
    n = square4.num_qubits
    for i in range(n):
        assert d[i][i] == 0
        for j in range(n):
            assert d[i][j] == d[j][i]
            if i != j:
                assert (d[i][j] == 1) == square4.graph.has_edge(i, j)
            for k in range(n):
                assert d[i][j] <= d[i][k] + d[k][j]


def test_disconnected_rejected():
    g = CouplingGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        all_pairs_distances(g)
    with pytest.raises(DisconnectedGraphError):
        load_architecture({"num_qubits": 4, "edges": [[0, 1], [2, 3]],
                           "durations": {"swap": 6}})


def test_too_few_edges_fail_before_the_adjacency_lists():
    g = CouplingGraph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(DisconnectedGraphError, match="qubit 0 cannot reach the whole device"):
        all_pairs_distances(g)
    assert getattr(g, "_adj", None) is None


def test_disconnected_device_fails_before_the_distance_matrix():
    # A path over qubits 0-2998 and one chord: n - 1 edges, so only the BFS
    # from qubit 0 finds qubit 2999 alone.  The whole matrix would hold 9M
    # slots, 72 MB of pointers.
    n = 3000
    edges = [[q, q + 1] for q in range(n - 2)] + [[0, n - 2]]
    config = {"num_qubits": n, "edges": edges, "durations": {"swap": 6}}
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedGraphError, match="qubit 0 cannot reach the whole device"):
            load_architecture(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_bad_edge_self_loop():
    with pytest.raises(BadEdgeError):
        load_architecture({"num_qubits": 2, "edges": [[0, 0]], "durations": {"swap": 6}})


def test_missing_swap_duration():
    with pytest.raises(MissingDurationError):
        load_architecture({"num_qubits": 2, "edges": [[0, 1]], "durations": {"cx": 2}})


def test_non_positive_duration():
    with pytest.raises(NonPositiveDurationError):
        load_architecture({"num_qubits": 2, "edges": [[0, 1]],
                           "durations": {"swap": 6, "cx": 0}})


def test_walkthrough_config_durations(square4):
    assert duration_of(square4, GateKind.T) == 1
    assert duration_of(square4, GateKind.CX) == 2
    assert duration_of(square4, GateKind.SWAP) == 6


def test_duration_of_missing_kind():
    arch = load_architecture({"num_qubits": 2, "edges": [[0, 1]],
                              "durations": {"swap": 6, "cx": 2}})
    with pytest.raises(MissingDurationError):
        duration_of(arch, GateKind.H)


@pytest.mark.parametrize("value", [2.7, 2.0, "2", True])
def test_num_qubits_must_be_an_int(value):
    message = f"num_qubits must be an integer, got {value!r}"
    with pytest.raises(ArchitectureError, match=f"^{re.escape(message)}$"):
        load_architecture({"num_qubits": value, "edges": [[0, 1]], "durations": {"swap": 6}})


def test_grid_rejects_an_empty_dimension():
    with pytest.raises(ArchitectureError, match="^grid dimensions must be >= 1$"):
        grid_architecture(0, 3)


def test_unknown_preset_lists_the_presets():
    message = f"unknown preset 'nope'; have {', '.join(PRESET_NAMES)}"
    with pytest.raises(ArchitectureError, match=f"^{re.escape(message)}$"):
        preset_architecture("nope")


def test_grid_6x6_counts():
    arch = grid_architecture(6, 6)
    assert arch.num_qubits == 36
    assert len(arch.graph.edges) == 60


def test_grid_2x8_counts():
    arch = grid_architecture(2, 8)
    assert arch.num_qubits == 16
    assert len(arch.graph.edges) == 22


def test_grid_single_qubit_accepted():
    arch = grid_architecture(1, 1)
    assert arch.num_qubits == 1
    assert arch.graph.edges == frozenset()


def test_config_roundtrip(square4):
    again = load_architecture(architecture_to_config(square4))
    assert again.name == square4.name
    assert again.graph == square4.graph
    assert again.durations == square4.durations
    assert again.distances == square4.distances


def test_presets_load_and_sizes():
    sizes = {"square4": 4, "demo6": 6, "q16-melbourne": 15,
             "q20-tokyo": 20, "q54-sycamore": 54}
    for name in PRESET_NAMES:
        arch = preset_architecture(name)
        assert arch.num_qubits == sizes[name]
        assert arch.distances == all_pairs_distances(arch.graph)


def test_resolve_grid_spec():
    arch = resolve_architecture("grid:2x3")
    assert arch.num_qubits == 6 and len(arch.graph.edges) == 7


def test_demo6_layout(demo6):
    # 2x3 tile: q3 must neighbor exactly {1, 2, 5}; q0 and q3 sit two hops apart.
    assert demo6.graph.adjacency()[3] == [1, 2, 5]
    assert demo6.distances[0][3] == 2
    assert demo6.distances[0][1] == 1
    assert demo6.distances[0][5] == 3


def test_distances_match_floyd_warshall_randomized():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 30)
        nodes = list(range(n))
        rng.shuffle(nodes)
        edges = [(nodes[i - 1], nodes[i]) for i in range(1, n)]
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.sample(range(n), 2)
            edges.append((a, b))
        g = CouplingGraph.from_edges(n, edges)
        assert all_pairs_distances(g) == floyd_warshall(n, g.edges)
