"""Hop-distance matrices checked against networkx all-pairs shortest paths."""

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from destrada.graphs import (
    DisconnectedGraphError,
    Graph,
    star_graph,
)
from destrada.metric import distance_matrix, sum_sq_distances
from graph_helpers import edges


@st.composite
def connected_graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    npairs = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << npairs) - 1))
    # force connectivity by overlaying a path on the drawn mask
    for v in range(1, n):
        mask |= 1 << (v * (v - 1) // 2 + (v - 1))
    return Graph.from_pair_mask(n, mask)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edges(g))
    return h


@given(connected_graphs())
def test_distances_match_reference_bfs(g):
    dm = distance_matrix(g)
    ref = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
    for i in range(g.n):
        for j in range(g.n):
            assert dm.rows[i][j] == ref[i][j]


@given(connected_graphs())
def test_distance_matrix_is_a_metric(g):
    dm = distance_matrix(g)
    for i in range(g.n):
        assert dm.rows[i][i] == 0
        for j in range(g.n):
            assert dm.rows[i][j] == dm.rows[j][i]
            if i != j:
                assert dm.rows[i][j] >= 1
                assert (dm.rows[i][j] == 1) == bool(g.adj[i] >> j & 1)
            for k in range(g.n):
                assert dm.rows[i][j] <= dm.rows[i][k] + dm.rows[k][j]


@given(connected_graphs(min_n=2))
def test_diameter_is_largest_entry(g):
    dm = distance_matrix(g)
    assert dm.diameter() == nx.diameter(to_nx(g))


def test_disconnected_input_is_rejected():
    with pytest.raises(DisconnectedGraphError):
        distance_matrix(Graph.from_pair_mask(3, 0b001))
    with pytest.raises(DisconnectedGraphError):
        distance_matrix(Graph.from_pair_mask(2, 0))


def test_complete_graph_distances_are_all_one(k):
    dm = distance_matrix(k(5))
    assert dm.diameter() == 1
    assert sum_sq_distances(dm) == 10


def test_path_distances_are_index_differences(path):
    dm = distance_matrix(path(5))
    for i in range(5):
        for j in range(5):
            assert dm.rows[i][j] == abs(i - j)
    # sum over i<j of (j-i)^2
    assert sum_sq_distances(dm) == sum(
        (j - i) ** 2 for i in range(5) for j in range(i + 1, 5)
    )


def test_cycle_distances_wrap_around(cycle):
    dm = distance_matrix(cycle(6))
    assert dm.rows[0][3] == 3
    assert dm.rows[0][4] == 2
    assert dm.diameter() == 3
    assert sum_sq_distances(dm) == 6 * (1 + 4) + 3 * 9


def test_sum_sq_distances_counts_unordered_pairs():
    g = star_graph(4)
    dm = distance_matrix(g)
    # three pairs at distance 1 to the hub, three leaf pairs at distance 2
    assert sum_sq_distances(dm) == 3 * 1 + 3 * 4


@given(connected_graphs())
def test_sum_sq_distances_is_exact_and_nonnegative(g):
    dm = distance_matrix(g)
    total = sum_sq_distances(dm)
    assert isinstance(total, int)
    assert total == sum(
        dm.rows[i][j] ** 2 for i in range(g.n) for j in range(i + 1, g.n)
    )
