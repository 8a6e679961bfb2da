"""Graph construction, encodings, families, and exhaustive enumeration.

networkx serves as an independent reference implementation for graph6
decoding, connectivity, and diameter; labeled connected-graph counts are
checked against the classical subtraction recurrence.
"""

import hashlib
import itertools
import math

import networkx as nx
import pytest
from hypothesis import assume, given, strategies as st

import destrada.graphs as graphs_mod
from destrada.bounds import evaluate
from destrada.graphs import (
    MAX_ENUM_N,
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    canonical_form,
    complement,
    complete_graph,
    connected_classes,
    connected_pair_masks,
    gnp_graph,
    is_connected,
    labelings,
    multipartite_graph,
    parse_edge_list,
    parse_graph6,
    to_graph6,
    twin_classes,
)
from destrada.metric import distance_matrix
from graph_helpers import edges, enumerate_regular, reference_refine


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    npairs = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << npairs) - 1))
    return Graph.from_pair_mask(n, mask)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edges(g))
    return h


# --- pair masks and bit order ------------------------------------------------

def test_pair_bit_enumerates_upper_triangle_by_column():
    # bit j(j-1)/2 + i of a pair mask is the pair {i, j}, i < j
    pairs = [edges(Graph.from_pair_mask(5, 1 << bit)) for bit in range(10)]
    assert pairs == [[(i, j)] for j in range(1, 5) for i in range(j)]


@given(graphs())
def test_pair_mask_round_trip(g):
    assert Graph.from_pair_mask(g.n, g.pair_mask()) == g


@given(graphs())
def test_edges_agree_with_has_edge(g):
    # both endpoints' neighbor bitmasks record every edge, and m counts them
    listed = set(edges(g))
    for i, j in itertools.combinations(range(g.n), 2):
        assert ((i, j) in listed) == bool(g.adj[i] >> j & 1) == bool(g.adj[j] >> i & 1)
    assert len(listed) == g.m


@given(graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degrees()) == 2 * g.m


def test_from_pair_mask_rejects_out_of_range_bits():
    with pytest.raises(GraphFormatError):
        Graph.from_pair_mask(2, 0b10)


# --- graph6 ------------------------------------------------------------------

@given(graphs())
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g


@given(graphs())
def test_graph6_matches_reference_decoder(g):
    ours = to_graph6(g)
    ref = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
    assert ours == ref
    back = nx.from_graph6_bytes(ours.encode())
    assert set(back.edges()) == {tuple(sorted(e)) for e in edges(g)}
    assert back.number_of_nodes() == g.n


def test_graph6_complete_graph_encodings():
    want = ["@", "A_", "Bw", "C~", "D~{", "E~~w", "F~~~w"]
    got = [to_graph6(complete_graph(n)) for n in range(1, 8)]
    assert got == want


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "A\x1f",      # character below the graph6 alphabet
        "~~?",        # long form prefix
        "B",          # payload too short for n=3
        "Bww",        # payload too long for n=3
        "AO",         # padding bit set for n=2
    ],
)
def test_graph6_rejects_malformed_input(bad):
    with pytest.raises(GraphFormatError):
        parse_graph6(bad)


# --- edge-list parsing -------------------------------------------------------

def test_parse_edge_list_basic():
    g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
    assert (g.n, g.m) == (4, 3)
    assert edges(g) == [(0, 1), (1, 2), (2, 3)]


def test_parse_edge_list_ignores_blank_lines_and_whitespace():
    g = parse_edge_list("  3 2  \n\n 0 1 \n\n 1 2 \n\n")
    assert (g.n, g.m) == (3, 2)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "3\n",             # header missing edge count
        "x y\n",           # non-integer header
        "3 2\n0 1\n",      # fewer edge lines than declared
        "3 1\n0 1 2\n",    # malformed edge line
        "3 1\n0 z\n",      # non-integer endpoint
        "3 1\n0 3\n",      # endpoint out of range
        "3 1\n1 1\n",      # self-loop
        "3 2\n0 1\n1 0\n", # duplicate edge under reversal
    ],
)
def test_parse_edge_list_rejects_malformed_input(bad):
    with pytest.raises(GraphFormatError):
        parse_edge_list(bad)


# --- families ----------------------------------------------------------------

def test_complete_family_has_all_pairs(k):
    g = k(5)
    assert g.m == 10
    assert set(g.degrees()) == {4}


def test_cycle_family_is_two_regular(cycle):
    g = cycle(6)
    assert g.m == 6
    assert set(g.degrees()) == {2}
    assert distance_matrix(g).diameter() == 3


def test_path_family_degrees(path):
    g = path(5)
    assert sorted(g.degrees()) == [1, 1, 2, 2, 2]
    assert distance_matrix(g).diameter() == 4


def test_star_family_degrees(star):
    g = star(6)
    assert sorted(g.degrees()) == [1, 1, 1, 1, 1, 5]
    assert g.degrees()[0] == 5


def test_multipartite_family_structure():
    g = multipartite_graph((2, 3))
    assert (g.n, g.m) == (5, 6)
    assert (0, 1) not in edges(g)      # same part
    assert (2, 3) not in edges(g)
    assert (0, 2) in edges(g)          # across parts
    assert nx.is_isomorphic(to_nx(g), nx.complete_multipartite_graph(2, 3))


def test_petersen_family_matches_reference(petersen):
    g = petersen
    assert (g.n, g.m) == (10, 15)
    assert set(g.degrees()) == {3}
    assert distance_matrix(g).diameter() == 2
    assert nx.is_isomorphic(to_nx(g), nx.petersen_graph())


def test_gnp_is_deterministic_for_a_seed():
    a = gnp_graph(12, 0.4, 7)
    b = gnp_graph(12, 0.4, 7)
    assert a == b


def test_gnp_extreme_probabilities():
    assert gnp_graph(6, 0.0, 1).m == 0
    assert gnp_graph(6, 1.0, 1).m == 15


# --- structural queries ------------------------------------------------------

@given(graphs())
def test_complement_is_an_involution(g):
    assert complement(complement(g)) == g


@given(graphs())
def test_complement_edge_counts_partition_all_pairs(g):
    assert g.m + complement(g).m == g.n * (g.n - 1) // 2


@given(graphs())
def test_twin_classes_match_their_definition(g):
    # u, v are twins when N[u] = N[v] or N(u) = N(v); the classes
    # partition the vertices in order of their least vertex, and the
    # complement has the same ones
    def twins(u, v):
        return g.adj[u] | 1 << u == g.adj[v] | 1 << v or g.adj[u] == g.adj[v]

    classes = twin_classes(g)
    assert sum(classes) == (1 << g.n) - 1
    assert [c & -c for c in classes] == sorted(c & -c for c in classes)
    for c in classes:
        members = [v for v in range(g.n) if c >> v & 1]
        assert all(twins(members[0], v) for v in members)
        assert not any(twins(members[0], v) for v in range(g.n) if not c >> v & 1)
    assert twin_classes(complement(g)) == classes


def test_twin_classes_of_families(k, star, path):
    assert twin_classes(k(5)) == (0b11111,)
    assert twin_classes(star(5)) == (0b00001, 0b11110)
    assert twin_classes(path(4)) == (1, 2, 4, 8)
    assert twin_classes(multipartite_graph((2, 3))) == (0b00011, 0b11100)


@given(graphs())
def test_connectivity_matches_reference(g):
    assert is_connected(g) == nx.is_connected(to_nx(g))


@given(graphs(min_n=2))
def test_diameter_matches_reference(g):
    h = to_nx(g)
    if nx.is_connected(h):
        assert distance_matrix(g).diameter() == nx.diameter(h)
    else:
        with pytest.raises(DisconnectedGraphError):
            distance_matrix(g)


def test_degree_profile_orders_and_allows_ties(path, star):
    p4 = evaluate(path(4))
    assert (p4.delta1, p4.delta2, p4.r) == (2, 2, None)
    s5 = evaluate(star(5))
    assert (s5.delta1, s5.delta2) == (4, 1)
    k1 = evaluate(Graph.from_pair_mask(1, 0))
    assert (k1.delta1, k1.delta2, k1.r) == (0, 0, 0)


# --- exhaustive enumeration --------------------------------------------------

def connected_count_recurrence(n: int) -> int:
    # c(n) = 2^C(n,2) - sum_{k<n} C(n-1, k-1) c(k) 2^C(n-k, 2)
    c = [0, 1]
    for q in range(2, n + 1):
        total = 1 << (q * (q - 1) // 2)
        for kk in range(1, q):
            total -= (
                _binom(q - 1, kk - 1) * c[kk] * (1 << ((q - kk) * (q - kk - 1) // 2))
            )
        c.append(total)
    return c[n]


def _binom(a: int, b: int) -> int:
    out = 1
    for i in range(b):
        out = out * (a - i) // (i + 1)
    return out


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728), (6, 26704)])
def test_connected_enumeration_matches_recurrence(n, count):
    assert connected_count_recurrence(n) == count
    masks = list(connected_pair_masks(n))
    assert len(masks) == count
    assert masks == sorted(masks)
    for mask in masks[:50]:
        assert is_connected(Graph.from_pair_mask(n, mask))


def test_recurrence_value_for_seven_vertices():
    assert connected_count_recurrence(7) == 1866256


def test_enumeration_rejects_out_of_range_order():
    with pytest.raises(ValueError):
        list(connected_pair_masks(0))
    with pytest.raises(ValueError):
        list(connected_pair_masks(MAX_ENUM_N + 1))


def test_enumerate_connected_yields_graphs_in_mask_order():
    gs = [Graph.from_pair_mask(3, mask) for mask in connected_pair_masks(3)]
    assert [g.pair_mask() for g in gs] == [3, 5, 6, 7]
    assert all(g.n == 3 and is_connected(g) for g in gs)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_regular_enumeration_matches_brute_filter(n):
    npairs = n * (n - 1) // 2
    for r in range(n):
        brute = [
            mask
            for mask in range(1 << npairs)
            if all(d == r for d in Graph.from_pair_mask(n, mask).degrees())
        ]
        fast = sorted(g.pair_mask() for g in enumerate_regular(n, r))
        assert fast == brute


def test_regular_enumeration_complement_duality():
    # complementing is a bijection between r-regular and (n-1-r)-regular graphs
    for n in (4, 5, 6):
        for r in range(n):
            a = sum(1 for _ in enumerate_regular(n, r))
            b = sum(1 for _ in enumerate_regular(n, n - 1 - r))
            assert a == b


def test_regular_enumeration_connected_filter():
    all_two_regular = list(enumerate_regular(6, 2))
    connected = list(enumerate_regular(6, 2, connected_only=True))
    assert len(connected) < len(all_two_regular)
    assert all(is_connected(g) for g in connected)
    # labeled 6-cycles: 6!/(6*2) = 60
    assert len(connected) == 60


def test_regular_enumeration_odd_parity_is_empty():
    assert list(enumerate_regular(5, 3)) == []


# --- isomorphism classes -----------------------------------------------------

def test_classes_match_the_networkx_atlas():
    # the atlas lists every graph on up to seven vertices once per class
    table = connected_classes(7)
    assert [len(table[n]) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    atlas: dict[int, set[int]] = {n: set() for n in range(1, 8)}
    for h in nx.graph_atlas_g()[1:]:
        if nx.is_connected(h):
            n = h.number_of_nodes()
            g = Graph.from_edges(n, list(h.edges()))
            atlas[n].add(canonical_form(n, g.pair_mask())[0])
    for n in range(1, 8):
        assert [m for m, _ in table[n]] == sorted(atlas[n])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_automorphism_counts_match_networkx(n):
    for mask, aut in connected_classes(n)[n]:
        h = to_nx(Graph.from_pair_mask(n, mask))
        assert aut == sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())


def test_labeling_counts_follow_a001187_to_eight_vertices():
    # orbit-stabiliser: a class has n!/|Aut| labelings.  Canonical masks are
    # printed ids, so the digest pins every (canonical mask, |Aut|) row up to
    # n = 8: no change to class generation may move one
    table = connected_classes(8)
    sums = [sum(math.factorial(n) // aut for _, aut in table[n]) for n in range(1, 9)]
    assert sums == [connected_count_recurrence(n) for n in range(1, 9)]
    assert sums[-1] == 251548592
    assert len(table[8]) == 11117
    digest = hashlib.sha1(repr(sorted(table.items())).encode()).hexdigest()
    assert digest == "e5fe1076563642b89673a42afede299186226c55"


def test_parent_rule_prunes_canonicalizations(monkeypatch):
    # of the 7,815 one-vertex extensions of the classes of orders 1..6 by a
    # nonempty set, the twin-orbit sets and the ranked parent rule leave
    # 1,362 to canonicalize; the atlas and A001187 tests above stay the
    # oracles that no class is lost
    calls = []
    real = graphs_mod._canonical

    def counting(adj):
        calls.append(len(adj))
        return real(adj)

    monkeypatch.setattr(graphs_mod, "_canonical", counting)
    table = connected_classes(7)
    assert [len(table[n]) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    assert [calls.count(n) for n in range(2, 8)] == [1, 2, 6, 25, 145, 1183]
    assert len(calls) == 1362


@given(graphs(min_n=2, max_n=8))
def test_every_connected_graph_has_a_parent_vertex(g):
    # connected_classes keeps a candidate only when its new vertex ranks
    # first among the non-cut vertices: least degree, then the largest
    # ascending tuple of neighbour degrees, then the most triangles.
    # networkx finds the cut vertices, degrees and triangles here.  A
    # first-ranked vertex exists, its deletion leaves a connected graph,
    # and the rule accepts exactly the first-ranked non-cut vertices
    assume(is_connected(g))
    h = to_nx(g)
    non_cut = sorted(set(h) - set(nx.articulation_points(h)))
    assert non_cut
    triangles = nx.triangles(h)

    def rank(v):
        return -h.degree(v), sorted(h.degree(w) for w in h[v]), triangles[v]

    top = max(rank(v) for v in non_cut)
    for v in non_cut:
        assert graphs_mod._is_parent_vertex(g.adj, v) == (rank(v) == top)
        rest = h.copy()
        rest.remove_node(v)
        assert nx.is_connected(rest)


def refine_starts(n):
    """The unit partition of n vertices and each of its one-vertex individualizations."""
    full = (1 << n) - 1
    return [[full]] + [[1 << b, full ^ 1 << b] for b in range(n) if n > 1]


def test_refine_matches_the_reference_on_every_small_labeled_graph():
    for n in range(1, 7):
        starts = refine_starts(n)
        for mask in range(1 << n * (n - 1) // 2):
            adj = graphs_mod._mask_adjacency(n, mask)
            for cells in starts:
                assert graphs_mod._refine(adj, cells) == reference_refine(adj, cells)


@given(graphs(max_n=8))
def test_refine_matches_the_reference_on_random_graphs(g):
    for cells in refine_starts(g.n):
        assert graphs_mod._refine(g.adj, cells) == reference_refine(g.adj, cells)


@given(graphs(max_n=7))
def test_twin_orbit_neighbor_sets_reach_every_extension(g):
    # joining a new vertex to the yielded sets reaches every class that
    # joining it to any nonempty set reaches
    def extended(nbrs):
        adj = [a | (nbrs >> u & 1) << g.n for u, a in enumerate(g.adj)]
        return graphs_mod._canonical(adj + [nbrs])

    sets = graphs_mod._neighbor_sets(g.adj)
    assert len(set(sets)) == len(sets) and 0 not in sets
    assert len(sets) == math.prod(c.bit_count() + 1 for c in twin_classes(g)) - 1
    assert {extended(s) for s in sets} == {extended(s) for s in range(1, 1 << g.n)}


@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_labelings_are_closed_under_relabeling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = Graph.from_edges(g.n, [(perm[i], perm[j]) for i, j in edges(g)])
    labs = labelings(g.n, g.pair_mask())
    assert labs == sorted(set(labs))
    assert h.pair_mask() in labs
    assert labelings(g.n, h.pair_mask()) == labs
    canon, aut = canonical_form(g.n, g.pair_mask())
    assert canonical_form(g.n, h.pair_mask()) == (canon, aut)
    assert canon in labs
    assert len(labs) == math.factorial(g.n) // aut


def test_classes_reject_out_of_range_order():
    with pytest.raises(ValueError):
        connected_classes(0)
    with pytest.raises(ValueError):
        connected_classes(MAX_ENUM_N + 1)
