"""Eigensolver checks against sympy's exact arithmetic and numpy's LAPACK,
plus the regular-graph spectrum transform."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from destrada.bounds import CATALOG_IDS, SPLIT_MIN_N, bound_report, evaluate
from destrada.cli import main
from destrada.graphs import (
    Graph,
    complement,
    complete_graph,
    connected_pair_masks,
    cycle_graph,
    gnp_graph,
    multipartite_graph,
    parse_graph6,
    path_graph,
    petersen_graph,
    star_graph,
    to_graph6,
    twin_classes,
)
from destrada.metric import distance_matrix, involution, sum_sq_distances
from destrada.spectra import (
    SIGNATURE_ABS_TOL,
    EigenConvergenceError,
    Spectrum,
    adjacency_matrix,
    distance_spectrum,
    eig_sym,
    lemma1_check,
    lemma2_spectrum,
)


@st.composite
def connected_graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    npairs = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << npairs) - 1))
    for v in range(1, n):
        mask |= 1 << (v * (v - 1) // 2 + (v - 1))
    return Graph.from_pair_mask(n, mask)


@st.composite
def small_sym_matrices(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    vals = draw(
        st.lists(
            st.integers(min_value=-5, max_value=5),
            min_size=n * (n + 1) // 2,
            max_size=n * (n + 1) // 2,
        )
    )
    rows = [[0.0] * n for _ in range(n)]
    it = iter(vals)
    for i in range(n):
        for j in range(i, n):
            x = float(next(it))
            rows[i][j] = x
            rows[j][i] = x
    return rows


def sympy_eigenvalues(rows) -> list[float]:
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    out = []
    for ev, mult in m.eigenvals().items():
        # real roots of cubics can surface in complex radical form
        c = complex(ev.evalf(30))
        assert abs(c.imag) <= 1e-12 * max(1.0, abs(c))
        out.extend([c.real] * mult)
    out.sort(reverse=True)
    return out


def assert_spectra_close(got, want, tol=1e-9):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert abs(a - b) <= tol * max(1.0, abs(b))


# --- matrix containers -------------------------------------------------------

def test_spectrum_must_be_sorted_non_increasing():
    Spectrum(values=(2.0, 1.0, 1.0, -3.0))
    with pytest.raises(ValueError):
        Spectrum(values=(1.0, 2.0))


def test_adjacency_and_distance_views(cycle):
    g = cycle(4)
    a = adjacency_matrix(g)
    assert a[0] == (0.0, 1.0, 0.0, 1.0)
    assert [a[i][i] for i in range(g.n)] == [0.0] * g.n
    assert sum(x * x for row in a for x in row) == 2.0 * g.m
    assert distance_matrix(g).rows[0] == (0, 1, 2, 1)


# --- eigensolver correctness -------------------------------------------------

DISTANCE_ORACLE_CASES = {
    "path4": path_graph(4),
    "cycle5": cycle_graph(5),
    "complete4": complete_graph(4),
    "star5": star_graph(5),
    "multipartite(2, 3)": multipartite_graph((2, 3)),
    "cycle7": cycle_graph(7),
    "path7": path_graph(7),
}


@pytest.mark.parametrize("g", DISTANCE_ORACLE_CASES.values(), ids=DISTANCE_ORACLE_CASES)
def test_distance_eigenvalues_match_exact_arithmetic(g):
    dm = distance_matrix(g)
    want = sympy_eigenvalues(dm.rows)
    assert_spectra_close(distance_spectrum(dm).values, want)
    assert_spectra_close(distance_spectrum(dm, twin_classes(g)).values, want)


@pytest.mark.parametrize("g", DISTANCE_ORACLE_CASES.values(), ids=DISTANCE_ORACLE_CASES)
def test_adjacency_eigenvalues_match_exact_arithmetic(g):
    mat = adjacency_matrix(g)
    want = sympy_eigenvalues(mat)
    assert_spectra_close(eig_sym(mat).values, want)
    assert_spectra_close(eig_sym(mat, twin_classes(g)).values, want)


def test_complete_graph_spectra(k):
    # adjacency and distance matrices coincide: n-1 once, -1 repeated
    for n in (2, 3, 5, 7):
        s = distance_spectrum(distance_matrix(k(n))).values
        assert abs(s[0] - (n - 1)) <= 1e-9
        for v in s[1:]:
            assert abs(v + 1.0) <= 1e-9


def test_petersen_distance_spectrum_closed_form(petersen):
    s = distance_spectrum(distance_matrix(petersen)).values
    want = [15.0] + [0.0] * 4 + [-3.0] * 5
    assert_spectra_close(s, want, tol=1e-8)


@given(small_sym_matrices())
@settings(max_examples=60)
def test_eigenvalues_preserve_trace_and_frobenius(mat):
    s = eig_sym(mat)
    tr = math.fsum(mat[i][i] for i in range(len(mat)))
    fr = math.fsum(x * x for row in mat for x in row)
    assert abs(math.fsum(s.values) - tr) <= 1e-8 * max(1.0, abs(tr))
    fs = math.fsum(v * v for v in s.values)
    assert abs(fs - fr) <= 1e-8 * max(1.0, fr)


def test_one_by_one_matrix_is_its_own_eigenvalue():
    assert eig_sym([[7.5]]).values == (7.5,)


def test_sweep_budget_exhaustion_raises(monkeypatch):
    import destrada.spectra as spectra_mod

    monkeypatch.setattr(spectra_mod, "_MAX_QL_SWEEPS", 0)
    with pytest.raises(EigenConvergenceError):
        eig_sym([[0.0, 1.0], [1.0, 0.0]])


# --- twin-class deflation -------------------------------------------------------

# K_n, stars (K(1, n - 1)) and complete multipartite graphs up to 62 vertices
TWIN_RICH = {f"complete{n}": complete_graph(n) for n in (2, 3, 10, 33, 62)} | {
    f"multipartite{parts}": multipartite_graph(parts) for parts in (
        (1, 2), (1, 9), (1, 61), (1, 1, 2), (2, 3), (14, 14), (5, 5, 5, 5),
        (3, 7, 12), (31, 31), (10, 20, 30),
    )
}


def assert_matches_lapack(got, rows):
    want = np.linalg.eigvalsh(np.array(rows, dtype=float))[::-1]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


@pytest.mark.parametrize("g", TWIN_RICH.values(), ids=TWIN_RICH)
def test_deflated_spectra_match_lapack_on_twin_rich_graphs(g):
    twins = twin_classes(g)
    assert len(twins) < g.n
    dm = distance_matrix(g)
    assert_matches_lapack(distance_spectrum(dm, twins).values, dm.rows)
    for h in (g, complement(g)):
        a = adjacency_matrix(h)
        assert_matches_lapack(eig_sym(a, twins).values, a)


@st.composite
def planted_twin_graphs(draw):
    """A connected base graph whose vertices are blown up into cliques or independent sets.

    Returns the graph and its planted classes as vertex masks; every
    planted class lies inside one twin class.
    """
    base = draw(connected_graphs(min_n=1, max_n=6))
    sizes = draw(st.lists(st.integers(1, 4), min_size=base.n, max_size=base.n))
    # a lone independent class of two or more vertices is disconnected
    cliques = draw(st.lists(st.booleans(), min_size=base.n, max_size=base.n))
    if base.n == 1:
        cliques = [True]
    starts = [sum(sizes[:i]) for i in range(base.n + 1)]
    classes = [((1 << sizes[i]) - 1) << starts[i] for i in range(base.n)]
    return blow_up(base, sizes, cliques), classes


def blow_up(base: Graph, sizes, cliques) -> Graph:
    """base with vertex i replaced by sizes[i] vertices, a clique when cliques[i]
    and an independent set otherwise, joined to all of each neighbor's."""
    starts = [sum(sizes[:i]) for i in range(base.n + 1)]
    edges = []
    for i in range(base.n):
        members = list(range(starts[i], starts[i + 1]))
        if cliques[i]:
            edges += [(u, v) for k, u in enumerate(members) for v in members[k + 1:]]
        for j in range(i + 1, base.n):
            if base.adj[i] >> j & 1:
                edges += [(u, v) for u in members for v in range(starts[j], starts[j + 1])]
    return Graph.from_edges(starts[-1], edges)


def _relabeled(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [
        (perm[u], perm[v]) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1
    ])


def _moved(mask: int, perm: list[int]) -> int:
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


@given(planted_twin_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_planted_twin_classes_deflate_to_the_lapack_spectrum(planted, rnd):
    g, planted_classes = planted
    twins = twin_classes(g)
    assert all(any(c & t == c for t in twins) for c in planted_classes)
    dm = distance_matrix(g)
    got = distance_spectrum(dm, twins).values
    assert_matches_lapack(got, dm.rows)
    for h in (g, complement(g)):
        a = adjacency_matrix(h)
        assert_matches_lapack(eig_sym(a, twins).values, a)
    # relabeling moves the classes with the vertices and keeps the spectrum
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = _relabeled(g, perm)
    assert set(twin_classes(h)) == {_moved(c, perm) for c in twins}
    moved = distance_spectrum(distance_matrix(h), twin_classes(h)).values
    assert all(abs(a - b) <= 1e-12 * max(1.0, abs(a)) for a, b in zip(got, moved))


# (base, planted class sizes, which classes are cliques): each graph mixes
# adjacent and non-adjacent twin pairs with a twin class of three or more
MIXED_TWINS = [
    pytest.param(path_graph(4), (2, 2, 3, 1), (True, False, True, False),
                 id="path-sizes0-cliques0"),
    pytest.param(cycle_graph(5), (2, 3, 2, 1, 2), (True, False, False, True, True),
                 id="cycle-sizes1-cliques1"),
    pytest.param(petersen_graph(), (2, 1, 2, 3, 1, 2, 1, 1, 4, 1),
                 (True, True, False, False, True, True, True, True, True, False),
                 id="petersen-sizes2-cliques2"),
    pytest.param(cycle_graph(7), (5, 2, 1, 2, 1, 3, 2), (False, True, True, False, True, True, False),
                 id="cycle-sizes3-cliques3"),
]


@pytest.mark.parametrize("base, sizes, cliques", MIXED_TWINS)
def test_twin_pairs_solve_exactly_in_the_odd_block(base, sizes, cliques):
    import destrada.spectra as spectra_mod

    g = blow_up(base, sizes, cliques)
    cells = twin_classes(g)
    # (size, members adjacent) of each class with two or more members
    kinds = [(c.bit_count(), bool(g.adj[(c & -c).bit_length() - 1] & c))
             for c in cells if c & (c - 1)]
    assert {(2, True), (2, False)} <= set(kinds) and max(kinds)[0] >= 3
    adjacent = sum(s - 1 for s, a in kinds if a)
    apart = sum(s - 1 for s, a in kinds if not a)
    pairs = [((c & -c).bit_length() - 1, c.bit_length() - 1) for c in cells if c.bit_count() == 2]
    comp = complement(g)
    # twins of g are twins of its complement, of the other kind
    for h, d_exact, a_exact in (
        (g, {-1.0: adjacent, -2.0: apart}, {-1.0: adjacent, 0.0: apart}),
        (comp, {-1.0: apart, -2.0: adjacent}, {-1.0: apart, 0.0: adjacent}),
    ):
        dm = distance_matrix(h)
        a = adjacency_matrix(h)
        for rows, got, exact in ((dm.rows, distance_spectrum(dm, cells).values, d_exact),
                                 (a, eig_sym(a, cells).values, a_exact)):
            # one odd row a twin pair, diagonal, with alpha - beta on it
            blocks, _ = spectra_mod._blocks(rows, cells)
            assert blocks[1] == [[rows[i][i] - rows[i][l] if i == k else 0.0 for k, _ in pairs]
                                 for i, l in pairs]
            assert_matches_lapack(got, rows)
            want = np.linalg.eigvalsh(np.array(rows, dtype=float))
            for x, m in exact.items():
                assert got.count(x) == m == np.sum(np.abs(want - x) <= 1e-9), (x, m)


def test_twin_free_quotient_is_the_matrix_itself(petersen, path, cycle):
    # a twin-free graph's solve is bit for bit the plain solve
    for g in (petersen, path(4), path(62), cycle(5), cycle(62)):
        twins = twin_classes(g)
        assert len(twins) == g.n
        dm = distance_matrix(g)
        assert distance_spectrum(dm, twins) == distance_spectrum(dm)
        a = adjacency_matrix(g)
        assert eig_sym(a, twins) == eig_sym(a)


def test_complete_graph_spectrum_is_exact():
    for n in range(2, 63):
        g = complete_graph(n)
        want = (float(n - 1),) + (-1.0,) * (n - 1)
        assert evaluate(g).spectrum.values == want
        assert eig_sym(adjacency_matrix(g), twin_classes(g)).values == want


@pytest.mark.parametrize("parts", [(1, 9), (1, 61), (2, 2), (2, 3), (3, 3, 3), (14, 14),
                                   (5, 5, 5, 5), (31, 31), (10, 20, 30)])
def test_complete_multipartite_minus_two_multiplicity_is_exact(parts):
    # with at most one part of size 1, the classes are the parts, and the
    # quotient plus 2I is diag(s) + sqrt(s) sqrt(s)^T, positive definite,
    # so -2 comes only from the twin classes: n - k times
    s = evaluate(multipartite_graph(parts)).spectrum.values
    assert s.count(-2.0) == sum(parts) - len(parts)
    assert min(v for v in s if v != -2.0) > -2.0 + 1e-6


def test_complete_graph_bounds_meet_with_zero_slack():
    rows = dict(zip(CATALOG_IDS, bound_report(complete_graph(62))))
    for tid in ("T3_lower", "L3_lambda1_lower", "L4_class"):
        assert rows[tid].slack == 0.0 and rows[tid].equality, tid


def test_sweep_budget_exhaustion_raises_on_a_twin_free_graph(monkeypatch, path):
    import destrada.spectra as spectra_mod

    monkeypatch.setattr(spectra_mod, "_MAX_QL_SWEEPS", 0)
    p4 = path(4)
    twins = twin_classes(p4)
    assert len(twins) == 4
    with pytest.raises(EigenConvergenceError):
        distance_spectrum(distance_matrix(p4), twins)
    with pytest.raises(EigenConvergenceError):
        evaluate(p4)


# --- involution split -------------------------------------------------------------

PATHS_AND_CYCLES = {
    f"{kind}{n}": build(n)
    for kind, build in (("path", path_graph), ("cycle", cycle_graph)) for n in range(9, 63)
}


def sigma_of(n: int, cells) -> list[int]:
    """The involution whose orbits are cells, which must list the fixed
    vertices first, then the pairs by their smaller vertex."""
    assert sum(cells) == (1 << n) - 1 and sum(c.bit_count() for c in cells) == n
    sizes = [c.bit_count() for c in cells]
    assert sizes == sorted(sizes) and set(sizes) <= {1, 2}
    firsts = [(c & -c).bit_length() - 1 for c in cells]
    k = sizes.count(1)
    assert firsts[:k] == sorted(firsts[:k]) and firsts[k:] == sorted(firsts[k:])
    sigma = list(range(n))
    for c in cells[k:]:
        u, v = (c & -c).bit_length() - 1, c.bit_length() - 1
        sigma[u], sigma[v] = v, u
    return sigma


def assert_is_involutive_automorphism(g: Graph, sigma) -> None:
    assert sorted(sigma) == list(range(g.n))
    assert all(sigma[sigma[v]] == v for v in range(g.n))
    assert any(sigma[v] != v for v in range(g.n))
    assert all(_moved(g.adj[v], sigma) == g.adj[sigma[v]] for v in range(g.n))


def assert_split_solves_match_lapack(g: Graph, cells) -> None:
    """D(G), A(co-G) and D(co-G), split over the orbit cells, against LAPACK."""
    c = complement(g)
    for dm in (distance_matrix(g), distance_matrix(c)):
        assert_matches_lapack(distance_spectrum(dm, cells).values, dm.rows)
    a = adjacency_matrix(c)
    assert_matches_lapack(eig_sym(a, cells).values, a)


@pytest.mark.parametrize("g", PATHS_AND_CYCLES.values(), ids=PATHS_AND_CYCLES)
def test_paths_and_cycles_split_over_an_involution(g):
    ev = evaluate(g)
    # twin-free, so fewer cells than vertices means sigma's orbits
    assert len(twin_classes(g)) == g.n > len(ev.cells)
    assert ev.cells == involution(ev.dm) and ev.comp_evaluation.cells == ev.cells
    assert_is_involutive_automorphism(g, sigma_of(g.n, ev.cells))
    assert_split_solves_match_lapack(g, ev.cells)


@given(st.sampled_from(list(PATHS_AND_CYCLES.values())), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_every_labeling_of_a_path_or_cycle_splits(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = _relabeled(g, perm)
    cells = involution(distance_matrix(h))
    assert cells is not None
    assert_is_involutive_automorphism(h, sigma_of(h.n, cells))
    assert_split_solves_match_lapack(h, cells)


def test_a_row_pairing_that_is_no_automorphism_falls_back_to_the_plain_solve():
    # G(9, 0.2) with seed 356: twin-free, and the sorted distance rows pair
    # three couples of vertices and leave three alone, but swapping the
    # couples is not an automorphism
    g = parse_graph6("H{?_{CW")
    assert g == gnp_graph(9, 0.2, 356) and g.n >= SPLIT_MIN_N
    assert len(twin_classes(g)) == g.n
    dm = distance_matrix(g)
    groups = {}
    for v, row in enumerate(dm.rows):
        groups.setdefault(tuple(sorted(row)), []).append(v)
    pairing = list(range(g.n))
    for members in groups.values():
        assert len(members) <= 2
        if len(members) == 2:
            u, v = members
            pairing[u], pairing[v] = v, u
    assert pairing != list(range(g.n))
    assert any(_moved(g.adj[v], pairing) != g.adj[pairing[v]] for v in range(g.n))
    assert involution(dm) is None
    ev = evaluate(g)
    assert ev.cells == twin_classes(g)
    assert ev.spectrum == distance_spectrum(dm)
    assert ev.comp_evaluation.spectrum == distance_spectrum(distance_matrix(ev.comp))


@pytest.mark.parametrize("build", [path_graph, cycle_graph], ids=["path", "cycle"])
def test_compute_of_a_62_vertex_path_or_cycle_solves_no_block_over_32(build, monkeypatch, capsys):
    # DEE(G), EE(co-G) and the pair row's DEE(co-G) each split over sigma
    # into blocks of 31 + 31 (the path) or 32 + 30 (the cycle)
    import destrada.spectra as spectra_mod

    sizes = []
    real = spectra_mod._eig_in_place

    def spying(a, n):
        sizes.append(n)
        return real(a, n)

    monkeypatch.setattr(spectra_mod, "_eig_in_place", spying)
    assert main(["compute", "--g6", to_graph6(build(62))]) == 0
    capsys.readouterr()
    assert len(sizes) == 6 and sum(sizes) == 3 * 62
    assert max(sizes) <= 32


# --- independent oracle over the whole small population ----------------------

def test_distance_spectra_match_lapack_to_six_vertices():
    # every connected labeled graph with 2 <= n <= 6 (27,475 graphs), one
    # batched LAPACK call per order; the largest difference seen is ~1.6e-14
    total = 0
    worst = 0.0
    for n in range(2, 7):
        graphs = [Graph.from_pair_mask(n, mask) for mask in connected_pair_masks(n)]
        dms = [distance_matrix(g) for g in graphs]
        ours = np.array([distance_spectrum(dm, twin_classes(g)).values
                         for g, dm in zip(graphs, dms)])
        ref = np.linalg.eigvalsh(np.array([dm.rows for dm in dms], dtype=float))[:, ::-1]
        worst = max(worst, float(np.max(np.abs(ours - ref))))
        total += len(dms)
    assert total == 27475
    assert worst <= 1e-12


# --- trace identities ---------------------------------------------------------

@given(connected_graphs(min_n=2))
def test_trace_identities_hold_for_true_spectra(g):
    dm = distance_matrix(g)
    ssq2 = 2 * sum_sq_distances(dm)
    r_sum, r_sumsq = lemma1_check(distance_spectrum(dm), ssq2)
    budget = 1e-9 * max(1.0, ssq2)
    assert r_sum <= budget
    assert r_sumsq <= budget


def test_trace_identities_flag_a_wrong_spectrum(path):
    dm = distance_matrix(path(4))
    bogus = Spectrum(values=(5.0, 1.0, -2.0, -3.0))
    r_sum, r_sumsq = lemma1_check(bogus, 2 * sum_sq_distances(dm))
    assert r_sum > 1e-6 or r_sumsq > 1e-6


# --- regular-graph spectrum transform -----------------------------------------

def regular_cases():
    return [
        complete_graph(5),
        cycle_graph(4),
        cycle_graph(5),
        multipartite_graph((3, 3)),
        petersen_graph(),
    ]


def test_distance_spectrum_transform_for_regular_diameter_two():
    for g in regular_cases():
        dm = distance_matrix(g)
        if dm.diameter() > 2:
            continue
        r = g.degrees()[0]
        assert set(g.degrees()) == {r}
        adj_s = eig_sym(adjacency_matrix(g))
        derived = lemma2_spectrum(adj_s, g.n, r)
        direct = distance_spectrum(dm)
        assert_spectra_close(derived.values, direct.values, tol=1e-8)


def test_transforms_reject_inconsistent_regularity(cycle):
    adj_s = eig_sym(adjacency_matrix(cycle(5)))
    with pytest.raises(ValueError):
        lemma2_spectrum(adj_s, 5, 3)
    with pytest.raises(ValueError):
        lemma2_spectrum(adj_s, 5, 1)
    # the leading value may miss r by the signature tolerance and no more
    tail = adj_s.values[1:]
    inside = lemma2_spectrum(Spectrum((2.0 + 0.99 * SIGNATURE_ABS_TOL,) + tail), 5, 2)
    assert inside.values[0] == 6.0
    with pytest.raises(ValueError):
        lemma2_spectrum(Spectrum((2.0 + 1.01 * SIGNATURE_ABS_TOL,) + tail), 5, 2)
