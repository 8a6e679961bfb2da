"""Eigensolver checks against sympy's exact arithmetic plus spectral transforms."""

import math

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from destrada.graphs import Graph, GraphFamily, complement, generate
from destrada.metric import distance_matrix
from destrada.spectra import (
    EigenConvergenceError,
    Spectrum,
    SymMatrix,
    adjacency_matrix,
    complement_adj_spectrum,
    count_positive,
    distance_sym,
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
    return SymMatrix.from_rows(rows)


def sympy_eigenvalues(mat: SymMatrix) -> list[float]:
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in mat.rows])
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

def test_sym_matrix_rejects_non_square_and_asymmetric():
    with pytest.raises(ValueError):
        SymMatrix.from_rows([[1.0, 2.0], [2.0]])
    with pytest.raises(ValueError):
        SymMatrix.from_rows([[1.0, 2.0], [3.0, 4.0]])


def test_spectrum_must_be_sorted_non_increasing():
    Spectrum(values=(2.0, 1.0, 1.0, -3.0))
    with pytest.raises(ValueError):
        Spectrum(values=(1.0, 2.0))


def test_adjacency_and_distance_views(cycle):
    g = cycle(4)
    a = adjacency_matrix(g)
    assert a.rows[0] == (0.0, 1.0, 0.0, 1.0)
    assert a.trace() == 0.0
    assert a.frobenius_sq() == 2.0 * g.m
    d = distance_sym(distance_matrix(g))
    assert d.rows[0] == (0.0, 1.0, 2.0, 1.0)


# --- eigensolver correctness -------------------------------------------------

DISTANCE_ORACLE_CASES = [
    GraphFamily.path(4),
    GraphFamily.cycle(5),
    GraphFamily.complete(4),
    GraphFamily.star(5),
    GraphFamily.multipartite((2, 3)),
    GraphFamily.cycle(7),
    GraphFamily.path(7),
]


@pytest.mark.parametrize("family", DISTANCE_ORACLE_CASES, ids=lambda f: f.kind + str(f.n or f.parts))
def test_distance_eigenvalues_match_exact_arithmetic(family):
    g = generate(family)
    mat = distance_sym(distance_matrix(g))
    got = eig_sym(mat).values
    want = sympy_eigenvalues(mat)
    assert_spectra_close(got, want)


@pytest.mark.parametrize("family", DISTANCE_ORACLE_CASES, ids=lambda f: f.kind + str(f.n or f.parts))
def test_adjacency_eigenvalues_match_exact_arithmetic(family):
    g = generate(family)
    mat = adjacency_matrix(g)
    got = eig_sym(mat).values
    want = sympy_eigenvalues(mat)
    assert_spectra_close(got, want)


def test_complete_graph_spectra(k):
    # adjacency and distance matrices coincide: n-1 once, -1 repeated
    for n in (2, 3, 5, 7):
        s = eig_sym(distance_sym(distance_matrix(k(n)))).values
        assert abs(s[0] - (n - 1)) <= 1e-9
        for v in s[1:]:
            assert abs(v + 1.0) <= 1e-9


def test_petersen_distance_spectrum_closed_form(petersen):
    s = eig_sym(distance_sym(distance_matrix(petersen))).values
    want = [15.0] + [0.0] * 4 + [-3.0] * 5
    assert_spectra_close(s, want, tol=1e-8)


@given(small_sym_matrices())
@settings(max_examples=60)
def test_eigenvalues_preserve_trace_and_frobenius(mat):
    s = eig_sym(mat)
    assert abs(math.fsum(s.values) - mat.trace()) <= 1e-8 * max(1.0, abs(mat.trace()))
    fs = math.fsum(v * v for v in s.values)
    assert abs(fs - mat.frobenius_sq()) <= 1e-8 * max(1.0, mat.frobenius_sq())


def test_one_by_one_matrix_is_its_own_eigenvalue():
    assert eig_sym(SymMatrix.from_rows([[7.5]])).values == (7.5,)


def test_sweep_budget_exhaustion_raises(monkeypatch):
    import destrada.spectra as spectra_mod

    monkeypatch.setattr(spectra_mod, "_MAX_QL_SWEEPS", 0)
    with pytest.raises(EigenConvergenceError):
        eig_sym(SymMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]]))


# --- spectral counts and identities ------------------------------------------

def test_count_positive_uses_strict_threshold(cycle):
    s5 = eig_sym(distance_sym(distance_matrix(cycle(5))))
    assert count_positive(s5) == 1
    k23 = generate(GraphFamily.multipartite((2, 3)))
    sk = eig_sym(distance_sym(distance_matrix(k23)))
    assert count_positive(sk) == 2
    assert count_positive(Spectrum(values=(1.0, 0.0, -1.0))) == 1


@given(connected_graphs(min_n=2))
def test_trace_identities_hold_for_true_spectra(g):
    dm = distance_matrix(g)
    s = eig_sym(distance_sym(dm))
    r_sum, r_sumsq = lemma1_check(s, dm)
    from destrada.metric import sum_sq_distances

    budget = 1e-9 * max(1.0, 2.0 * sum_sq_distances(dm))
    assert r_sum <= budget
    assert r_sumsq <= budget


def test_trace_identities_flag_a_wrong_spectrum(path):
    dm = distance_matrix(path(4))
    bogus = Spectrum(values=(5.0, 1.0, -2.0, -3.0))
    r_sum, r_sumsq = lemma1_check(bogus, dm)
    assert r_sum > 1e-6 or r_sumsq > 1e-6


# --- regular-graph spectrum transforms ---------------------------------------

def regular_cases():
    return [
        generate(GraphFamily.complete(5)),
        generate(GraphFamily.cycle(4)),
        generate(GraphFamily.cycle(5)),
        generate(GraphFamily.multipartite((3, 3))),
        generate(GraphFamily.petersen()),
    ]


def test_distance_spectrum_transform_for_regular_diameter_two():
    for g in regular_cases():
        dm = distance_matrix(g)
        if dm.diameter() > 2:
            continue
        r = g.degree(0)
        assert set(g.degrees()) == {r}
        adj_s = eig_sym(adjacency_matrix(g))
        derived = lemma2_spectrum(adj_s, g.n, r)
        direct = eig_sym(distance_sym(dm))
        assert_spectra_close(derived.values, direct.values, tol=1e-8)


def test_complement_spectrum_transform_for_regular_graphs():
    for g in regular_cases():
        r = g.degree(0)
        adj_s = eig_sym(adjacency_matrix(g))
        derived = complement_adj_spectrum(adj_s, g.n, r)
        direct = eig_sym(adjacency_matrix(complement(g)))
        assert_spectra_close(derived.values, direct.values, tol=1e-8)


def test_transform_applies_to_disconnected_complements():
    # complement of the 3,3 complete bipartite graph is two disjoint triangles
    g = generate(GraphFamily.multipartite((3, 3)))
    adj_s = eig_sym(adjacency_matrix(g))
    derived = complement_adj_spectrum(adj_s, g.n, 3)
    want = [2.0, 2.0, -1.0, -1.0, -1.0, -1.0]
    assert_spectra_close(derived.values, want, tol=1e-8)


def test_transforms_reject_inconsistent_regularity(cycle):
    adj_s = eig_sym(adjacency_matrix(cycle(5)))
    with pytest.raises(ValueError):
        lemma2_spectrum(adj_s, 5, 3)
    with pytest.raises(ValueError):
        complement_adj_spectrum(adj_s, 5, 4)
