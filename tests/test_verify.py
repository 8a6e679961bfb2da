"""Exhaustive-sweep harness: the class sweep against the labeled one, shard
merging, dedup, and summary contents."""

import math

import numpy as np
import pytest

import destrada.bounds as bounds_mod
import destrada.spectra as spectra_mod
from destrada.graphs import (
    Graph,
    canonical_form,
    connected_classes,
    labelings,
    parse_graph6,
    to_graph6,
)
from destrada.metric import distance_matrix, sum_sq_distances
from destrada.spectra import EigenConvergenceError, lemma1_check
from destrada.verify import (
    MAX_THREADS,
    VerificationSummary,
    complete_graph_id,
    verify_population,
)
from graph_helpers import labeled_sweep

FULL5 = (1 << 10) - 1  # every vertex pair on five vertices


@pytest.fixture(scope="module")
def pop5():
    return verify_population(5)


def test_population_validation():
    with pytest.raises(ValueError):
        verify_population(1)
    with pytest.raises(ValueError):
        verify_population(9)
    with pytest.raises(ValueError):
        verify_population(3, threads=0)
    with pytest.raises(ValueError):
        verify_population(3, threads=MAX_THREADS + 1)


def test_two_vertex_population():
    s = verify_population(2)
    assert s.graphs_checked == 1
    assert s.counts_by_n == ((2, 1),)
    assert s.passed
    assert s.findings == ()
    # the single edge attains four catalog equalities at once
    assert set(s.equality_hits) == {
        ("A_", "T2_lower"), ("A_", "T3_lower"),
        ("A_", "T6_identity"), ("A_", "L3_lambda1_lower"),
    }
    assert s.t3_argmax[0][:2] == (2, "A_")


def test_counts_and_argmax_to_five_vertices(pop5):
    assert pop5.counts_by_n == ((2, 1), (3, 4), (4, 38), (5, 728))
    assert pop5.graphs_checked == 771
    assert pop5.passed and pop5.violations == ()
    ids = [row[:2] for row in pop5.t3_argmax]
    assert ids == [(2, "A_"), (3, "Bg"), (4, "Ck"), (5, "DPo")]
    # the equality-only complete graph never tops the slack chart past n=2
    for n, gid, _ in pop5.t3_argmax:
        if n >= 3:
            assert gid != complete_graph_id(n)


def test_five_cycle_pair_findings_are_deduplicated(pop5):
    t4 = [f for f in pop5.findings if f[1] == "T4_ng_lower"]
    # twelve labeled five-cycles pair up into six unordered complement pairs
    assert len(t4) == 6
    assert {gid for gid, _, _ in t4} == {"DLo", "DRo", "DMg", "Dbg", "DUW", "DdW"}
    for _, _, slack in t4:
        assert slack == pytest.approx(-2.9830999618772, abs=1e-9)


def test_descriptive_failures_never_block_passing(pop5):
    assert pop5.findings
    assert pop5.passed
    t2 = [f for f in pop5.findings if f[1] == "T2_lower"]
    assert any(gid == "Bw" for gid, _, _ in t2)


def test_sharded_run_matches_serial(pop5):
    # the full pair mask at n = 5 is odd, so with two shards every complement
    # pair has one mask in each shard; three shards mix split and shared pairs
    for threads in (2, 3):
        assert verify_population(5, threads=threads) == pop5


@pytest.mark.parametrize("max_n", [2, 3, 4, 5, 6])
def test_class_sweep_equals_the_labeled_sweep(max_n, pop5):
    # the labeled sweep checks all 27,475 labeled graphs one by one
    class_sweep = pop5 if max_n == 5 else verify_population(max_n)
    assert class_sweep == labeled_sweep(max_n)


def _spy_on_distance_matrices(monkeypatch) -> list[tuple[int, int]]:
    """(n, pair mask) of every distance matrix built from now on."""
    built = []
    real = bounds_mod.distance_matrix

    def counting(g):
        built.append((g.n, g.pair_mask()))
        return real(g)

    monkeypatch.setattr(bounds_mod, "distance_matrix", counting)
    return built


def test_each_distance_spectrum_is_solved_once(monkeypatch):
    # every distance matrix the sweep builds is eigensolved, so counting the
    # matrices counts the spectra.  Each class is solved once; the pairs that
    # record something are solved again on their other labelings, and so
    # are the T3 argmax classes, but never their complement classes: 116
    # matrices for the 771 labeled graphs (the labeled sweep built 771)
    built = _spy_on_distance_matrices(monkeypatch)
    summary = verify_population(5)
    assert summary.graphs_checked == 771
    assert len(built) == 116
    assert len(set(built)) == len(built)
    classes = connected_classes(5)
    assert {(n, canonical_form(n, m)[0]) for n, m in built} == {
        (n, m) for n in range(2, 6) for m, _ in classes[n]
    }
    # the argmax DPo's class records nothing; of its complement class only
    # the complement of the class representative is solved
    assert summary.t3_argmax[-1][:2] == (5, "DPo")
    rep, _ = canonical_form(5, parse_graph6("DPo").pair_mask())
    solved5 = {m for n, m in built if n == 5}
    assert solved5 >= set(labelings(5, rep))
    assert solved5 & set(labelings(5, FULL5 ^ rep)) == {FULL5 ^ rep}


def test_failed_complement_solve_fails_both_graphs_of_the_pair(monkeypatch):
    # the bull (a triangle with two pendant vertices) is self-complementary,
    # records nothing and is not the T3 argmax, so the sweep solves only its
    # representative pair: the canonical labeling and its complement, one
    # of which owns the pair.  A failed solve of the partner leaves the
    # owner without the pair row, so both record the failed solve, and the
    # failure makes the sweep expand the class into all 60 labelings
    bull = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
    rep, _ = canonical_form(5, bull.pair_mask())
    owner, partner = sorted((rep, FULL5 ^ rep))
    bull_labelings = set(labelings(5, rep))

    built = _spy_on_distance_matrices(monkeypatch)
    assert verify_population(5).passed
    assert {m for n, m in built if n == 5} & bull_labelings == {owner, partner}

    partner_rows = [list(row) for row in distance_matrix(Graph.from_pair_mask(5, partner)).rows]
    real = spectra_mod._tridiagonalize

    def failing(a, n):
        if a == partner_rows:
            raise EigenConvergenceError("forced")
        return real(a, n)

    monkeypatch.setattr(spectra_mod, "_tridiagonalize", failing)
    built.clear()
    summary = verify_population(5)
    failed = {gid for gid, cid, _ in summary.violations if cid == "EIG_convergence"}
    assert failed == {to_graph6(Graph.from_pair_mask(5, m)) for m in (owner, partner)}
    assert not summary.passed
    assert {m for n, m in built if n == 5} >= bull_labelings
    assert summary == labeled_sweep(5)


def test_failed_solve_of_a_tie_labeling_fails_that_labeling_alone(monkeypatch, pop5):
    # DPo's class is expanded only for the T3 argmax, so each of its
    # labelings but the representative gets its own solve and nothing else
    rep, _ = canonical_form(5, parse_graph6("DPo").pair_mask())
    victim = next(
        m for m in labelings(5, rep)
        if m != rep and to_graph6(Graph.from_pair_mask(5, m)) != "DPo"
    )
    victim_rows = [list(row) for row in distance_matrix(Graph.from_pair_mask(5, victim)).rows]
    real = spectra_mod._tridiagonalize

    def failing(a, n):
        if a == victim_rows:
            raise EigenConvergenceError("forced")
        return real(a, n)

    monkeypatch.setattr(spectra_mod, "_tridiagonalize", failing)
    summary = verify_population(5)
    failed = [(gid, cid) for gid, cid, _ in summary.violations if cid == "EIG_convergence"]
    assert failed == [(to_graph6(Graph.from_pair_mask(5, victim)), "EIG_convergence")]
    assert not summary.passed
    assert [v for v in summary.violations if v[1] != "EIG_convergence"] == list(pop5.violations)
    assert summary.findings == pop5.findings
    assert summary.equality_hits == pop5.equality_hits
    assert summary.t3_argmax == pop5.t3_argmax


def test_tie_class_spectra_pass_the_trace_identities(monkeypatch):
    # the labelings of the n = 6 argmax class skip the battery, so the
    # spectra they are ranked by are checked here: each labeling is solved
    # once, keeps the trace identities and matches LAPACK
    solved = []
    real = bounds_mod.distance_spectrum

    def spying(dm):
        s = real(dm)
        solved.append((dm, s))
        return s

    monkeypatch.setattr(bounds_mod, "distance_spectrum", spying)
    summary = verify_population(6)
    assert summary.t3_argmax[-1][:2] == (6, "ERAG")
    rep, aut = canonical_form(6, parse_graph6("ERAG").pair_mask())
    tie = []
    for dm, s in solved:
        if dm.n == 6:
            adj = Graph.from_edges(6, [(i, j) for j in range(6) for i in range(j)
                                       if dm.rows[i][j] == 1])
            if canonical_form(6, adj.pair_mask())[0] == rep:
                tie.append((adj.pair_mask(), dm, s))
    assert len(tie) == len({m for m, _, _ in tie}) == math.factorial(6) // aut
    for _, dm, s in tie:
        moment = 2 * sum_sq_distances(dm)
        res_sum, res_sq = lemma1_check(s, moment)
        assert res_sum <= 1e-9 and res_sq <= 1e-9 * moment
        lapack = np.linalg.eigvalsh(np.array(dm.rows, dtype=float))[::-1]
        assert np.allclose(s.values, lapack, rtol=0, atol=1e-9)


def test_passed_property_reflects_violations():
    s = VerificationSummary(
        population="p", max_n=2, graphs_checked=1, counts_by_n=((2, 1),),
        violations=(("A_", "T1_lower", -1.0),), findings=(), equality_hits=(),
        t3_argmax=(),
    )
    assert not s.passed


def test_complete_graph_ids():
    assert [complete_graph_id(n) for n in range(2, 8)] == [
        "A_", "Bw", "C~", "D~{", "E~~w", "F~~~w",
    ]
