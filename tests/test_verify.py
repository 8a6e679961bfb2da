"""Exhaustive-sweep harness: the class sweep against the labeled one, shard
merging, dedup, and summary contents."""

import math

import numpy as np
import pytest

import destrada.bounds as bounds_mod
import destrada.spectra as spectra_mod
import destrada.verify as verify_mod
from destrada.bounds import SIGNATURE_ABS_TOL, BoundReport
from destrada.graphs import (
    Graph,
    canonical_form,
    connected_classes,
    labelings,
    parse_graph6,
    to_graph6,
)
from destrada.metric import distance_matrix, sum_sq_distances
from destrada.spectra import (
    EigenConvergenceError,
    adjacency_matrix,
    eig_sym,
    lemma1_check,
    lemma2_spectrum,
)
from destrada.verify import (
    MAX_THREADS,
    VerificationSummary,
    _row_near_threshold,
    complete_graph_id,
    verify_population,
)
from graph_helpers import labeled_sweep

FULL5 = (1 << 10) - 1  # every vertex pair on five vertices
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


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
    # matrices counts the spectra.  Each class is solved once; the classes
    # that print a slack are solved again on their other labelings, and so
    # are the T3 argmax classes, but never their complement classes: 116
    # matrices for the 771 labeled graphs (the labeled sweep built 771)
    built = _spy_on_distance_matrices(monkeypatch)
    adjacency = []
    real_adjacency = bounds_mod.adjacency_matrix

    def spying_adjacency(g):
        adjacency.append((g.n, g.pair_mask()))
        return real_adjacency(g)

    for module in (bounds_mod, verify_mod):
        monkeypatch.setattr(module, "adjacency_matrix", spying_adjacency)
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
    # adjacency spectra serve only the battery of a class representative:
    # L2_transform solves A(G) and T6_identity A(co-G) for K2..K5, C4 and
    # the five-cycle pair, 14 solves (the labeled battery made 38)
    assert len(adjacency) == 14
    reps = {(n, m) for n in range(2, 6) for m, _ in classes[n]}
    full = {n: (1 << (n * (n - 1) // 2)) - 1 for n in range(2, 6)}
    assert {(n, m) for n, m in adjacency} <= reps | {(n, full[n] ^ m) for n, m in reps}


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


def test_failed_solve_in_a_recorded_class_fails_that_pair_alone(monkeypatch, pop5):
    # every labeling of the five-cycle prints a T2_lower slack and every
    # pair's owner a T4_ng_lower slack, so the lean check solves them all.
    # A failed solve of a partner outside the representative pair fails it
    # and its owner, which cannot evaluate the pair row, as in the labeled
    # sweep; both lose their other entries and nothing else changes
    rep, _ = canonical_form(5, C5.pair_mask())
    victim = next(
        m for m in labelings(5, rep) if m not in (rep, FULL5 ^ rep) and FULL5 ^ m < m
    )
    lost = {to_graph6(Graph.from_pair_mask(5, m)) for m in (victim, FULL5 ^ victim)}
    assert len(lost) == 2
    assert {cid for gid, cid, _ in pop5.findings if gid in lost} == {"T2_lower", "T4_ng_lower"}

    victim_rows = [list(row) for row in distance_matrix(Graph.from_pair_mask(5, victim)).rows]
    real = spectra_mod._tridiagonalize

    def failing(a, n):
        if a == victim_rows:
            raise EigenConvergenceError("forced")
        return real(a, n)

    monkeypatch.setattr(spectra_mod, "_tridiagonalize", failing)
    summary = verify_population(5)
    assert summary == labeled_sweep(5)
    assert sorted(v[:2] for v in summary.violations) == sorted(
        (gid, "EIG_convergence") for gid in lost
    )
    for field in ("findings", "equality_hits"):
        kept = [e for e in getattr(pop5, field) if e[0] not in lost]
        assert list(getattr(summary, field)) == kept
    assert summary.t3_argmax == pop5.t3_argmax


def test_failed_trace_identity_on_a_lean_labeling_is_recorded_there(monkeypatch, pop5):
    # the lean check keeps the L1_identity residuals of every labeling it
    # solves: a five-cycle labeling outside the representative pair whose
    # second moment is off records the violation, and nothing else changes
    rep, _ = canonical_form(5, C5.pair_mask())
    victim = next(m for m in labelings(5, rep) if m not in (rep, FULL5 ^ rep))
    victim_rows = distance_matrix(Graph.from_pair_mask(5, victim)).rows
    real = verify_mod.sum_sq_distances
    monkeypatch.setattr(
        verify_mod, "sum_sq_distances", lambda dm: real(dm) + (dm.rows == victim_rows)
    )
    summary = verify_population(5)
    gid = to_graph6(Graph.from_pair_mask(5, victim))
    assert [v[:2] for v in summary.violations] == [(gid, "L1_identity")]
    assert summary == labeled_sweep(5)
    assert (summary.findings, summary.equality_hits) == (pop5.findings, pop5.equality_hits)


def test_pair_row_hits_land_on_the_owner_alone():
    # T4_ng_lower is checked on whichever graph of a labeled pair owns it,
    # so a copied T4 hit goes to the owner, the smaller mask of a
    # five-cycle and its complement
    side = verify_mod._Side(rows=(), hits=("T4_ng_lower", "T2_lower"), solve=False)
    mask = C5.pair_mask()
    (owner, owner_res), (partner, partner_res) = verify_mod._check_lean(5, mask, side, side)
    assert owner == min(mask, FULL5 ^ mask) and partner == FULL5 ^ owner
    assert [e[3] for e in owner_res[2]] == ["T4_ng_lower", "T2_lower"]
    assert [e[3] for e in partner_res[2]] == ["T2_lower"]


def test_a_pair_row_makes_both_classes_of_the_pair_solve_it():
    # the owner of a labeled pair may fall in either class of a class pair,
    # so a T4_ng_lower finding of the representative owner reaches both
    # classes' specs; the five-vertex path and its complement, the house,
    # are not isomorphic, and the finding is made up for the test
    path = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    rep, _ = canonical_form(5, path.pair_mask())
    comp_rep, _ = canonical_form(5, FULL5 ^ rep)
    rep, comp_rep = min(rep, comp_rep), max(rep, comp_rep)
    owner, partner = sorted((rep, FULL5 ^ rep))
    finding = ((5, owner, "?", "T4_ng_lower", -1.0),)
    # no T3 slack, so neither class is solved for the T3 argmax
    reps = {(5, rep): [(owner, ((), finding, (), math.nan, False)),
                       (partner, ((), (), (), math.nan, False))]}
    [(check, n, masks, sides)] = verify_mod._expansion(5, [(rep, comp_rep)], reps)
    assert check is verify_mod._check_lean and n == 5
    # each class has 5!/2 labelings; all but the representative are walked
    assert len(masks) == math.factorial(5) // 2 - 1
    t4 = verify_mod.CATALOG_IDS.index("T4_ng_lower")
    assert sides == (verify_mod._Side((t4,), (), True),) * 2


@pytest.mark.parametrize(
    "report, near",
    [
        # a T6 equality hit at DEE ~ 405: the signature tolerance is not its threshold
        (BoundReport("T6_identity", True, 405.0, 405.0, 1e-13, True, True, False), False),
        # L3's iff cross-check compares the slack with the signature tolerance
        (BoundReport("L3_lambda1_lower", True, 4.0, 4.0, 1e-8 + 1e-11, True, False, False), True),
        (BoundReport("L3_lambda1_lower", True, 4.0, 4.0, 1e-8 - 1e-11, True, False, False), True),
        # a strict row's verdict compares the slack with zero
        (BoundReport("T5_upper", True, 90.0, 90.0, 0.0, True, True, True), True),
        # L4_class in an equality class: the signature tolerance
        (BoundReport("L4_class", True, -2.0, -2.0 + 1e-8, 1e-8, True, True, False, False,
                     "MultipartiteCase"), True),
    ],
)
def test_noise_band_tests_only_the_thresholds_of_the_rows_own_verdict(report, near):
    assert _row_near_threshold(report) is near


def test_no_class_pair_to_seven_vertices_sits_in_the_noise_band(monkeypatch):
    # the labeled battery is the fallback for a pair with a margin in the
    # band or a check-level failure; up to n = 7 no pair needs it, so every
    # battery runs on a class representative pair
    calls = []
    real = verify_mod._check_pair

    def spying(n, mask):
        results = real(n, mask)
        calls.append((n, mask, results))
        return results

    monkeypatch.setattr(verify_mod, "_check_pair", spying)
    assert verify_population(7).passed
    assert len(calls) == 627  # the class pairs of orders 2..7
    assert all(canonical_form(n, mask)[0] == mask for n, mask, _ in calls)
    assert not any(r[4] for _, _, results in calls for _, r in results)


def test_regular_diameter_two_spectra_match_their_adjacency_transform(monkeypatch):
    # labelings outside a representative pair skip the L2_transform check,
    # so it is made here: every labeling of each regular diameter-<=2 class
    # up to n = 6 prints a slack, is solved once, and its spectrum matches
    # the transform of its adjacency spectrum and LAPACK
    solved = []
    real = bounds_mod.distance_spectrum

    def spying(dm):
        s = real(dm)
        solved.append(((dm.n, dm.rows), s))
        return s

    monkeypatch.setattr(bounds_mod, "distance_spectrum", spying)
    verify_population(6)
    spectra = dict(solved)
    assert len(spectra) == len(solved)
    classes = connected_classes(6)
    checked = 0
    for n in range(2, 7):
        for rep, _ in classes[n]:
            g = Graph.from_pair_mask(n, rep)
            if len(set(g.degrees())) > 1 or distance_matrix(g).diameter() > 2:
                continue
            for mask in labelings(n, rep):
                h = Graph.from_pair_mask(n, mask)
                dm = distance_matrix(h)
                s = spectra[n, dm.rows]
                mapped = lemma2_spectrum(eig_sym(adjacency_matrix(h)), n, h.degrees()[0])
                diff = max(abs(a - b) for a, b in zip(mapped.values, s.values))
                assert diff <= SIGNATURE_ABS_TOL
                lapack = np.linalg.eigvalsh(np.array(dm.rows, dtype=float))[::-1]
                assert np.allclose(s.values, lapack, rtol=0, atol=1e-9)
                checked += 1
    # K2..K6, C4, C5, K3,3, the prism and the octahedron
    assert checked == 1 + 1 + 1 + 3 + 1 + 12 + 1 + 10 + 60 + 15


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
