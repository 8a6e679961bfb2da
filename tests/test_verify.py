"""Exhaustive-sweep harness: the class sweep against the labeled one, shard
merging, dedup, and summary contents."""

import dataclasses
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import destrada.bounds as bounds_mod
import destrada.spectra as spectra_mod
import destrada.verify as verify_mod
from destrada.bounds import SIGNATURE_ABS_TOL, evaluate, pair_report
from destrada.cli import EXIT_VIOLATION, main
from destrada.graphs import (
    Graph,
    PreconditionError,
    canonical_form,
    complement,
    connected_classes,
    is_connected,
    labelings,
    parse_graph6,
    path_graph,
    to_graph6,
)
from destrada.metric import distance_matrix, sum_sq_distances
from destrada.numeric import fmt15
from destrada.records import summary_to_csv, summary_to_json
from destrada.spectra import (
    EigenConvergenceError,
    Spectrum,
    adjacency_matrix,
    distance_spectrum,
    eig_sym,
    lemma1_check,
    lemma2_spectrum,
)
from destrada.verify import MAX_THREADS, VerificationSummary, verify_population
from graph_helpers import (
    assert_same_up_to_rounding,
    complete_graph_id,
    labeled_sweep,
    summary_json,
)

FULL5 = (1 << 10) - 1  # every vertex pair on five vertices
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


@pytest.fixture(scope="module")
def pop5():
    return verify_population(5)


def test_population_validation():
    with pytest.raises(PreconditionError):
        verify_population(1)
    with pytest.raises(PreconditionError):
        verify_population(9)
    with pytest.raises(PreconditionError):
        verify_population(3, threads=0)
    with pytest.raises(PreconditionError):
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
    # the argmax names a class by its canonical labeling: at n = 5 the
    # graph DBg, which the labeled sweep printed as its labeling DPo
    ids = [row[:2] for row in pop5.t3_argmax]
    assert ids == [(2, "A_"), (3, "BW"), (4, "CL"), (5, "DBg")]
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
    # the classes of each order are dealt round-robin to the shares, and
    # the merge restores (n, mask) order; no process outlives the sweep
    for threads in (2, 3):
        assert verify_population(5, threads=threads) == pop5
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_other_start_methods_print_the_serial_bytes(method, monkeypatch, pop5):
    # the sweep asks for forked workers; workers that import destrada
    # afresh, under spawn or forkserver, print the same bytes too
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(multiprocessing, "get_context", lambda _: context)
    assert summary_to_json(verify_population(5, threads=2)) == summary_to_json(pop5)


def test_shares_partition_the_solves_and_the_class_pairs(monkeypatch):
    # run one after another in this process, the shares of the n <= 7
    # sweep together solve each of the 995 classes once and own each
    # class pair once, for every share count: each class stands in one
    # owned pair, beside its canonical complement when that is connected
    classes = connected_classes(7)
    table = {n: classes[n] for n in range(2, 8)}
    every_class = sorted((n, m) for n in table for m, _ in table[n])
    solved, owned = [], []
    real_evaluate, real_check_pair = verify_mod._evaluate, verify_mod._check_pair

    def spying_evaluate(g):
        solved.append((g.n, g.pair_mask()))
        return real_evaluate(g)

    def spying_check_pair(n, rep, comp_rep):
        owned.append((n, rep, comp_rep))
        return real_check_pair(n, rep, comp_rep)

    monkeypatch.setattr(verify_mod, "_evaluate", spying_evaluate)
    monkeypatch.setattr(verify_mod, "_check_pair", spying_check_pair)
    serial_pairs = None
    for shares in (1, 2, 3, 4):
        solved.clear()
        owned.clear()
        for k in range(shares):
            verify_mod._run_shard(table, k, shares)
        assert sorted(solved) == every_class  # 995, each once
        assert len(solved) == 995
        assert sorted((n, m) for n, rep, comp in owned for m in {rep, comp} - {None}) == every_class
        for n, rep, comp_rep in owned:
            full = (1 << (n * (n - 1) // 2)) - 1
            if is_connected(Graph.from_pair_mask(n, full ^ rep)):
                assert comp_rep == canonical_form(n, full ^ rep)[0]
            else:
                assert comp_rep is None
        serial_pairs = serial_pairs or sorted(owned, key=repr)
        assert sorted(owned, key=repr) == serial_pairs


def test_no_more_shares_than_classes_below_the_top_order(capsys, monkeypatch):
    # n = 2 has one class, so --max-n 3 is one share whatever --threads
    # asks for: it prints the serial bytes and requests no process
    serial = main(["verify", "--max-n", "3"]), capsys.readouterr().out

    def no_process(*args, **kwargs):
        raise AssertionError("a process was requested")

    monkeypatch.setattr(multiprocessing, "get_context", no_process)
    assert (main(["verify", "--max-n", "3", "--threads", "64"]), capsys.readouterr().out) == serial


def test_a_one_share_sweep_imports_no_multiprocessing():
    # the import costs every serial sweep and every `compute` process
    # about 10 ms, so only a sweep that starts processes makes it
    code = (
        "import os, sys; from destrada.cli import main; "
        "codes = [main(['verify', '--max-n', '5', '--out', os.devnull]), "
        "main(['verify', '--max-n', '3', '--threads', '64', '--out', os.devnull])]; "
        "print(codes, 'multiprocessing' in sys.modules)"
    )
    src = Path(verify_mod.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split("\n")[0] == "[0, 0] False"


def test_a_failed_share_raises_and_leaves_no_process(monkeypatch):
    # share 1 of 3 raises from _check_pair in its forked process, which
    # inherits the patched function: the sweep raises instead of waiting
    # for it, and every process it started is gone
    [(victim, _), *_] = verify_mod._owned_pairs(5, connected_classes(5)[5][1::3])
    real = verify_mod._check_pair

    def failing(n, rep, comp_rep):
        if (n, rep) == (5, victim):
            raise ValueError("forced")
        return real(n, rep, comp_rep)

    def hung(signum, frame):
        raise TimeoutError("the sweep did not return")

    monkeypatch.setattr(verify_mod, "_check_pair", failing)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match="verify-share-1 exited with code 1"):
            verify_population(5, threads=3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("max_n", [2, 3, 4, 5, 6])
def test_class_sweep_equals_the_labeled_sweep(max_n, pop5):
    # the labeled sweep solves all 27,475 labeled graphs one by one; the
    # class sweep prints each labeling's slacks from its class's canonical
    # labeling, so the two agree but for rounding in the last digits
    class_sweep = pop5 if max_n == 5 else verify_population(max_n)
    assert_same_up_to_rounding(summary_json(class_sweep), summary_json(labeled_sweep(max_n)))


def test_class_sweep_matches_the_labeled_golden_to_seven_vertices(spied7):
    # verify_n7_labeled.json is what the labeled sweep printed for n <= 7
    golden = Path(__file__).parent / "golden" / "verify_n7_labeled.json"
    reference = json.loads(golden.read_text(encoding="ascii"))
    assert_same_up_to_rounding(summary_json(spied7.summary), reference)


def _graph_of(dm) -> Graph:
    n = dm.n
    return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j) if dm.rows[i][j] == 1])


def _is_regular_diameter_two(g: Graph) -> bool:
    return len(set(g.degrees())) == 1 and distance_matrix(g).diameter() <= 2


@pytest.fixture(scope="module")
def spied7():
    """verify_population(7), with every distance spectrum and adjacency matrix it builds."""
    spectra, adjacency = [], []
    real_spectrum = bounds_mod.distance_spectrum
    real_adjacency = bounds_mod.adjacency_matrix

    def spying_spectrum(dm, *args):
        s = real_spectrum(dm, *args)
        spectra.append((dm, s))
        return s

    def spying_adjacency(g):
        adjacency.append((g.n, g.pair_mask()))
        return real_adjacency(g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds_mod, "distance_spectrum", spying_spectrum)
        for module in (bounds_mod, verify_mod):
            mp.setattr(module, "adjacency_matrix", spying_adjacency)
        summary = verify_population(7)
    return SimpleNamespace(summary=summary, spectra=spectra, adjacency=adjacency)


def test_each_distance_spectrum_is_solved_once(spied7):
    # each class is solved once, on its own canonical labeling, and no
    # other labeling is solved: 995 distance spectra for the 1,893,731
    # labeled graphs up to n = 7, one per class.  The self-complementary
    # classes (P4, the five-cycle and the bull) are not solved twice
    assert spied7.summary.graphs_checked == 1893731
    solved = [(dm.n, _graph_of(dm).pair_mask()) for dm, _ in spied7.spectra]
    assert len(solved) == len(set(solved)) == 995
    classes = connected_classes(7)
    assert set(solved) == {(n, m) for n in range(2, 8) for m, _ in classes[n]}
    # adjacency spectra serve only the regular diameter-<=2 classes:
    # L2_transform solves A(G) and T6_identity A(co-G)
    regular = {(n, m) for n, m in solved if _is_regular_diameter_two(Graph.from_pair_mask(n, m))}
    full = {n: (1 << (n * (n - 1) // 2)) - 1 for n in range(2, 8)}
    assert len(spied7.adjacency) == 2 * len(regular) == 26
    assert all(
        (n, m) in regular or (n, full[n] ^ m) in regular for n, m in spied7.adjacency
    )


def test_a_sweep_builds_only_the_complements_that_t6_reads(monkeypatch):
    # the complement is built on first use: in a sweep only T6_identity's
    # adjacency solve of it reads it, once per regular diameter-<=2 class,
    # and the L4 class is decided from each graph's own adjacency
    built = []
    real = bounds_mod.complement
    monkeypatch.setattr(bounds_mod, "complement", lambda g: built.append(g) or real(g))
    verify_population(6)
    classes = connected_classes(6)
    t6 = [(n, m) for n in range(2, 7) for m, _ in classes[n]
          if _is_regular_diameter_two(Graph.from_pair_mask(n, m))]
    assert sorted((g.n, g.pair_mask()) for g in built) == sorted(t6)


def test_every_solved_distance_spectrum_matches_lapack(spied7):
    # the LAPACK oracle on each of the 995 spectra the sweep solves up to
    # n = 7: numpy eigvalsh within 1e-9 and the trace and second-moment
    # identities
    for dm, s in spied7.spectra:
        lapack = np.linalg.eigvalsh(np.array(dm.rows, dtype=float))[::-1]
        assert np.allclose(s.values, lapack, rtol=0, atol=1e-9)
        moment = 2 * sum_sq_distances(dm)
        res_sum, res_sq = lemma1_check(s, moment)
        assert res_sum <= 1e-9 and res_sq <= 1e-9 * moment
    assert len(spied7.spectra) == 995


def test_every_labeling_of_a_class_prints_the_same_entries(spied7):
    # every printed number is a fact of one canonical labeling, so the
    # labelings of a class carry the same check ids with identical
    # slacks, and every labeling of a class that records anything is
    # printed.  The pair row goes only to the labelings that own their
    # pair, the smaller mask of it and its complement, so it is compared
    # among those owners alone
    s = spied7.summary
    by_labeling = {}
    for kind, entries in (("violation", s.violations), ("finding", s.findings)):
        for gid, cid, slack in entries:
            by_labeling.setdefault(gid, []).append((cid, kind, slack))
    for gid, cid in s.equality_hits:
        by_labeling.setdefault(gid, []).append((cid, "hit", None))
    by_class = {}
    for gid, entries in by_labeling.items():
        g = parse_graph6(gid)
        mask = g.pair_mask()
        rows, pair_rows = by_class.setdefault((g.n, *canonical_form(g.n, mask)), ([], []))
        own = tuple(sorted(e for e in entries if e[0] != "T4_ng_lower"))
        pair = tuple(sorted(e for e in entries if e[0] == "T4_ng_lower"))
        if own:
            rows.append(own)
        if pair:
            assert mask < ((1 << (g.n * (g.n - 1) // 2)) - 1) ^ mask, gid  # an owner
            pair_rows.append(pair)
    for (n, rep, aut), (rows, pair_rows) in by_class.items():
        assert len(rows) in (0, math.factorial(n) // aut), (n, rep)
        assert len(set(rows)) <= 1, (n, rep, set(rows))
        assert len(set(pair_rows)) <= 1, (n, rep, set(pair_rows))
    # the five-cycle: 12 labelings, each with its T2_lower finding, and
    # the pair row on the owner of each of its 6 labeled pairs
    rows, pair_rows = by_class[(5, *canonical_form(5, C5.pair_mask()))]
    assert (len(rows), len(pair_rows)) == (12, 6)
    assert [e[0] for e in rows[0]] == ["L3_lambda1_lower", "T2_lower", "T6_identity"]


def _spectrum_of_each_class(spied7) -> dict:
    """The distance spectrum the sweep solved for each class, by (n, canonical mask)."""
    return {(dm.n, canonical_form(dm.n, _graph_of(dm).pair_mask())[0]): s
            for dm, s in spied7.spectra}


def test_regular_diameter_two_spectra_match_their_adjacency_transform(spied7):
    # L2_transform runs on each class's canonical labeling alone and the summary
    # prints each labeling's slack from its class, so the transform is
    # checked here on every labeling of each regular diameter-<=2 class up
    # to n = 7: solved here, its spectrum matches the transform of its
    # adjacency spectrum, LAPACK, and the spectrum the sweep solved for its
    # class
    by_class = _spectrum_of_each_class(spied7)
    classes = connected_classes(7)
    regular = checked = 0
    for n in range(2, 8):
        for rep, _ in classes[n]:
            if not _is_regular_diameter_two(Graph.from_pair_mask(n, rep)):
                continue
            regular += 1
            for mask in labelings(n, rep):
                h = Graph.from_pair_mask(n, mask)
                dm = distance_matrix(h)
                s = distance_spectrum(dm)
                mapped = lemma2_spectrum(eig_sym(adjacency_matrix(h)), n, h.degrees()[0])
                assert max(abs(a - b) for a, b in zip(mapped.values, s.values)) <= SIGNATURE_ABS_TOL
                lapack = np.linalg.eigvalsh(np.array(dm.rows, dtype=float))[::-1]
                assert np.allclose(s.values, lapack, rtol=0, atol=1e-9)
                assert np.allclose(s.values, by_class[n, rep].values, rtol=0, atol=1e-9)
                checked += 1
    # K2..K7, C4, the five-cycle, K3,3, the prism, the octahedron and the
    # two 4-regular graphs on seven vertices
    assert regular == 13
    assert checked == 1 + 1 + 1 + 3 + 1 + 12 + 1 + 10 + 60 + 15 + 1 + 360 + 105


def test_tie_class_spectra_pass_the_trace_identities(spied7):
    # the n = 6 argmax is named by its class, E@U_ (the labeled sweep
    # printed its labeling ERAG), and ranked by the one spectrum the sweep
    # solved for that class.  That spectrum keeps the trace identities,
    # and each of the class's labelings, solved here, has the same
    # spectrum, keeps the identities and matches LAPACK
    assert spied7.summary.t3_argmax[4][:2] == (6, "E@U_")
    rep, aut = canonical_form(6, parse_graph6("ERAG").pair_mask())
    assert to_graph6(Graph.from_pair_mask(6, rep)) == "E@U_"
    class_spectrum = _spectrum_of_each_class(spied7)[6, rep]
    tie = labelings(6, rep)
    assert len(set(tie)) == math.factorial(6) // aut
    for mask in (rep, *tie):
        dm = distance_matrix(Graph.from_pair_mask(6, mask))
        s = class_spectrum if mask == rep else distance_spectrum(dm)
        moment = 2 * sum_sq_distances(dm)
        res_sum, res_sq = lemma1_check(s, moment)
        assert res_sum <= 1e-9 and res_sq <= 1e-9 * moment
        assert np.allclose(s.values, class_spectrum.values, rtol=0, atol=1e-9)
        lapack = np.linalg.eigvalsh(np.array(dm.rows, dtype=float))[::-1]
        assert np.allclose(s.values, lapack, rtol=0, atol=1e-9)


def _fail_solves_of(monkeypatch, masks: list[int]) -> None:
    """Make the eigensolver give up on the distance matrices of these five-vertex masks."""
    victims = [[list(row) for row in distance_matrix(Graph.from_pair_mask(5, m)).rows]
               for m in masks]
    real = spectra_mod._tridiagonalize

    def failing(a, n):
        if a in victims:
            raise EigenConvergenceError("forced")
        return real(a, n)

    monkeypatch.setattr(spectra_mod, "_tridiagonalize", failing)


def _ids(masks) -> list[str]:
    return [to_graph6(Graph.from_pair_mask(5, m)) for m in sorted(masks)]


PATH5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def test_failed_complement_solve_fails_both_graphs_of_the_pair(monkeypatch, pop5):
    # the bull (a triangle with two pendant vertices) is self-complementary
    # and records nothing.  The sweep solves its canonical labeling once,
    # and that solve stands on both sides of the pair row, so a failed
    # solve is the failure of the complement's solve too.  Each labeled
    # pair has a graph in the complement's place, which fails, and an
    # owner left without the pair row, which fails too, so all 60
    # labelings record EIG_convergence and nothing else
    bull = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
    rep, _ = canonical_form(5, bull.pair_mask())
    assert (rep, rep) in verify_mod._owned_pairs(5, connected_classes(5)[5])
    _fail_solves_of(monkeypatch, [rep])
    summary = verify_population(5)
    assert not summary.passed
    assert [v[:2] for v in summary.violations] == [
        (gid, "EIG_convergence") for gid in _ids(labelings(5, rep))
    ]
    assert (summary.findings, summary.equality_hits) == (pop5.findings, pop5.equality_hits)
    assert summary.t3_argmax == pop5.t3_argmax


def test_failed_representative_solve_fails_its_class_and_every_pair_owner(monkeypatch, pop5):
    # the five-vertex path and its complement, the house, form a class
    # pair, solved on the two canonical labelings.  A failed solve of the
    # house fails every labeling of the house, and every labeling of the
    # path that owns its pair, left without the pair row; the path
    # labelings that do not own their pair record nothing
    rep, _ = canonical_form(5, PATH5.pair_mask())
    house_rep, _ = canonical_form(5, FULL5 ^ rep)
    assert (rep, house_rep) in verify_mod._owned_pairs(5, connected_classes(5)[5])
    _fail_solves_of(monkeypatch, [house_rep])
    summary = verify_population(5)
    owners = {x for x in labelings(5, rep) if x < FULL5 ^ x}
    assert 0 < len(owners) < 60  # pairs are owned from both classes
    assert [v[:2] for v in summary.violations] == [
        (gid, "EIG_convergence") for gid in _ids(owners | set(labelings(5, house_rep)))
    ]
    assert (summary.findings, summary.equality_hits) == (pop5.findings, pop5.equality_hits)
    assert summary.t3_argmax == pop5.t3_argmax


def test_failed_trace_identity_on_a_representative_fails_its_class(monkeypatch, pop5):
    # a check-level failure on a representative is a fact of its class: a
    # second moment that is off on the solved house gives every labeling
    # of the house L1_identity, with no solve of its own, and nothing else
    rep, _ = canonical_form(5, PATH5.pair_mask())
    house_rep, _ = canonical_form(5, FULL5 ^ rep)
    victim_rows = distance_matrix(Graph.from_pair_mask(5, house_rep)).rows
    real = verify_mod.sum_sq_distances
    monkeypatch.setattr(
        verify_mod, "sum_sq_distances", lambda dm: real(dm) + (dm.rows == victim_rows)
    )
    summary = verify_population(5)
    assert [v[:2] for v in summary.violations] == [
        (gid, "L1_identity") for gid in _ids(labelings(5, house_rep))
    ]
    assert (summary.findings, summary.equality_hits) == (pop5.findings, pop5.equality_hits)


C5_LABELINGS = labelings(5, canonical_form(5, C5.pair_mask())[0])


def _c5_adjacency_solves(monkeypatch, module, fake) -> None:
    """Route module's eig_sym through fake(rows, real) on every five-cycle's adjacency matrix."""
    victims = [adjacency_matrix(Graph.from_pair_mask(5, m)) for m in C5_LABELINGS]
    real = module.eig_sym
    monkeypatch.setattr(
        module, "eig_sym",
        lambda rows, *args: fake(rows, real) if rows in victims else real(rows, *args),
    )


def _forced_eig(rows, real):
    raise EigenConvergenceError("forced")


def _shifted_lambda1(rows, real):
    s = real(rows)
    return Spectrum((s.values[0] + 0.5,) + s.values[1:])


@pytest.mark.parametrize("module", [verify_mod, bounds_mod], ids=["L2_transform", "T6_complement"])
def test_failed_adjacency_solve_fails_its_class(module, monkeypatch, capsys, pop5):
    # to five vertices the checks solve adjacency matrices only on K5 and
    # the five-cycle: the L2 transform solves the graph's own, the T6 row
    # its complement's, here another five-cycle.  A failed solve of either
    # is a fact of the class, recorded like a failed distance solve; the
    # pair row, which reads distance spectra only, stands
    _c5_adjacency_solves(monkeypatch, module, _forced_eig)
    summary = verify_population(5)
    c5 = _ids(C5_LABELINGS)
    assert [v[:2] for v in summary.violations] == [(gid, "EIG_convergence") for gid in c5]
    others = [f for f in pop5.findings if f[0] not in c5]
    assert [f for f in summary.findings if f[0] not in c5] == others
    assert main(["verify", "--max-n", "5"]) == EXIT_VIOLATION
    capsys.readouterr()


def test_adjacency_spectrum_off_regularity_fails_the_l2_transform(monkeypatch, capsys, pop5):
    # lemma2_spectrum rejects an adjacency spectrum that does not lead with
    # the degree r; the sweep records that as L2_transform on the class,
    # with |lambda_1(A) - r| as the residual, and leaves every other verdict
    _c5_adjacency_solves(monkeypatch, verify_mod, _shifted_lambda1)
    summary = verify_population(5)
    c5 = _ids(C5_LABELINGS)
    assert [v[:2] for v in summary.violations] == [(gid, "L2_transform") for gid in c5]
    assert all(v[2] == pytest.approx(0.5, abs=1e-12) for v in summary.violations)
    assert (summary.findings, summary.equality_hits) == (pop5.findings, pop5.equality_hits)
    assert main(["verify", "--max-n", "5"]) == EXIT_VIOLATION
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_violation_rows_print_exactly(fmt, monkeypatch, capsys):
    # no golden holds a violation, so this pins how one prints: a failed
    # solve has no slack, null in JSON and nan in CSV; a shifted lambda_1
    # prints its finite residual through fmt15.  Either exits 4
    for fake, check in [(_forced_eig, "EIG_convergence"), (_shifted_lambda1, "L2_transform")]:
        with monkeypatch.context() as mp:
            _c5_adjacency_solves(mp, verify_mod, fake)
            slacks = [v[2] for v in verify_population(5).violations]
            assert main(["verify", "--max-n", "5", "--format", fmt]) == EXIT_VIOLATION
        out = capsys.readouterr().out.splitlines()
        gids = _ids(C5_LABELINGS)
        assert len(slacks) == len(gids)
        assert all(math.isnan(s) == (check == "EIG_convergence") for s in slacks)
        if fmt == "json":
            rows = ", ".join(
                f'[{json.dumps(g)}, "{check}", {"null" if math.isnan(s) else fmt15(s)}]'
                for g, s in zip(gids, slacks)
            )
            assert f'  "violations": [{rows}],' in out
        else:
            rows = [f"violation,{g},{check},{fmt15(s)}" for g, s in zip(gids, slacks)]
            assert [line for line in out if line.startswith("violation,")] == rows


# the CSV row kind of each summary field that holds rows
_CSV_KIND = {
    "counts_by_n": "count",
    "violations": "violation",
    "findings": "finding",
    "equality_hits": "equality",
    "t3_argmax": "argmax",
}


def test_summary_printers_cover_every_field(pop5):
    # a field added to VerificationSummary must reach both printers: the
    # JSON keys are the fields, with passed before the violations, in
    # field order, and every row of a row-holding field is a CSV row
    s = dataclasses.replace(pop5, violations=(("Dhc", "T1_lower", -0.25),))
    names = [f.name for f in dataclasses.fields(VerificationSummary)]
    names.insert(names.index("violations"), "passed")
    assert list(json.loads(summary_to_json(s))) == names
    kinds = [line.split(",")[0] for line in summary_to_csv(s).splitlines()[1:]]
    assert [k for k in kinds if k in names] == ["population", "graphs_checked", "passed"]
    for name in names:
        value = getattr(s, name)
        if isinstance(value, tuple):
            assert kinds.count(_CSV_KIND[name]) == len(value) > 0, name


def test_pair_row_is_symmetric_in_its_two_graphs():
    # the pair row reads only n and the sum of the two indices, so either
    # graph of a pair may be evaluated first: IEEE addition commutes and
    # log_sum_exp is a max plus a correctly rounded fsum.  Every class pair
    # to six vertices, on the two canonical labelings the sweep solves, and
    # the 62-vertex path and its complement, whose pair sum is in log
    # domain, give the same report both ways round
    classes = connected_classes(6)
    pairs = [
        (Graph.from_pair_mask(n, rep), Graph.from_pair_mask(n, comp_rep))
        for n in range(2, 7)
        for rep, comp_rep in verify_mod._owned_pairs(n, classes[n])
        if comp_rep is not None
    ]
    p62 = path_graph(62)
    assert len(pairs) == 40
    for g, comp in [*pairs, (p62, complement(p62))]:
        ev, comp_ev = evaluate(g), evaluate(comp)
        assert pair_report(ev, comp_ev) == pair_report(comp_ev, ev)
    assert pair_report(ev, comp_ev).log_domain


def test_pair_row_hits_land_on_the_owner_alone():
    # the pair row is checked once, on the five-cycle's canonical labeling
    # standing on both sides of it, and goes to the owner of each labeled
    # pair, the smaller mask.  For a five-cycle whose complement has the
    # smaller mask the owner sits in the complement's place, so it, and
    # not the labeling, gets T4_ng_lower
    rep, _ = canonical_form(5, C5.pair_mask())
    assert rep < FULL5 ^ rep  # the representative owns its own pair
    [(cls, side, owner, _)] = verify_mod._check_pair(5, rep, rep)  # one solve
    assert cls == rep
    x = next(m for m in labelings(5, rep) if FULL5 ^ m < m)
    entries = verify_mod._labeled(5, [x, FULL5 ^ x], side, owner)

    def ids(kind, mask):
        return [e[3] for e in entries if e[0] == kind and e[2] == mask]

    assert [e for e in entries if e[0] == verify_mod.VIOLATION] == []
    assert ids(verify_mod.FINDING, FULL5 ^ x) == ["T2_lower", "T4_ng_lower"]
    assert ids(verify_mod.FINDING, x) == ["T2_lower"]
    assert ids(verify_mod.HIT, x) == ids(verify_mod.HIT, FULL5 ^ x) == [
        "T6_identity", "L3_lambda1_lower"]
    [t4] = [e for e in entries if e[3] == "T4_ng_lower"]
    ev = evaluate(Graph.from_pair_mask(5, rep))
    assert t4[4] == pair_report(ev, ev).slack  # the class's own pair
    # the owner rule, a clear last pair bit, picks the smaller mask of
    # every labeled pair on five vertices
    side, owner = [(verify_mod.HIT, "side", None)], [(verify_mod.HIT, "owner", None)]
    got = verify_mod._labeled(5, range(FULL5 + 1), side, owner)
    assert [e[3] == "owner" for e in got] == [m < FULL5 ^ m for m in range(FULL5 + 1)]


def test_t3_argmax_sanity_flags_a_complete_graph_on_top(monkeypatch):
    # a complete graph meets the T3 bound with slack 0, so it tops the
    # chart of an order n >= 3 only when the ranking is broken: K7 forced
    # to the top at n = 7 is the T3_argmax_sanity violation
    real = verify_mod._check_graph

    def boosted(ev):
        entries, t3_slack = real(ev)
        return entries, 1e12 if ev.graph.n == 7 and ev.graph.m == 21 else t3_slack

    monkeypatch.setattr(verify_mod, "_check_graph", boosted)
    summary = verify_population(7)
    k7 = complete_graph_id(7)
    assert summary.t3_argmax[-1] == (7, k7, 1e12)
    assert summary.violations == ((k7, "T3_argmax_sanity", 1e12),)
    assert not summary.passed


def test_passed_property_reflects_violations():
    s = VerificationSummary(
        population="p", max_n=2, graphs_checked=1, counts_by_n=((2, 1),),
        violations=(("A_", "T1_lower", -1.0),), findings=(), equality_hits=(),
        t3_argmax=(),
    )
    assert not s.passed

