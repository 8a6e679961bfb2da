"""Acceptance gate: thirteen criteria, one test and one pass/fail line each.

Criterion coverage relies on two shared fixtures: an exhaustive sweep of
every connected labeled graph on 2..7 vertices (1,893,731 graphs), and
the enumerated connected regular graphs of diameter <= 2 on up to 8
vertices.  Tolerances are stated inline at each assertion.
"""

import math
import time
from pathlib import Path

import pytest

from destrada.bounds import (
    CATALOG,
    CATALOG_IDS,
    DistSpectrumClass,
    bound_report,
    evaluate,
    lemma4_classify,
)
from destrada.cli import main
from destrada.graphs import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    multipartite_graph,
    path_graph,
)
from destrada.metric import distance_matrix, sum_sq_distances
from destrada.numeric import SplitMix64
from destrada.records import summary_to_json
from destrada.spectra import (
    adjacency_matrix,
    distance_spectrum,
    eig_sym,
    lemma1_check,
    lemma2_spectrum,
)
from destrada.verify import verify_population
from graph_helpers import complete_graph_id, enumerate_regular

POPULATION_COUNTS = ((2, 1), (3, 4), (4, 38), (5, 728), (6, 26704), (7, 1866256))
POPULATION_TOTAL = 1893731
COMPLETE_IDS = ("A_", "Bw", "C~", "D~{", "E~~w", "F~~~w")
FIVE_CYCLE_PAIR_IDS = {"DLo", "DRo", "DMg", "Dbg", "DUW", "DdW"}


@pytest.fixture(scope="module")
def population7():
    t0 = time.monotonic()
    summary = verify_population(7)
    return summary, time.monotonic() - t0


def violations_with(summary, check_id):
    return [v for v in summary.violations if v[1] == check_id]


@pytest.fixture(scope="module")
def regular_diam2_n8():
    out = []
    for n in range(2, 9):
        for r in range(1, n):
            for g in enumerate_regular(n, r, connected_only=True):
                if distance_matrix(g).diameter() <= 2:
                    out.append(g)
    return out


def test_criterion_01_complete_graph_spectra_closed_form(k):
    t0 = time.monotonic()
    for n in range(2, 31):
        s = distance_spectrum(distance_matrix(k(n))).values
        assert abs(s[0] - (n - 1)) <= 1e-9
        for v in s[1:]:
            assert abs(v + 1.0) <= 1e-9
        closed = math.exp(n - 1) + (n - 1) * math.exp(-1.0)
        assert math.isclose(evaluate(k(n)).dee.value, closed, rel_tol=1e-12)
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_trace_identities_across_the_population(population7):
    summary, elapsed = population7
    assert summary.graphs_checked == POPULATION_TOTAL
    assert summary.counts_by_n == POPULATION_COUNTS
    assert violations_with(summary, "L1_identity") == []
    # the one-vertex graph, outside the sweep, satisfies both identities exactly
    k1 = Graph.from_pair_mask(1, 0)
    dm = distance_matrix(k1)
    assert lemma1_check(distance_spectrum(dm), 2 * sum_sq_distances(dm)) == (0.0, 0.0)
    assert elapsed < 600.0, (
        f"single-thread n <= 7 sweep took {elapsed:.1f} s "
        f"({summary.graphs_checked / elapsed:.0f} graphs/s); the bound is 600 s"
    )
    # the whole summary, byte for byte; test_verify ties it to the labeled
    # sweep's verify_n7_labeled.json
    golden = Path(__file__).parent / "golden" / "verify_n7.json"
    assert summary_to_json(summary) + "\n" == golden.read_text(encoding="ascii")


def test_criterion_03_regular_distance_spectrum_transform(regular_diam2_n8, petersen):
    assert sum(1 for g in regular_diam2_n8 if g.n <= 7) == 571
    for g in regular_diam2_n8 + [petersen]:
        mapped = lemma2_spectrum(eig_sym(adjacency_matrix(g)), g.n, g.degrees()[0])
        direct = distance_spectrum(distance_matrix(g))
        diff = max(abs(a - b) for a, b in zip(mapped.values, direct.values))
        assert diff <= 1e-8


def test_criterion_04_spectral_radius_floor_and_equality_set(population7):
    summary, _ = population7
    assert violations_with(summary, "L3_lambda1_lower") == []
    assert violations_with(summary, "L3_equality_iff") == []
    hits = [gid for gid, tid in summary.equality_hits if tid == "L3_lambda1_lower"]
    assert len(hits) == 571


def test_criterion_05_least_eigenvalue_trichotomy(population7):
    summary, _ = population7
    assert violations_with(summary, "L4_contradiction") == []
    assert violations_with(summary, "EIG_convergence") == []
    # the three classes, exercised directly on one representative each
    k5 = complete_graph(5)
    k23 = multipartite_graph((2, 3))
    p4 = path_graph(4)
    classify = lambda g: lemma4_classify(g, distance_spectrum(distance_matrix(g)), complement(g))
    assert classify(k5) is DistSpectrumClass.COMPLETE
    assert classify(k23) is DistSpectrumClass.MULTIPARTITE
    assert classify(p4) is DistSpectrumClass.BELOW_2383


def test_criterion_06_degree_profile_lower_bound_and_equality_set(population7):
    summary, _ = population7
    assert violations_with(summary, "T3_lower") == []
    hits = tuple(gid for gid, tid in summary.equality_hits if tid == "T3_lower")
    assert hits == COMPLETE_IDS


def test_criterion_07_strict_upper_bound_and_its_dominance(population7):
    summary, _ = population7
    assert violations_with(summary, "T5_upper") == []
    assert violations_with(summary, "COMP_t5_vs_t1") == []


def test_criterion_08_lower_bound_dominance(population7):
    summary, _ = population7
    assert violations_with(summary, "COMP_t3_vs_t1") == []
    assert violations_with(summary, "T3_argmax_sanity") == []
    for n, gid, _ in summary.t3_argmax:
        if n >= 3:
            assert gid != complete_graph_id(n)


def test_criterion_09_regular_identity_families(regular_diam2_n8, petersen):
    cases = [complete_graph(n) for n in range(2, 11)]
    cases += [multipartite_graph((m, m)) for m in range(1, 6)]
    cases += [cycle_graph(5), petersen]
    cases += regular_diam2_n8
    # the catalog's own T6 evaluator: reports_from would also solve each
    # complement for the pair row, which this criterion does not read
    t6_row = CATALOG[CATALOG_IDS.index("T6_identity")]
    for g in cases:
        row = t6_row.report(evaluate(g))
        assert row.applicable
        lhs, rhs = row.observed, row.bound_value
        assert abs(lhs - rhs) <= 1e-9 * lhs


def test_criterion_10_complement_pair_bound_findings(population7):
    summary, _ = population7
    # never an asserted failure: every miss lands in findings, distinctly
    assert violations_with(summary, "T4_ng_lower") == []
    t4 = [f for f in summary.findings if f[1] == "T4_ng_lower"]
    assert {gid for gid, _, _ in t4} == FIVE_CYCLE_PAIR_IDS
    for _, _, slack in t4:
        assert slack == pytest.approx(-2.9830999618772, abs=1e-9)
    assert summary.passed
    text = (Path(__file__).parent.parent / "docs" / "findings.md").read_text()
    assert "-2.983099961877" in text and "five-cycle" in text


def test_criterion_11_mean_degree_audit_is_documented(k):
    row = bound_report(k(3))[CATALOG_IDS.index("T2_lower")]
    bound = row.bound_value
    observed = evaluate(k(3)).dee.value
    assert bound == pytest.approx(
        math.exp(2) + math.exp(-2) + 1.0, rel=1e-14
    )
    assert observed == pytest.approx(math.exp(2) + 2 * math.exp(-1), rel=1e-12)
    assert bound > observed  # the claimed lower bound fails at the triangle
    row = bound_report(k(2))[CATALOG_IDS.index("T2_lower")]
    assert math.isclose(row.bound_value, evaluate(k(2)).dee.value, rel_tol=1e-12)
    text = (Path(__file__).parent.parent / "docs" / "findings.md").read_text()
    assert "8.52439138216726" in text
    assert "8.12481498127353" in text
    assert "1e-12" in text


def test_criterion_12_eigensolver_random_matrix_robustness():
    rng = SplitMix64(20260822)
    t0 = time.monotonic()
    for _ in range(1000):
        n = 1 + rng.next_u64() % 64
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = float(rng.next_u64() % 11) - 5.0
                rows[i][j] = x
                rows[j][i] = x
        s = eig_sym(rows)
        tr = math.fsum(rows[i][i] for i in range(n))
        fr = math.fsum(x * x for row in rows for x in row)
        assert abs(math.fsum(s.values) - tr) <= 1e-9 * max(1.0, abs(tr))
        assert abs(math.fsum(v * v for v in s.values) - fr) <= 1e-9 * max(1.0, fr)
    assert time.monotonic() - t0 < 60.0


def test_criterion_13_cli_golden_determinism(capsys):
    golden = Path(__file__).parent / "golden"
    graphs = {"C~": "complete", "Dhc": "cycle", "IheA@GUAo": "petersen"}
    stored = {
        ("compute", "C~"): "compute_k4.json",
        ("compute", "Dhc"): "compute_c5.json",
        ("compute", "IheA@GUAo"): "compute_petersen.json",
        ("bounds", "C~"): "bounds_k4.csv",
        ("bounds", "Dhc"): "bounds_c5.csv",
        ("bounds", "IheA@GUAo"): "bounds_petersen.csv",
    }
    for g6, family in graphs.items():
        fmt = {"compute": [], "bounds": ["--format", "csv"]}
        for cmd, extra in fmt.items():
            outs = []
            for _ in range(2):
                assert main([cmd, "--g6", g6] + extra) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]
            assert outs[0] == (golden / stored[(cmd, g6)]).read_text(encoding="ascii")
        if family == "petersen":
            argv = ["sweep", "--family", "petersen"]
        else:
            n = {"C~": "4", "Dhc": "5"}[g6]
            argv = ["sweep", "--family", family, "--n", n]
        sweeps = []
        for _ in range(3):
            assert main(argv) == 0
            sweeps.append(capsys.readouterr().out)
        assert sweeps[0] == sweeps[1] == sweeps[2]
