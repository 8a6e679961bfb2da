"""Bound catalog: frozen reference values, equality cases, report mechanics.

The numeric targets were computed once with 50-digit mpmath arithmetic from
the definitions and frozen here; the library must reproduce them in float.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from destrada.bounds import (
    ASSERTED,
    CATALOG,
    CATALOG_IDS,
    DESCRIPTIVE,
    STRICT_SLACK,
    BoundReport,
    ExpBound,
    SpectralMismatchError,
    bound_report,
    comparisons_from,
    estrada_index,
    evaluate,
    is_complete_multipartite,
    pair_report,
    reports_from,
)
from destrada.cli import main
from destrada.graphs import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
    to_graph6,
)
from destrada.spectra import Spectrum, adjacency_matrix, eig_sym
from graph_helpers import paley_graph


@st.composite
def connected_graphs(draw, min_n=2, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    npairs = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << npairs) - 1))
    for v in range(1, n):
        mask |= 1 << (v * (v - 1) // 2 + (v - 1))
    return Graph.from_pair_mask(n, mask)


def by_id(reports):
    return {r.theorem_id: r for r in reports}


K23 = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


# --- frozen reference values -------------------------------------------------

FROZEN_DEE = [
    ("complete2", complete_graph(2), 3.08616126963049, 1e-11),
    ("complete3", complete_graph(3), 8.12481498127353, 1e-11),
    ("complete4", complete_graph(4), 21.1891752467020, 1e-11),
    ("complete7", complete_graph(7), 405.636070139764, 1e-9),
    ("cycle5", cycle_graph(5), 404.939722263973, 1e-9),
    ("path3", path_graph(3), 15.9806210697704, 1e-11),
    ("path4", path_graph(4), 175.463938306734, 1e-9),
    ("star4", star_graph(4), 104.936518192989, 1e-9),
    ("petersen", petersen_graph(), 3269021.62140745, 1e-5),
]


@pytest.mark.parametrize(
    "g,want,tol", [c[1:] for c in FROZEN_DEE], ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in FROZEN_DEE]
)
def test_distance_estrada_matches_frozen_values(g, want, tol):
    got = evaluate(g).dee
    assert got.value == pytest.approx(want, abs=tol)
    assert not got.overflowed
    assert got.log_value == pytest.approx(math.log(want), rel=1e-12)


def test_complete_graph_closed_form(k):
    # one eigenvalue n-1 and n-1 copies of -1 give e**(n-1) + (n-1)/e
    for n in range(2, 8):
        want = math.exp(n - 1) + (n - 1) * math.exp(-1.0)
        got = evaluate(k(n)).dee.value
        assert math.isclose(got, want, rel_tol=1e-12)


# the bound operand of each row; the 4-path is self-complementary, so its
# pair row carries the n = 4 pair floor
FROZEN_BOUNDS = [
    ("pair_lower_k2", complete_graph(2), "T1_lower", 2.82842712474619, 1e-12),
    ("pair_lower_p3", path_graph(3), "T1_lower", math.sqrt(17), 1e-12),
    ("diam_upper_p3", path_graph(3), "T1_upper", 136.152804930721, 1e-9),
    ("mean_degree_lower_k3", complete_graph(3), "T2_lower", 8.52439138216726, 1e-11),
    ("mean_degree_lower_p3", path_graph(3), "T2_lower", 15.4613995463727, 1e-11),
    ("degree_profile_lower_c5", cycle_graph(5), "T3_lower", 404.321314133329, 1e-9),
    ("degree_profile_lower_star4", star_graph(4), "T3_lower", 48.9106199103739, 1e-10),
    ("pair_sum_lower_n4", path_graph(4), "T4_ng_lower", 184.056480594120, 1e-9),
    ("strict_upper_k2", complete_graph(2), "T5_upper", 3.71828182845905, 1e-12),
    ("strict_upper_k3", complete_graph(3), "T5_upper", 11.3564690166011, 1e-11),
    ("strict_upper_p3", path_graph(3), "T5_upper", 123.004958405225, 1e-9),
    ("spectral_radius_floor_c5", cycle_graph(5), "L3_lambda1_lower", 6.0, 1e-12),
    ("spectral_radius_floor_p4", path_graph(4), "L3_lambda1_lower", 4.0, 1e-12),
]


@pytest.mark.parametrize("name,g,tid,want,tol", FROZEN_BOUNDS, ids=[c[0] for c in FROZEN_BOUNDS])
def test_bound_operands_match_frozen_values(name, g, tid, want, tol):
    r = by_id(bound_report(g))[tid]
    assert not r.log_domain
    assert r.bound_value == pytest.approx(want, abs=tol)


def test_tie_breaking_in_second_largest_degree(path, star):
    # P4 has degrees (2, 2, 1, 1): both top entries are 2, so the radical
    # is sqrt(4 * 4) = 4, not sqrt(4 * 5)
    ev = evaluate(path(4))
    assert (ev.delta1, ev.delta2) == (2, 2)
    assert by_id(reports_from(ev))["L3_lambda1_lower"].bound_value == pytest.approx(4.0, abs=1e-15)
    got = by_id(bound_report(star(4)))["L3_lambda1_lower"]
    assert got.bound_value == pytest.approx(math.sqrt(15), abs=1e-15)


# --- equality cases ----------------------------------------------------------

def test_two_vertex_equality_of_the_mean_degree_bound(k):
    got = by_id(bound_report(k(2)))["T2_lower"]
    assert math.isclose(got.bound_value, got.observed, rel_tol=1e-12)
    assert got.holds and got.equality


def test_degree_profile_equality_exactly_at_complete_graphs(k, cycle, path, star):
    for n in (2, 3, 4, 5):
        rep = by_id(bound_report(k(n)))["T3_lower"]
        assert rep.holds and rep.equality
    for g in (cycle(5), path(4), star(5)):
        rep = by_id(bound_report(g))["T3_lower"]
        assert rep.holds and not rep.equality


def test_single_vertex_graph_attains_both_base_bounds():
    reps = bound_report(Graph.from_pair_mask(1, 0))
    got = by_id(reps)
    assert got["T1_lower"].equality and got["T1_upper"].equality
    # the regular identity degenerates to 1 = 1 on a single vertex
    assert got["T6_identity"].applicable and got["T6_identity"].equality
    for tid in ("T2_lower", "T3_lower", "T4_ng_lower", "T5_upper",
                "L3_lambda1_lower", "L4_class"):
        assert not got[tid].applicable
        assert got[tid].note == "needs n >= 2"


def test_regular_identity_holds_on_its_domain(k, cycle, petersen):
    for g in (k(4), cycle(5), petersen):
        got = by_id(bound_report(g))["T6_identity"]
        assert got.applicable and got.holds and got.equality
        assert got.observed == evaluate(g).dee.value
        assert math.isclose(got.observed, got.bound_value, rel_tol=1e-9)


# --- preconditions -----------------------------------------------------------

def test_bounds_require_connected_input():
    with pytest.raises(ValueError):
        bound_report(Graph.from_pair_mask(3, 0b001))


def test_bounds_require_two_vertices():
    # the rows that need n >= 2 report inapplicable on K1 (pinned in
    # test_single_vertex_graph_attains_both_base_bounds); the least
    # eigenvalue has no class and the dominance claims no value there
    k1 = Graph.from_pair_mask(1, 0)
    ev = evaluate(k1)
    l4 = by_id(reports_from(ev))["L4_class"]
    assert not l4.applicable and l4.note == "needs n >= 2"
    assert comparisons_from(ev) == (None, None)


# --- overflow-safe arithmetic ------------------------------------------------

def test_exp_bound_value_and_log_value_agree_when_small():
    b = ExpBound(const=3.0, exponent=2.0)
    assert b.value == pytest.approx(3.0 + math.exp(2.0), rel=1e-15)
    assert b.log_value == pytest.approx(math.log(b.value), rel=1e-15)
    assert not b.log_domain


def test_exp_bound_switches_to_log_domain():
    b = ExpBound(const=9.0, exponent=800.0)
    assert b.log_domain
    assert b.value == math.inf
    # the additive constant is far below one ulp of e**800
    assert b.log_value == pytest.approx(800.0, abs=1e-12)


def test_exp_bound_log_value_tracks_large_but_finite_exponents():
    b = ExpBound(const=5.0, exponent=50.0)
    assert not b.log_domain
    assert b.log_value == pytest.approx(math.log(b.value), rel=1e-14)


def test_estrada_index_overflow_contract():
    huge = estrada_index(Spectrum(values=(800.0, 0.0)))
    assert huge.overflowed and huge.value == math.inf
    assert huge.log_value == pytest.approx(800.0, abs=1e-12)
    small = estrada_index(Spectrum(values=(1.0, 0.0, -1.0)))
    assert not small.overflowed
    assert small.log_value == pytest.approx(math.log(small.value), rel=1e-14)


# --- structural classifiers --------------------------------------------------

def classify(g):
    """The class of g's least distance eigenvalue, as its L4 row notes it."""
    return by_id(bound_report(g))["L4_class"].note


def test_complete_and_multipartite_detection(k, cycle, path, star, petersen):
    assert classify(k(4)) == "CompleteCase" and classify(cycle(4)) != "CompleteCase"
    assert is_complete_multipartite(K23)
    assert is_complete_multipartite(cycle(4))      # the 2,2 case
    assert is_complete_multipartite(star(5))       # the 1,n-1 case
    assert is_complete_multipartite(path(3))       # same graph as star(3)
    assert not is_complete_multipartite(cycle(5))
    assert not is_complete_multipartite(path(4))
    assert not is_complete_multipartite(petersen)
    assert is_complete_multipartite(k(3))          # all-singleton parts


def test_regular_diameter_two_detection(k, cycle, path, petersen):
    # the structural equality flag of the spectral-radius floor
    def flagged(g):
        return by_id(bound_report(g))["L3_lambda1_lower"].equality

    assert flagged(k(5))
    assert flagged(cycle(5))
    assert flagged(petersen)
    assert not flagged(cycle(6))       # diameter 3
    assert not flagged(path(3))        # not regular


def test_least_eigenvalue_classes(k, cycle, path, petersen):
    cases = [(k(5), "CompleteCase", -1.0, True), (K23, "MultipartiteCase", -2.0, True)]
    cases += [(g, "Below2383", -2.383, False) for g in (path(4), cycle(5), cycle(6), petersen)]
    for g, note, bound, equality in cases:
        row = by_id(bound_report(g))["L4_class"]
        assert (row.note, row.bound_value, row.equality) == (note, bound, equality)


def test_classifier_rejects_contradictory_spectra(k, path):
    l4_row = CATALOG[CATALOG_IDS.index("L4_class")].report
    for g, least in ((k(4), -3.4), (K23, -1.0), (path(4), -2.0)):
        # least is not the class's value: -1, -2, below -2.383 in turn
        wrong = Spectrum(values=(5.0, -0.5) + (-1.0,) * (g.n - 3) + (least,))
        with pytest.raises(SpectralMismatchError):
            l4_row(dataclasses.replace(evaluate(g), spectrum=wrong))


# --- report catalog ----------------------------------------------------------

DESCRIPTIVE_IDS = {"T2_lower", "T4_ng_lower"}


def test_row_policy_is_pinned_and_matches_the_readme():
    asserted = {r.theorem_id for r in CATALOG if r.verdict == ASSERTED}
    assert asserted == {
        "T1_lower", "T1_upper", "T3_lower", "T5_upper", "T6_identity", "L3_lambda1_lower",
    }
    assert {r.theorem_id for r in CATALOG if r.verdict == DESCRIPTIVE} == DESCRIPTIVE_IDS
    assert {r.theorem_id for r in CATALOG if not r.equality_tracked} == {"L4_class"}
    # README "Bound catalog" table: the same ids in the same order, and a
    # status that starts with the row's verdict
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = text.split("## Bound catalog", 1)[1].split("\n\n| id |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split(" | ") for line in table.splitlines()[2:]]
    assert tuple(cells[0].strip("| `") for cells in rows) == CATALOG_IDS
    for row, cells in zip(CATALOG, rows):
        status = cells[2].rstrip(" |")
        assert status.startswith(ASSERTED) == (row.verdict == ASSERTED), row.theorem_id
        assert status.startswith(DESCRIPTIVE) == (row.verdict == DESCRIPTIVE), row.theorem_id


def test_complement_estrada_index_is_solved_once_and_only_on_demand(petersen, path):
    ev = evaluate(petersen)
    assert "ee_complement" not in vars(ev)
    want = estrada_index(eig_sym(adjacency_matrix(complement(petersen))))
    assert ev.ee_complement == want
    assert ev.ee_complement is ev.ee_complement
    # a graph outside the identity's domain never solves it
    ev = evaluate(path(5))
    reports_from(ev)
    assert "ee_complement" not in vars(ev)

@given(connected_graphs())
@settings(max_examples=80)
def test_catalog_rows_are_complete_and_ordered(g):
    reps = bound_report(g)
    assert tuple(r.theorem_id for r in reps) == CATALOG_IDS
    for r in reps:
        assert isinstance(r, BoundReport)
        if not r.applicable:
            assert r.bound_value is None and r.observed is None
            assert r.note
        elif r.theorem_id not in DESCRIPTIVE_IDS:
            assert r.holds


@given(connected_graphs())
@settings(max_examples=80)
def test_asserted_bounds_hold_on_random_graphs(g):
    ev = evaluate(g)
    got = by_id(reports_from(ev))
    assert got["T1_lower"].holds and got["T1_lower"].slack > STRICT_SLACK
    assert got["T1_upper"].holds and got["T1_upper"].slack > STRICT_SLACK
    assert got["T3_lower"].holds
    assert got["T5_upper"].holds and got["T5_upper"].slack > STRICT_SLACK
    assert got["T3_lower"].equality == (got["L4_class"].note == "CompleteCase")
    assert got["L3_lambda1_lower"].holds
    assert got["L4_class"].holds
    t3_beats, t5_beats = comparisons_from(ev)
    assert t3_beats and t5_beats


def test_catalog_pins_known_k4_behavior(k):
    got = by_id(bound_report(k(4)))
    assert got["T3_lower"].equality
    assert got["T6_identity"].applicable and got["T6_identity"].equality
    assert got["T5_upper"].slack > STRICT_SLACK
    assert got["L4_class"].note == "CompleteCase"
    assert got["L4_class"].equality
    assert got["L3_lambda1_lower"].equality          # regular, diameter 1


def test_pair_bound_row_uses_both_graphs(path):
    # the 4-path is self-complementary, so the observed value is twice its index
    g = path(4)
    got = by_id(bound_report(g))
    row = got["T4_ng_lower"]
    assert row.applicable and row.holds
    assert row.observed == pytest.approx(2 * evaluate(g).dee.value, rel=1e-12)
    assert row.note == "observed is this graph's index plus its complement's"


def test_pair_bound_skips_disconnected_complements(star, k):
    got = by_id(bound_report(star(4)))
    assert not got["T4_ng_lower"].applicable
    assert got["T4_ng_lower"].note == "complement disconnected"
    got = by_id(bound_report(k(3)))
    assert not got["T4_ng_lower"].applicable


def test_pair_bound_fails_at_the_five_cycle(cycle):
    # the 5-cycle is self-complementary and beats the claimed floor from below;
    # the row must report the violation honestly rather than hide it
    got = by_id(bound_report(cycle(5)))
    row = got["T4_ng_lower"]
    assert row.applicable
    assert not row.holds
    assert row.slack == pytest.approx(-2.983099961877, abs=1e-9)
    assert not row.equality


def test_catalog_pair_row_is_the_pair_report_of_both_evaluations(cycle, path):
    # the catalog row solves the complement on its own evaluation; the
    # 62-vertex path's pair sum is in log domain
    for g in (cycle(5), path(62)):
        row = by_id(bound_report(g))["T4_ng_lower"]
        assert row == pair_report(evaluate(g), evaluate(complement(g)))
    assert row.log_domain


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_paley17_rows_sharing_lambda1s_exponential_print_their_failure(capsys):
    # Paley(17) is self-complementary and srg(17, 8, 3, 4): DEE = e**24 +
    # 8 e**((-3 + sqrt 17)/2) + 8 e**((-3 - sqrt 17)/2), and the T2 and T4
    # bounds carry the same e**24, so both rows miss by about 0.75 per
    # graph (50-digit mpmath closed forms) while the tolerance is 1e-9 *
    # e**24, about 26
    assert main(["bounds", "--g6", to_graph6(paley_graph(17)), "--format", "json"]) == 0
    got = {row["theorem_id"]: row for row in json.loads(capsys.readouterr().out)}
    for tid, want in (("T2_lower", -0.7456977798948), ("T4_ng_lower", -1.4913955597896)):
        assert got[tid]["holds"] is False and got[tid]["equality"] is False, tid
        assert abs(got[tid]["slack"] - want) <= 1e-3, tid


def test_mean_degree_row_is_descriptive_and_fails_at_k3(k):
    got = by_id(bound_report(k(3)))
    row = got["T2_lower"]
    assert row.applicable and not row.strict_required
    assert not row.holds
    assert row.slack == pytest.approx(-0.39957640089373, abs=1e-10)
    assert row.note.startswith("descriptive only")


def test_identity_row_inapplicability_notes(path, cycle):
    assert by_id(bound_report(path(4)))["T6_identity"].note == "not regular"
    assert by_id(bound_report(cycle(6)))["T6_identity"].note == "diameter > 2"


def test_spectral_floor_row_documents_structural_equality(cycle, path):
    row = by_id(bound_report(cycle(5)))["L3_lambda1_lower"]
    assert row.equality and "structural" in row.note
    row = by_id(bound_report(path(4)))["L3_lambda1_lower"]
    assert not row.equality


def test_below_threshold_row_is_strict(path):
    row = by_id(bound_report(path(4)))["L4_class"]
    assert row.note == "Below2383"
    assert row.strict_required and row.holds
    assert row.bound_value == -2.383
    assert row.slack > 0


# --- log-domain reporting ----------------------------------------------------

def test_large_graphs_report_upper_bounds_on_the_log_scale(path):
    g = path(30)
    got = by_id(bound_report(g))
    for tid in ("T1_upper", "T5_upper"):
        row = got[tid]
        assert row.log_domain
        assert row.holds
        # log of the observed index, far below the bound's exponent
        assert row.observed == pytest.approx(evaluate(g).dee.log_value, rel=1e-12)
    # lower bounds stay in the value domain here
    assert not got["T1_lower"].log_domain
    t3_beats, t5_beats = comparisons_from(evaluate(g))
    assert t3_beats and t5_beats
