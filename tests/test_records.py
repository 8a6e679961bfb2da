"""Serialization: stdlib json must parse our hand-rolled emitters byte-for-byte."""

import csv
import io
import json
import math

import pytest

import destrada.bounds as bounds_mod
import destrada.records as records_mod
import destrada.spectra as spectra_mod
from destrada.bounds import CATALOG_IDS, bound_report, evaluate
from destrada.graphs import Graph, GraphFamily, generate, to_graph6
from destrada.numeric import fmt15
from destrada.records import (
    BOUNDS_CSV_HEADER,
    RECORD_CSV_HEADER,
    bounds_to_csv,
    bounds_to_json,
    build_record,
    record_to_csv_row,
    record_to_json,
    records_to_csv,
    summary_to_csv,
    summary_to_json,
)
from destrada.verify import verify_population

RECORD_FIELDS = [
    "graph_id", "n", "m", "rho", "delta1", "delta2", "spectrum",
    "dee", "dee_log", "dee_log_domain", "ee_complement", "comparisons", "bounds",
]

BOUND_FIELDS = [
    "theorem_id", "applicable", "bound_value", "observed", "slack",
    "holds", "equality", "strict_required", "log_domain", "note",
]


# --- float formatting --------------------------------------------------------

def test_fmt15_pins():
    assert fmt15(0.1) == "0.1"
    assert fmt15(-0.0) == "0"
    assert fmt15(math.pi) == "3.14159265358979"
    assert fmt15(1.0) == "1"
    assert fmt15(math.inf) == "inf"
    assert fmt15(math.nan) == "nan"


def test_fmt15_round_trips_to_fifteen_digits():
    for x in (1.0 / 3.0, 2.0**0.5, 404.939722263973, -2.983099961877201):
        assert float(fmt15(x)) == pytest.approx(x, rel=1e-14)


# --- per-graph JSON ----------------------------------------------------------

def test_record_json_parses_and_keeps_field_order(cycle):
    rec = build_record(cycle(5))
    text = record_to_json(rec)
    parsed = json.loads(text)
    assert list(parsed.keys()) == RECORD_FIELDS
    assert parsed["graph_id"] == "Dhc"
    assert (parsed["n"], parsed["m"], parsed["rho"]) == (5, 5, 2)
    assert (parsed["delta1"], parsed["delta2"]) == (2, 2)
    assert len(parsed["spectrum"]) == 5
    assert parsed["dee"] == pytest.approx(404.939722263973, abs=1e-9)
    assert parsed["dee_log"] == pytest.approx(math.log(parsed["dee"]), rel=1e-12)
    assert parsed["dee_log_domain"] is False
    assert parsed["comparisons"] == {"t3_beats_t1": True, "t5_beats_t1": True}
    assert len(parsed["bounds"]) == 9
    for row in parsed["bounds"]:
        assert list(row.keys()) == BOUND_FIELDS
    assert [row["theorem_id"] for row in parsed["bounds"]] == list(CATALOG_IDS)


def test_record_json_single_vertex_uses_nulls():
    parsed = json.loads(record_to_json(build_record(Graph.from_pair_mask(1, 0))))
    assert parsed["comparisons"] == {"t3_beats_t1": None, "t5_beats_t1": None}
    assert (parsed["delta1"], parsed["delta2"]) == (0, 0)
    skipped = [b for b in parsed["bounds"] if not b["applicable"]]
    assert skipped
    for b in skipped:
        assert b["bound_value"] is None and b["observed"] is None
        assert b["slack"] is None and b["holds"] is None


def test_record_json_escapes_backslash_graph_ids():
    # mask 46 on four vertices encodes to a graph6 payload containing a backslash
    g = Graph.from_pair_mask(4, 46)
    assert to_graph6(g) == "C\\"
    text = record_to_json(build_record(g))
    assert '"C\\\\"' in text
    assert json.loads(text)["graph_id"] == "C\\"


def test_record_solves_the_complement_adjacency_spectrum_once(petersen, monkeypatch):
    # Petersen is regular with diameter 2, so the identity row and the
    # ee_complement field both need EE of the complement; the distance
    # spectrum takes its own path, so this counts the adjacency solves
    calls = []
    real = spectra_mod.eig_sym

    def counting(mat, *args):
        calls.append(mat)
        return real(mat, *args)

    for mod in (bounds_mod, records_mod, spectra_mod):
        if hasattr(mod, "eig_sym"):
            monkeypatch.setattr(mod, "eig_sym", counting)
    rec = build_record(petersen)
    assert len(calls) == 1
    t6 = rec.bounds[CATALOG_IDS.index("T6_identity")]
    assert t6.applicable and t6.holds


def test_record_json_is_deterministic(petersen):
    a = record_to_json(build_record(petersen))
    b = record_to_json(build_record(petersen))
    assert a == b


def test_overflowed_index_serializes_as_null_value():
    g = generate(GraphFamily("path", 62))
    rec = build_record(g)
    assert rec.dee_log_domain
    assert rec.dee == math.inf
    assert rec.dee_log > 700.0
    parsed = json.loads(record_to_json(rec))
    assert parsed["dee"] is None
    assert parsed["dee_log"] == pytest.approx(rec.dee_log, rel=1e-14)
    assert parsed["dee_log_domain"] is True
    # the CSV value cell degrades to inf; consumers should read dee_log
    row = record_to_csv_row(rec)
    cells = row.split(",")
    assert cells[RECORD_CSV_HEADER.split(",").index("dee")] == "inf"
    assert cells[RECORD_CSV_HEADER.split(",").index("dee_log_domain")] == "true"


# --- per-graph CSV -----------------------------------------------------------

def test_record_csv_shape_and_cells(k):
    rec = build_record(k(4))
    header = RECORD_CSV_HEADER.split(",")
    assert len(header) == 12 + 9 * 7
    row = record_to_csv_row(rec).split(",")
    assert len(row) == len(header)
    at = {name: row[i] for i, name in enumerate(header)}
    assert at["graph_id"] == "C~"
    assert at["n"] == "4" and at["m"] == "6" and at["rho"] == "1"
    assert at["dee"] == fmt15(evaluate(k(4)).dee.value)
    assert at["t3_beats_t1"] == "true" and at["t5_beats_t1"] == "true"
    assert at["T3_lower_equality"] == "true"
    assert at["T6_identity_holds"] == "true"
    assert at["L4_class_note"] == "CompleteCase"


def test_record_csv_parses_with_stdlib_reader(cycle, star):
    text = records_to_csv([build_record(cycle(6)), build_record(star(5))])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == RECORD_CSV_HEADER.split(",")
    assert len(rows) == 3
    assert all(len(r) == len(rows[0]) for r in rows)
    assert rows[1][0] == "EhEG"
    assert rows[2][0] == "Ds_"
    assert text.endswith("\n")


def test_notes_never_contain_commas(k, cycle, path, star):
    for g in (k(1), k(3), cycle(5), cycle(6), path(4), star(4)):
        for rep in bound_report(g):
            assert "," not in rep.note


# --- bounds-only serializations ----------------------------------------------

def test_bounds_json_and_csv(cycle):
    reps = bound_report(cycle(5))
    parsed = json.loads(bounds_to_json(reps))
    assert [b["theorem_id"] for b in parsed] == list(CATALOG_IDS)
    t4 = next(b for b in parsed if b["theorem_id"] == "T4_ng_lower")
    assert t4["holds"] is False
    assert t4["slack"] == pytest.approx(-2.983099961877, abs=1e-9)
    text = bounds_to_csv(reps)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == BOUNDS_CSV_HEADER.split(",")
    assert len(rows) == 10
    assert all(len(r) == 10 for r in rows)


# --- verification summaries --------------------------------------------------

@pytest.fixture(scope="module")
def small_summary():
    return verify_population(3)


def test_summary_json(small_summary):
    parsed = json.loads(summary_to_json(small_summary))
    assert parsed["max_n"] == 3
    assert parsed["graphs_checked"] == 5
    assert parsed["counts_by_n"] == [[2, 1], [3, 4]]
    assert parsed["passed"] is True
    assert parsed["violations"] == []
    # the triangle already defeats the mean-degree lower bound
    finds = parsed["findings"]
    assert ["Bw", "T2_lower", finds[0][2]] in finds
    assert parsed["t3_argmax"][0][0] == 2
    assert "connected labeled graphs" in parsed["population"]


def test_summary_csv(small_summary):
    text = summary_to_csv(small_summary)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["kind", "field1", "field2", "field3"]
    kinds = {r[0] for r in rows[1:]}
    assert {"population", "graphs_checked", "passed", "count"} <= kinds
    assert all(len(r) == 4 for r in rows)
    counts = [(int(r[1]), int(r[2])) for r in rows if r[0] == "count"]
    assert counts == [(2, 1), (3, 4)]
    passed = next(r for r in rows if r[0] == "passed")
    assert passed[1] == "true"
