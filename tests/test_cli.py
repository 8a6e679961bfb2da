"""CLI behavior: exit codes, formats, determinism, output files."""

import json
import multiprocessing

import pytest

import destrada.spectra as spectra_mod
import destrada.verify as verify_mod
from destrada.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_VIOLATION,
    MAX_EDGE_LIST_CHARS,
    main,
)
from destrada.graphs import GraphFamily, generate, to_graph6
from destrada.verify import MAX_THREADS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- compute and bounds ------------------------------------------------------

def test_compute_json_for_a_triangle(capsys):
    code, out, err = run(capsys, "compute", "--g6", "Bw")
    assert code == EXIT_OK and not err
    rec = json.loads(out)
    assert rec["graph_id"] == "Bw"
    assert rec["n"] == 3 and rec["m"] == 3
    assert rec["dee"] == pytest.approx(8.12481498127353, abs=1e-11)
    assert out.endswith("\n")


def test_compute_reads_edge_list_files(capsys, tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "compute", "--edges", str(path))
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["graph_id"] == to_graph6(generate(GraphFamily("path", 4)))
    assert rec["dee"] == pytest.approx(175.463938306734, abs=1e-9)


def test_compute_csv_format(capsys):
    code, out, _ = run(capsys, "compute", "--g6", "C~", "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("graph_id,n,m,rho")
    assert lines[1].startswith("C~,4,6,1,")


def test_bounds_csv_shows_two_vertex_equalities(capsys):
    code, out, _ = run(capsys, "bounds", "--g6", "A_", "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 10
    header = lines[0].split(",")
    eq_col = header.index("equality")
    id_col = header.index("theorem_id")
    eq = {row.split(",")[id_col]: row.split(",")[eq_col] for row in lines[1:]}
    for tid in ("T2_lower", "T3_lower", "T6_identity"):
        assert eq[tid] == "true"
    assert eq["T1_lower"] == "false"


def test_bounds_json_reports_the_five_cycle_pair_violation(capsys):
    code, out, _ = run(capsys, "bounds", "--g6", "Dhc")
    assert code == EXIT_OK
    rows = json.loads(out)
    t4 = next(r for r in rows if r["theorem_id"] == "T4_ng_lower")
    assert t4["holds"] is False


# --- sweeps ------------------------------------------------------------------

def test_sweep_cycles_tracks_the_identity_domain(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "cycle", "--n", "3..8")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 7
    header = lines[0].split(",")
    eq_col = header.index("T6_identity_equality")
    note_col = header.index("T6_identity_note")
    for row, n in zip(lines[1:], range(3, 9)):
        cells = row.split(",")
        if n <= 5:
            assert cells[eq_col] == "true"
            assert cells[note_col] == ""
        else:
            assert cells[eq_col] == ""
            assert cells[note_col] == "diameter > 2"


def test_sweep_json_is_a_record_array(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "complete", "--n", "2..4",
                       "--format", "json")
    assert code == EXIT_OK
    recs = json.loads(out)
    assert [r["graph_id"] for r in recs] == ["A_", "Bw", "C~"]


def test_sweep_petersen_is_a_single_record(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "petersen")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == to_graph6(generate(GraphFamily.petersen()))


def test_sweep_multipartite_needs_parts(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "multipartite", "--parts", "2,3")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 2
    code, _, err = run(capsys, "sweep", "--family", "multipartite")
    assert code == EXIT_PARSE and "parts" in err
    code, _, _ = run(capsys, "sweep", "--family", "multipartite", "--parts", "2,x")
    assert code == EXIT_PARSE


def test_sweep_deterministic_gnp_equals_complete_at_p_one(capsys):
    code, a, _ = run(capsys, "sweep", "--family", "gnp", "--n", "4..6",
                     "--p", "1.0", "--seed", "99")
    assert code == EXIT_OK
    code, b, _ = run(capsys, "sweep", "--family", "complete", "--n", "4..6")
    assert code == EXIT_OK
    assert a == b


def test_sweep_gnp_is_seed_deterministic(capsys):
    args = ("sweep", "--family", "gnp", "--n", "8", "--p", "0.6", "--seed", "12345")
    code, a, _ = run(capsys, *args)
    code2, b, _ = run(capsys, *args)
    assert code == code2 == EXIT_OK
    assert a == b


def test_sweep_range_errors(capsys):
    assert run(capsys, "sweep", "--family", "cycle")[0] == EXIT_PARSE
    assert run(capsys, "sweep", "--family", "cycle", "--n", "5..3")[0] == EXIT_PARSE
    assert run(capsys, "sweep", "--family", "cycle", "--n", "abc")[0] == EXIT_PARSE
    # family constraint: cycles need three vertices
    assert run(capsys, "sweep", "--family", "cycle", "--n", "2")[0] == EXIT_PRECONDITION


def test_sweep_rejects_disconnected_family_members(capsys):
    code, _, err = run(capsys, "sweep", "--family", "gnp", "--n", "3",
                       "--p", "0.0", "--seed", "0")
    assert code == EXIT_PRECONDITION
    assert "not connected" in err


# --- verify ------------------------------------------------------------------

def test_verify_small_population_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--format", "json")
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["passed"] is True
    assert summary["counts_by_n"] == [[2, 1], [3, 4]]
    assert summary["graphs_checked"] == 5


def test_verify_csv_default(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "kind,field1,field2,field3"


def test_verify_max_n_range_is_enforced(capsys):
    assert run(capsys, "verify", "--max-n", "1")[0] == EXIT_PRECONDITION
    assert run(capsys, "verify", "--max-n", "9")[0] == EXIT_PRECONDITION


def test_verify_output_is_identical_across_thread_counts(capsys):
    code, a, _ = run(capsys, "verify", "--max-n", "4", "--threads", "1")
    assert code == EXIT_OK
    code, b, _ = run(capsys, "verify", "--max-n", "4", "--threads", "2")
    assert code == EXIT_OK
    code, c, _ = run(capsys, "verify", "--max-n", "4", "--threads", "3")
    assert code == EXIT_OK
    assert a == b == c


@pytest.mark.parametrize("source", ["flag"])
def test_verify_rejects_thread_counts_above_the_cap_before_any_fork(source, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was requested")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    for threads in (MAX_THREADS + 1, 100000):
        code, out, err = run(capsys, "verify", "--max-n", "6", "--threads", str(threads))
        assert code == EXIT_PRECONDITION
        assert out == "" and f"threads must be in [1, {MAX_THREADS}]" in err


def test_an_internal_value_error_surfaces_as_a_crash(capsys, monkeypatch):
    # exit 3 says an argument was out of range; a ValueError from inside
    # the sweep is the program's own failure and raises out of main
    def broken(spectrum, moment):
        raise ValueError("forced invariant failure")

    monkeypatch.setattr(verify_mod, "lemma1_check", broken)
    with pytest.raises(ValueError, match="forced invariant failure"):
        main(["verify", "--max-n", "4"])
    assert capsys.readouterr().err == ""


# --- input validation and exit codes -----------------------------------------

def test_disconnected_input_exit_code(capsys):
    code, _, err = run(capsys, "compute", "--g6", "A?")
    assert code == EXIT_PRECONDITION
    assert "not connected" in err


def test_malformed_graph6_exit_code(capsys):
    code, _, err = run(capsys, "compute", "--g6", "##")
    assert code == EXIT_PARSE
    assert "error:" in err


def test_missing_edge_file_exit_code(capsys):
    code, _, err = run(capsys, "compute", "--edges", "/no/such/file.txt")
    assert code == EXIT_PARSE
    assert "cannot read" in err


def test_non_ascii_edge_file_exit_code(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"2 1\n0 1\xff\n")
    code, out, err = run(capsys, "compute", "--edges", str(path))
    assert (code, out) == (EXIT_PARSE, "")
    assert "cannot read" in err


def test_edge_file_over_the_size_cap_exit_code(capsys, tmp_path):
    # the file is read only up to one character past the cap, so a huge
    # or endless input is rejected without reading it all
    path = tmp_path / "long.txt"
    path.write_text("2 1\n0 1\n".ljust(MAX_EDGE_LIST_CHARS + 1))
    code, out, err = run(capsys, "compute", "--edges", str(path))
    assert (code, out) == (EXIT_PARSE, "")
    assert f"longer than {MAX_EDGE_LIST_CHARS} characters" in err
    # a file at the cap is read whole, and trailing blanks parse
    path.write_text("2 1\n0 1\n".ljust(MAX_EDGE_LIST_CHARS))
    assert run(capsys, "compute", "--edges", str(path))[0] == EXIT_OK


def test_unwritable_out_exit_code(capsys, tmp_path):
    target = tmp_path / "no" / "x.json"
    code, out, err = run(capsys, "compute", "--g6", "Dhc", "--out", str(target))
    assert (code, out) == (EXIT_PARSE, "")
    assert "cannot write" in err


def test_oversized_edge_list_exit_code(capsys, tmp_path):
    # ids are short-form graph6, so vertex counts beyond 62 are rejected
    n = 70
    lines = [f"{n} {n - 1}"] + [f"{i} {i + 1}" for i in range(n - 1)]
    path = tmp_path / "big.txt"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "compute", "--edges", str(path))
    assert code == EXIT_PARSE
    assert "graph6" in err


def test_argparse_rejections_use_exit_code_two():
    for argv in (
        ["compute"],                                  # no input source
        ["compute", "--g6", "A_", "--format", "xml"],  # unknown format
        ["nosuchcommand"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_sweep_has_no_threads_flag():
    # a sweep runs in one process; --threads belongs to verify only
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "cycle", "--n", "3..5", "--threads", "2"])
    assert exc.value.code == 2


def test_exit_violation_code_is_distinct():
    assert (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_VIOLATION) == (0, 2, 3, 4)


# --- output files and determinism --------------------------------------------

def test_out_flag_writes_the_same_bytes(capsys, tmp_path):
    code, shown, _ = run(capsys, "compute", "--g6", "Dhc")
    assert code == EXIT_OK
    target = tmp_path / "rec.json"
    code2 = main(["compute", "--g6", "Dhc", "--out", str(target)])
    capsys.readouterr()
    assert code2 == EXIT_OK
    assert target.read_text(encoding="ascii") == shown


def test_repeated_runs_are_byte_identical(capsys):
    runs = [run(capsys, "compute", "--g6", "Dhc")[1] for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run(capsys, "bounds", "--g6", "EhEG", "--format", "csv")[1] for _ in range(2)]
    assert runs[0] == runs[1]


def test_oversized_inputs_are_rejected_before_any_solve(capsys, tmp_path, monkeypatch):
    calls = []
    real = spectra_mod._eig_in_place
    monkeypatch.setattr(spectra_mod, "_eig_in_place", lambda a, n: calls.append(n) or real(a, n))
    n = 70
    lines = [f"{n} {n - 1}"] + [f"{i} {i + 1}" for i in range(n - 1)]
    path = tmp_path / "big.txt"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "compute", "--edges", str(path))
    assert code == EXIT_PARSE and "graph6" in err
    code, _, err = run(capsys, "sweep", "--family", "path", "--n", "63")
    assert code == EXIT_PARSE and "graph6" in err
    code, _, err = run(capsys, "sweep", "--family", "multipartite", "--parts", "31,32")
    assert code == EXIT_PARSE and "graph6" in err
    assert calls == []


def test_edge_list_header_is_checked_before_allocation(capsys, tmp_path):
    for header in ("1000000 0", "0 0", "3 4", "3 -1"):
        path = tmp_path / "header.txt"
        path.write_text(header + "\n")
        code, _, err = run(capsys, "compute", "--edges", str(path))
        assert code == EXIT_PARSE, header
        assert "count" in err
