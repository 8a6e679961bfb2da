"""Golden files: CLI output must stay byte-identical run over run.

Regenerate deliberately (never casually) with the commands in each case; a
diff here means serialization or numerics changed behavior.
"""

import json
from pathlib import Path

import pytest

from destrada.cli import main
from graph_helpers import assert_same_up_to_rounding, labeled_sweep, summary_json

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = [
    (["compute", "--g6", "C~"], "compute_k4.json"),
    (["compute", "--g6", "Dhc"], "compute_c5.json"),
    (["compute", "--g6", "IheA@GUAo"], "compute_petersen.json"),
    (["bounds", "--g6", "C~", "--format", "csv"], "bounds_k4.csv"),
    (["bounds", "--g6", "Dhc", "--format", "csv"], "bounds_c5.csv"),
    (["bounds", "--g6", "IheA@GUAo", "--format", "csv"], "bounds_petersen.csv"),
    (["sweep", "--family", "cycle", "--n", "3..8"], "sweep_cycles.csv"),
    (["bounds", "--g6", "Dhc", "--format", "json"], "bounds_c5.json"),
    (["compute", "--g6", "Dhc", "--format", "csv"], "compute_c5.csv"),
    # n = 1: null comparisons and the rows that need two vertices skipped
    (["compute", "--g6", "@"], "compute_k1.json"),
    # log-domain rows, with null (JSON) and inf (CSV) cells
    (["sweep", "--family", "path", "--n", "60..62", "--format", "json"], "sweep_paths_60_62.json"),
    (["sweep", "--family", "path", "--n", "60..62"], "sweep_paths_60_62.csv"),
    (["verify", "--max-n", "4", "--format", "json"], "verify_n4.json"),
]


@pytest.mark.parametrize("argv,golden", CASES, ids=[c[1] for c in CASES])
def test_cli_output_matches_golden(argv, golden, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / golden).read_text(encoding="ascii")


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_verification_golden_is_thread_invariant(threads, capsys):
    code = main(["verify", "--max-n", "4", "--format", "json",
                 "--threads", str(threads)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / "verify_n4.json").read_text(encoding="ascii")


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_six_vertex_verification_matches_the_labeled_sweep(fmt, threads, capsys):
    # verify_n6.* pin the class sweep's bytes at every thread count; the
    # labeled sweep, which solves every labeled graph on its own, prints
    # the same ids and verdicts, with slacks equal but for rounding
    code = main(["verify", "--max-n", "6", "--format", fmt, "--threads", str(threads)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / f"verify_n6.{fmt}").read_text(encoding="ascii")
    if fmt == "json":
        assert_same_up_to_rounding(json.loads(out), summary_json(labeled_sweep(6)))


def test_goldens_are_ascii_with_trailing_newline():
    for golden in [c[1] for c in CASES] + [
        "verify_n6.json", "verify_n6.csv", "verify_n7.json", "verify_n7_labeled.json",
    ]:
        raw = (GOLDEN_DIR / golden).read_bytes()
        raw.decode("ascii")
        assert raw.endswith(b"\n")
