"""The benchmark's own test: short runs of every workload, and checks that bite.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
from run import WORKLOADS, import_cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def _lines(workload: str, trace: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return [json.loads(line) for line in proc.stdout.strip().splitlines()]


@functools.cache
def _run(workload: str, trace: int) -> dict:
    return _lines(workload, trace)[-1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_reports_every_end_to_end_metric(workload):
    res = _run(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_all_runs_each_workload_in_a_fresh_process():
    results = _lines("all", 0)
    assert [r.pop("workload") for r in results] == list(WORKLOADS)
    for name, res in zip(WORKLOADS, results):
        assert res["correct"] is True and res["failed"] == 0
        # the checks of an earlier workload import numpy and networkx;
        # a shared process would report their peak for every later workload
        alone = _run(name, 0)["metrics"]["peak_rss_mb"]["value"]
        assert res["metrics"]["peak_rss_mb"]["value"] == pytest.approx(alone, rel=0.1)


def test_traced_run_reports_every_per_layer_metric():
    res = _run("compute-large", 1)
    assert res["correct"] is True and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["metrics"]["spectra.eig_sym_calls"]["value"] > 0


@pytest.fixture(scope="module")
def cli_main():
    return import_cli()


def test_checks_reject_a_moved_dee_log(cli_main, tmp_path):
    n, edges = 46, inputs.path(46)
    out = tmp_path / "rec.json"
    assert cli_main(["compute", "--g6", inputs.graph6(n, edges), "--format", "json", "--out", str(out)]) == 0
    text = out.read_text(encoding="ascii")
    assert oracle.check_record(text, n, edges) == []
    rec = json.loads(text)
    rec["dee_log"] *= 1 + 1e-8
    assert any("dee_log" in e for e in oracle.check_record(json.dumps(rec), n, edges))


@pytest.fixture(scope="module")
def verify_output(cli_main, tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "summary.json"
    rc = cli_main(["verify", "--max-n", "6", "--threads", "1", "--format", "json", "--out", str(out)])
    return rc, json.loads(out.read_text(encoding="ascii"))


@pytest.fixture(scope="module")
def facts():
    return oracle.VerifyOracle()


def test_checks_pass_the_real_sweep(verify_output, facts):
    rc, summary = verify_output
    assert oracle.check_verify(json.dumps(summary), rc, facts) == []


@pytest.mark.parametrize("row", ["T2_lower", "T4_ng_lower"])
def test_checks_reject_a_dropped_finding(verify_output, facts, row):
    rc, summary = verify_output
    summary = json.loads(json.dumps(summary))
    summary["findings"].remove(next(f for f in summary["findings"] if f[1] == row))
    assert any(row in e for e in oracle.check_verify(json.dumps(summary), rc, facts))


def test_checks_reject_a_changed_count(verify_output, facts):
    rc, summary = verify_output
    summary = json.loads(json.dumps(summary))
    summary["counts_by_n"][3][1] += 1
    assert any("A001187" in e for e in oracle.check_verify(json.dumps(summary), rc, facts))
