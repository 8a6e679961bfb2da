#!/usr/bin/env python3
"""Benchmark of the destrada CLI, end to end and per layer.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload verify-n6 --seed 1 --seconds 30 --trace 0

`--workload all` runs every workload in turn, each in a fresh process
so that no workload's figures (peak RSS above all) carry another's.
Each operation is one in-process call of `destrada.cli.main(argv)`, the
console entry point, writing its output to a file under perfbench/out/.
Workloads run as a closed loop with one client: whole rounds of the same
invocations are repeated until `--seconds` have passed.  Outputs are
checked after the timed section against numpy/networkx computations (see
oracle.py).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones (see spans.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from inputs import VERIFY_GRAPHS, VERIFY_MAX_N, compute_large_inputs, graph6

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# set-up probes before the timed loop and after it, so that one run's
# median spans the host's speed at both ends of the run
SETUP_REPEATS = (6, 5)
SAMPLE_PER_N = 6  # enumerated graphs per order checked through `compute`
WORKLOADS = ("verify-n6", "verify-n6-par2", "compute-large")


def import_cli():
    """destrada.cli.main from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(ROOT / "src"))
    import destrada.cli

    if not Path(destrada.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"destrada was imported from {destrada.cli.__file__}, not from {ROOT / 'src'}")
    return destrada.cli.main


class Workload:
    """One round of CLI invocations and the graphs each answers."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.out_dir = OUT / name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.inputs = []
        if name == "compute-large":
            self.inputs = compute_large_inputs(seed, self.out_dir)
            self.ops = [
                (f"{cmd}:{idx}", [cmd, *inp.flags, "--format", "json",
                                  "--out", str(self.out_dir / f"{cmd}-{idx:02d}.json")], 1)
                for idx, inp in enumerate(self.inputs) for cmd in ("compute", "bounds")
            ]
            self.warmup = self.ops[0][1]
        else:
            self.threads = "2" if name == "verify-n6-par2" else "1"
            self.ops = [("verify", self.verify_argv(VERIFY_MAX_N, self.threads), VERIFY_GRAPHS)]
            # the same code paths (fork pool included) over the 43 graphs up to n = 4
            self.warmup = self.verify_argv(4, self.threads)

    def verify_argv(self, max_n: int, threads: str, out: str = "verify.json") -> list[str]:
        return ["verify", "--max-n", str(max_n), "--threads", threads,
                "--format", "json", "--out", str(self.out_dir / out)]


def run_op(cli_main, argv):
    """(exit code or None on an exception, wall seconds, output bytes or None)."""
    out = Path(argv[argv.index("--out") + 1])
    out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        rc = cli_main(argv)
    except Exception:  # one failed operation; the loop goes on
        traceback.print_exc(file=sys.stderr)
        rc = None
    dt = time.perf_counter() - t0
    return rc, dt, (out.read_bytes() if out.exists() else None)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its largest reaped child's peak RSS.

    The own peak is VmHWM: Linux carries the peak of the image that exec
    replaced into ru_maxrss, so that would report whatever started the
    benchmark whenever it is the larger.
    """
    status = Path("/proc/self/status").read_text(encoding="ascii")
    own = next(int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:"))
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # both in KiB


def setup_probe(workload: str, seed: int) -> None:
    """The set-up a fresh process pays: import, build inputs, one warm-up invocation."""
    cli_main = import_cli()
    wl = Workload(workload, seed)
    rc, _, _ = run_op(cli_main, wl.warmup)
    sys.exit(0 if rc == 0 else 1)


def timed_setup(workload: str, seed: int, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def check_outputs(wl: Workload, outputs: dict, exit_codes: list, cli_main) -> tuple[set[int], list[str]]:
    """Indices of failed operations, and every error found; runs after the timed section.

    outputs maps each operation label to its distinct output bytes, each
    with the indices of the operations that wrote them.
    """
    # imported only now, so numpy and networkx stay out of the peak RSS
    # and out of the set-up probes, which import this file
    import oracle

    failed = {i for i, rc in enumerate(exit_codes) if rc != 0}
    errors = [f"operation {i} exited with {exit_codes[i]}" for i in sorted(failed)]

    def judge(label, errs_of):
        for data, ops in outputs.get(label, {}).items():
            errs = ["no output"] if data is None else errs_of(data.decode("ascii"), ops)
            if errs:
                failed.update(ops)
                errors.extend(f"{label}: {e}" for e in errs)

    if wl.name == "compute-large":
        for idx, inp in enumerate(wl.inputs):
            judge(f"compute:{idx}", lambda text, ops, inp=inp: oracle.check_record(text, inp.n, inp.edges))
            records = [d for d in outputs.get(f"compute:{idx}", {}) if d is not None]
            if records:
                judge(f"bounds:{idx}", lambda text, ops, rec=records[0].decode("ascii"):
                      oracle.check_bounds(text, rec))
        for label, seen in outputs.items():
            if len(seen) > 1:
                errors.append(f"{label}: {len(seen)} different outputs for the same input")
        return failed, errors

    facts = oracle.VerifyOracle(VERIFY_MAX_N)
    judge("verify", lambda text, ops: oracle.check_verify(text, exit_codes[ops[0]], facts))
    if len(outputs["verify"]) > 1:
        errors.append("verify: different outputs from repeated invocations")
    if wl.threads != "1":
        # the serial sweep is the byte reference for every thread count
        rc, _, ref = run_op(cli_main, wl.verify_argv(VERIFY_MAX_N, "1", "reference.json"))
        if rc != 0 or ref is None:
            errors.append(f"serial reference sweep exited with {rc}")
        for data, ops in outputs["verify"].items():
            if data != ref:
                failed.update(ops)
                errors.append(f"verify --threads {wl.threads}: output bytes differ from --threads 1")
    for n, edges in facts.sample(wl.seed, SAMPLE_PER_N):
        argv = ["compute", "--g6", graph6(n, edges), "--format", "json",
                "--out", str(wl.out_dir / "sample.json")]
        rc, _, data = run_op(cli_main, argv)
        errs = oracle.check_record(data.decode("ascii"), n, edges) if rc == 0 and data else [f"exit code {rc}"]
        errors += [f"sample {argv[2]}: {e}" for e in errs]
    return failed, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool, cli_main) -> dict:
    setups = [] if trace else timed_setup(name, seed, SETUP_REPEATS[0])
    wl = Workload(name, seed)
    rc, _, _ = run_op(cli_main, wl.warmup)
    if rc != 0:
        raise SystemExit(f"warm-up invocation {wl.warmup} exited with {rc}")

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer(wl.out_dir)
    latencies, exit_codes, traced_ops = [], [], []
    outputs: dict[str, dict[bytes | None, list[int]]] = {}
    graphs = traced_graphs = 0
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    rounds = 0
    # with tracing, untraced and traced rounds alternate and come in pairs
    while rounds == 0 or (trace and rounds % 2) or time.perf_counter() - start < seconds:
        traced = trace and rounds % 2 == 1
        if traced:
            tracer.install()
        entry = tracer.root_span("cli.main", cli_main) if traced else cli_main
        try:
            for label, argv, n_graphs in wl.ops:
                rc, dt, data = run_op(entry, argv)
                if traced:
                    tracer.collect_workers()
                    traced_ops.append(len(latencies))
                    traced_graphs += n_graphs
                outputs.setdefault(label, {}).setdefault(data, []).append(len(latencies))
                latencies.append(dt)
                exit_codes.append(rc)
                graphs += n_graphs
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    rss = peak_rss_mb()
    if not trace:
        setups += timed_setup(name, seed, SETUP_REPEATS[1])

    failed, errors = check_outputs(wl, outputs, exit_codes, cli_main)
    for e in errors:
        print(f"{name}: check failed: {e}", file=sys.stderr)

    if trace:
        from spans import layer_metrics

        traced_set = set(traced_ops)
        t_lat = [dt for i, dt in enumerate(latencies) if i in traced_set]
        u_lat = [dt for i, dt in enumerate(latencies) if i not in traced_set]
        metrics = layer_metrics(tracer.totals, traced_graphs, len(traced_ops))
        overhead = (statistics.fmean(t_lat) / statistics.fmean(u_lat) - 1.0) * 100.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        (wl.out_dir / "trace.json").write_text(json.dumps(tracer.totals, indent=1), encoding="ascii")
    else:
        # the median over rounds of a round's mean invocation time: a round
        # of compute-large mixes 44 different invocations, and the plain
        # median would be whichever of them ranks 22nd
        per_round = len(wl.ops)
        round_means = [statistics.fmean(latencies[k:k + per_round])
                       for k in range(0, len(latencies), per_round)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "graphs_per_s": (graphs / wall, "graphs/s"),
            "latency_ms_p50": (statistics.median(round_means) * 1e3, "ms"),
            "latency_ms_p90": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3
                               if len(latencies) > 1 else latencies[0] * 1e3, "ms"),
            "cpu_us_per_graph": (cpu / graphs * 1e6, "us"),
            "peak_rss_mb": (rss, "MB"),
        }
    result = {
        "correct": not errors,
        "attempted": len(latencies),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {**result, "errors": errors, "latencies_s": latencies}
    (OUT / f"result-{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1), encoding="ascii")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    cli_main = import_cli()
    OUT.mkdir(exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), cli_main)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, relaying its result line."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            status = status or proc.returncode or 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
