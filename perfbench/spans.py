"""Per-layer spans recorded from outside destrada.

`Tracer.install()` swaps wrappers in for the public functions of each
destrada module, in every module namespace that binds them, and
`uninstall()` puts the originals back.  A wrapper records one span: its
duration goes to the function's total and, minus the time its traced
callees took, to the function's self time.  Only per-function sums are
kept (a sweep makes about ten spans a graph), and they are written out
when the benchmark ends.

Under `verify --threads 2` the shards run in forked workers.  There the
wrapped shard function starts a fresh table and writes it to a file in
the output directory; the parent merges the files after the invocation.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.pool
import os
import sys
from pathlib import Path
from time import perf_counter

# span name -> (module, attribute) of the traced callable; "Graph.x" is a classmethod
TRACED = {
    "graphs.connected_pair_masks": ("destrada.graphs", "connected_pair_masks"),
    "graphs.from_pair_mask": ("destrada.graphs", "Graph.from_pair_mask"),
    "graphs.complement": ("destrada.graphs", "complement"),
    "graphs.is_connected": ("destrada.graphs", "is_connected"),
    "graphs.parse_graph6": ("destrada.graphs", "parse_graph6"),
    "graphs.parse_edge_list": ("destrada.graphs", "parse_edge_list"),
    "metric.distance_matrix": ("destrada.metric", "distance_matrix"),
    "spectra.distance_spectrum": ("destrada.spectra", "distance_spectrum"),
    "spectra.eig_sym": ("destrada.spectra", "eig_sym"),
    "bounds.evaluate": ("destrada.bounds", "evaluate"),
    "bounds.reports_from": ("destrada.bounds", "reports_from"),
    "bounds.comparisons_from": ("destrada.bounds", "comparisons_from"),
    "verify.verify_population": ("destrada.verify", "verify_population"),
    "verify._run_shard": ("destrada.verify", "_run_shard"),
    "records.build_record": ("destrada.records", "build_record"),
    "records.record_to_json": ("destrada.records", "record_to_json"),
    "records.bounds_to_json": ("destrada.records", "bounds_to_json"),
    "records.summary_to_json": ("destrada.records", "summary_to_json"),
}
GENERATORS = {"graphs.connected_pair_masks"}
SHARD = "verify._run_shard"
_DONE = object()
POOL_MAP = "verify.pool_map"


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.totals: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.stack: list[list[float]] = []  # per open span: [time of traced callees]
        self._saved: list[tuple[object, str, object]] = []
        self._worker_files = 0

    def _record(self, name: str, dt: float, inner: float) -> None:
        rec = self.totals.get(name)
        if rec is None:
            rec = self.totals[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - inner

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += dt
                self._record(name, dt, frame[0])

        return functools.wraps(fn)(wrapper)

    def _generator_span(self, name: str, fn):
        """Each step of the generator is one span; calls count the items yielded."""

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                self.stack.append(frame)
                t0 = perf_counter()
                item = next(it, _DONE)
                dt = perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += dt
                self._record(name, dt, frame[0])
                if item is _DONE:
                    self.totals[name][0] -= 1  # the final step yields nothing
                    return
                yield item

        return functools.wraps(fn)(wrapper)

    def _shard_span(self, fn):
        """Shard function: in a forked worker, trace into a fresh table and write it out."""
        traced = self._span(SHARD, fn)

        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:
                return traced(*args, **kwargs)
            self.totals, self.stack = {}, []
            result = traced(*args, **kwargs)
            self._worker_files += 1
            path = self.out_dir / f"trace-worker-{os.getpid()}-{self._worker_files}.json"
            path.write_text(json.dumps(self.totals), encoding="ascii")
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "destrada"]
        for name, (mod_name, attr) in TRACED.items():
            home = sys.modules[mod_name]
            if attr.startswith("Graph."):
                cls = home.Graph
                key = attr.split(".", 1)[1]
                orig = cls.__dict__[key]
                self._saved.append((cls, key, orig))
                setattr(cls, key, classmethod(self._span(name, orig.__func__)))
                continue
            orig = getattr(home, attr)
            if name == SHARD:
                wrapped = self._shard_span(orig)
            elif name in GENERATORS:
                wrapped = self._generator_span(name, orig)
            else:
                wrapped = self._span(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        pool_map = multiprocessing.pool.Pool.map
        self._saved.append((multiprocessing.pool.Pool, "map", pool_map))
        multiprocessing.pool.Pool.map = self._span(POOL_MAP, pool_map)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    def collect_workers(self) -> None:
        """Merge and remove the tables forked workers wrote."""
        for path in sorted(self.out_dir.glob("trace-worker-*.json")):
            for name, (calls, total, own) in json.loads(path.read_text(encoding="ascii")).items():
                rec = self.totals.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += own
            path.unlink()

    def root_span(self, name: str, fn):
        """fn traced as `name`: the CLI entry point, which destrada never calls itself."""
        return self._span(name, fn)


def layer_metrics(totals: dict, graphs: int, invocations: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics from span sums over `graphs` graphs and `invocations` CLI calls."""

    def get(name, field):
        return totals.get(name, (0, 0.0, 0.0))[field]

    def per_graph_us(*names, field=1):
        return sum(get(n, field) for n in names) * 1e6 / graphs

    def per_call(name):
        calls = get(name, 0)
        return (get(name, 1) * 1e6 / calls if calls else 0.0), calls / graphs

    dm_us, dm_calls = per_call("metric.distance_matrix")
    ds_us, ds_calls = per_call("spectra.distance_spectrum")
    eig_us, eig_calls = per_call("spectra.eig_sym")
    enum_calls = get("graphs.connected_pair_masks", 0)
    enum_us = get("graphs.connected_pair_masks", 1) * 1e6 / enum_calls if enum_calls else 0.0
    return {
        "graphs.enumerate_us": (enum_us, "us"),
        "graphs.build_us": (per_graph_us("graphs.from_pair_mask", "graphs.complement", "graphs.is_connected"), "us"),
        "graphs.parse_us": (per_graph_us("graphs.parse_graph6", "graphs.parse_edge_list"), "us"),
        "metric.distance_matrix_us": (dm_us, "us"),
        "metric.distance_matrix_calls": (dm_calls, "count"),
        "spectra.distance_spectrum_us": (ds_us, "us"),
        "spectra.distance_spectrum_calls": (ds_calls, "count"),
        "spectra.eig_sym_us": (eig_us, "us"),
        "spectra.eig_sym_calls": (eig_calls, "count"),
        "bounds.evaluate_self_us": (per_graph_us("bounds.evaluate", field=2), "us"),
        "bounds.reports_from_self_us": (
            per_graph_us("bounds.reports_from", field=2), "us"),
        "bounds.comparisons_from_us": (per_graph_us("bounds.comparisons_from"), "us"),
        "verify.self_us": (per_graph_us("verify.verify_population", SHARD, field=2), "us"),
        "verify.pool_map_us": (per_graph_us(POOL_MAP), "us"),
        "records.build_record_self_us": (per_graph_us("records.build_record", field=2), "us"),
        "records.serialize_us": (
            per_graph_us("records.record_to_json", "records.bounds_to_json", "records.summary_to_json"), "us"),
        "cli.self_ms": (get("cli.main", 2) * 1e3 / invocations, "ms"),
    }
