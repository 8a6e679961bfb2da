"""Deterministic JSON and CSV serialization of per-graph records.

Hand-rolled emitters so the byte stream is pinned: fixed field order,
15-significant-digit round-half-even floats, lowercase booleans, null (JSON)
or empty cell (CSV) for missing values.  graph6 strings use ASCII 63..126,
so CSV cells never need quoting; the JSON emitter escapes backslashes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import CATALOG_IDS, BoundReport, comparisons_from, evaluate, reports_from
from .graphs import Graph, to_graph6
from .numeric import fmt15
from .spectra import Spectrum
from .verify import VerificationSummary


@dataclass(frozen=True)
class ReportRecord:
    """Everything the CLI emits for one graph."""

    graph_id: str
    n: int
    m: int
    rho: int
    delta1: int
    delta2: int
    spectrum: Spectrum
    dee: float
    dee_log: float
    dee_log_domain: bool
    ee_complement: float
    comparisons: tuple[bool, bool] | None
    bounds: tuple[BoundReport, ...]


def build_record(g: Graph) -> ReportRecord:
    ev = evaluate(g)
    return ReportRecord(
        graph_id=to_graph6(g),
        n=g.n,
        m=g.m,
        rho=ev.rho,
        delta1=ev.delta1,
        delta2=ev.delta2,
        spectrum=ev.spectrum,
        dee=ev.dee.value,
        dee_log=ev.dee.log_value,
        dee_log_domain=ev.dee.overflowed,
        ee_complement=ev.ee_complement.value,
        comparisons=comparisons_from(ev) if g.n >= 2 else None,
        bounds=reports_from(ev),
    )


def _jstr(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch in '"\\':
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _jnum(x: float | int | None) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if x != x or math.isinf(x):
        return "null"
    return fmt15(x)


def _jbool(b: bool | None) -> str:
    if b is None:
        return "null"
    return "true" if b else "false"


def _bound_json(r: BoundReport) -> str:
    parts = [
        f'"theorem_id": {_jstr(r.theorem_id)}',
        f'"applicable": {_jbool(r.applicable)}',
        f'"bound_value": {_jnum(r.bound_value)}',
        f'"observed": {_jnum(r.observed)}',
        f'"slack": {_jnum(r.slack)}',
        f'"holds": {_jbool(r.holds)}',
        f'"equality": {_jbool(r.equality)}',
        f'"strict_required": {_jbool(r.strict_required)}',
        f'"log_domain": {_jbool(r.log_domain)}',
        f'"note": {_jstr(r.note)}',
    ]
    return "{" + ", ".join(parts) + "}"


def record_to_json(rec: ReportRecord) -> str:
    spec = "[" + ", ".join(fmt15(v) for v in rec.spectrum.values) + "]"
    if rec.comparisons is None:
        cmp_s = '{"t3_beats_t1": null, "t5_beats_t1": null}'
    else:
        cmp_s = (
            f'{{"t3_beats_t1": {_jbool(rec.comparisons[0])}, '
            f'"t5_beats_t1": {_jbool(rec.comparisons[1])}}}'
        )
    bounds = ",\n    ".join(_bound_json(b) for b in rec.bounds)
    return (
        "{\n"
        f'  "graph_id": {_jstr(rec.graph_id)},\n'
        f'  "n": {rec.n},\n'
        f'  "m": {rec.m},\n'
        f'  "rho": {rec.rho},\n'
        f'  "delta1": {rec.delta1},\n'
        f'  "delta2": {rec.delta2},\n'
        f'  "spectrum": {spec},\n'
        f'  "dee": {_jnum(rec.dee)},\n'
        f'  "dee_log": {_jnum(rec.dee_log)},\n'
        f'  "dee_log_domain": {_jbool(rec.dee_log_domain)},\n'
        f'  "ee_complement": {_jnum(rec.ee_complement)},\n'
        f'  "comparisons": {cmp_s},\n'
        f'  "bounds": [\n    {bounds}\n  ]\n'
        "}"
    )


def _cell_num(x: float | None) -> str:
    return "" if x is None else fmt15(x)


def _cell_bool(b: bool | None) -> str:
    if b is None:
        return ""
    return "true" if b else "false"


_BOUND_COLS = ("bound", "observed", "slack", "holds", "equality", "log_domain", "note")

RECORD_CSV_HEADER = ",".join(
    [
        "graph_id", "n", "m", "rho", "delta1", "delta2",
        "dee", "dee_log", "dee_log_domain", "ee_complement",
        "t3_beats_t1", "t5_beats_t1",
    ]
    + [f"{tid}_{col}" for tid in CATALOG_IDS for col in _BOUND_COLS]
)


def record_to_csv_row(rec: ReportRecord) -> str:
    cells = [
        rec.graph_id, str(rec.n), str(rec.m), str(rec.rho),
        str(rec.delta1), str(rec.delta2),
        fmt15(rec.dee), fmt15(rec.dee_log), _cell_bool(rec.dee_log_domain),
        fmt15(rec.ee_complement),
        _cell_bool(None if rec.comparisons is None else rec.comparisons[0]),
        _cell_bool(None if rec.comparisons is None else rec.comparisons[1]),
    ]
    by = {r.theorem_id: r for r in rec.bounds}
    for tid in CATALOG_IDS:
        r = by[tid]
        cells.extend([
            _cell_num(r.bound_value), _cell_num(r.observed), _cell_num(r.slack),
            _cell_bool(r.holds), _cell_bool(r.equality), _cell_bool(r.log_domain),
            r.note,
        ])
    return ",".join(cells)


def records_to_csv(recs: list[ReportRecord]) -> str:
    return "\n".join([RECORD_CSV_HEADER] + [record_to_csv_row(r) for r in recs]) + "\n"


def bounds_to_json(reports: tuple[BoundReport, ...]) -> str:
    return "[\n  " + ",\n  ".join(_bound_json(r) for r in reports) + "\n]"


BOUNDS_CSV_HEADER = ",".join(
    ("theorem_id", "applicable", "bound_value", "observed", "slack",
     "holds", "equality", "strict_required", "log_domain", "note")
)


def bounds_to_csv(reports: tuple[BoundReport, ...]) -> str:
    rows = [BOUNDS_CSV_HEADER]
    for r in reports:
        rows.append(",".join([
            r.theorem_id, _cell_bool(r.applicable), _cell_num(r.bound_value),
            _cell_num(r.observed), _cell_num(r.slack), _cell_bool(r.holds),
            _cell_bool(r.equality), _cell_bool(r.strict_required),
            _cell_bool(r.log_domain), r.note,
        ]))
    return "\n".join(rows) + "\n"


def summary_to_json(s: VerificationSummary) -> str:
    counts = ", ".join(f"[{n}, {c}]" for n, c in s.counts_by_n)
    viols = ", ".join(
        f"[{_jstr(g)}, {_jstr(c)}, {_jnum(sl)}]" for g, c, sl in s.violations
    )
    finds = ", ".join(
        f"[{_jstr(g)}, {_jstr(c)}, {_jnum(sl)}]" for g, c, sl in s.findings
    )
    hits = ", ".join(f"[{_jstr(g)}, {_jstr(t)}]" for g, t in s.equality_hits)
    argmax = ", ".join(
        f"[{n}, {_jstr(g)}, {_jnum(sl)}]" for n, g, sl in s.t3_argmax
    )
    return (
        "{\n"
        f'  "population": {_jstr(s.population)},\n'
        f'  "max_n": {s.max_n},\n'
        f'  "graphs_checked": {s.graphs_checked},\n'
        f'  "counts_by_n": [{counts}],\n'
        f'  "passed": {_jbool(s.passed)},\n'
        f'  "violations": [{viols}],\n'
        f'  "findings": [{finds}],\n'
        f'  "equality_hits": [{hits}],\n'
        f'  "t3_argmax": [{argmax}]\n'
        "}"
    )


def summary_to_csv(s: VerificationSummary) -> str:
    """Typed rows: kind,field1,field2,field3."""
    rows = ["kind,field1,field2,field3"]
    rows.append(f"population,{s.population},,")
    rows.append(f"graphs_checked,{s.graphs_checked},,")
    rows.append(f"passed,{_cell_bool(s.passed)},,")
    for n, c in s.counts_by_n:
        rows.append(f"count,{n},{c},")
    for g, c, sl in s.violations:
        rows.append(f"violation,{g},{c},{fmt15(sl)}")
    for g, c, sl in s.findings:
        rows.append(f"finding,{g},{c},{fmt15(sl)}")
    for g, t in s.equality_hits:
        rows.append(f"equality,{g},{t},")
    for n, g, sl in s.t3_argmax:
        rows.append(f"argmax,{n},{g},{fmt15(sl)}")
    return "\n".join(rows) + "\n"
