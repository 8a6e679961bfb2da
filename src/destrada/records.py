"""Deterministic JSON and CSV serialization of per-graph records.

Hand-rolled emitters so the byte stream is pinned: fixed field order,
15-significant-digit round-half-even floats, lowercase booleans, null (JSON)
or empty cell (CSV) for missing values.  graph6 strings use ASCII 63..126,
so CSV cells never need quoting; the JSON emitter escapes backslashes.
"""

from __future__ import annotations

import math

from .bounds import (
    CATALOG_IDS,
    BoundReport,
    GraphEvaluation,
    comparisons_from,
    evaluate,
    reports_from,
)
from .graphs import Graph, to_graph6
from .numeric import fmt15
from .verify import VerificationSummary


# everything the CLI emits for one graph: its evaluation and its catalog rows
Record = tuple[GraphEvaluation, tuple[BoundReport, ...]]


def build_record(g: Graph) -> Record:
    ev = evaluate(g)
    return ev, reports_from(ev)


# the record's scalar fields in output order, each read off the evaluation
_SCALARS = (
    ("graph_id", lambda ev: to_graph6(ev.graph)),
    ("n", lambda ev: ev.graph.n),
    ("m", lambda ev: ev.graph.m),
    ("rho", lambda ev: ev.rho),
    ("delta1", lambda ev: ev.delta1),
    ("delta2", lambda ev: ev.delta2),
    ("dee", lambda ev: ev.dee.value),
    ("dee_log", lambda ev: ev.dee.log_value),
    ("dee_log_domain", lambda ev: ev.dee.overflowed),
    ("ee_complement", lambda ev: ev.ee_complement.value),
)


def _json(x: str | bool | int | float | None) -> str:
    """One JSON value: a non-finite float is null, like None."""
    if isinstance(x, str):
        out = ['"']
        for ch in x:
            if ch in '"\\':
                out.append("\\" + ch)
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if x != x or math.isinf(x):
        return "null"
    return fmt15(x)


def _cell(x: str | bool | int | float | None) -> str:
    """One CSV cell: None is empty, a float keeps nan and inf."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return fmt15(x)


def _bound_json(r: BoundReport) -> str:
    return "{" + ", ".join(f'"{f}": {_json(v)}' for f, v in zip(BoundReport._fields, r)) + "}"


def record_to_json(rec: Record) -> str:
    ev, rows = rec
    fields = [f'"{name}": {_json(read(ev))}' for name, read in _SCALARS]
    spec = "[" + ", ".join(fmt15(v) for v in ev.spectrum.values) + "]"
    t3_beats, t5_beats = comparisons_from(ev)
    cmp_s = f'{{"t3_beats_t1": {_json(t3_beats)}, "t5_beats_t1": {_json(t5_beats)}}}'
    bounds = ",\n    ".join(_bound_json(b) for b in rows)
    fields.insert(6, f'"spectrum": {spec}')  # the spectrum follows delta2
    fields += [f'"comparisons": {cmp_s}', f'"bounds": [\n    {bounds}\n  ]']
    return "{\n  " + ",\n  ".join(fields) + "\n}"


# the bound row fields a record's CSV row repeats per catalog row
_RECORD_BOUND_FIELDS = [
    i for i, f in enumerate(BoundReport._fields)
    if f not in ("theorem_id", "applicable", "strict_required")
]

RECORD_CSV_HEADER = ",".join(
    [name for name, _ in _SCALARS]
    + ["t3_beats_t1", "t5_beats_t1"]
    + [
        f"{tid}_{BoundReport._fields[i].removesuffix('_value')}"
        for tid in CATALOG_IDS for i in _RECORD_BOUND_FIELDS
    ]
)


def records_to_csv(recs: list[Record]) -> str:
    lines = [RECORD_CSV_HEADER]
    for ev, rows in recs:
        cells = [read(ev) for _, read in _SCALARS] + list(comparisons_from(ev))
        cells += [r[i] for r in rows for i in _RECORD_BOUND_FIELDS]
        lines.append(",".join(map(_cell, cells)))
    return "\n".join(lines) + "\n"


def bounds_to_json(reports: tuple[BoundReport, ...]) -> str:
    return "[\n  " + ",\n  ".join(_bound_json(r) for r in reports) + "\n]"


BOUNDS_CSV_HEADER = ",".join(BoundReport._fields)


def bounds_to_csv(reports: tuple[BoundReport, ...]) -> str:
    return "\n".join([BOUNDS_CSV_HEADER] + [",".join(map(_cell, r)) for r in reports]) + "\n"


def summary_to_json(s: VerificationSummary) -> str:
    counts = ", ".join(f"[{n}, {c}]" for n, c in s.counts_by_n)
    viols = ", ".join(
        f"[{_json(g)}, {_json(c)}, {_json(sl)}]" for g, c, sl in s.violations
    )
    finds = ", ".join(
        f"[{_json(g)}, {_json(c)}, {_json(sl)}]" for g, c, sl in s.findings
    )
    hits = ", ".join(f"[{_json(g)}, {_json(t)}]" for g, t in s.equality_hits)
    argmax = ", ".join(
        f"[{n}, {_json(g)}, {_json(sl)}]" for n, g, sl in s.t3_argmax
    )
    return (
        "{\n"
        f'  "population": {_json(s.population)},\n'
        f'  "max_n": {s.max_n},\n'
        f'  "graphs_checked": {s.graphs_checked},\n'
        f'  "counts_by_n": [{counts}],\n'
        f'  "passed": {_json(s.passed)},\n'
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
    rows.append(f"passed,{_cell(s.passed)},,")
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
