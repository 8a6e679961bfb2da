"""Deterministic JSON and CSV serialization of per-graph records and summaries.

Hand-rolled emitters so the byte stream is pinned: fixed field order,
15-significant-digit round-half-even floats, lowercase booleans, null (JSON)
or empty cell (CSV) for missing values.  One writer prints every JSON value
on one line, and every multi-line JSON text puts one item a line between
brackets.  graph6 strings use ASCII 63..126, so CSV cells never need
quoting; the JSON emitter escapes backslashes.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable

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


# a JSON string escapes the quote, the backslash and every control character;
# few strings hold any, and _ESCAPED finds those that do
_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}
_ESCAPED = re.compile("[" + re.escape("".join(map(chr, _ESCAPES))) + "]")


def _json(x: object) -> str:
    """One JSON value on one line: a non-finite float is null, like None; a
    dict, keyed by field names, is an object, and a tuple or list an array."""
    if isinstance(x, str):
        return '"' + (x.translate(_ESCAPES) if _ESCAPED.search(x) else x) + '"'
    if isinstance(x, float):
        return "null" if x != x or math.isinf(x) else fmt15(x)
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, dict):
        return "{" + ", ".join(f'"{k}": {_json(v)}' for k, v in x.items()) + "}"
    return "[" + ", ".join(map(_json, x)) + "]"


def _block(brackets: str, items: Iterable[str], pad: str = "  ") -> str:
    """items one per line between the two brackets, each line of an item after pad."""
    body = ",\n".join(pad + i.replace("\n", "\n" + pad) for i in items)
    return f"{brackets[0]}\n{body}\n{brackets[1]}"


def _cell(x: str | bool | int | float | None) -> str:
    """One CSV cell: None is empty, a string bare, a float keeps nan and inf."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return fmt15(x) if isinstance(x, float) else _json(x)


def record_to_json(rec: Record) -> str:
    ev, rows = rec
    members = [f'"{name}": {_json(read(ev))}' for name, read in _SCALARS]
    members.insert(6, f'"spectrum": {_json(ev.spectrum.values)}')  # the spectrum follows delta2
    t3_beats, t5_beats = comparisons_from(ev)
    members += [
        f'"comparisons": {_json({"t3_beats_t1": t3_beats, "t5_beats_t1": t5_beats})}',
        # the rows inline, not through bounds_to_json, so a traced run times them once
        f'"bounds": {_block("[]", (_json(r._asdict()) for r in rows))}',
    ]
    return _block("{}", members)


def records_to_json(recs: list[Record]) -> str:
    return _block("[]", map(record_to_json, recs), pad="")


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
    return _block("[]", (_json(r._asdict()) for r in reports))


BOUNDS_CSV_HEADER = ",".join(BoundReport._fields)


def bounds_to_csv(reports: tuple[BoundReport, ...]) -> str:
    return "\n".join([BOUNDS_CSV_HEADER] + [",".join(map(_cell, r)) for r in reports]) + "\n"


# the summary's JSON members in print order
_SUMMARY_JSON = (
    "population", "max_n", "graphs_checked", "counts_by_n", "passed",
    "violations", "findings", "equality_hits", "t3_argmax",
)
# the summary's CSV rows in print order: each row's kind and the field it
# reads; a scalar field is one row, a field of rows one row per entry
_SUMMARY_CSV = (
    ("population", "population"), ("graphs_checked", "graphs_checked"), ("passed", "passed"),
    ("count", "counts_by_n"), ("violation", "violations"), ("finding", "findings"),
    ("equality", "equality_hits"), ("argmax", "t3_argmax"),
)


def summary_to_json(s: VerificationSummary) -> str:
    return _block("{}", (f'"{f}": {_json(getattr(s, f))}' for f in _SUMMARY_JSON))


def summary_to_csv(s: VerificationSummary) -> str:
    """Typed rows: kind,field1,field2,field3."""
    lines = ["kind,field1,field2,field3"]
    for kind, field in _SUMMARY_CSV:
        value = getattr(s, field)
        for row in value if isinstance(value, tuple) else [(value,)]:
            lines.append(",".join([kind, *map(_cell, (*row, None, None)[:3])]))
    return "\n".join(lines) + "\n"
