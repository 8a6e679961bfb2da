"""Command-line surface: compute, bounds, sweep, verify.

Exit codes: 0 success, 2 parse error (inputs, arguments or an unwritable
--out), 3 precondition violation (disconnected graph, family constraint,
max-n or thread count out of range), 4 verification found a violated
invariant.  Any other exception is the program's own failure and is not
caught.  Output is byte-deterministic for a fixed input, including
across --threads settings.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import bound_report
from .graphs import (
    MAX_ENUM_N,
    MAX_GRAPH6_N,
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    PreconditionError,
    complete_graph,
    cycle_graph,
    gnp_graph,
    is_connected,
    multipartite_graph,
    parse_edge_list,
    parse_graph6,
    path_graph,
    petersen_graph,
    star_graph,
)
from .records import (
    bounds_to_csv,
    bounds_to_json,
    build_record,
    record_to_json,
    records_to_csv,
    summary_to_csv,
    summary_to_json,
)
from .verify import MAX_THREADS, verify_population

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VIOLATION = 4
# each sweep --family name and its builder, in the order --help lists them
_FAMILIES = {
    "complete": complete_graph,
    "cycle": cycle_graph,
    "path": path_graph,
    "star": star_graph,
    "multipartite": multipartite_graph,
    "petersen": petersen_graph,
    "gnp": gnp_graph,
}
# an edge-list file is read no further; the longest unpadded valid list,
# on 62 vertices, is about 11 KB
MAX_EDGE_LIST_CHARS = 1 << 20


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.g6 is not None:
        g = parse_graph6(args.g6.strip())
    else:
        try:
            with open(args.edges, encoding="ascii") as fh:
                text = fh.read(MAX_EDGE_LIST_CHARS + 1)
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphFormatError(f"cannot read {args.edges}: {exc}") from exc
        if len(text) > MAX_EDGE_LIST_CHARS:
            raise GraphFormatError(f"{args.edges} is longer than {MAX_EDGE_LIST_CHARS} characters")
        g = parse_edge_list(text)
    if not is_connected(g):
        raise DisconnectedGraphError("input graph is not connected")
    return g


def _parse_range(s: str) -> tuple[int, int]:
    """Inclusive 'lo..hi' or a single integer."""
    try:
        if ".." in s:
            lo_s, hi_s = s.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(s)
    except ValueError as exc:
        raise GraphFormatError(f"bad range {s!r}: expected N or LO..HI") from exc
    if lo > hi:
        raise GraphFormatError(f"bad range {s!r}: empty")
    return lo, hi


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise GraphFormatError(f"cannot write {out}: {exc}") from exc


def _cmd_compute(args: argparse.Namespace) -> int:
    rec = build_record(_load_graph(args))
    if args.format == "json":
        _emit(record_to_json(rec), args.out)
    else:
        _emit(records_to_csv([rec]), args.out)
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    reps = bound_report(_load_graph(args))
    if args.format == "json":
        _emit(bounds_to_json(reps), args.out)
    else:
        _emit(bounds_to_csv(reps), args.out)
    return EXIT_OK


def _check_order(n: int) -> None:
    """Reject a family member too large for a graph6 id before building it."""
    if n > MAX_GRAPH6_N:
        raise GraphFormatError(
            f"family member on {n} vertices: graph6 short-form ids"
            f" support n <= {MAX_GRAPH6_N}"
        )


def _sweep_graphs(args: argparse.Namespace) -> list[Graph]:
    build = _FAMILIES[args.family]
    if build is petersen_graph:
        return [build()]
    if build is multipartite_graph:
        if not args.parts:
            raise GraphFormatError("--parts is required for the multipartite family")
        try:
            parts = tuple(int(p) for p in args.parts.split(","))
        except ValueError as exc:
            raise GraphFormatError(f"bad --parts {args.parts!r}") from exc
        _check_order(sum(parts))
        return [build(parts)]
    if not args.n:
        raise GraphFormatError(f"--n is required for the {args.family} family")
    lo, hi = _parse_range(args.n)
    _check_order(hi)
    extra = (args.p, args.seed) if build is gnp_graph else ()
    return [build(n, *extra) for n in range(lo, hi + 1)]


def _cmd_sweep(args: argparse.Namespace) -> int:
    graphs = _sweep_graphs(args)
    for g in graphs:
        if not is_connected(g):
            raise DisconnectedGraphError(
                f"family member on {g.n} vertices is not connected"
            )
    recs = [build_record(g) for g in graphs]
    if args.format == "json":
        body = ",\n".join(record_to_json(r) for r in recs)
        _emit("[\n" + body + "\n]", args.out)
    else:
        _emit(records_to_csv(recs), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    summary = verify_population(args.max_n, threads=args.threads)
    if args.format == "json":
        _emit(summary_to_json(summary), args.out)
    else:
        _emit(summary_to_csv(summary), args.out)
    return EXIT_OK if summary.passed else EXIT_VIOLATION


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--g6", help="graph6 string")
    grp.add_argument("--edges", help="edge-list file: 'n m' header then one 'u v' per line")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="destrada",
        description="Distance spectra, distance Estrada indices, and their bound catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="full record for one connected graph")
    _add_input_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("bounds", help="bound catalog for one connected graph")
    _add_input_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sweep", help="records across a parametric graph family")
    p.add_argument("--family", required=True, choices=_FAMILIES)
    p.add_argument("--n", help="vertex count N or inclusive range LO..HI")
    p.add_argument("--parts", help="comma-separated part sizes for multipartite")
    p.add_argument("--p", type=float, default=0.5, help="edge probability for gnp")
    p.add_argument("--seed", type=int, default=0, help="seed for gnp")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="exhaustive check of every bound on all small graphs")
    p.add_argument("--max-n", type=int, required=True, dest="max_n",
                   help=f"verify all connected graphs with 2..max-n vertices (max {MAX_ENUM_N})")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out")
    p.add_argument("--threads", type=int, default=1,
                   help=f"processes sharing the sweep, this one included, "
                        f"1..{MAX_THREADS} (default: 1)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        # disconnected input, family constraints, max-n range, thread count;
        # any other error is the program's own and surfaces as a crash
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
