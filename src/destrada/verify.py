"""Exhaustive verification of the bound catalog over small labeled graphs.

Every check reads only a graph's distance spectrum, degrees and
complement, so it gives the same verdict on every labeling of one
isomorphism class.  The sweep therefore solves each connected class
once, on its canonical labeling, with the full battery, and counts the
class's n!/|Aut| labelings.  A class and its connected complement class
form one job, whose pair row reads the two canonical labelings; a
self-complementary class's one solve stands on both sides of it.  Every
printed number is a fact of one class's canonical labeling.  A check's
result is an entry (kind, check id, slack), of kind violation, finding
or hit (whose slack is None), and each class's battery gives one list
of them.  The summary still names labeled graphs, so each labeling of a
class gets the class's entries under its own graph6 id, with no solve of
its own.  When a graph and its complement are both connected, the
smaller of their two masks owns the pair and also gets the pair row.

`threads` processes share a sweep, this one included: each grows the
top order from its stride of the classes one order below, this process
merges the grown classes and hands the table back, and each then solves
the class pairs owned by its stride of every order's classes and expands
their labelings.  The merge re-sorts by (n, mask), so the summary is
identical for any number of processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import (
    ASSERTED,
    CATALOG,
    CATALOG_IDS,
    L3_LAMBDA1_LOWER,
    SIGNATURE_ABS_TOL,
    STRICT_SLACK,
    T3_LOWER,
    T4_NG_LOWER,
    BoundReport,
    GraphEvaluation,
    SpectralMismatchError,
    evaluate,
    pair_report,
)
from .graphs import (
    MAX_ENUM_N,
    Graph,
    PreconditionError,
    canonical_form,
    connected_classes,
    graph6_from_mask,
    grow_classes,
    is_connected,
    labelings,
)
from .metric import sum_sq_distances
from .spectra import (
    EigenConvergenceError,
    adjacency_matrix,
    eig_sym,
    lemma1_check,
    lemma2_spectrum,
)

# check ids beyond the bound catalog
L1_IDENTITY = "L1_identity"
L2_TRANSFORM = "L2_transform"
L3_EQUALITY_IFF = "L3_equality_iff"
L4_CONTRADICTION = "L4_contradiction"
EIG_FAILURE = "EIG_convergence"
T3_ARGMAX = "T3_argmax_sanity"
# entry kinds
VIOLATION, FINDING, HIT = "violation", "finding", "hit"

_T4_ROW = CATALOG[CATALOG_IDS.index(T4_NG_LOWER)]
# the rows each graph is checked on alone; _check_pair adds the pair row
_SIDE_ROWS = tuple(row for row in CATALOG if row is not _T4_ROW)
# where the T3 row, which ranks each order, and the cross-checked L3 row sit among _SIDE_ROWS
_T3_AT, _L3_AT = map([row.theorem_id for row in _SIDE_ROWS].index, (T3_LOWER, L3_LAMBDA1_LOWER))
# worker processes; a larger --threads is rejected before any fork
MAX_THREADS = 64


@dataclass(frozen=True)
class VerificationSummary:
    """Deterministic aggregate of one exhaustive sweep."""

    population: str
    max_n: int
    graphs_checked: int
    counts_by_n: tuple[tuple[int, int], ...]
    violations: tuple[tuple[str, str, float], ...]
    findings: tuple[tuple[str, str, float], ...]
    equality_hits: tuple[tuple[str, str], ...]
    t3_argmax: tuple[tuple[int, str, float], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _evaluate(g: Graph) -> GraphEvaluation | None:
    """g's evaluation, or None when the eigensolver gives up on it."""
    try:
        return evaluate(g)
    except EigenConvergenceError:
        return None


def _trace_residuals(ev: GraphEvaluation) -> list[tuple[str, float]]:
    """The L1_identity failure, if any: the trace and second-moment identities."""
    moment = 2 * sum_sq_distances(ev.dm)
    res_sum, res_sq = lemma1_check(ev.spectrum, moment)
    if res_sum > 1e-9 or res_sq > 1e-9 * moment:
        return [(L1_IDENTITY, max(res_sum, res_sq))]
    return []


def _fails(r: BoundReport) -> bool:
    """The one verdict rule of an applicable row: it holds, strictly if required."""
    return not (r.holds and (not r.strict_required or r.slack > STRICT_SLACK))


def _verdicts(rows, reports) -> list:
    """The entries of catalog rows and their reports.

    The catalog says whether a failed row is a violation or a finding.
    """
    entries = []
    for (_, verdict, equality_tracked, _), r in zip(rows, reports):
        if not r.applicable:
            continue
        if equality_tracked and r.equality:
            entries.append((HIT, r.theorem_id, None))
        if verdict is not None and _fails(r):
            entries.append((VIOLATION if verdict == ASSERTED else FINDING, r.theorem_id, r.slack))
    return entries


def _l2_residual(ev: GraphEvaluation) -> float:
    """How far a regular diameter-<=2 graph's distance spectrum is from its
    adjacency transform; 0 on every other graph.

    The residual is the largest eigenvalue difference, or |lambda_1(A) - r|
    when the adjacency spectrum does not lead with r.
    """
    if ev.r is None or ev.rho > 2:
        return 0.0
    adj = eig_sym(adjacency_matrix(ev.graph), ev.cells)
    try:
        mapped = lemma2_spectrum(adj, ev.graph.n, ev.r)
    except ValueError:  # lambda_1(A) is not r
        return abs(adj.values[0] - ev.r)
    return max(abs(a - b) for a, b in zip(mapped.values, ev.spectrum.values))


def _failure(check_id: str) -> list:
    """The entries of a graph whose battery stops at check_id."""
    return [(VIOLATION, check_id, math.nan)]


def _check_graph(ev: GraphEvaluation | None) -> tuple[list, float]:
    """The battery on one graph but the pair row: (entries, T3 slack).

    ev is the graph's evaluation, None when its solve failed.  A failed
    adjacency solve, of T6's complement or of the L2 transform, fails the
    graph the same way.  L3's structural equality flag must match numeric
    equality both ways.  The T3 slack ranks the graphs of each order.
    """
    if ev is None:
        return _failure(EIG_FAILURE), math.nan
    try:
        reports = [row.report(ev) for row in _SIDE_ROWS]
        l2 = _l2_residual(ev)
    except EigenConvergenceError:
        return _failure(EIG_FAILURE), math.nan
    except SpectralMismatchError:
        return _failure(L4_CONTRADICTION), math.nan
    r3, rl3 = reports[_T3_AT], reports[_L3_AT]
    failed = []
    if bool(rl3.equality) != (abs(rl3.slack) <= SIGNATURE_ABS_TOL):
        failed.append((L3_EQUALITY_IFF, rl3.slack))
    failed += _trace_residuals(ev)
    if l2 > SIGNATURE_ABS_TOL:
        failed.append((L2_TRANSFORM, l2))
    return _verdicts(_SIDE_ROWS, reports) + [(VIOLATION, *e) for e in failed], r3.slack


def _check_pair(n: int, rep: int, comp_rep: int | None):
    """The battery on a connected graph and, when given, its connected complement.

    rep and comp_rep are the pair masks of the two graphs; comp_rep is None
    when the complement is disconnected, and rep itself when the graph is
    self-complementary, which is then solved once and stands on both sides
    of the pair row.  Returns (mask, side, owner, T3 slack) for each
    distinct mask: side is _check_graph's entries for that graph, what its
    labelings record; owner is what a labeling records when it owns its
    pair, side plus the pair row, or EIG_convergence alone when a distance
    solve of the pair failed.  With no connected complement, owner is side.
    """
    masks = [rep] if comp_rep in (None, rep) else [rep, comp_rep]
    evs = [_evaluate(Graph.from_pair_mask(n, m)) for m in masks]
    sides = [_check_graph(ev) for ev in evs]
    if comp_rep is not None and any(ev is None for ev in evs):
        return [(m, side, _failure(EIG_FAILURE), t3) for m, (side, t3) in zip(masks, sides)]
    pair = [] if comp_rep is None else _verdicts([_T4_ROW], [pair_report(evs[0], evs[-1])])
    return [(m, side, side + pair, t3) for m, (side, t3) in zip(masks, sides)]


def _labeled(n: int, masks, side: list, owner: list) -> list:
    """The entries (kind, n, mask, check id, slack) of each labeled graph in masks.

    side and owner are _check_pair's for the class of masks.  A mask owns
    its pair, and gets owner, when its last pair bit is clear: vertices
    n - 2 and n - 1 are not adjacent, which is the same as the mask being
    smaller than its complement.  Every other mask gets side.
    """
    last = 1 << (n * (n - 1) // 2 - 1)
    return [(kind, n, x, cid, slack) for x in masks
            for kind, cid, slack in (side if x & last else owner)]


def _owned_pairs(n: int, classes: list[tuple[int, int]]) -> list[tuple[int, int | None]]:
    """(representative, complement representative) of each class pair owned by one of classes.

    classes are (canonical mask, |Aut|) rows of order n.  A class whose
    complement is disconnected owns itself alone, with None in the
    complement's place.  Otherwise the class with fewer edges owns the
    pair, and on an edge tie the one with the smaller canonical mask; a
    self-complementary class owns its pair with itself.  Only owned pairs
    and edge ties canonicalize the complement.  This is the one place that
    tests a complement's connectivity.
    """
    npairs = n * (n - 1) // 2
    full = (1 << npairs) - 1
    pairs = []
    for mask, _ in classes:
        if not is_connected(Graph.from_pair_mask(n, full ^ mask)):
            pairs.append((mask, None))
        elif 2 * mask.bit_count() <= npairs:
            comp_rep = canonical_form(n, full ^ mask)[0]
            if 2 * mask.bit_count() < npairs or mask <= comp_rep:
                pairs.append((mask, comp_rep))
    return pairs


def _run_shard(table: dict[int, list[tuple[int, int]]], k: int, shares: int):
    """Share k of `shares`: (entries, ranked) of the pairs owned by its classes.

    table maps each order to its ascending (canonical mask, |Aut|) rows,
    and share k holds rows k, k + shares, ... of every order.  entries are
    _labeled's over every labeling of each class of those pairs; ranked
    holds each such class's (n, canonical mask, T3 slack).
    """
    entries, ranked = [], []
    for n, classes in table.items():
        for rep, comp_rep in _owned_pairs(n, classes[k::shares]):
            for cls, side, owner, t3_slack in _check_pair(n, rep, comp_rep):
                ranked.append((n, cls, t3_slack))
                if side or owner:
                    entries += _labeled(n, labelings(n, cls), side, owner)
    return entries, ranked


def _worker(conn, max_n: int, parents: list[int], table, k: int, shares: int) -> None:
    """Share k of a sweep in a process of its own, talking to the sweep's process over conn.

    It sends the top-order classes grown from parents, receives the
    merged top-order rows, and sends its _run_shard result.
    """
    with conn:
        conn.send(grow_classes(max_n, parents))
        table[max_n] = conn.recv()
        conn.send(_run_shard(table, k, shares))


def _receive(proc, conn):
    """The next object proc sends over conn; RuntimeError when proc exits first."""
    try:
        return conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"{proc.name} exited with code {proc.exitcode}") from None


def _summarize(max_n: int, counts: dict[int, int], entries, ranked) -> VerificationSummary:
    """The summary of _labeled's entries.

    counts holds the number of connected labeled graphs at each order;
    ranked holds (n, mask, T3 slack) candidates for the T3 argmax, and the
    smaller mask wins an exact tie.  The entries are sorted by (kind, n,
    mask, check id) and split by kind, each graph6 id rendered once.
    """
    best_by_n: dict[int, tuple[float, int]] = {}
    for n, mask, t3_slack in ranked:
        if t3_slack == t3_slack:  # skip nan
            cur = best_by_n.get(n)
            if cur is None or t3_slack > cur[0] or (t3_slack == cur[0] and mask < cur[1]):
                best_by_n[n] = (t3_slack, mask)

    argmax_rows = []
    for n in sorted(best_by_n):
        slack, mask = best_by_n[n]
        argmax_rows.append((n, graph6_from_mask(n, mask), slack))
        # the zero-slack complete graph can only top the chart when it is alone
        if n >= 3 and mask == (1 << (n * (n - 1) // 2)) - 1:
            entries.append((VIOLATION, n, mask, T3_ARGMAX, slack))

    entries.sort(key=lambda e: e[:4])
    gids = {}
    by_kind = {VIOLATION: [], FINDING: [], HIT: []}
    for kind, n, mask, cid, slack in entries:
        if (n, mask) not in gids:
            gids[n, mask] = graph6_from_mask(n, mask)
        by_kind[kind].append((gids[n, mask], cid, slack))
    return VerificationSummary(
        population=f"connected labeled graphs with 2 <= n <= {max_n}",
        max_n=max_n,
        graphs_checked=sum(counts.values()),
        counts_by_n=tuple(sorted(counts.items())),
        violations=tuple(by_kind[VIOLATION]),
        findings=tuple(by_kind[FINDING]),
        equality_hits=tuple(e[:2] for e in by_kind[HIT]),
        t3_argmax=tuple(argmax_rows),
    )


def verify_population(max_n: int, threads: int = 1) -> VerificationSummary:
    """Sweep all connected labeled graphs with 2 <= n <= max_n, class by class.

    `threads` shares run the sweep: share 0 here, each other one in a
    forked process, and never more shares than classes of order max_n - 1.
    """
    if not 2 <= max_n <= MAX_ENUM_N:
        raise PreconditionError(f"max_n must be in [2, {MAX_ENUM_N}]")
    if not 1 <= threads <= MAX_THREADS:
        raise PreconditionError(f"threads must be in [1, {MAX_THREADS}]")

    lower = connected_classes(max_n - 1)
    parents = [mask for mask, _ in lower[max_n - 1]]
    table = {n: lower[n] for n in range(2, max_n)}
    shares = min(threads, len(parents))
    workers = []
    try:
        if shares > 1:
            import multiprocessing  # a one-share sweep never pays for the import

            context = multiprocessing.get_context("fork")
            for k in range(1, shares):
                conn, child = context.Pipe()
                proc = context.Process(
                    target=_worker, name=f"verify-share-{k}",
                    args=(child, max_n, parents[k::shares], table, k, shares),
                )
                workers.append((proc, conn))
                proc.start()
                child.close()
        grown = grow_classes(max_n, parents[::shares])
        for proc, conn in workers:
            grown.update(_receive(proc, conn))
        table[max_n] = sorted(grown.items())
        for _, conn in workers:
            conn.send(table[max_n])
        outs = [_run_shard(table, 0, shares)] + [_receive(*w) for w in workers]
        for proc, _ in workers:
            proc.join()
    finally:
        for proc, conn in workers:
            if proc.is_alive():
                proc.terminate()
                proc.join()
            conn.close()

    counts = {n: sum(math.factorial(n) // aut for _, aut in table[n]) for n in table}
    entries, ranked = [], []
    for shard_entries, shard_ranked in outs:
        entries += shard_entries
        ranked += shard_ranked
    return _summarize(max_n, counts, entries, ranked)
