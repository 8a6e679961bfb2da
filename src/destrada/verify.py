"""Exhaustive verification of the bound catalog over small labeled graphs.

Every check reads only a graph's distance spectrum, degrees and
complement, so it gives the same verdict on every labeling of one
isomorphism class.  The sweep therefore evaluates each connected class
once, with the full battery, together with its complement class when
that is connected, and counts the class's n!/|Aut| labelings.  The
summary still names labeled graphs and prints slacks whose last digits
vary between labelings, so:

- a class pair whose representatives record a check-level failure (a
  violation outside the catalog rows), or have a verdict margin within
  NOISE_BAND of a threshold that verdict uses, is expanded into all of
  its labelings, each given the labeled battery;
- otherwise, a class pair that records anything, or holds a class whose
  representative's T3 slack is within T3_TIE_REL of the best at its
  order, gets the lean check on each labeled pair: a labeling is solved
  only when its class prints a slack, ranks near the T3 argmax, or its
  pair records T4_ng_lower, and then gets those rows, its T3 slack and
  the checks on its own solve (EIG_convergence, L1_identity).  Equality
  hits are copied from the representative.

Each labeled distance spectrum is solved once: when a graph and its
complement are both connected, the smaller of their two masks owns the
pair and checks the pair row.  Work can be sharded across processes; the
merge re-sorts by (n, mask) so the summary is identical for any shard
count.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
from dataclasses import dataclass
from typing import NamedTuple

from .bounds import (
    ASSERTED,
    CATALOG,
    CATALOG_IDS,
    IDENTITY_REL_TOL,
    L3_LAMBDA1_LOWER,
    L4_CLASS,
    SIGNATURE_ABS_TOL,
    STRICT_SLACK,
    T3_LOWER,
    T4_NG_LOWER,
    BoundReport,
    DistSpectrumClass,
    GraphEvaluation,
    SpectralMismatchError,
    cross_checks,
    evaluate,
    reports_from,
)
from .graphs import (
    MAX_ENUM_N,
    Graph,
    canonical_form,
    complement,
    connected_classes,
    is_connected,
    labelings,
    to_graph6,
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
L4_CONTRADICTION = "L4_contradiction"
EIG_FAILURE = "EIG_convergence"
T3_ARGMAX = "T3_argmax_sanity"

# Labelings of one class differ by rounding, about 1e-14 relative; a margin
# within NOISE_BAND * max(1, |scale|) of its threshold could flip between them
NOISE_BAND = 1e-10
# T3 slacks within this relative distance of the best at an order may rank
# differently on another labeling, so their classes join the argmax
T3_TIE_REL = 1e-9
_T3_ROW = CATALOG[CATALOG_IDS.index(T3_LOWER)]
_T4 = CATALOG_IDS.index(T4_NG_LOWER)
# worker processes; a larger --threads or DEE_THREADS is rejected before any fork
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


def _evaluate(g: Graph, comp: Graph | None = None) -> GraphEvaluation | None:
    """g's evaluation, or None when the eigensolver gives up on it."""
    try:
        return evaluate(g, comp)
    except EigenConvergenceError:
        return None


def _near(value: float, threshold: float, scale: float) -> bool:
    return abs(value - threshold) <= NOISE_BAND * max(1.0, abs(scale))


def _row_near_threshold(r: BoundReport) -> bool:
    """True when r's slack is within the noise band of a threshold its verdict uses.

    Every row's holds and equality flags use IDENTITY_REL_TOL * max(1,
    |observed|); a strict row's verdict also uses zero and STRICT_SLACK,
    and L3's iff cross-check the signature tolerance.  L4_class uses only
    its classifier's thresholds: the signature tolerance, and zero in the
    Below2383 class.
    """
    scale = max(1.0, abs(r.observed))
    band = NOISE_BAND * scale
    s = abs(r.slack)
    if r.theorem_id == L4_CLASS:
        return abs(s - SIGNATURE_ABS_TOL) <= band or (
            r.note == DistSpectrumClass.BELOW_2383.value and s <= band
        )
    return (
        abs(s - IDENTITY_REL_TOL * scale) <= band
        or r.strict_required and (s <= band or abs(s - STRICT_SLACK) <= band)
        or r.theorem_id == L3_LAMBDA1_LOWER and abs(s - SIGNATURE_ABS_TOL) <= band
    )


def _trace_residuals(ev: GraphEvaluation) -> tuple[list[tuple[str, float]], bool]:
    """The L1_identity failure, if any, and whether a residual sits in the noise band.

    The trace and second-moment identities of the distance spectrum.
    """
    moment = 2 * sum_sq_distances(ev.dm)
    res_sum, res_sq = lemma1_check(ev.spectrum, moment)
    bad = []
    if res_sum > 1e-9 or res_sq > 1e-9 * moment:
        bad.append((L1_IDENTITY, max(res_sum, res_sq)))
    return bad, _near(res_sum, 1e-9, 1.0) or _near(res_sq, 1e-9 * moment, moment)


def _result(g: Graph, mask: int, bad, found, hit_ids, t3_slack: float, near: bool):
    """One graph's battery result; entries are prefixed (n, mask, graph6 id, ...).

    The prefix lets a sharded merge restore enumeration order.  The graph6
    id is only rendered when something gets recorded.
    """
    if not (bad or found or hit_ids):
        return (), (), (), t3_slack, near
    n, gid = g.n, to_graph6(g)
    return (
        tuple((n, mask, gid, cid, s) for cid, s in bad),
        tuple((n, mask, gid, cid, s) for cid, s in found),
        tuple((n, mask, gid, cid) for cid in hit_ids),
        t3_slack,
        near,
    )


def _fails(r: BoundReport) -> bool:
    """The one verdict rule of an applicable row: it holds, strictly if required."""
    return not (r.holds and (not r.strict_required or r.slack > STRICT_SLACK))


def _check_graph(
    g: Graph,
    mask: int,
    ev: GraphEvaluation | None,
    own_t4: bool = True,
    comp_ev: GraphEvaluation | None = None,
):
    """Full battery for one graph; returns (violations, findings, hits, t3_slack, near).

    ev is g's evaluation, None when its solve failed.  The owner of a
    {graph, complement} pair checks the pair row with comp_ev, the
    complement's evaluation; its partner passes own_t4=False.  An owner
    whose complement could not be solved records EIG_convergence too.
    near is set when a verdict margin sits within the noise band.
    """
    n = g.n
    bad: list[tuple[str, float]] = []
    found: list[tuple[str, float]] = []
    hit_ids: list[str] = []

    reports = None
    if ev is None or (own_t4 and ev.comp_connected and comp_ev is None):
        bad.append((EIG_FAILURE, math.nan))
    else:
        try:
            reports = reports_from(ev, include_t4=own_t4, comp_ev=comp_ev)
        except SpectralMismatchError:
            bad.append((L4_CONTRADICTION, math.nan))

    t3_slack = math.nan
    near = False
    if reports is not None:
        # one verdict rule for every applicable row; the catalog says whether
        # a failure is a violation or a finding
        for (_, verdict, equality_tracked, _), r in zip(CATALOG, reports):
            if not r.applicable:
                continue
            near = near or _row_near_threshold(r)
            if equality_tracked and r.equality:
                hit_ids.append(r.theorem_id)
            if verdict is not None and _fails(r):
                (bad if verdict == ASSERTED else found).append((r.theorem_id, r.slack))

        failed, t3_slack = cross_checks(ev, reports)
        bad.extend(failed)

        trace_bad, trace_near = _trace_residuals(ev)
        bad.extend(trace_bad)
        near = near or trace_near

        # regular diameter-<=2 graphs: distance spectrum via the adjacency transform
        if ev.r is not None and ev.rho <= 2:
            adj_s = eig_sym(adjacency_matrix(g))
            mapped = lemma2_spectrum(adj_s, n, ev.r)
            diff = max(abs(a - b) for a, b in zip(mapped.values, ev.spectrum.values))
            if diff > SIGNATURE_ABS_TOL:
                bad.append((L2_TRANSFORM, diff))
            near = near or _near(diff, SIGNATURE_ABS_TOL, ev.spectrum.values[0])

    return _result(g, mask, bad, found, hit_ids, t3_slack, near)


def _check_pair(n: int, mask: int):
    """The battery on a connected labeled graph and, when connected, its complement.

    Either graph of a pair may be given.  The smaller mask owns the pair:
    both graphs are evaluated once and the owner checks the pair row.
    Returns (mask, battery result) per graph, owner first.
    """
    g = Graph.from_pair_mask(n, mask)
    comp = complement(g)
    if not is_connected(comp):
        return [(mask, _check_graph(g, mask, _evaluate(g, comp)))]
    comp_mask = ((1 << (n * (n - 1) // 2)) - 1) ^ mask
    if comp_mask < mask:
        g, comp, mask, comp_mask = comp, g, comp_mask, mask
    ev = _evaluate(g, comp)
    comp_ev = _evaluate(comp, g)
    return [
        (mask, _check_graph(g, mask, ev, True, comp_ev)),
        (comp_mask, _check_graph(comp, comp_mask, comp_ev, own_t4=False)),
    ]


class _Side(NamedTuple):
    """What the lean check gives each labeling of one class of a class pair.

    rows are the CATALOG indices whose failed verdict the representative
    prints with a slack, hits the equality-hit ids it records; T4_ng_lower
    entries count only on the owner of a labeled pair.  solve says whether
    the labeling's distance spectrum is solved at all.
    """

    rows: tuple[int, ...]
    hits: tuple[str, ...]
    solve: bool


def _check_lean(n: int, mask: int, side: _Side, comp_side: _Side | None):
    """The lean check on one labeled pair of a class pair whose verdicts are settled.

    mask is a labeling of one class, checked as side says; its complement,
    when connected, is checked as comp_side says.  A solved graph gets its
    side's rows, its T3 slack and the L1_identity residuals; a failed solve
    records EIG_convergence instead, on the graph and on its pair's owner.
    Returns (mask, result) per graph, owner first, as _check_pair does.
    """
    g = Graph.from_pair_mask(n, mask)
    comp = complement(g)
    graphs = [(g, comp, mask, side)]
    if comp_side is not None:
        comp_mask = ((1 << (n * (n - 1) // 2)) - 1) ^ mask
        graphs.append((comp, g, comp_mask, comp_side))
        graphs.sort(key=lambda x: x[2])  # the smaller mask owns the pair
    evs = [_evaluate(h, h_comp) if sd.solve else None for h, h_comp, _, sd in graphs]
    failed = [sd.solve and ev is None for (*_, sd), ev in zip(graphs, evs)]
    partner_ev = evs[1] if len(evs) == 2 else None
    out = []
    for k, ((h, _, h_mask, sd), ev) in enumerate(zip(graphs, evs)):
        owner = k == 0
        if failed[k] or owner and any(failed):
            eig_failure = [(EIG_FAILURE, math.nan)]
            out.append((h_mask, _result(h, h_mask, eig_failure, (), (), math.nan, False)))
            continue
        bad, found, t3_slack = [], [], math.nan
        if ev is not None:
            for i in sd.rows:
                r = CATALOG[i].report(ev, owner, partner_ev)
                if r.applicable and _fails(r):
                    verdict = CATALOG[i].verdict
                    (bad if verdict == ASSERTED else found).append((r.theorem_id, r.slack))
            t3_slack = _T3_ROW.report(ev, False, None).slack
            bad.extend(_trace_residuals(ev)[0])
        hits = [cid for cid in sd.hits if owner or cid != T4_NG_LOWER]
        out.append((h_mask, _result(h, h_mask, bad, found, hits, t3_slack, False)))
    return out


def _run_shard(args):
    """One (check, n, masks, extra) shard: check(n, mask, *extra) on each mask."""
    check, n, masks, extra = args
    return [check(n, mask, *extra) for mask in masks]


def _run_shards(pool, threads: int, jobs) -> dict[tuple[int, int], list]:
    """check(n, mask, *extra) for every mask of each (check, n, masks, extra) job.

    Keyed by (n, mask).  Each job's masks are dealt round-robin to at most
    `threads` shards, which run in the pool, or here when pool is None.
    """
    shards = [
        (check, n, masks[k::threads], extra)
        for check, n, masks, extra in jobs
        for k in range(min(threads, len(masks)))
    ]
    if pool is None:
        outs = [_run_shard(s) for s in shards]
    else:
        outs = pool.map(_run_shard, shards, chunksize=1)
    return {(n, m): res for (_, n, sub, _), out in zip(shards, outs) for m, res in zip(sub, out)}


def _class_pairs(n: int, classes: list[tuple[int, int]]) -> list[tuple[int, int | None]]:
    """(representative, complement representative) for each class and complement-class pair.

    A pair is represented by its smaller canonical mask; the complement of
    that labeling is the other class's representative, None when it is
    disconnected.
    """
    full = (1 << (n * (n - 1) // 2)) - 1
    taken = set()
    pairs = []
    for mask, _ in classes:
        if mask in taken:
            continue
        comp_rep = None
        if is_connected(Graph.from_pair_mask(n, full ^ mask)):
            comp_rep = canonical_form(n, full ^ mask)[0]
            taken.add(comp_rep)
        pairs.append((mask, comp_rep))
    return pairs


def _owners(n: int, rep: int, comp_connected: bool) -> set[int]:
    """The owner masks of every labeled pair in a class pair."""
    if not comp_connected:
        return set(labelings(n, rep))
    full = (1 << (n * (n - 1) // 2)) - 1
    return {min(x, full ^ x) for x in labelings(n, rep)}


def _expansion(n: int, pairs, reps) -> list:
    """The jobs the summary of order n needs beyond one evaluation per class pair.

    Each job is (check, n, masks, extra), as _run_shards takes it.  A pair
    whose representatives record a check-level failure, or have a margin in
    the noise band, gets the labeled battery on every other owner mask.  A
    pair that records anything else, or holds a class whose representative's
    T3 slack is within T3_TIE_REL of the best, gets _check_lean on one
    labeling of the representative's class per other labeled pair.
    """
    best = max(
        (r[3] for rep, _ in pairs for _, r in reps[n, rep] if r[3] == r[3]),
        default=math.nan,
    )
    floor = best - T3_TIE_REL * max(1.0, abs(best))
    full = (1 << (n * (n - 1) // 2)) - 1
    jobs = []
    for rep, comp_rep in pairs:
        results = dict(reps[n, rep])
        if any(
            r[4] or any(e[3] not in CATALOG_IDS for e in r[0]) for r in results.values()
        ):
            battery = _owners(n, rep, comp_rep is not None) - results.keys()
            jobs.append((_check_pair, n, sorted(battery), ()))
            continue
        recorded = {
            mask: ({CATALOG_IDS.index(e[3]) for e in r[0] + r[1]}, {e[3] for e in r[2]})
            for mask, r in results.items()
        }
        # the pair row is recorded on whichever graph owns a labeled pair
        t4_rows = {_T4} & set().union(*[rows for rows, _ in recorded.values()])
        t4_hits = {T4_NG_LOWER} & set().union(*[hits for _, hits in recorded.values()])
        sides = []
        for mask in (rep, full ^ rep):
            if mask not in results:  # the complement is disconnected
                sides.append(None)
                continue
            rows, hits = recorded[mask]
            rows, hits = rows | t4_rows, hits | t4_hits
            solve = bool(rows) or results[mask][3] >= floor
            sides.append(_Side(tuple(sorted(rows)), tuple(sorted(hits)), solve))
        if not any(sd.solve or sd.hits for sd in sides if sd is not None):
            continue
        labs = labelings(n, rep)
        if comp_rep == rep:  # self-complementary: one labeling per labeled pair
            labs = [x for x in labs if x < full ^ x]
        jobs.append((_check_lean, n, sorted(set(labs) - {rep, full ^ rep}), tuple(sides)))
    return jobs


def _summarize(max_n: int, counts: dict[int, int], checked) -> VerificationSummary:
    """The summary of labeled battery results, given as (n, mask, result) triples.

    counts holds the number of connected labeled graphs at each order.
    """
    violations = []
    findings = []
    hits = []
    best_by_n: dict[int, tuple[float, int]] = {}  # (slack, mask); smaller mask wins ties
    for n, mask, (v, f, h, t3_slack, _) in checked:
        violations.extend(v)
        findings.extend(f)
        hits.extend(h)
        if t3_slack == t3_slack:  # skip nan
            cur = best_by_n.get(n)
            if cur is None or t3_slack > cur[0] or (t3_slack == cur[0] and mask < cur[1]):
                best_by_n[n] = (t3_slack, mask)

    argmax_rows = []
    for n in sorted(best_by_n):
        slack, mask = best_by_n[n]
        gid = to_graph6(Graph.from_pair_mask(n, mask))
        argmax_rows.append((n, gid, slack))
        # the zero-slack complete graph can only top chart when it is alone
        if 3 <= n <= 6 and gid == complete_graph_id(n):
            violations.append((n, mask, gid, T3_ARGMAX, slack))

    violations.sort(key=lambda e: (e[0], e[1], e[3]))
    findings.sort(key=lambda e: (e[0], e[1], e[3]))
    hits.sort(key=lambda e: (e[0], e[1], e[3]))
    return VerificationSummary(
        population=f"connected labeled graphs with 2 <= n <= {max_n}",
        max_n=max_n,
        graphs_checked=sum(counts.values()),
        counts_by_n=tuple(sorted(counts.items())),
        violations=tuple((gid, cid, s) for _, _, gid, cid, s in violations),
        findings=tuple((gid, cid, s) for _, _, gid, cid, s in findings),
        equality_hits=tuple((gid, cid) for _, _, gid, cid in hits),
        t3_argmax=tuple(argmax_rows),
    )


def complete_graph_id(n: int) -> str:
    return to_graph6(Graph.from_pair_mask(n, (1 << (n * (n - 1) // 2)) - 1))


def verify_population(max_n: int, threads: int = 1) -> VerificationSummary:
    """Sweep all connected labeled graphs with 2 <= n <= max_n, class by class."""
    if not 2 <= max_n <= MAX_ENUM_N:
        raise ValueError(f"max_n must be in [2, {MAX_ENUM_N}]")
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be in [1, {MAX_THREADS}]")

    classes = connected_classes(max_n)
    orders = range(2, max_n + 1)
    counts = {n: sum(math.factorial(n) // aut for _, aut in classes[n]) for n in orders}
    pairs = {n: _class_pairs(n, classes[n]) for n in orders}

    if threads > 1:
        pool_cm = multiprocessing.get_context("fork").Pool(threads)
    else:
        pool_cm = contextlib.nullcontext()  # None: shards run in this process
    with pool_cm as pool:
        # one evaluation per class pair, then the labelings the summary prints
        reps = _run_shards(
            pool, threads, [(_check_pair, n, [rep for rep, _ in pairs[n]], ()) for n in orders]
        )
        jobs = [job for n in orders for job in _expansion(n, pairs[n], reps)]
        labeled = _run_shards(pool, threads, jobs)
    checked = [
        (n, mask, r) for runs in (reps, labeled) for (n, _), results in runs.items()
        for mask, r in results
    ]
    return _summarize(max_n, counts, checked)
