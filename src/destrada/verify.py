"""Exhaustive verification of the bound catalog over small labeled graphs.

Every check reads only a graph's distance spectrum, degrees and
complement, so it gives the same verdict on every labeling of one
isomorphism class.  The sweep therefore evaluates each connected class
once, together with its complement class when that is connected, and
counts the class's n!/|Aut| labelings.  The summary still names labeled
graphs and prints slacks whose last digits vary between labelings, so:

- a class pair whose representatives record anything, or have a verdict
  margin within NOISE_BAND of its threshold, is expanded into all of its
  labelings, each given the labeled battery;
- otherwise, a class whose representative's T3 slack is within
  T3_TIE_REL of the best at its order is expanded alone, its complement
  class not, and each labeling gets only the T3 slack the argmax ranks
  by and the checks on its own solve (EIG_convergence, L1_identity).

Each labeled distance spectrum is solved once: when a graph and its
complement are both connected, the smaller of their two masks owns the
pair and checks both graphs.  Work can be sharded across processes; the
merge re-sorts by (n, mask) so the summary is identical for any shard
count.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
from dataclasses import dataclass

from .bounds import (
    ASSERTED,
    CATALOG,
    CATALOG_IDS,
    IDENTITY_REL_TOL,
    SIGNATURE_ABS_TOL,
    STRICT_SLACK,
    T3_LOWER,
    BoundReport,
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
    """True when r's slack is within the noise band of a threshold a verdict uses.

    The thresholds are the holds and equality tolerance, the signature
    tolerance of the L3 cross-check and of L4, and for strict rows zero and
    STRICT_SLACK; checking all of them on every row errs toward expanding.
    """
    scale = max(1.0, abs(r.observed))
    band = NOISE_BAND * scale
    s = abs(r.slack)
    return (
        abs(s - IDENTITY_REL_TOL * scale) <= band
        or abs(s - SIGNATURE_ABS_TOL) <= band
        or r.strict_required and (s <= band or abs(s - STRICT_SLACK) <= band)
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
            if verdict is not None and not (
                r.holds and (not r.strict_required or r.slack > STRICT_SLACK)
            ):
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


def _check_t3(n: int, mask: int):
    """The T3 slack and the spectral health of one labeling of a T3-tied class.

    Catalog verdicts do not depend on the labeling, so only the slack the
    argmax ranks by is computed, and only the solve itself is checked:
    EIG_convergence when it fails, else the L1_identity residuals.  Returns
    [(mask, result)] in the shape of _check_pair.
    """
    g = Graph.from_pair_mask(n, mask)
    ev = _evaluate(g)
    if ev is None:
        return [(mask, _result(g, mask, [(EIG_FAILURE, math.nan)], (), (), math.nan, False))]
    bad, near = _trace_residuals(ev)
    return [(mask, _result(g, mask, bad, (), (), _T3_ROW.report(ev, False, None).slack, near))]


def _run_shard(args):
    """One (check, n, masks) shard: check(n, mask) on each mask; picklable for Pool."""
    check, n, masks = args
    return [check(n, mask) for mask in masks]


def _run_shards(pool, threads: int, jobs) -> dict[tuple[int, int], list]:
    """check(n, mask) for every mask of each (check, n, masks) job, keyed by (n, mask).

    Each job's masks are dealt round-robin to `threads` shards, which run
    in the pool, or here when pool is None.
    """
    shards = [(check, n, masks[k::threads]) for check, n, masks in jobs for k in range(threads)]
    if pool is None:
        outs = [_run_shard(s) for s in shards]
    else:
        outs = pool.map(_run_shard, shards, chunksize=1)
    return {(n, m): res for (_, n, sub), out in zip(shards, outs) for m, res in zip(sub, out)}


def _class_pairs(n: int, classes: list[tuple[int, int]]) -> list[tuple[int, bool]]:
    """(representative, complement connected) for each class and complement-class pair.

    A pair is represented by its smaller canonical mask; the complement of
    that labeling is the other class's representative.
    """
    full = (1 << (n * (n - 1) // 2)) - 1
    taken = set()
    pairs = []
    for mask, _ in classes:
        if mask in taken:
            continue
        comp_connected = is_connected(Graph.from_pair_mask(n, full ^ mask))
        if comp_connected:
            taken.add(canonical_form(n, full ^ mask)[0])
        pairs.append((mask, comp_connected))
    return pairs


def _owners(n: int, rep: int, comp_connected: bool) -> set[int]:
    """The owner masks of every labeled pair in a class pair."""
    if not comp_connected:
        return set(labelings(n, rep))
    full = (1 << (n * (n - 1) // 2)) - 1
    return {min(x, full ^ x) for x in labelings(n, rep)}


def _expansion(n: int, pairs, reps) -> tuple[list, list[int], list[int]]:
    """What the summary of order n needs beyond one evaluation per class pair.

    Returns the representative results it prints, as (mask, result), the
    owner masks that get the labeled battery, and the masks that get only
    _check_t3.  A pair that records anything, or has a margin in the noise
    band, is expanded whole.  Otherwise each class whose representative's
    T3 slack is within T3_TIE_REL of the best is expanded on its own.
    """
    best = max(
        (r[3] for rep, _ in pairs for _, r in reps[n, rep] if r[3] == r[3]),
        default=math.nan,
    )
    floor = best - T3_TIE_REL * max(1.0, abs(best))
    printed, battery, tied = [], set(), set()
    for rep, comp_connected in pairs:
        pair = reps[n, rep]
        solved = {mask for mask, _ in pair}
        tied_reps = [mask for mask, r in pair if r[3] >= floor]
        if any(v or f or h or near for _, (v, f, h, _, near) in pair):
            battery |= _owners(n, rep, comp_connected) - solved
        elif tied_reps:
            tied |= {x for mask in tied_reps for x in labelings(n, mask)} - solved
        else:
            continue
        printed.extend(pair)
    return printed, sorted(battery), sorted(tied)


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
            pool, threads, [(_check_pair, n, [rep for rep, _ in pairs[n]]) for n in orders]
        )
        checked = []
        jobs = []
        for n in orders:
            printed, battery, tied = _expansion(n, pairs[n], reps)
            checked.extend((n, mask, r) for mask, r in printed)
            jobs += [(_check_pair, n, battery), (_check_t3, n, tied)]
        for (n, _), results in _run_shards(pool, threads, jobs).items():
            checked.extend((n, mask, r) for mask, r in results)

    return _summarize(max_n, counts, checked)
