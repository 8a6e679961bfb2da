"""Graph helpers that only the tests need.

edges() lists a graph's edges for networkx and other reference code;
complete_graph_id() is K_n's graph6 id; enumerate_regular() generates
the labeled regular graphs on up to 8 vertices that acceptance criteria
03 and 09 sweep; labeled_sweep() is the labeled reference for the class
sweep of verify_population(), and assert_same_up_to_rounding() compares
the two.
"""

import functools
import itertools
import json
from typing import Iterator

from destrada.bounds import CATALOG_IDS, T3_LOWER, bound_report
from destrada.graphs import (
    MAX_ENUM_N,
    Graph,
    canonical_form,
    complete_graph,
    connected_pair_masks,
    is_connected,
    parse_graph6,
    to_graph6,
)
from destrada.records import summary_to_json
from destrada.verify import VerificationSummary, _check_pair, _labeled, _summarize


def edges(g: Graph) -> list[tuple[int, int]]:
    """Edges (i, j) with i < j, ascending by j then i (the pair-mask bit order)."""
    return [(i, j) for j in range(1, g.n) for i in range(j) if g.adj[j] >> i & 1]


def complete_graph_id(n: int) -> str:
    return to_graph6(complete_graph(n))


def enumerate_regular(n: int, r: int, connected_only: bool = False) -> Iterator[Graph]:
    """Labeled r-regular graphs on n vertices by degree-constrained backtracking.

    Deterministic lexicographic order of neighbor choices; far cheaper than
    filtering the full 2**C(n,2) enumeration once n reaches 8.
    """
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUM_N}")
    if not 0 <= r < n:
        raise ValueError(f"regularity must satisfy 0 <= r < n, got {r}")
    if n * r % 2:
        return
    adj = [0] * n
    deg = [0] * n

    def extend(v: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(adj)
            return
        need = r - deg[v]
        if need < 0:
            return
        cands = [u for u in range(v + 1, n) if deg[u] < r]
        if need > len(cands):
            return
        # remaining stubs beyond v must pair up among themselves
        for chosen in itertools.combinations(cands, need):
            for u in chosen:
                adj[v] |= 1 << u
                adj[u] |= 1 << v
                deg[u] += 1
            deg[v] = r
            rest = sum(r - deg[u] for u in range(v + 1, n))
            if rest % 2 == 0 and all(
                r - deg[u] <= n - 1 - u + sum(1 for w in range(v + 1, u) if deg[w] < r)
                for u in range(v + 1, n)
            ):
                yield from extend(v + 1)
            deg[v] = r - need
            for u in chosen:
                adj[v] &= ~(1 << u)
                adj[u] &= ~(1 << v)
                deg[u] -= 1

    for snapshot in extend(0):
        g = Graph(n=n, adj=snapshot, m=n * r // 2)
        if connected_only and not is_connected(g):
            continue
        yield g


@functools.cache
def labeled_sweep(max_n: int) -> VerificationSummary:
    """verify_population(max_n) computed one labeled graph at a time.

    Walks every connected labeled graph in mask order and gives each
    unordered {graph, complement} pair verify's battery once, at its
    first mask, through _check_pair on the two masks themselves; the
    partner's mask is skipped when the walk reaches it.  No isomorphism
    class is formed and no orbit is expanded: every labeled graph's
    entries and T3 slack come from its own solve, so it is the
    differential oracle for the class sweep.  Cached, so each order is
    swept once per session: call it only on unpatched code.
    """
    counts = {}
    entries, ranked = [], []
    for n in range(2, max_n + 1):
        full = (1 << (n * (n - 1) // 2)) - 1
        done = set()
        for mask in connected_pair_masks(n):
            counts[n] = counts.get(n, 0) + 1
            if mask in done:
                continue
            comp = full ^ mask
            connected = is_connected(Graph.from_pair_mask(n, comp))
            for m, side, owner, t3_slack in _check_pair(n, mask, comp if connected else None):
                done.add(m)
                ranked.append((n, m, t3_slack))
                entries += _labeled(n, [m], side, owner)
    return _summarize(max_n, counts, entries, ranked)


# printed slacks of one class may differ between labelings by rounding alone
SLACK_REL_TOL = 1e-12


@functools.cache
def _observed(gid: str, cid: str) -> float:
    return bound_report(parse_graph6(gid))[CATALOG_IDS.index(cid)].observed


def _class_of(gid: str) -> tuple[int, int]:
    g = parse_graph6(gid)
    return g.n, canonical_form(g.n, g.pair_mask())[0]


def summary_json(summary: VerificationSummary) -> dict:
    """summary as `verify --format json` prints it, parsed."""
    return json.loads(summary_to_json(summary))


def assert_same_up_to_rounding(new: dict, reference: dict) -> None:
    """Two verify summaries, as parsed JSON, agree but for rounding noise.

    Counts, the verdict, and the (graph6 id, check id) lists of violations,
    findings and equality hits must be equal, in order; each slack must be
    within SLACK_REL_TOL * max(1, |observed|) of the reference's, where
    observed is the row's observed value (the slack itself outside the
    catalog); each order's T3 argmax must be the same isomorphism class.
    """
    for key in ("max_n", "graphs_checked", "counts_by_n", "passed", "equality_hits"):
        assert new[key] == reference[key], key

    def close(a, b, gid, cid):
        if a is None or b is None:  # nan prints as null
            return a is b
        scale = _observed(gid, cid) if cid in CATALOG_IDS else b
        return abs(a - b) <= SLACK_REL_TOL * max(1.0, abs(scale))

    for key in ("violations", "findings"):
        assert [e[:2] for e in new[key]] == [e[:2] for e in reference[key]], key
        for (gid, cid, a), (_, _, b) in zip(new[key], reference[key]):
            assert close(a, b, gid, cid), (key, gid, cid, a, b)
    assert [row[0] for row in new["t3_argmax"]] == [row[0] for row in reference["t3_argmax"]]
    for (n, gid, a), (_, ref_gid, b) in zip(new["t3_argmax"], reference["t3_argmax"]):
        assert _class_of(gid) == _class_of(ref_gid), n
        assert close(a, b, gid, T3_LOWER), (n, a, b)
