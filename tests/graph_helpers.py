"""Graph helpers that only the tests need.

edges() lists a graph's edges for networkx and other reference code;
enumerate_regular() generates the labeled regular graphs on up to 8
vertices that acceptance criteria 03 and 09 sweep; labeled_sweep() is
the labeled reference for the class sweep of verify_population().
"""

import itertools
from typing import Iterator

from destrada.graphs import MAX_ENUM_N, Graph, connected_pair_masks, is_connected
from destrada.verify import VerificationSummary, _check_pair, _summarize


def edges(g: Graph) -> list[tuple[int, int]]:
    """Edges (i, j) with i < j, ascending by j then i (the pair-mask bit order)."""
    return [(i, j) for j in range(1, g.n) for i in range(j) if g.adj[j] >> i & 1]


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


def labeled_sweep(max_n: int) -> VerificationSummary:
    """verify_population(max_n) computed one labeled graph at a time.

    Walks every connected labeled graph in mask order and gives each
    unordered {graph, complement} pair verify's per-graph battery once,
    at its first mask; the partner's mask is skipped when the walk
    reaches it.  No isomorphism class is formed, so it is the
    differential oracle for the class sweep.
    """
    counts = {}
    checked = []
    for n in range(2, max_n + 1):
        done = set()
        for mask in connected_pair_masks(n):
            counts[n] = counts.get(n, 0) + 1
            if mask in done:
                continue
            for m, result in _check_pair(n, mask):
                done.add(m)
                checked.append((n, m, result))
    return _summarize(max_n, counts, checked)
