"""All-pairs shortest-path distances of connected graphs, kept integral."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .graphs import DisconnectedGraphError, Graph


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric integer hop-distance matrix; max entry is the diameter."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def diameter(self) -> int:
        return max(map(max, self.rows))


def distance_matrix(g: Graph) -> DistanceMatrix:
    """BFS from every source; raises on any unreachable pair.

    A level's scan stops as soon as the neighbors gathered so far cover
    every vertex.
    """
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    rows = []
    for src in range(n):
        row = [0] * n
        seen = 1 << src
        frontier = seen
        d = 0
        while frontier:
            nxt = 0
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                nxt |= adj[v]
                if nxt | seen == full:
                    break
                frontier &= frontier - 1
            frontier = nxt & ~seen
            if frontier:
                d += 1
                seen |= frontier
                f = frontier
                while f:
                    v = (f & -f).bit_length() - 1
                    row[v] = d
                    f &= f - 1
        if seen != full:
            raise DisconnectedGraphError("distance matrix of a disconnected graph")
        rows.append(tuple(row))
    return DistanceMatrix(n=n, rows=tuple(rows))


def involution(dm: DistanceMatrix) -> tuple[int, ...] | None:
    """The orbits of an automorphism sigma = sigma^-1 that moves some vertex, or None.

    Vertices are grouped by their sorted distance rows, which any
    automorphism preserves.  When a group has more than two members, the
    least vertex of the first such group is held fixed and every group is
    split by the distance to it.  Once no group has more than two
    members, sigma swaps each pair; it is used only when
    D[sigma i][sigma j] = D[i][j] for all i, j, which makes it an
    automorphism of the graph and of its complement.  The orbits are
    vertex masks, the fixed vertices first, then the pairs by their
    smaller vertex.
    """
    rows = dm.rows
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, row in enumerate(rows):
        groups.setdefault(tuple(sorted(row)), []).append(v)
    big = next((members for members in groups.values() if len(members) > 2), None)
    if big is not None:
        pivot = rows[big[0]]
        split: dict[tuple[int, int], list[int]] = {}
        for k, members in enumerate(groups.values()):
            for v in members:
                split.setdefault((k, pivot[v]), []).append(v)
        groups = split
    pairs = [members for members in groups.values() if len(members) > 1]
    if not pairs or any(len(members) > 2 for members in pairs):
        return None
    sigma = list(range(dm.n))
    for u, v in pairs:
        sigma[u], sigma[v] = v, u
    permute = itemgetter(*sigma)
    if any(permute(rows[s]) != row for s, row in zip(sigma, rows)):
        return None
    fixed = [1 << v for v, w in enumerate(sigma) if v == w]
    return tuple(fixed + [1 << v | 1 << w for v, w in enumerate(sigma) if v < w])


def sum_sq_distances(dm: DistanceMatrix) -> int:
    """Sum of squared distances over unordered pairs, exact integer."""
    # integer arithmetic is exact, so summing both triangles and halving is safe
    return sum([x * x for row in dm.rows for x in row]) // 2
