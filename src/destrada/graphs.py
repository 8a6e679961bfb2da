"""Simple undirected graphs stored as per-vertex neighbor bitmasks.

Parsing (edge list, graph6), family builders, complement, connectivity,
twin classes, the exhaustive enumeration of connected labeled pair masks,
and the connected isomorphism classes with their labelings.  Edge bit
``j*(j-1)//2 + i`` for a pair ``i < j`` follows the graph6 column order,
so a graph's pair mask is exactly its graph6 payload bit stream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .numeric import SplitMix64

MAX_GRAPH6_N = 62  # short-form graph6 only
MAX_ENUM_N = 8


class GraphFormatError(ValueError):
    """Malformed edge-list or graph6 input."""


class PreconditionError(ValueError):
    """A well-formed argument outside what an operation accepts."""


class DisconnectedGraphError(PreconditionError):
    """Operation requires a connected graph."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex count, neighbor bitmasks, edge count."""

    n: int
    adj: tuple[int, ...]
    m: int

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "Graph":
        if n < 1:
            raise GraphFormatError(f"vertex count must be >= 1, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"vertex out of range in edge ({u}, {v})")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if adj[u] >> v & 1:
                raise GraphFormatError(f"duplicate edge ({u}, {v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n=n, adj=tuple(adj), m=len(edges))

    @classmethod
    def from_pair_mask(cls, n: int, mask: int) -> "Graph":
        if mask >> (n * (n - 1) // 2):
            raise GraphFormatError("pair mask has bits beyond the last vertex pair")
        return cls(n=n, adj=tuple(_mask_adjacency(n, mask)), m=mask.bit_count())

    def pair_mask(self) -> int:
        return _adjacency_mask(self.adj)

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self.adj]


def parse_edge_list(text: str) -> Graph:
    """Parse 'n m' header plus m lines 'u v' (0-based vertices)."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {lines[0]!r}") from exc
    # checked before anything is sized by the header
    if not 1 <= n <= MAX_GRAPH6_N:
        raise GraphFormatError(
            f"vertex count {n} outside 1..{MAX_GRAPH6_N} (graph6 short-form ids)"
        )
    if not 0 <= m <= n * (n - 1) // 2:
        raise GraphFormatError(f"edge count {m} outside 0..{n * (n - 1) // 2} for n = {n}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge line {ln!r}") from exc
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def parse_graph6(line: str) -> Graph:
    """Decode a short-form graph6 string (n < 63)."""
    s = line.strip()
    if not s:
        raise GraphFormatError("empty graph6 input")
    for ch in s:
        if not (63 <= ord(ch) <= 126):
            raise GraphFormatError(f"invalid graph6 character {ch!r}")
    n = ord(s[0]) - 63
    if n == 63:
        raise GraphFormatError("long-form graph6 (n >= 63) not supported")
    if n < 1:
        raise GraphFormatError("graph6 order must be >= 1")
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    payload = s[1:]
    if len(payload) != nbytes:
        raise GraphFormatError(
            f"graph6 payload for n={n} needs {nbytes} characters, got {len(payload)}"
        )
    mask = 0
    for k, ch in enumerate(payload):
        mask |= _G6_BITS[ch] << 6 * k
    if mask >> npairs:
        raise GraphFormatError("graph6 padding bits must be zero")
    return Graph.from_pair_mask(n, mask)


def to_graph6(g: Graph) -> str:
    """Encode as short-form graph6 (requires n < 63)."""
    if g.n > MAX_GRAPH6_N:
        raise GraphFormatError(f"graph6 short form supports n <= {MAX_GRAPH6_N}")
    return graph6_from_mask(g.n, g.pair_mask())


# graph6 character of each 6-bit chunk of a pair mask: its first pair is the high bit
_G6_CHUNK = "".join(chr(63 + int(f"{x:06b}"[::-1], 2)) for x in range(64))
_G6_BITS = {ch: x for x, ch in enumerate(_G6_CHUNK)}


def graph6_from_mask(n: int, mask: int) -> str:
    """Short-form graph6 of the graph with pair mask mask, six pairs a character."""
    return chr(n + 63) + "".join(
        [_G6_CHUNK[mask >> k & 63] for k in range(0, n * (n - 1) // 2, 6)]
    )


# --- families ---------------------------------------------------------------

def _needs_order(family: str, n: int, least: int) -> None:
    if n < least:
        raise PreconditionError(f"{family} family needs n >= {least}")


def complete_graph(n: int) -> Graph:
    _needs_order("complete", n, 1)
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    _needs_order("cycle", n, 3)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    _needs_order("path", n, 1)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    _needs_order("star", n, 1)
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def multipartite_graph(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph on runs of consecutive vertices of the given sizes."""
    if len(parts) < 2 or any(p < 1 for p in parts):
        raise PreconditionError("multipartite family needs >= 2 parts, each >= 1")
    part_of = [pi for pi, size in enumerate(parts) for _ in range(size)]
    n = len(part_of)
    edges = [(i, j) for i, j in itertools.combinations(range(n), 2) if part_of[i] != part_of[j]]
    return Graph.from_edges(n, edges)


def petersen_graph() -> Graph:
    """The Petersen graph: outer cycle 0..4, spokes i -- i + 5, inner pentagram 5..9."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) from SplitMix64(seed): one draw a pair, pairs in lexicographic (i, j) order."""
    _needs_order("gnp", n, 1)
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("gnp family needs p in [0, 1]")
    rng = SplitMix64(seed)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.next_float() < p]
    return Graph.from_edges(n, edges)


# --- structural queries ------------------------------------------------------

def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    # v is outside adj[v], so the xor with full sets it and the second xor clears it
    adj = tuple([full ^ a ^ (1 << v) for v, a in enumerate(g.adj)])
    return Graph(n=g.n, adj=adj, m=g.n * (g.n - 1) // 2 - g.m)


def _reaches_all(adj: Sequence[int], keep: int) -> bool:
    """Frontier BFS over neighbor bitmasks: whether the vertex set keep is connected.

    The search starts at keep's lowest vertex and never leaves keep.
    """
    seen = frontier = keep & -keep
    while frontier:
        nxt = 0
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            nxt |= adj[v]
            frontier &= frontier - 1
        frontier = nxt & keep & ~seen
        seen |= frontier
    return seen == keep


def is_connected(g: Graph) -> bool:
    return _reaches_all(g.adj, (1 << g.n) - 1)


def twin_classes(g: Graph) -> tuple[int, ...]:
    """Vertex masks of g's twin classes, in order of their least vertex.

    Vertices with equal closed neighborhoods N[v] are adjacent twins,
    vertices with equal open neighborhoods N(v) non-adjacent twins, and
    no vertex has twins of both kinds; a vertex without twins is a class
    of its own.  Twins of g are twins of its complement, with the two
    kinds swapped, so both share these classes.
    """
    return tuple(dict.fromkeys(_twin_class_of(g.adj)))  # keeps least-vertex order


def _twin_class_of(adj: Sequence[int]) -> list[int]:
    """The twin class of each vertex, as a vertex mask (see twin_classes)."""
    closed: dict[int, int] = {}
    opened: dict[int, int] = {}
    for v, a in enumerate(adj):
        closed[a | 1 << v] = closed.get(a | 1 << v, 0) | 1 << v
        opened[a] = opened.get(a, 0) | 1 << v
    out = []
    for v, a in enumerate(adj):
        c = closed[a | 1 << v]
        out.append(c if c & (c - 1) else opened[a])
    return out


# --- exhaustive enumeration --------------------------------------------------

def _mask_adjacency(n: int, mask: int) -> list[int]:
    """Neighbor bitmasks of a pair mask.

    The pairs {i, j} with i < j sit in the contiguous bit run starting at
    j(j-1)/2, so that run is vertex j's set of lower neighbors.
    """
    adj = [0] * n
    base = 0
    for j in range(1, n):
        low = mask >> base & ((1 << j) - 1)
        adj[j] = low
        bit = 1 << j
        while low:
            adj[(low & -low).bit_length() - 1] |= bit
            low &= low - 1
        base += j
    return adj


def _adjacency_mask(adj: Sequence[int]) -> int:
    """Pair mask of neighbor bitmasks: vertex j's lower neighbors fill the run at j(j-1)/2."""
    mask = 0
    base = 0
    for j in range(1, len(adj)):
        mask |= (adj[j] & ((1 << j) - 1)) << base
        base += j
    return mask


def connected_pair_masks(n: int) -> Iterator[int]:
    """Ascending pair masks of connected labeled graphs."""
    if not 1 <= n <= MAX_ENUM_N:
        raise PreconditionError(f"enumeration supports 1 <= n <= {MAX_ENUM_N}")
    npairs = n * (n - 1) // 2
    need = n - 1  # fewer edges can never connect n vertices
    for mask in range(1 << npairs):
        if mask.bit_count() < need:
            continue
        if _reaches_all(_mask_adjacency(n, mask), (1 << n) - 1):
            yield mask


# --- isomorphism classes -----------------------------------------------------
# Partitions are ordered lists of vertex bitmasks ("cells").  Every step
# below depends only on the graph and the order of the cells, never on
# vertex names, so isomorphic graphs reach the same canonical mask.

def _refine(adj: Sequence[int], cells: list[int]) -> list[int]:
    """Split cells by neighbor counts into each cell until the partition is equitable.

    cells partition adj's vertices.  A split cell is replaced by its
    fragments in ascending count order, and the scan for a splitter
    restarts at the first cell.  A cell once used as a splitter is passed
    over: every later cell lies inside a cell already homogeneous with
    respect to it, so it can split nothing again.  A one-vertex splitter
    splits a cell into its non-neighbors, then its neighbors.  Nothing
    splits once every cell is a singleton.
    """
    n = len(adj)
    used = set()
    k = 0
    while k < len(cells) < n:
        splitter = cells[k]
        if splitter in used:
            k += 1
            continue
        used.add(splitter)
        out = []
        if not splitter & (splitter - 1):
            nb = adj[splitter.bit_length() - 1]
            for cell in cells:
                x = cell & nb
                if x and x != cell:
                    out += (cell ^ x, x)
                else:
                    out.append(cell)
        else:
            for cell in cells:
                if cell & (cell - 1):
                    parts: dict[int, int] = {}
                    rest = cell
                    while rest:
                        b = rest & -rest
                        c = (adj[b.bit_length() - 1] & splitter).bit_count()
                        parts[c] = parts.get(c, 0) | b
                        rest ^= b
                    if len(parts) > 1:
                        out.extend(parts[c] for c in sorted(parts))
                        continue
                out.append(cell)
        k = 0 if len(out) > len(cells) else k + 1
        cells = out
    return cells


def _bits(x: int) -> list[int]:
    """The single-bit masks of x, ascending."""
    out = []
    while x:
        b = x & -x
        out.append(b)
        x ^= b
    return out


def _canonical(adj: Sequence[int]) -> tuple[int, int]:
    """(canonical pair mask, |Aut|) by colour refinement and individualization.

    The search tree individualizes each vertex of the first non-singleton
    cell in turn and refines again; its leaves order the vertices, and the
    canonical mask is the smallest pair mask among them.  Automorphisms
    permute the leaves freely, so |Aut| leaves reach that mask.  A cell
    inside one twin class is ordered at once, standing for its k! equal
    leaves, since every permutation of it is an automorphism.
    """
    n = len(adj)
    best, aut = -1, 0
    twin_of = None
    stack = [(_refine(adj, [(1 << n) - 1] if n else []), 1)]
    while stack:
        cells, weight = stack.pop()
        i = next((i for i, c in enumerate(cells) if c & (c - 1)), -1)
        if i < 0:
            pos = [0] * n
            for p, b in enumerate(cells):
                pos[b.bit_length() - 1] = p
            rows = [0] * n
            for v, a in enumerate(adj):
                for b in _bits(a):
                    rows[pos[v]] |= 1 << pos[b.bit_length() - 1]
            mask = _adjacency_mask(rows)
            if best < 0 or mask < best:
                best, aut = mask, weight
            elif mask == best:
                aut += weight
            continue
        cell = cells[i]
        if twin_of is None:
            twin_of = _twin_class_of(adj)
        if not cell & ~twin_of[(cell & -cell).bit_length() - 1]:
            stack.append((cells[:i] + _bits(cell) + cells[i + 1:],
                          weight * math.factorial(cell.bit_count())))
            continue
        for b in _bits(cell):
            stack.append((_refine(adj, cells[:i] + [b, cell ^ b] + cells[i + 1:]), weight))
    return best, aut


def canonical_form(n: int, mask: int) -> tuple[int, int]:
    """(canonical pair mask, automorphism group order) of a labeled graph."""
    return _canonical(_mask_adjacency(n, mask))


def _rank(adj: Sequence[int], u: int) -> tuple[list[int], int]:
    """u's ascending neighbor degrees and its triangle count (twice over)."""
    a = adj[u]
    nbrs = [adj[b.bit_length() - 1] for b in _bits(a)]
    return sorted([w.bit_count() for w in nbrs]), sum([(w & a).bit_count() for w in nbrs])


def _is_parent_vertex(adj: Sequence[int], v: int) -> bool:
    """Whether v ranks first among the vertices whose removal keeps adj connected.

    Non-cut vertices rank by least degree, then by the largest ascending
    tuple of neighbor degrees, then by the most triangles; ties rank
    together.  v itself must be non-cut, and only the vertices that
    outrank v are tested for it.
    """
    d = adj[v].bit_count()
    full = (1 << len(adj)) - 1
    mine = None
    for u, a in enumerate(adj):
        du = a.bit_count()
        if du > d or u == v:
            continue
        if du == d:
            if mine is None:
                mine = _rank(adj, v)
            if _rank(adj, u) <= mine:
                continue
        if _reaches_all(adj, full ^ 1 << u):
            return False
    return True


def _neighbor_sets(adj: Sequence[int]) -> list[int]:
    """The nonempty vertex sets of adj that take the lowest members of each twin class.

    Any permutation inside a twin class is an automorphism of adj, so
    joining a new vertex to any other set gives a graph isomorphic to one
    of these, by an isomorphism that fixes the new vertex.  There are
    prod(|T| + 1) - 1 of them over the twin classes T.
    """
    sets = [0]
    for twins in dict.fromkeys(_twin_class_of(adj)):
        prefixes = [0, *itertools.accumulate(_bits(twins))]
        sets = [s | p for s in sets for p in prefixes]
    return sets[1:]  # sets[0] is empty


def grow_classes(n: int, parents: Iterable[int]) -> dict[int, int]:
    """{canonical mask: |Aut|} of the connected order-n classes grown from parents.

    parents are canonical masks of order n - 1.  The new vertex v joins
    each of a parent's _neighbor_sets; a candidate is kept only when v
    ranks first among its non-cut vertices (the parent rule, see
    _is_parent_vertex), and canonical forms merge the remaining
    duplicates.  Grown from every order-(n - 1) class, the keys are every
    order-n class; grown from a share of them, the union over the shares
    is.
    """
    v = n - 1  # the new vertex
    found: dict[int, int] = {}
    for mask in parents:
        parent = _mask_adjacency(v, mask)
        for nbrs in _neighbor_sets(parent):
            adj = [a | (nbrs >> u & 1) << v for u, a in enumerate(parent)]
            adj.append(nbrs)
            if _is_parent_vertex(adj, v):
                canon, aut = _canonical(adj)
                found[canon] = aut
    return found


def connected_classes(max_n: int) -> dict[int, list[tuple[int, int]]]:
    """Connected isomorphism classes of each order 1..max_n: ascending (canonical mask, |Aut|).

    Each order grows from the one below by grow_classes (isomorph-free
    generation after Read 1978 and McKay 1998).  No class is lost: the
    parent rule's ranking reads only isomorphism invariants, so every
    connected graph has a first-ranked non-cut vertex, and deleting it
    leaves a connected graph of order n - 1 whose representative regrows
    it.  A class has n!/|Aut| labelings.
    """
    if not 1 <= max_n <= MAX_ENUM_N:
        raise PreconditionError(f"enumeration supports 1 <= n <= {MAX_ENUM_N}")
    table = {1: [(0, 1)]}
    for n in range(2, max_n + 1):
        table[n] = sorted(grow_classes(n, (mask for mask, _ in table[n - 1])).items())
    return table


def labelings(n: int, mask: int) -> list[int]:
    """Every pair mask of the graph under relabeling, ascending.

    The orbit is closed under swaps of adjacent vertices, which generate
    every permutation.
    """
    seen = {mask}
    todo = [mask]
    while todo:
        adj = _mask_adjacency(n, todo.pop())
        for i in range(n - 1):
            two = 3 << i
            rows = [a ^ two if (a >> i ^ a >> (i + 1)) & 1 else a for a in adj]
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
            swapped = _adjacency_mask(rows)
            if swapped not in seen:
                seen.add(swapped)
                todo.append(swapped)
    return sorted(seen)
