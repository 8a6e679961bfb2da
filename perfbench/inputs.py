"""Workload inputs, built by the benchmark itself and never by destrada.

Every graph here is an edge list over vertices 0..n-1.  The graph6
encoder and the G(n, p) generator are written out so that the program
under test only ever receives the finished inputs.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

# OEIS A001187: connected labeled graphs on n vertices
A001187 = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}

VERIFY_MAX_N = 6
VERIFY_GRAPHS = sum(A001187[n] for n in range(2, VERIFY_MAX_N + 1))  # 27,475


def graph6(n: int, edges) -> str:
    """Short-form graph6 (n <= 62): pairs i < j in column order, six bits a byte."""
    if not 1 <= n <= 62:
        raise ValueError("short-form graph6 needs 1 <= n <= 62")
    have = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(i, j) in have for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    body = "".join(
        chr(63 + sum(b << (5 - k) for k, b in enumerate(bits[p:p + 6])))
        for p in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def edge_list_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def is_connected(n: int, edges) -> bool:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    todo = [0]
    while todo:
        for w in nbrs[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle(n):
    return path(n) + [(0, n - 1)]


def star(n):
    return [(0, i) for i in range(1, n)]


def complete(n):
    return list(itertools.combinations(range(n), 2))


def multipartite(parts):
    part = [k for k, size in enumerate(parts) for _ in range(size)]
    return [(i, j) for i, j in itertools.combinations(range(len(part)), 2) if part[i] != part[j]]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    return sorted((min(e), max(e)) for e in outer + spokes + inner)


def gnp(n: int, p: float, seed: str):
    """First connected draw of G(n, p) from a stream seeded by the string seed."""
    rng = random.Random(seed)
    while True:
        edges = [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < p]
        if is_connected(n, edges):
            return edges


# (name, n, edge builder, input form).  Every n is above 8.  Paths from 45
# and cycles from 53 vertices have a largest distance eigenvalue above 700,
# which puts their rows in the log domain.  Petersen, K_n, K_{31,31} and
# K_{5,5,5,5} are regular with diameter <= 2.
_FIXED = (
    ("petersen", 10, petersen, "g6"),
    ("path", 12, lambda: path(12), "edges"),
    ("path", 46, lambda: path(46), "g6"),
    ("path", 62, lambda: path(62), "edges"),
    ("cycle", 16, lambda: cycle(16), "g6"),
    ("cycle", 54, lambda: cycle(54), "edges"),
    ("cycle", 62, lambda: cycle(62), "g6"),
    ("star", 10, lambda: star(10), "edges"),
    ("star", 62, lambda: star(62), "g6"),
    ("complete", 10, lambda: complete(10), "edges"),
    ("complete", 33, lambda: complete(33), "g6"),
    ("complete", 62, lambda: complete(62), "edges"),
    ("multipartite-31-31", 62, lambda: multipartite((31, 31)), "g6"),
    ("multipartite-5-5-5-5", 20, lambda: multipartite((5, 5, 5, 5)), "edges"),
    ("multipartite-3-7-12", 22, lambda: multipartite((3, 7, 12)), "g6"),
    ("multipartite-10-20-30", 60, lambda: multipartite((10, 20, 30)), "edges"),
)

# (n, p, input form) of the random graphs; their seeds come from the run's seed
_GNP = (
    (14, 0.5, "edges"),
    (24, 0.15, "g6"),
    (44, 0.3, "edges"),
    (50, 0.5, "g6"),
    (62, 0.1, "edges"),
    (62, 0.8, "g6"),
)


class GraphInput:
    """One compute-large input: the graph and the CLI flags that pass it."""

    def __init__(self, name: str, n: int, edges, form: str, out_dir: Path, idx: int):
        self.name = name
        self.n = n
        self.edges = edges
        self.form = form
        if form == "g6":
            self.flags = ["--g6", graph6(n, edges)]
        else:
            path_ = out_dir / f"input-{idx:02d}.edges"
            path_.write_text(edge_list_text(n, edges), encoding="ascii")
            self.flags = ["--edges", str(path_)]


def compute_large_inputs(seed: int, out_dir: Path) -> list[GraphInput]:
    """The fixed families, then one G(n, p) draw per row of _GNP, in that order."""
    specs = [(name, n, build(), form) for name, n, build, form in _FIXED]
    for k, (n, p, form) in enumerate(_GNP):
        specs.append((f"gnp-{p}", n, gnp(n, p, f"gnp:{seed}:{k}"), form))
    return [GraphInput(name, n, edges, form, out_dir, idx)
            for idx, (name, n, edges, form) in enumerate(specs)]
