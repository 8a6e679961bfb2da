"""Dense symmetric eigensolver and spectral utilities.

Full spectra come from Householder tridiagonalization followed by
implicit-shift QL iteration, written out here rather than delegated, so
the same arithmetic runs everywhere the harness does.  No eigenvectors
are accumulated; nothing downstream needs them.

A graph's matrices are solved over its cells (``bounds.evaluate``): the
twin classes (``graphs.twin_classes``), every permutation of which is an
automorphism, or, on a twin-free graph of order at least
``bounds.SPLIT_MIN_N``, the orbits {i, sigma(i)} of an involutive
automorphism sigma (``metric.involution``).  The complement has the same
automorphisms and so the same cells.  Every matrix of either graph then
commutes with those permutations and is block diagonal in the basis of
the cells' normalized indicator vectors (the even block), the 2-cells'
(e_f - e_l)/sqrt(2) (the odd block), and, on each twin class of s >= 3
members, s - 1 more vectors that sum to zero there, each an eigenvector
for alpha - beta, where alpha is the diagonal and beta the entry between
the members.  The odd block of twin pairs is diagonal, so Householder
finds a zero scale on every row, QL has nothing to chase, and every
twin's value is exact: -1 for adjacent and -2 for non-adjacent twins in
the distance matrix, -1 and 0 in the adjacency matrix.  A twin-free graph
without sigma solves its own matrix, entry for entry, and K_n's even
block is 1 x 1; sigma halves each block, which cuts the cubic work about
four times (Cvetkovic, Rowlinson & Simic, An Introduction to the Theory
of Graph Spectra, 2010, on symmetry and equitable partitions).  Paths
and cycles always split; Petersen and most G(n, p) draws do not.  Below
9 vertices, on the twin-free classes of n = 6, 7 and 8, the search and
split were 21 %, 19 % and 14 % slower than the plain solve.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph
from .metric import DistanceMatrix

# |lambda_1(A) - r| allowed when a spectrum claims to come from an r-regular graph
REGULAR_SPECTRUM_TOL = 1e-8

_EPS = 2.220446049250313e-16
_TINY = 1e-300
_MAX_QL_SWEEPS = 50
_BIT = {"0": 0.0, "1": 1.0}


class EigenConvergenceError(RuntimeError):
    """QL iteration exceeded the sweep budget (numerically pathological input)."""


def adjacency_matrix(g: Graph) -> tuple[tuple[float, ...], ...]:
    """Rows of the 0/1 adjacency matrix as floats."""
    width = f"0{g.n}b"
    return tuple(
        tuple([_BIT[c] for c in reversed(format(a, width))]) for a in g.adj
    )


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted non-increasing."""

    values: tuple[float, ...]

    def __post_init__(self):
        if any(map(operator.lt, self.values, self.values[1:])):
            raise ValueError("spectrum must be sorted non-increasing")


def _tridiagonalize(a: list[list[float]], n: int) -> tuple[list[float], list[float]]:
    """Householder reduction in place; returns (diagonal, subdiagonal e[1..n-1])."""
    e = [0.0] * n
    for i in range(n - 1, 0, -1):
        l = i - 1
        if l > 0:
            scale = 0.0
            ai = a[i]
            for k in range(l + 1):
                scale += abs(ai[k])
            if scale == 0.0:
                e[i] = ai[l]
                continue
            h = 0.0
            inv = 1.0 / scale
            for k in range(l + 1):
                ai[k] *= inv
                h += ai[k] * ai[k]
            f = ai[l]
            g = -math.sqrt(h) if f >= 0.0 else math.sqrt(h)
            e[i] = scale * g
            h -= f * g
            ai[l] = f - g
            f = 0.0
            for j in range(l + 1):
                g = 0.0
                aj = a[j]
                for k in range(j + 1):
                    g += aj[k] * ai[k]
                for k in range(j + 1, l + 1):
                    g += a[k][j] * ai[k]
                e[j] = g / h
                f += e[j] * ai[j]
            hh = f / (h + h)
            for j in range(l + 1):
                f = ai[j]
                g = e[j] - hh * f
                e[j] = g
                aj = a[j]
                for k in range(j + 1):
                    aj[k] -= f * e[k] + g * ai[k]
        else:
            e[i] = a[i][l]
    d = [a[i][i] for i in range(n)]
    return d, e


def _ql_implicit_shift(d: list[float], e: list[float], n: int) -> None:
    """Eigenvalues of a symmetric tridiagonal matrix, overwriting d."""
    for i in range(1, n):
        e[i - 1] = e[i]
    e[n - 1] = 0.0
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd + _TINY:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > _MAX_QL_SWEEPS:
                raise EigenConvergenceError(
                    f"QL failed to converge within {_MAX_QL_SWEEPS} sweeps"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


def _blocks(
    rows: Sequence[Sequence[float]], cells: Sequence[int] | None
) -> tuple[list[list[list[float]]], list[float]]:
    """(blocks, the eigenvalues no block holds) of a graph matrix M over its cells.

    Cell i, a vertex mask with first vertex f_i, last vertex l_i and size
    s_i, spans the even vector of its indicator over sqrt(s_i): B_ii =
    M[f_i][f_i] + (s_i - 1) M[f_i][l_i] and B_ij = sqrt(s_i s_j)
    (M[f_i][f_j] + M[f_i][l_j]) / 2.  The 2-cells (i, j), (k, l) also
    span the odd block A_ik = M_ik - M_il.  A cell of three or more is a
    twin class, and leaves out M[f][f] - M[f][l], s - 1 times.
    """
    if cells is None or len(cells) == len(rows):
        return [[list(map(float, row)) for row in rows]], []
    firsts = [(c & -c).bit_length() - 1 for c in cells]
    lasts = [c.bit_length() - 1 for c in cells]
    sizes = [c.bit_count() for c in cells]
    # sqrt(s_i s_j) / 2 by s_i; halving before the product rounds the same as after
    halves = {s: [math.sqrt(s * t) / 2 for t in sizes] for s in set(sizes)}
    even = []
    left_out = []
    for i, (fi, li, si) in enumerate(zip(firsts, lasts, sizes)):
        row = rows[fi]
        even.append([h * (row[fj] + row[lj]) for h, fj, lj in zip(halves[si], firsts, lasts)])
        even[i][i] = float(row[fi] + (si - 1) * row[li])
        if si > 2:
            left_out += [float(row[fi] - row[li])] * (si - 1)
    pairs = [(f, l) for f, l, s in zip(firsts, lasts, sizes) if s == 2]
    odd = [[float(rows[i][k] - rows[i][l]) for k, l in pairs] for i, _ in pairs]
    return [even, odd] if odd else [even], left_out


def _eig_in_place(a: list[list[float]], n: int) -> list[float]:
    """Eigenvalues of the n x n symmetric matrix a, which is overwritten, in no order."""
    if n == 1:
        return [a[0][0]]
    d, e = _tridiagonalize(a, n)
    _ql_implicit_shift(d, e, n)
    return d


def _solve(rows: Sequence[Sequence[float]], cells: Sequence[int] | None) -> Spectrum:
    blocks, values = _blocks(rows, cells)
    for a in blocks:
        values += _eig_in_place(a, len(a))
    values.sort(reverse=True)
    return Spectrum(values=tuple(values))


def eig_sym(rows: Sequence[Sequence[float]], cells: Sequence[int] | None = None) -> Spectrum:
    """All eigenvalues of a symmetric matrix given by its rows, sorted non-increasing.

    cells, when given, are the cells (GraphEvaluation.cells) of the graph
    that rows is the adjacency matrix of, or of its complement, and the
    solve runs on their blocks.
    """
    return _solve(rows, cells)


def distance_spectrum(dm: DistanceMatrix, cells: Sequence[int] | None = None) -> Spectrum:
    """The distance matrix's eigenvalues, solved straight from its integer rows.

    cells, when given, are the graph's cells, and the solve runs on
    their blocks.
    """
    return _solve(dm.rows, cells)


def lemma1_check(s: Spectrum, ssq2: int) -> tuple[float, float]:
    """Residuals of the two distance-spectrum trace identities.

    ssq2 is 2 * sum d_ij^2 over unordered pairs.  Returns (|sum of
    eigenvalues|, |sum of squares - ssq2|); a correct distance spectrum
    keeps the first below 1e-9 and the second below 1e-9 * ssq2, the
    rule verify's L1_identity check applies.
    """
    r_sum = abs(math.fsum(s.values))
    r_sumsq = abs(math.fsum([v * v for v in s.values]) - ssq2)
    return r_sum, r_sumsq


def lemma2_spectrum(adj_spectrum: Spectrum, n: int, r: int) -> Spectrum:
    """Distance spectrum of an r-regular diameter-<=2 graph from its A-spectrum.

    {2n - 2 - r} joined with {-2 - lambda_i(A)} over the non-leading values.
    """
    if abs(adj_spectrum.values[0] - r) > REGULAR_SPECTRUM_TOL:
        raise ValueError(
            f"leading eigenvalue {adj_spectrum.values[0]!r} does not match regularity {r}"
        )
    values = [float(2 * n - 2 - r)]
    values.extend(-2.0 - v for v in adj_spectrum.values[1:])
    values.sort(reverse=True)
    return Spectrum(values=tuple(values))
