"""Estrada indices of spectra plus the tracked catalog of bounds and identities.

Nine catalog entries, each a lower bound, upper bound, or identity for the
distance Estrada index ``DEE = sum(e**lambda_i)`` over distance eigenvalues
(or, for the entries tagged L3/L4, for the extreme distance eigenvalues
themselves).  Every entry is evaluated into a ``BoundReport`` carrying the
bound, the observed value, signed slack, and equality classification; large
exponents switch the report into log domain instead of overflowing.

``CATALOG`` is the one place the catalog is stated: each row gives its id,
whether a failure is an asserted violation or a descriptive finding,
whether its equality cases are tracked, and its evaluator.  Reports,
verification verdicts and the README table follow it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .graphs import Graph, complement, is_connected, twin_classes
from .metric import DistanceMatrix, distance_matrix, involution
from .numeric import EXP_OVERFLOW, log_sum_exp, safe_exp
from .spectra import SIGNATURE_ABS_TOL, Spectrum, adjacency_matrix, distance_spectrum, eig_sym

# catalog identifiers, fixed report order
T1_LOWER = "T1_lower"
T1_UPPER = "T1_upper"
T2_LOWER = "T2_lower"
T3_LOWER = "T3_lower"
T4_NG_LOWER = "T4_ng_lower"
T5_UPPER = "T5_upper"
T6_IDENTITY = "T6_identity"
L3_LAMBDA1_LOWER = "L3_lambda1_lower"
L4_CLASS = "L4_class"

# how a failed verdict of a row counts in the exhaustive sweep
ASSERTED = "asserted"        # a violation: the run fails
DESCRIPTIVE = "descriptive"  # a finding: reported, the run still passes

IDENTITY_REL_TOL = 1e-9       # identities and equality flags, relative
STRICT_SLACK = 1e-6           # margin demanded before calling an inequality strict
LEAST_EIG_THRESHOLD = -2.383  # ceiling on lambda_n outside the two exact classes


class SpectralMismatchError(RuntimeError):
    """Structural class and spectral signature disagree (solver or classifier bug)."""


@dataclass(frozen=True)
class EstradaValue:
    """Sum of e**lambda over a spectrum, with a log-domain shadow."""

    value: float
    log_value: float
    overflowed: bool


@dataclass(frozen=True)
class ExpBound:
    """A bound of the form const + e**exponent, safe against overflow."""

    const: float
    exponent: float

    @property
    def log_domain(self) -> bool:
        return self.exponent > EXP_OVERFLOW

    @property
    def value(self) -> float:
        return self.const + safe_exp(self.exponent)

    @property
    def log_value(self) -> float:
        if self.exponent > 40.0:
            # const contributes below one ulp once exponent - log(const) > ~40
            return self.exponent + math.log1p(self.const * math.exp(-self.exponent))
        return math.log(self.value)


def estrada_index(s: Spectrum) -> EstradaValue:
    """Compensated sum of e**lambda_i; flips to log domain past exponent 700."""
    overflowed = any(v > EXP_OVERFLOW for v in s.values)
    log_value = log_sum_exp(s.values)
    if overflowed:
        return EstradaValue(value=math.inf, log_value=log_value, overflowed=True)
    value = math.fsum(map(math.exp, s.values))
    return EstradaValue(value=value, log_value=log_value, overflowed=False)


# --- catalog formulas, each written once over precomputed graph facts --------
# Pure functions of a few small integers returning immutable values: a sweep
# meets the same arguments over and over, and the caches stay as small as the
# set of distinct (n, m, rho, degree) combinations seen.

@functools.cache
def _t1_lower(n: int, m: int) -> ExpBound:
    return ExpBound(const=math.sqrt(n * n + 4 * m), exponent=-math.inf)


@functools.cache
def _t1_upper(n: int, rho: int) -> ExpBound:
    return ExpBound(const=float(n - 1), exponent=rho * math.sqrt(n * (n - 1)))


@functools.cache
def _t2_lower(n: int, m: int) -> ExpBound:
    a = 2.0 * (n - 1) - 2.0 * m / n
    return ExpBound(const=math.exp(-a) + n - 2, exponent=a)


@functools.cache
def _radical(n: int, delta1: int, delta2: int) -> float:
    # (2 - D1/(n-1))(2 - D2/(n-1)) is the same product scaled by (n-1)^2
    return math.sqrt((2 * n - 2 - delta1) * (2 * n - 2 - delta2))


@functools.cache
def _t3_lower(n: int, s: float) -> ExpBound:
    return ExpBound(const=(n - 1) * math.exp(-s / (n - 1)), exponent=s)


@functools.cache
def _t4_pair_lower(n: int) -> ExpBound:
    a = 1.5 * (n - 1)
    return ExpBound(const=2.0 * math.exp(-a) + 2 * n - 4, exponent=a + math.log(2.0))


@functools.cache
def _t5_upper(n: int, rho: int) -> ExpBound:
    return ExpBound(const=float(n - 1), exponent=math.sqrt(n * (n - 1) * rho * rho - 1.0))


def is_complete_multipartite(g: Graph) -> bool:
    """True when g's complement splits into disjoint cliques (>= 2 parts).

    The complement is a union of cliques exactly when adjacent vertices
    share their closed neighborhoods, and a complement vertex's closed
    neighborhood is everything g's adjacency leaves out of it; it has a
    second part whenever g has an edge.
    """
    full = (1 << g.n) - 1
    closed = [full ^ a for a in g.adj]
    for cv in closed:
        u = cv
        while u:
            if closed[(u & -u).bit_length() - 1] != cv:
                return False
            u &= u - 1
    return g.m > 0


class BoundReport(NamedTuple):
    """One catalog entry evaluated on one graph.

    slack is observed - bound for lower bounds and identities, bound -
    observed for upper bounds; when log_domain is set, bound_value,
    observed, and slack all live on the log scale.  Inapplicable entries
    carry None numerics and a reason in note.  A named tuple rather than
    a dataclass: the sweep builds nine per graph and construction cost
    shows at that scale.
    """

    theorem_id: str
    applicable: bool
    bound_value: float | None
    observed: float | None
    slack: float | None
    holds: bool | None
    equality: bool | None
    strict_required: bool
    log_domain: bool = False
    note: str = ""


@dataclass(frozen=True)
class GraphEvaluation:
    """Shared per-graph work: distance spectrum, DEE, degree and complement facts.

    delta1 >= delta2 are the two largest degrees (both 0 when n = 1).
    cells are the vertex masks over which every solve of the graph's
    matrices, and of its complement's, runs (spectra._blocks): the twin
    classes, or on a twin-free graph the orbits of an involutive
    automorphism when there is one to use.
    """

    graph: Graph
    dm: DistanceMatrix
    rho: int
    spectrum: Spectrum
    dee: EstradaValue
    r: int | None
    delta1: int
    delta2: int
    cells: tuple[int, ...]

    @functools.cached_property
    def comp(self) -> Graph:
        """The complement, built on first use."""
        return complement(self.graph)

    @functools.cached_property
    def ee_complement(self) -> EstradaValue:
        """Estrada index of the complement's adjacency spectrum, solved on first use."""
        return estrada_index(eig_sym(adjacency_matrix(self.comp), self.cells))

    @functools.cached_property
    def comp_evaluation(self) -> GraphEvaluation | None:
        """The complement's own evaluation, solved on first use; None when it is disconnected.

        The complement shares the graph's cells.
        """
        comp = self.comp
        if not is_connected(comp):
            return None
        return _evaluation(comp, distance_matrix(comp), self.cells)


# the least order at which a twin-free graph's solves split over an involution
SPLIT_MIN_N = 9


def evaluate(g: Graph) -> GraphEvaluation:
    """Solve g's distance spectrum once and gather the facts every row reads."""
    dm = distance_matrix(g)
    cells = twin_classes(g)
    if len(cells) == g.n >= SPLIT_MIN_N:
        cells = involution(dm) or cells
    return _evaluation(g, dm, cells)


def _evaluation(g: Graph, dm: DistanceMatrix, cells: tuple[int, ...]) -> GraphEvaluation:
    """g's evaluation from its distance matrix and cells."""
    s = distance_spectrum(dm, cells)
    degs = sorted(g.degrees(), reverse=True)
    return GraphEvaluation(
        graph=g,
        dm=dm,
        rho=dm.diameter(),
        spectrum=s,
        dee=estrada_index(s),
        r=degs[0] if degs[0] == degs[-1] else None,
        delta1=degs[0] if g.n >= 2 else 0,
        delta2=degs[1] if g.n >= 2 else 0,
        cells=cells,
    )


_NEEDS_TWO = "needs n >= 2"


def _skip(tid: str, strict_required: bool, note: str) -> BoundReport:
    return BoundReport(tid, False, None, None, None, None, None, strict_required, False, note)


def _ineq_report(
    tid: str,
    bound: ExpBound,
    obs: EstradaValue,
    upper: bool,
    strict_required: bool,
    note: str = "",
) -> BoundReport:
    log_domain = bound.log_domain or obs.overflowed
    if log_domain:
        b, o = bound.log_value, obs.log_value
    else:
        b, o = bound.value, obs.value
    slack = (b - o) if upper else (o - b)
    tol = IDENTITY_REL_TOL * max(1.0, abs(o))
    return BoundReport(
        tid, True, b, o, slack, slack >= -tol, abs(slack) <= tol,
        strict_required, log_domain, note,
    )


# --- one evaluator per row, each a function of the graph's evaluation -------

def _t1_lower_row(ev: GraphEvaluation) -> BoundReport:
    g = ev.graph
    return _ineq_report(T1_LOWER, _t1_lower(g.n, g.m), ev.dee, False, g.n >= 2)


def _t1_upper_row(ev: GraphEvaluation) -> BoundReport:
    n = ev.graph.n
    return _ineq_report(T1_UPPER, _t1_upper(n, ev.rho), ev.dee, True, n >= 2)


def _t2_lower_row(ev: GraphEvaluation) -> BoundReport:
    g = ev.graph
    if g.n < 2:
        return _skip(T2_LOWER, False, _NEEDS_TWO)
    return _ineq_report(
        T2_LOWER, _t2_lower(g.n, g.m), ev.dee, False, False,
        "descriptive only; asserted just at its two-vertex equality case",
    )


def _t3_lower_row(ev: GraphEvaluation) -> BoundReport:
    n = ev.graph.n
    if n < 2:
        return _skip(T3_LOWER, False, _NEEDS_TWO)
    bound = _t3_lower(n, _radical(n, ev.delta1, ev.delta2))
    return _ineq_report(T3_LOWER, bound, ev.dee, False, False)


def pair_report(ev: GraphEvaluation, comp_ev: GraphEvaluation) -> BoundReport:
    """The T4_ng_lower row of a graph and its connected complement, from their evaluations."""
    pair = EstradaValue(
        value=ev.dee.value + comp_ev.dee.value,
        log_value=log_sum_exp(ev.spectrum.values + comp_ev.spectrum.values),
        overflowed=ev.dee.overflowed or comp_ev.dee.overflowed,
    )
    return _ineq_report(
        T4_NG_LOWER, _t4_pair_lower(ev.graph.n), pair, False, True,
        "observed is this graph's index plus its complement's",
    )


def _t4_ng_lower_row(ev: GraphEvaluation) -> BoundReport:
    if ev.graph.n < 2:
        return _skip(T4_NG_LOWER, True, _NEEDS_TWO)
    if ev.comp_evaluation is None:
        return _skip(T4_NG_LOWER, True, "complement disconnected")
    return pair_report(ev, ev.comp_evaluation)


def _t5_upper_row(ev: GraphEvaluation) -> BoundReport:
    n = ev.graph.n
    if n < 2:
        return _skip(T5_UPPER, True, _NEEDS_TWO)
    return _ineq_report(T5_UPPER, _t5_upper(n, ev.rho), ev.dee, True, True)


def _t6_identity_row(ev: GraphEvaluation) -> BoundReport:
    """DEE = e**(2n-r-2) - e**(n-r-2) + EE(complement)/e for r-regular, diameter <= 2."""
    if ev.r is None:
        return _skip(T6_IDENTITY, False, "not regular")
    if ev.rho > 2:
        return _skip(T6_IDENTITY, False, "diameter > 2")
    n, r = ev.graph.n, ev.r
    lhs = ev.dee.value
    rhs = safe_exp(2 * n - r - 2) - safe_exp(n - r - 2) + math.exp(-1.0) * ev.ee_complement.value
    slack = lhs - rhs
    ok = abs(slack) <= IDENTITY_REL_TOL * max(1.0, abs(lhs))
    return BoundReport(T6_IDENTITY, True, rhs, lhs, slack, ok, ok, False)


def _l3_lambda1_lower_row(ev: GraphEvaluation) -> BoundReport:
    n = ev.graph.n
    if n < 2:
        return _skip(L3_LAMBDA1_LOWER, False, _NEEDS_TWO)
    radical = _radical(n, ev.delta1, ev.delta2)
    lam1 = ev.spectrum.values[0]
    slack = lam1 - radical
    return BoundReport(
        L3_LAMBDA1_LOWER, True, radical, lam1, slack,
        slack >= -IDENTITY_REL_TOL * max(1.0, abs(lam1)),
        ev.r is not None and ev.rho <= 2, False, False,
        "equality flag is structural: regular with diameter <= 2",
    )


def _l4_class_row(ev: GraphEvaluation) -> BoundReport:
    """The least distance eigenvalue is -1 exactly at complete graphs, -2 exactly at
    complete multipartite graphs (n >= 3) and below -2.383 everywhere else.

    The class is decided from the structure; a spectrum that disagrees
    raises SpectralMismatchError.
    """
    g = ev.graph
    if g.n < 2:
        return _skip(L4_CLASS, False, _NEEDS_TWO)
    least = ev.spectrum.values[-1]
    if g.m == g.n * (g.n - 1) // 2:
        note, bound = "CompleteCase", -1.0
    elif g.n >= 3 and is_complete_multipartite(g):
        note, bound = "MultipartiteCase", -2.0
    else:
        note, bound = "Below2383", LEAST_EIG_THRESHOLD
    # an exact class meets its value; the threshold is a strict ceiling
    exact = bound != LEAST_EIG_THRESHOLD
    slack = least - bound if exact else bound - least
    if not (abs(slack) <= SIGNATURE_ABS_TOL if exact else slack > 0.0):
        raise SpectralMismatchError(
            f"least distance eigenvalue {least!r} contradicts class {note}"
        )
    return BoundReport(L4_CLASS, True, bound, least, slack, True, exact, not exact, False, note)


class CatalogRow(NamedTuple):
    """One catalog row.

    verdict is ASSERTED or DESCRIPTIVE, or None for L4_class, which
    raises SpectralMismatchError instead of reporting a failed row.
    equality_tracked rows have their equality cases collected.
    """

    theorem_id: str
    verdict: str | None
    equality_tracked: bool
    report: Callable[[GraphEvaluation], BoundReport]


# T2_lower fails at K3 and T4_ng_lower at the five-cycle pairs, so both are
# descriptive (docs/findings.md has the audit)
CATALOG = (
    CatalogRow(T1_LOWER, ASSERTED, True, _t1_lower_row),
    CatalogRow(T1_UPPER, ASSERTED, True, _t1_upper_row),
    CatalogRow(T2_LOWER, DESCRIPTIVE, True, _t2_lower_row),
    CatalogRow(T3_LOWER, ASSERTED, True, _t3_lower_row),
    CatalogRow(T4_NG_LOWER, DESCRIPTIVE, True, _t4_ng_lower_row),
    CatalogRow(T5_UPPER, ASSERTED, True, _t5_upper_row),
    CatalogRow(T6_IDENTITY, ASSERTED, True, _t6_identity_row),
    CatalogRow(L3_LAMBDA1_LOWER, ASSERTED, True, _l3_lambda1_lower_row),
    CatalogRow(L4_CLASS, None, False, _l4_class_row),
)
CATALOG_IDS = tuple(row.theorem_id for row in CATALOG)


def reports_from(ev: GraphEvaluation) -> tuple[BoundReport, ...]:
    """The nine catalog rows for one evaluated graph, in CATALOG order."""
    return tuple([row.report(ev) for row in CATALOG])


def bound_report(g: Graph) -> tuple[BoundReport, ...]:
    """The full nine-entry catalog for one connected graph, fixed order."""
    return reports_from(evaluate(g))


def comparisons_from(ev: GraphEvaluation) -> tuple[bool, bool] | tuple[None, None]:
    """The two bound-dominance claims: new lower beats old, new upper beats old.

    First flag: the degree-profile lower bound is at least sqrt(n^2 + 4m).
    Second: the diameter upper bound is at most n - 1 + e**(rho sqrt(n(n-1))).
    Both hold on every graph of two or more vertices (docs/findings.md,
    section 4), and neither is defined on one vertex.
    """
    if ev.graph.n < 2:
        return None, None
    return True, True
