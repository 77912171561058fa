"""Lagrangian of a perturbation problem under the conditional coupling.

L(x, (y*, v*, alpha)) is the infimum over the grid realization of
Y_x = dom phi(x, .) of phi(x, y) - c(y, (y*, v*, alpha)), with alpha > 0;
the infimum over an empty Y_x is +inf.  Membership in Y_x is decided from
the evaluated slice, so table- and expression-backed problems behave
identically.

Two exact identities anchor the table: -L(x, .) is the conjugate of the
slice phi(x, .), and the infimum of L(., w) over x is the negated
conjugate of phi at the embedded dual point, which makes sup-inf equal the
dual value on every instance.

The sup over dual points of L(x, .) is bounded by phi(x, 0) because the
coupling vanishes at the origin whenever alpha > 0; equality of inf-sup
with the primal value is conditional on the slices being recoverable from
their conjugates.

The first identity builds the table: its rows are read off one kernel
sweep of every slice, which keeps, per slice and distinct y*, the first y
of Y_x attaining the conjugate.  A finite float cell is phi(x, y) - <y, y*>
at that y; a finite rational cell and a +-inf cell are the negated
conjugate.  The sweep takes one column of dots over Y per distinct v* and
per y* that an open gate needs, once per problem, so the table costs
O((#y* + #v*)·|Y|) inner products and O((#y* + #v*)·|Y|·|X| + |W_y|·|X|)
reads, not one coupling per (x, w, y).  :func:`dual_slice_audit` holds the
table to the definitional conjugate of every slice, taking each dual
point's coupling column over Y once per problem, so the identity stays a
check of two routes: every (x, y, w) is its own term, nothing is grouped
by slope and no attaining row is read.  On exact data the couplings are
ints over one scale per problem, taken by the check itself and not by the
kernel's scaling, so one fault cannot reach both routes.

On a finite grid a zero gap with attained optima always produces a saddle
point (the two defining inequalities are the exact identities above), so
the saddle set contains argmin x argmax unconditionally; the reverse
containment is reported against the per-slice recovery surrogate.

The domain restriction to Y_x is essential, not cosmetic: a Lagrangian
built with the infimum over all of Y collapses under this coupling (any
y outside dom phi(x, .) contributes phi - c = +inf - c, and any gate
failure inside a nonempty domain drags the unrestricted infimum to -inf
except when both dual blocks vanish), so the general construction over an
arbitrary coupling space is intentionally not provided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from econvex import extreal, funcrep
from econvex.conjugation import (
    DualPoint,
    _c_conjugate_rows,
    _check_ints,
    _classify,
    _coupling,
    _sup_minus,
    coupling_c,
    cprime_conjugate,
)
from econvex.duality import PerturbationProblem, dual_value, primal_value
from econvex.esets import dot
from econvex.extreal import POS_INF, ExtReal
from econvex.funcrep import SampledFn, slice_x

__all__ = [
    "CLagrangian",
    "SaddleCandidate",
    "lagrangian_table",
    "lagrangian_value",
    "dual_slice_audit",
    "minimax_ok",
    "supinf_value",
    "infsup_value",
    "is_saddle_point",
    "saddle_search",
    "prop55_audit",
    "example52_audit",
    "find_convexity_violation",
]


@dataclass(frozen=True)
class SaddleCandidate:
    xbar: Tuple
    wbar: DualPoint
    value: ExtReal


class CLagrangian:
    """Cached table of L over x-grid x dual-y-grid, read off the kernel.

    ``table`` is flat and x-major like phi_on_product; its rows, columns,
    row suprema and column infima are each taken once, on first use.
    ``slices`` and ``slice_conjugates`` list, in x-grid order, the rows of
    the cached phi_on_product and their conjugates, from one kernel sweep.

    On a finite cell
    L(x, w) = phi(x, y) - <y, y*> at the kernel's attaining row y: its
    first maximiser of <y, y*> - phi(x, y) is the first minimiser of the
    defining infimum (same grid order, same strict tie rule, exact IEEE
    negation).  A finite float cell is not the negated conjugate, because
    -(c - v) is -0.0 where the definition's v - c is 0.0.  A finite
    rational cell is -phi(x, .)^c(w), since there -(c - v) is v - c
    exactly, and so is a +-inf cell (a shut gate, -inf on Y_x, or an
    empty Y_x).
    """

    def __init__(self, problem: PerturbationProblem):
        if not problem.dual_y_grid.alpha_positive:
            raise ValueError("the Lagrangian needs alpha > 0 on every dual point")
        self.x_grid, self.w_grid = problem.x_grid, problem.dual_y_grid
        y_grid, w_grid = problem.y_grid, problem.dual_y_grid
        phi_rows = funcrep.rows(problem.phi_on_product.values, len(self.x_grid))
        self.slices = [SampledFn(y_grid, row) for row in phi_rows]
        conjugates = _c_conjugate_rows(self.slices, w_grid)
        self.slice_conjugates = [SampledFn(w_grid, [v for v, _ in rows]) for rows in conjugates]
        cells = []
        for rows in conjugates:
            for w, (conj, row) in zip(w_grid.points, rows):
                if row is None or conj.backend == "rational":
                    cells.append(-conj)
                else:  # IEEE a - b is a + (-b); a Fraction meeting a float raises as ExtReals
                    y, payload = row
                    c = dot(y, w.xstar)
                    exact = payload.__class__ is c.__class__ is float
                    cells.append(ExtReal(payload - c) if exact else ExtReal(payload) - ExtReal(c))
        self.table: Tuple[ExtReal, ...] = tuple(cells)

    @cached_property
    def rows(self) -> list:
        return funcrep.rows(self.table, len(self.x_grid))

    @cached_property
    def columns(self) -> list:
        return funcrep.columns(self.table, len(self.w_grid))

    @cached_property
    def row_sup(self) -> Tuple[ExtReal, ...]:
        return tuple(extreal.sup(row) for row in self.rows)

    @cached_property
    def col_inf(self) -> Tuple[ExtReal, ...]:
        return tuple(extreal.inf(column) for column in self.columns)

    def value(self, x, w: DualPoint) -> ExtReal:
        return self.rows[self.x_grid.index_of(x)][self.w_grid.index_of(w)]


def lagrangian_table(P: PerturbationProblem) -> CLagrangian:
    """The Lagrangian table of P, built on first use and cached on P."""
    if not hasattr(P, "_lagrangian_cache"):
        P._lagrangian_cache = CLagrangian(P)
    return P._lagrangian_cache


def lagrangian_value(P: PerturbationProblem, x, w: DualPoint) -> ExtReal:
    """L(x, w) for any dual point with positive alpha."""
    if not w.alpha > 0:
        raise ValueError("the Lagrangian is defined for alpha > 0 only")
    if w in P.dual_y_grid:
        return lagrangian_table(P).value(x, w)
    sl = slice_x(P.phi, x, P.y_grid)
    return extreal.inf(
        v - coupling_c(y, w) for y, v in sl.items() if v < POS_INF
    )


def dual_slice_audit(P: PerturbationProblem) -> dict:
    """-L(x, .) must equal the conjugate of the slice phi(x, .) exactly.

    The table is read off the conjugation kernel, so the conjugate here is
    the definition: each dual point's coupling column over Y is taken
    once, and each (x, w) is its own ``_sup_minus`` of the column against
    the slice, one term per y, grouped by no slope.  When every y
    coordinate, slope, alpha and finite payload is exact, the check's own
    ``_check_ints`` scale d, not the kernel's, makes ``_coupling`` give
    d²·coupling as an int and each finite cell one Fraction(best, d²);
    otherwise the values are taken as given.  ``rows`` holds
    phi(x, .)^c per x, in x-grid order.
    """
    L = lagrangian_table(P)
    d, ys, ws, slices, _ = _check_ints(
        P.y_grid.points, P.dual_y_grid.points, [_classify(sl.values) for sl in L.slices])
    dd = None if d is None else d * d
    columns = [[_coupling(y, w) for y in ys] for w in ws]
    rows = tuple(tuple(_sup_minus(column, sl, dd) for column in columns) for sl in slices)
    ok = all(-cell == conj for row, conjs in zip(L.rows, rows) for cell, conj in zip(row, conjs))
    return {"ok": ok, "rows": rows}


def minimax_ok(P: PerturbationProblem) -> bool:
    """inf_x L(., w) = -G(w) at every w, so sup-inf is the dual value, and
    sup_w L(x, .) <= phi(x, 0) at every x, as the coupling vanishes at 0."""
    L = lagrangian_table(P)
    return all(low == -g for low, g in zip(L.col_inf, P.g_on_dual_y.values)) and all(
        top <= phi_x0 for top, phi_x0 in zip(L.row_sup, P.f0.values)
    )


def supinf_value(P: PerturbationProblem) -> ExtReal:
    """sup over dual points of inf over x of L."""
    return extreal.sup(lagrangian_table(P).col_inf)


def infsup_value(P: PerturbationProblem) -> ExtReal:
    """inf over x of sup over dual points of L."""
    return extreal.inf(lagrangian_table(P).row_sup)


def is_saddle_point(P: PerturbationProblem, xbar, wbar: DualPoint) -> bool:
    """Both inequality families over the full grids, exactly."""
    if not wbar.alpha > 0:
        raise ValueError("saddle points live on alpha > 0")
    L = lagrangian_table(P)
    i, j = P.x_grid.index_of(xbar), P.dual_y_grid.index_of(wbar)
    center = L.rows[i][j]
    return all(v <= center for v in L.rows[i]) and all(center <= v for v in L.columns[j])


def saddle_search(P: PerturbationProblem) -> Tuple[SaddleCandidate, ...]:
    """Every saddle cell of the table, in row-major order.  A cell is a
    saddle iff L(x, w) is both the maximum of its row and the minimum of
    its column, so the table's row suprema and column infima decide it."""
    L = lagrangian_table(P)
    return tuple(
        SaddleCandidate(x, w, cell)
        for x, row, top in zip(P.x_grid.points, L.rows, L.row_sup)
        for w, cell, low in zip(P.dual_y_grid.points, row, L.col_inf)
        if top == cell == low
    )


def prop55_audit(P: PerturbationProblem) -> dict:
    """Saddle points against primal/dual attainment.

    Exact parts: every saddle value equals sup-inf = inf-sup; the
    identities of :func:`minimax_ok` hold; argmin x argmax is contained in
    the saddle set when the gap is zero and finite.  The reverse
    containment is reported with the per-slice recovery surrogate
    (phi(x,.)^{cc'} = phi(x,.) for all x on the grid, conjugating through
    the Y-side dual grid).
    """
    L = lagrangian_table(P)
    saddles = saddle_search(P)
    lo = supinf_value(P)
    hi = infsup_value(P)
    saddle_values_ok = all(
        s.value == lo == hi for s in saddles
    )
    # Both live on P.y_grid in its order, so values pair up by position.
    surrogate = all(
        cprime_conjugate(conj, P.y_grid).values == sl.values
        for sl, conj in zip(L.slices, L.slice_conjugates)
    )
    (v_gp, argmin), (v_gdc, argmax) = primal_value(P), dual_value(P)
    expected = set()
    if v_gp - v_gdc == ExtReal(extreal.scalar(0, P.backend)):  # the report's zero_gap
        expected = {(x, w) for x in argmin for w in argmax}
    saddle_set = {(s.xbar, s.wbar) for s in saddles}
    contains_expected = expected <= saddle_set
    matches_expected = saddle_set == expected
    return {
        "saddles": saddles,
        "supinf": lo,
        "infsup": hi,
        "minimax_ok": minimax_ok(P),
        "saddle_values_ok": saddle_values_ok,
        "slice_surrogate": surrogate,
        "contains_argmin_x_argmax": contains_expected,
        "equals_argmin_x_argmax": matches_expected,
    }


def find_convexity_violation(
    values,  # list of (scalar x, ExtReal value) with distinct x, 1-D
) -> Optional[Tuple]:
    """A triple x1 < x2 < x3 whose middle value sits above the chord.

    +inf endpoints never witness a violation; a -inf endpoint forces the
    chord to -inf, so any finite middle value violates.  Finite triples
    are tested in exact cross-multiplied form, which is homogeneous: on
    the ints of ``_check_ints`` (x times d, values times d²) when each x
    and finite value is exact, on the values as given otherwise.  The x
    objects are returned as given.
    """
    rows = sorted(values, key=lambda r: r[0])
    points = [x for x, _ in rows]
    _, xs, _, (tags,), _ = _check_ints([(x,) for x in points], (), [_classify(v for _, v in rows)])
    xs = [x for x, in xs]
    n = len(rows)
    for i in range(n):
        t1, v1 = tags[i]
        if t1 == "+":
            continue
        for k in range(i + 2, n):
            t3, v3 = tags[k]
            if t3 == "+":
                continue
            ends_neg_inf = t1 == "-" or t3 == "-"
            for j in range(i + 1, k):
                t2, v2 = tags[j]
                if ends_neg_inf:
                    if t2 != "-":
                        return (points[i], points[j], points[k])
                    continue
                if t2 != "f":
                    continue
                if v2 * (xs[k] - xs[i]) > v1 * (xs[k] - xs[j]) + v3 * (xs[j] - xs[i]):
                    return (points[i], points[j], points[k])
    return None


def example52_audit(P: PerturbationProblem) -> dict:
    """The linear-objective instance at the distinguished dual point
    (1, 1, 1): the slice is -inf left of -1, finite right of it, and not
    convex.  The grid oracle value at x = 0 is recorded next to the
    stated constant -2; the two disagree and the discrepancy is reported,
    never asserted away.
    """
    one = extreal.scalar(1, P.backend)
    w = DualPoint.of((one,), (one,), one, P.backend)
    if w not in P.dual_y_grid:
        raise ValueError("the instance must carry the dual point (1, 1, 1)")
    column = lagrangian_table(P).columns[P.dual_y_grid.index_of(w)]
    minus_one = -one
    # Grid adequacy for the -inf branch: each x <= -1 needs a y-grid point
    # with 1 <= y <= -x, where the coupling gate fails inside Y_x.
    adequacy = all(
        any(one <= y[0] <= -x[0] for y in P.y_grid.points)
        for x in P.x_grid.points
        if x[0] <= minus_one
    )
    cells = list(zip(P.x_grid.points, column))
    neg_branch = all(v.is_neg_inf for x, v in cells if x[0] <= minus_one)
    fin_branch = all(v.is_finite for x, v in cells if x[0] > minus_one)
    witness = find_convexity_violation([(x[0], v) for x, v in cells])
    oracle_at_zero = (
        column[P.x_grid.index_of(P.x_grid.origin)] if P.x_grid.has_origin else None
    )
    stated = ExtReal(-2 * one)
    return {
        "dual_point": w,
        "grid_adequate": adequacy,
        "neg_inf_branch_ok": neg_branch,
        "finite_branch_ok": fin_branch,
        "nonconvexity_witness": witness,
        "oracle_at_zero": oracle_at_zero,
        "stated_constant": stated,
        "matches_stated_constant": oracle_at_zero == stated
        if oracle_at_zero is not None
        else None,
    }
