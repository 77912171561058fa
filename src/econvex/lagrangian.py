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
reads, not one coupling per (x, w, y).  The table keeps one exact order
key per cell, an int or a float, and its reductions (row suprema, column
infima, saddles) compare keys with builtin ``max``/``min``: an ExtReal is
built per result, and per cell only when the cells are read.  The slices
and their conjugates are tables of raw keys, the slices keyed as
phi_on_product and the conjugates as ``c_conjugate`` keys them, so none
builds an ExtReal before its values are read.
No point query reads the table: :func:`lagrangian_value` is the defining
infimum at any (x, w), and :func:`is_saddle_point` reads a row and a
column of the cells by index.

:func:`dual_slice_audit` holds the table to each slice's conjugate
reached another way, so the identity stays a check of two routes: the
kernel takes a max per slope over Y_x and reads its attaining rows, the
check reads no attaining row.  On exact data over a 1-D Y it reads each
slice's lower convex hull, built by exact int cross-multiplication, with
one pointer over the sorted distinct y*, and decides each gate at the
least and the greatest y of Y_x: O(|Y| + #y*) per slice and O(1) per
cell.  Elsewhere (values as given, or a Y of dimension 2 or more) every
(x, y, w) is its own term of the definitional sup (``conjugation._sups``)
over dots columns taken once per distinct v* and y*.  On exact data the
check's ints are over its own scale, read off the slices' int keys by the
check itself and not by the kernel's scaling, so one fault cannot reach
both routes; the check meets the table's keys by cross-multiplying the
two scales, builds no ExtReal for its verdict, and returns its sups as
tables of keys.

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
from itertools import chain
from math import inf
from typing import Optional, Tuple

from econvex import extreal, funcrep
from econvex.conjugation import (
    DualPoint,
    _c_conjugate_rows,
    _check_ints,
    _columns,
    _sups,
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


def _float_cell(row, w: DualPoint):
    """phi(x, y) - <y, y*> at the attaining row (y, phi(x, y)): one IEEE
    subtraction on floats (a - b is a + (-b)); a Fraction meeting a float
    raises as ExtReals do."""
    y, payload = row
    c = dot(y, w.xstar)
    if payload.__class__ is c.__class__ is float:
        return payload - c
    return (ExtReal(payload) - ExtReal(c))._v


class CLagrangian:
    """L over x-grid x dual-y-grid, read off one kernel sweep.

    ``keys`` holds one exact order key per cell, flat and x-major like
    phi_on_product; the reductions compare keys, and ``cell`` gives a
    key's ExtReal (funcrep's rule over ``scale``).  ``table``, the cells
    in that order, is built from the keys at its first read; ``row_sup``
    and ``col_inf`` build one ExtReal per x and per dual point.
    ``slices`` are the rows of the cached phi_on_product, keyed as it is,
    and ``slice_conjugates`` are, per x in x-grid order, the sweep's own
    tables of their conjugates, keyed as ``c_conjugate`` keys them; no
    table builds an ExtReal before its ``values`` are read.

    On a finite cell
    L(x, w) = phi(x, y) - <y, y*> at the kernel's attaining row y: its
    first maximiser of <y, y*> - phi(x, y) is the first minimiser of the
    defining infimum (same grid order, same strict tie rule, exact IEEE
    negation).  A finite float cell's key is that difference, not the
    negated conjugate, because -(c - v) is -0.0 where the definition's
    v - c is 0.0.  A finite rational
    cell is -phi(x, .)^c(w), since there -(c - v) is v - c exactly, so
    its key is minus the sweep's raw value, an int over ``scale`` (the
    sweep's D², or 1 when it ran on the values as given).  A +-inf cell
    (a shut gate, -inf on Y_x, or an empty Y_x) is the float +-inf, which
    compares exactly with ints and Fractions.
    """

    def __init__(self, problem: PerturbationProblem):
        if not problem.dual_y_grid.alpha_positive:
            raise ValueError("the Lagrangian needs alpha > 0 on every dual point")
        self.x_grid, self.w_grid = problem.x_grid, problem.dual_y_grid
        y_grid, points = problem.y_grid, problem.dual_y_grid.points
        phi = problem.phi_on_product
        phi_rows = funcrep.rows(phi.keys, len(self.x_grid))
        self.slices = [SampledFn.keyed(y_grid, row, phi.scale, phi.backend) for row in phi_rows]
        D, conjugates = _c_conjugate_rows(self.slices, self.w_grid)
        rational = problem.backend == "rational"
        self.scale = D * D if rational and D is not None else 1
        self.cell = funcrep._cell_rule(self.scale, problem.backend)
        self.keys: Tuple = tuple(
            -best if row is None or rational and best.__class__ is not float else _float_cell(row, w)
            for rows in conjugates for w, (best, row) in zip(points, rows)
        )
        self._sweep = D, conjugates

    @cached_property
    def table(self) -> Tuple[ExtReal, ...]:
        return tuple(map(self.cell, self.keys))

    @cached_property
    def slice_conjugates(self) -> Tuple[SampledFn, ...]:
        D, conjugates = self._sweep
        scale = None if D is None else D * D
        return tuple(SampledFn.keyed(self.w_grid, [best for best, _ in rows], scale, sl.backend)
                     for sl, rows in zip(self.slices, conjugates))

    @cached_property
    def tops(self) -> list:
        """Per x, the first largest key of its row (-inf for no dual point)."""
        return [max(row, default=-inf) for row in funcrep.rows(self.keys, len(self.x_grid))]

    @cached_property
    def lows(self) -> list:
        """Per dual point, the first least key of its column."""
        return [min(column, default=inf) for column in funcrep.columns(self.keys, len(self.w_grid))]

    @cached_property
    def row_sup(self) -> Tuple[ExtReal, ...]:
        return tuple(map(self.cell, self.tops))

    @cached_property
    def col_inf(self) -> Tuple[ExtReal, ...]:
        return tuple(map(self.cell, self.lows))


def lagrangian_table(P: PerturbationProblem) -> CLagrangian:
    """The Lagrangian table of P, built on first use and cached on P."""
    if not hasattr(P, "_lagrangian_cache"):
        P._lagrangian_cache = CLagrangian(P)
    return P._lagrangian_cache


def lagrangian_value(P: PerturbationProblem, x, w: DualPoint) -> ExtReal:
    """L(x, w) for any dual point with positive alpha, by the defining
    infimum over Y_x, one coupling per y; no table is built or read."""
    if not w.alpha > 0:
        raise ValueError("the Lagrangian is defined for alpha > 0 only")
    sl = slice_x(P.phi, x, P.y_grid)
    return extreal.inf(
        v - coupling_c(y, w) for y, v in sl.items() if v < POS_INF
    )


def dual_slice_audit(P: PerturbationProblem) -> dict:
    """-L(x, .) must equal the conjugate of the slice phi(x, .) exactly.

    The table is read off the conjugation kernel, which takes a max per
    slope over Y_x; the check reaches the conjugate another way, on its
    own scaling.  When every y coordinate, slope, alpha and finite value
    is exact, ``_check_ints`` gives a d, reading an exact slice's int keys
    over their scale: y and slopes come back times d, alphas and values
    times d², all ints.  Then on a 1-D Y each slice's sups are read off
    its lower convex hull (``_hull_rows``).  Otherwise, on the values as
    given or on a Y of dimension 2 or more, each cell is the definitional
    sup of the coupling column minus the slice, one term per y
    (``_sups``), over one ``esets.dots`` column of <y, v*> per distinct
    v* and one of <y, y*> per distinct y*, which is ``_coupling``'s
    arithmetic; on the values as given a NaN or a mixed backend raises as
    the table is built.  Each cell is held to the table's key by
    cross-multiplication, key·d² = -sup·scale (d is 1 as given), with
    +-inf as floats.  ``rows`` holds phi(x, .)^c per x, in x-grid order:
    the check's own sups as the keys of a table on the Y-side dual grid,
    over d² (with no scale on the values as given).
    """
    L = lagrangian_table(P)
    d, ys, ws, slices, _ = _check_ints(P.y_grid.points, P.dual_y_grid.points, L.slices)
    if d is not None and P.y_grid.dim == 1:
        sups = _hull_rows([y for y, in ys], ws, slices)
    else:
        columns = _columns(list(zip(*ys)), len(ys))
        gated = [[c if g < w.alpha else None for g, c in zip(columns(w.ustar), columns(w.xstar))] for w in ws]
        shut = [{k for k, c in enumerate(column) if c is None} for column in gated]
        sups = [_sups(raw, gated, shut) for raw in slices]
    dd = 1 if d is None else d * d
    ok = all(key * dd == -v * L.scale for key, v in zip(L.keys, chain.from_iterable(sups)))
    rows = [SampledFn.keyed(P.dual_y_grid, row, None if d is None else dd, P.backend) for row in sups]
    return {"ok": ok, "rows": rows}


def _hull_rows(ys, ws, slices) -> list:
    """Per slice, its raw values over the int points ys of a 1-D Y, its
    sups at the int dual points ws, by ``_sups``' rules: -inf on an empty
    Y_x, +inf at every w when the slice is -inf on Y_x, and +inf where
    some y of Y_x shuts the gate, y·v* >= alpha.  y·v* is largest over
    Y_x at its least or its greatest y, so those two decide each gate.  An
    open cell is the Fenchel value at y*, read off the slice's lower hull
    (``_hull_sups``) once per distinct y*.  Y is sorted once."""
    order = sorted(range(len(ys)), key=ys.__getitem__)
    ys = [ys[k] for k in order]
    slopes = sorted({w.xstar[0] for w in ws})
    at = {s: i for i, s in enumerate(slopes)}
    codes = [(at[w.xstar[0]], w.ustar[0], w.alpha) for w in ws]
    out = []
    for raw in slices:
        dom = [(y, raw[k]) for y, k in zip(ys, order) if raw[k] < inf]
        if not dom or not all(-inf < v for _, v in dom):
            out.append([inf if dom else -inf] * len(ws))
            continue
        lo, hi = dom[0][0], dom[-1][0]
        sups = _hull_sups(dom, slopes)
        out.append([sups[s] if lo * v < alpha and hi * v < alpha else inf for s, v, alpha in codes])
    return out


def _hull_sups(points, slopes) -> list:
    """Per slope s of slopes, ascending, the max over points of y·s - v,
    for int points (y, v) in increasing y.  A middle point on or above the
    chord of its neighbours is dropped by exact int cross-multiplication,
    which leaves the lower convex hull, its edge slopes increasing; along
    it y·s - v rises while the edge slope is below s and falls after, so
    one pointer moving forward reads every slope."""
    hull = []
    for y, v in points:
        while len(hull) > 1 and (hull[-1][1] - hull[-2][1]) * (y - hull[-2][0]) >= (
                v - hull[-2][1]) * (hull[-1][0] - hull[-2][0]):
            hull.pop()
        hull.append((y, v))
    out, i, last = [], 0, len(hull) - 1
    for s in slopes:
        while i < last and hull[i + 1][0] * s - hull[i + 1][1] >= hull[i][0] * s - hull[i][1]:
            i += 1
        out.append(hull[i][0] * s - hull[i][1])
    return out


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
    """Both inequality families over the full grids, exactly: row i of the
    x-major cells is [i·m:(i+1)·m] and column j is [j::m], m = |W_y|."""
    if not wbar.alpha > 0:
        raise ValueError("saddle points live on alpha > 0")
    table, m = lagrangian_table(P).table, len(P.dual_y_grid)
    i, j = P.x_grid.index_of(xbar), P.dual_y_grid.index_of(wbar)
    center = table[i * m + j]
    return all(v <= center for v in table[i * m:(i + 1) * m]) and all(
        center <= v for v in table[j::m])


def saddle_search(P: PerturbationProblem) -> Tuple[SaddleCandidate, ...]:
    """Every saddle cell of the table, in row-major order.  A cell is a
    saddle iff L(x, w) is both the maximum of its row and the minimum of
    its column, so the keys' row maxima and column minima decide it; one
    ExtReal is built per saddle."""
    L = lagrangian_table(P)
    return tuple(
        SaddleCandidate(x, w, L.cell(key))
        for x, row, top in zip(P.x_grid.points, funcrep.rows(L.keys, len(P.x_grid)), L.tops)
        for w, key, low in zip(P.dual_y_grid.points, row, L.lows)
        if top == key == low
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
        _equal(cprime_conjugate(conj, P.y_grid), sl)
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


def _equal(f: SampledFn, g: SampledFn) -> bool:
    """Whether two tables on one grid hold the same values, point by
    point: two exact tables' keys cross-multiplied, +-inf as floats, with
    no ExtReal; other tables' values."""
    if f.scale and g.scale:
        return all(a * g.scale == b * f.scale for a, b in zip(f.keys, g.keys))
    return f.values == g.values


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
    _, xs, _, (vs,), _ = _check_ints([(x,) for x in points], (), [[v._v for _, v in rows]])
    xs = [x for x, in xs]
    n = len(rows)
    for i in range(n):
        v1 = vs[i]
        if v1 == inf:
            continue
        for k in range(i + 2, n):
            v3 = vs[k]
            if v3 == inf:
                continue
            ends_neg_inf = v1 == -inf or v3 == -inf
            for j in range(i + 1, k):
                v2 = vs[j]
                if ends_neg_inf:
                    if v2 != -inf:
                        return (points[i], points[j], points[k])
                    continue
                if not -inf < v2 < inf:
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
    L = lagrangian_table(P)
    keys = funcrep.columns(L.keys, len(P.dual_y_grid))[P.dual_y_grid.index_of(w)]
    column = list(map(L.cell, keys))
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
