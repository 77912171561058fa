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
built per result, and per cell only when the cells are read.  The slice
conjugates are that sweep's own tables, keyed as ``c_conjugate`` keys them.

:func:`dual_slice_audit` holds the table to the definitional conjugate of
every slice, taking each dual point's coupling column over Y once per
problem, so the identity stays a check of two routes: every (x, y, w) is
its own term, nothing is grouped by slope and no attaining row is read.
On exact data the couplings are ints over one scale per problem, taken by
the check itself and not by the kernel's scaling, so one fault cannot
reach both routes; the check meets the table's keys by
cross-multiplying the two scales, and builds no ExtReal for its verdict.

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

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import inf
from operator import itemgetter, sub
from typing import Optional, Tuple

from econvex import extreal, funcrep
from econvex.conjugation import (
    DualPoint,
    _c_conjugate_rows,
    _check_ints,
    _classify,
    _coupling,
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


class _Built(Sequence):
    """A tuple of n items whose item i is build(i), made at its first read."""

    def __init__(self, n: int, build):
        self._n, self._build, self._items = n, build, {}

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if not -self._n <= i < self._n:
            raise IndexError(i)
        i %= self._n
        if i not in self._items:
            self._items[i] = self._build(i)
        return self._items[i]


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
    key's ExtReal (funcrep's rule over ``scale``).  ``table`` (the cells),
    its ``rows`` and ``columns`` are built from the keys at their first
    read; ``row_sup`` and ``col_inf`` build one ExtReal per x and per dual
    point.  ``slice_conjugates`` are, per x in x-grid order, the sweep's
    own tables of the conjugates of the ``slices`` (the rows of the cached
    phi_on_product), keyed as ``c_conjugate`` keys them, each at its
    first read.

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
        self.slices = [SampledFn.keyed(y_grid, row, phi.scale) for row in phi_rows]
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
    def rows(self) -> list:
        return funcrep.rows(self.table, len(self.x_grid))

    @cached_property
    def columns(self) -> list:
        return funcrep.columns(self.table, len(self.w_grid))

    @cached_property
    def slice_conjugates(self) -> _Built:
        D, conjugates = self._sweep
        scale = None if D is None else D * D
        return _Built(len(conjugates), lambda i: SampledFn.keyed(
            self.w_grid, [best for best, _ in conjugates[i]], scale))

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


def _slice_sups(tagged, columns, shut) -> list:
    """Per coupling column, the sup over y of its coupling minus the
    tagged slice's value, as ``_sup_minus`` takes it term by term: -inf
    when the slice is +inf everywhere, +inf when it is -inf somewhere
    below +inf or when the column shuts a y of its domain, and otherwise
    builtin ``max`` of coupling minus value over the domain, which keeps
    ``_sup_minus``'s first maximiser and NaN.  Infinities are floats and
    a finite sup is its raw value."""
    dom = [k for k, (tag, _) in enumerate(tagged) if tag != "+"]
    if not dom:
        return [-inf] * len(columns)
    if any(tagged[k][0] == "-" for k in dom):
        return [inf] * len(columns)
    payloads = [tagged[k][1] for k in dom]
    at = itemgetter(*dom) if len(dom) > 1 else itemgetter(slice(dom[0], dom[0] + 1))
    members = frozenset(dom)
    return [inf if shut_y and not shut_y.isdisjoint(members) else max(map(sub, at(column), payloads))
            for column, shut_y in zip(columns, shut)]


def dual_slice_audit(P: PerturbationProblem) -> dict:
    """-L(x, .) must equal the conjugate of the slice phi(x, .) exactly.

    The table is read off the conjugation kernel, so the conjugate here is
    the definition: each dual point's coupling column over Y is taken
    once, and each (x, w) is its own sup of the column minus the slice,
    one term per y, grouped by no slope (``_slice_sups``).  Tags decide
    the +-inf cells once per slice and once per column (the y it shuts).
    When every y coordinate, slope, alpha and finite payload is exact,
    the check's own ``_check_ints`` scale d, not the kernel's, makes
    ``_coupling`` give d²·coupling as an int and each finite sup an int
    over d²; otherwise the values are taken as given, in the terms the
    kernel took, whose NaN and mixed backends raise as the table is
    built.  Each cell is held to the table's key by cross-multiplication,
    key·d² = -sup·scale (d is 1 as given), with +-inf as floats.
    ``rows`` holds phi(x, .)^c per x, in x-grid order: the check's own
    sups, each an ExtReal by funcrep's rule for a table over d², a row
    built at its first read.
    """
    L = lagrangian_table(P)
    d, ys, ws, slices, _ = _check_ints(
        P.y_grid.points, P.dual_y_grid.points, [sl.tagged() for sl in L.slices])
    dd = 1 if d is None else d * d
    columns = [[_coupling(y, w) for y in ys] for w in ws]
    shut = [{k for k, c in enumerate(column) if c is None} for column in columns]
    sups = [_slice_sups(tagged, columns, shut) for tagged in slices]
    scale, cell = L.scale, funcrep._cell_rule(dd, P.backend)
    ok = all(key * dd == -v * scale for key, v in zip(L.keys, chain.from_iterable(sups)))
    rows = _Built(len(sups), lambda i: tuple(map(cell, sups[i])))
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
