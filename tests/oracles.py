"""Continuum oracles for the grid tests.

The exact 1-D layer: `PwAffine1`, exact piecewise-affine functions over
the rationals with per-piece open/closed endpoints and infinite constant
pieces, and `c_conjugate_exact`, the supremum of the coupling minus such a
function over the whole line, piece by piece.  Grid conjugates of a
sample are held to it: on any grid they can only fall short, and on a
grid holding the attaining points they meet it.  `adapted_dual_grid`
carries a function's piece slopes onto the dual grid.

Also the two partner couplings, each the conditional coupling with its
arguments reordered or concatenated: `coupling_cprime(w, x)` is
c(x, w), and `coupling_cbar` is c on the product space.

And `sup_minus`, the sup of raw couplings minus raw values taken term
by term, point by point, with the +-inf conventions spelled out: the
second route that `conjugation._sups` and its one-column form
`_sup_minus` are held to; `prime_conjugate_value`, g^{c'} at one
primal point through `_sup_minus`, the definitional c'-conjugate; and
`slice_audit_all_pairs`, the dual-slice check with one `_coupling` and
one term per (x, y, w), which `lagrangian.dual_slice_audit` is held to.

And `memberships`, the per-call membership route: one point's conjugate
form scaled per call with eps inside the scale d, or taken as given; the
reference the subdifferential's one form (`subdifferential._Form`) is held
to.

And the dual grids one point at a time: `_tensor`, which builds and
hashes every point of a tensor product, `full_dual_grid`, the pairs and
the embeddings deduplicated point by point, and `x_sides`, every flat
projected in turn; the factored `DualGrid` and `PerturbationProblem` are
held to them.  With them `boundary_coincidences`, which emits one
(space, grid point, dual point) row per hit, and `boundary_warnings`,
which groups those rows back into runs: the reference of the per-gate
scan and of the warnings it prints.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from itertools import product
from typing import Dict, List, Sequence, Tuple, Union

from math import inf

from econvex import conjugation, extreal, funcrep
from econvex.conjugation import _OVERFLOW, DualGrid, DualPoint, _check_ints, _sup_minus, _sups
from econvex.conjugation import _coerce_vec, _key, coupling_c, tensor_dual_grid
from econvex.duality import PerturbationProblem
from econvex.esets import Interval1, dots
from econvex.extreal import NEG_INF, POS_INF, BackendMismatchError, ExtReal, NaNError, scalar
from econvex.funcrep import Grid, SampledFn
from econvex.lagrangian import lagrangian_table
from econvex.problemio import _text
from econvex.subdifferential import _member


# ---------------------------------------------------------------------------
# Exact 1-D piecewise-affine functions
# ---------------------------------------------------------------------------

PieceValue = Union[Tuple[Fraction, Fraction], ExtReal]  # (slope, intercept) or +-inf


class PwAffine1:
    """Exact 1-D piecewise-affine function; pieces tile the line."""

    def __init__(self, pieces: Sequence[Tuple[Interval1, PieceValue]]):
        pieces = [p for p in pieces if not p[0].is_empty]
        pieces.sort(key=lambda p: (p[0].lo, not p[0].lo_open))
        self.pieces: Tuple[Tuple[Interval1, PieceValue], ...] = tuple(pieces)
        self._check_tiling()

    def _check_tiling(self):
        if not self.pieces:
            raise ValueError("a piecewise function needs at least one piece")
        first, last = self.pieces[0][0], self.pieces[-1][0]
        if first.lo != NEG_INF or last.hi != POS_INF:
            raise ValueError("pieces must cover the whole line")
        for (a, _), (b, _) in zip(self.pieces, self.pieces[1:]):
            if a.hi != b.lo or a.hi_open == b.lo_open:
                raise ValueError(
                    f"pieces must tile without gap or overlap near {a.hi}"
                )

    def value(self, x) -> ExtReal:
        x = Fraction(x)
        for interval, val in self.pieces:
            if interval.contains(x):
                if isinstance(val, ExtReal):
                    return val
                slope, intercept = val
                return ExtReal(slope * x + intercept)
        raise AssertionError("pieces tile the line")  # pragma: no cover

    def sample(self, grid: Grid) -> SampledFn:
        if grid.dim != 1 or grid.backend != "rational":
            raise ValueError("PwAffine1 samples onto 1-D rational grids")
        return SampledFn(grid, [self.value(p[0]) for p in grid.points])

    # -- common constructors -----------------------------------------------

    @staticmethod
    def affine(slope, intercept=0) -> "PwAffine1":
        return PwAffine1(
            [(Interval1.whole_line(), (Fraction(slope), Fraction(intercept)))]
        )

    @staticmethod
    def abs_fn() -> "PwAffine1":
        zero = ExtReal(0)
        return PwAffine1(
            [
                (Interval1(NEG_INF, True, zero, True), (Fraction(-1), Fraction(0))),
                (Interval1(zero, False, POS_INF, True), (Fraction(1), Fraction(0))),
            ]
        )

    @staticmethod
    def indicator(interval: Interval1) -> "PwAffine1":
        """0 on the interval, +inf outside."""
        if interval.is_empty:
            return PwAffine1([(Interval1.whole_line(), POS_INF)])
        pieces = [(interval, (Fraction(0), Fraction(0)))]
        if interval.lo != NEG_INF:
            pieces.append(
                (Interval1(NEG_INF, True, interval.lo, not interval.lo_open), POS_INF)
            )
        if interval.hi != POS_INF:
            pieces.append(
                (Interval1(interval.hi, not interval.hi_open, POS_INF, True), POS_INF)
            )
        return PwAffine1(pieces)

    @staticmethod
    def indicator_leq(c) -> "PwAffine1":
        return PwAffine1.indicator(Interval1(NEG_INF, True, ExtReal(Fraction(c)), False))


def adapted_dual_grid(f: PwAffine1, alphas, ustars=((0,),)) -> DualGrid:
    """Dual grid whose x* list carries the slopes of f's affine pieces.

    Conjugating an affine function recovers it exactly once its slope is
    on the dual grid, so adapted grids make the biconjugate gap vanish.
    """
    slopes = []
    for _, val in f.pieces:
        if not isinstance(val, ExtReal):
            s = (val[0],)
            if s not in slopes:
                slopes.append(s)
    if (Fraction(0),) not in slopes:
        slopes.append((Fraction(0),))
    return tensor_dual_grid(slopes, ustars, alphas, "rational")


# ---------------------------------------------------------------------------
# Partner couplings
# ---------------------------------------------------------------------------


def coupling_cprime(w: DualPoint, x) -> ExtReal:
    """The partner coupling; same value with arguments swapped."""
    return coupling_c(x, w)


def coupling_cbar(x, y, pair: DualPoint) -> ExtReal:
    """<x,x*> + <y,y*> if <x,u*> + <y,v*> < alpha, +inf otherwise, for
    the paired point given as the dual point (x* + y*, u* + v*, alpha)."""
    return coupling_c(tuple(x) + tuple(y), pair)


# ---------------------------------------------------------------------------
# The definitional sup, term by term
# ---------------------------------------------------------------------------


def sup_minus(couplings, raw) -> ExtReal:
    """sup of each raw coupling (None for +inf) minus its raw value (+-inf
    as floats), with the +-inf conventions: f^c(w) pairs w with every
    grid point, g^{c'}(x) x with every dual point."""
    best = None  # raw finite payload of the running sup, None = -inf so far
    for c, payload in zip(couplings, raw):
        if payload == inf:
            continue  # both (+inf)-(+inf) and finite-(+inf) are -inf
        if c is None or payload == -inf:
            return POS_INF  # +inf - (finite or -inf), finite - (-inf)
        term = c - payload
        if best is None or term > best:
            best = term
    if best is None:
        return NEG_INF
    if best != best:
        raise NaNError(_OVERFLOW)
    return ExtReal(best)


def prime_conjugate_value(g: SampledFn, x) -> ExtReal:
    """g^{c'} at a single primal point, by the definitional sweep."""
    return _sup_minus((conjugation._coupling(x, w) for w in g.grid.points), g.raw())


def slice_audit_all_pairs(P) -> dict:
    """``lagrangian.dual_slice_audit`` with one term per (x, y, w): each
    dual point's coupling column over Y taken by ``_coupling``, on the
    check's own ints when every input is exact, each (x, w) its own
    ``_sups`` of the column minus the slice, with no hull and nothing
    grouped by slope; the slices are read as their raw values."""
    L = lagrangian_table(P)
    d, ys, ws, slices, _ = _check_ints(
        P.y_grid.points, P.dual_y_grid.points, [sl.raw() for sl in L.slices])
    dd = 1 if d is None else d * d
    columns = [[conjugation._coupling(y, w) for y in ys] for w in ws]
    shut = [{k for k, c in enumerate(column) if c is None} for column in columns]
    sups = [_sups(raw, columns, shut) for raw in slices]
    scale, cell = L.scale, funcrep._cell_rule(dd, P.backend)
    ok = all(key * dd == -v * scale for key, v in zip(L.keys, itertools.chain.from_iterable(sups)))
    rows = [tuple(map(cell, row)) for row in sups]
    return {"ok": ok, "rows": rows}


# ---------------------------------------------------------------------------
# Per-call memberships
# ---------------------------------------------------------------------------


def _as_given(couplings, values) -> list:
    """Raw couplings on values as given, read as ``coupling_c`` reads
    them: one that overflowed to +-inf is not finite (None).  As ExtReal
    arithmetic does, NaN raises NaNError, and finite couplings and values
    (those the check adds and compares) that mix floats with Fractions or
    ints raise BackendMismatchError."""
    out = [None if c.__class__ is float and abs(c) == inf else c for c in couplings]
    values = [c for c in out if c is not None] + list(values)
    if any(v != v for v in values):
        raise NaNError("NaN has no extended-real meaning")
    if len({v.__class__ is float for v in values}) > 1:
        raise BackendMismatchError("cannot compare rational-backed and float-backed values")
    return out


def _finite(tables):
    """The finite payloads of the tables' raw values."""
    return [p for raw in tables for p in raw if -inf < p < inf]


def memberships(x0, fx0: ExtReal, duals, conjs, eps) -> list:
    """Per dual point, given the raw value of f^c there, whether it is in
    the eps-subdifferential of f at the grid point x0, where f is fx0: one
    raw coupling per dual point, on the check's own ints when every input
    is exact and on the values as given otherwise."""
    d, (x,), ws, ((fx,), conjs), (e,) = _check_ints([x0], duals, [[fx0._v], conjs], [eps])
    cs = [conjugation._coupling(x, w) for w in ws]
    if d is None:
        cs = _as_given(cs, _finite([[fx], conjs]) + [e])
    return _decide(fx, conjs, cs, e)


def _decide(fx, conjs, cs, e, q=1) -> list:
    """``_member`` per dual point, on the raw values fx and conjs, the raw
    couplings cs and e, all of one scale, with the ints of fx, conjs and
    cs times q first: an exact eps = p/q that stayed out of the scale d
    meets the terms here only, as e = p·d²."""
    if q != 1:
        fx, *conjs = [q * p if p.__class__ is int else p for p in [fx, *conjs]]
        cs = [None if c is None else q * c for c in cs]
    return [_member(fx, g, c, e) for g, c in zip(conjs, cs)]


# ---------------------------------------------------------------------------
# Exact 1-D conjugate
# ---------------------------------------------------------------------------


def _gate_intervals(w: DualPoint):
    """({x : x*u* < alpha}, its complement) as 1-D intervals."""
    (u,) = w.ustar
    if u == 0:
        if 0 < w.alpha:
            return Interval1.whole_line(), Interval1.empty()
        return Interval1.empty(), Interval1.whole_line()
    bound = ExtReal(Fraction(w.alpha, u))
    if u > 0:
        return (
            Interval1(NEG_INF, True, bound, True),
            Interval1(bound, False, POS_INF, True),
        )
    return (
        Interval1(bound, True, POS_INF, True),
        Interval1(NEG_INF, True, bound, False),
    )


def c_conjugate_exact(f: PwAffine1, w: DualPoint) -> ExtReal:
    """Exact supremum of c(x, w) - f(x) over the whole line.

    The coupling is +inf wherever the gate <x, u*> < alpha fails, so the
    conjugate is +inf as soon as some piece with value below +inf meets
    the gate-failure halfline.  Otherwise only the gate region
    contributes, piece by piece in rational arithmetic; the sup of an
    affine function over a nonempty interval equals its sup over the
    closure, so endpoint openness never changes the value.
    """
    if len(w.xstar) != 1:
        raise ValueError("the exact conjugate is 1-D only")
    (xstar,) = w.xstar
    feasible, blocked = _gate_intervals(w)
    terms = []
    for interval, val in f.pieces:
        if isinstance(val, ExtReal) and val.is_pos_inf:
            continue  # anything - (+inf) = -inf
        if not interval.intersect(blocked).is_empty:
            return POS_INF  # +inf - (finite or -inf)
        section = interval.intersect(feasible)
        if section.is_empty:
            continue
        if isinstance(val, ExtReal):
            return POS_INF  # finite coupling - (-inf)
        slope, intercept = val
        m = Fraction(xstar) - slope
        if m > 0:
            terms.append(
                POS_INF if not section.hi.is_finite else ExtReal(m * section.hi.value - intercept)
            )
        elif m < 0:
            terms.append(
                POS_INF if not section.lo.is_finite else ExtReal(m * section.lo.value - intercept)
            )
        else:
            terms.append(ExtReal(-intercept))
    return extreal.sup(terms)


# ---------------------------------------------------------------------------
# Flat dual grids and the row-by-row boundary scan
# ---------------------------------------------------------------------------


def _tensor(slopes, gates, alphas, backend: str) -> DualGrid:
    """The dual points (x* + y*, u* + v*, alpha) over the slope axes
    (x*, y*), the gate axes (u*, v*) paired with them and the alphas, x*
    outermost, then y*, u*, v* and alpha.  Each axis entry is coerced
    once, and each slope axis must share one length with its gate axis."""
    slopes = [[_coerce_vec(v, backend) for v in axis] for axis in slopes]
    gates = [[_coerce_vec(v, backend) for v in axis] for axis in gates]
    if any(len({len(v) for v in s + g}) > 1 for s, g in zip(slopes, gates)):
        raise ValueError("paired dual point blocks must match dimensions")
    alphas = [scalar(a, backend) for a in alphas]
    xstars = [sum(xs, ()) for xs in product(*slopes)]
    ustars = [sum(us, ()) for us in product(*gates)]
    return DualGrid([DualPoint(xs, us, a) for xs in xstars for us in ustars for a in alphas])


def embed(P, w: DualPoint) -> DualPoint:
    """((0, y*), (0, v*), alpha) as a dual point of P's product space."""
    zero = P.x_grid.origin
    return DualPoint(zero + w.xstar, zero + w.ustar, w.alpha)


def x_side(P, flat: DualPoint) -> DualPoint:
    """(x*, u*, alpha) of a dual point of P's product space."""
    d = P.x_grid.dim
    return DualPoint(flat.xstar[:d], flat.ustar[:d], flat.alpha)


def full_dual_grid(P, full_dual_pairs) -> DualGrid:
    """The full dual grid of P, one point at a time: the pairs, then each
    embedding of the Y-side grid that is not among them."""
    pairs = full_dual_pairs.points if full_dual_pairs is not None else ()
    embedded = [embed(P, w) for w in P.dual_y_grid.points]
    return DualGrid(dict.fromkeys([*pairs, *embedded]))


def x_sides(P) -> Tuple[DualGrid, list]:
    """(x_side_grid, per flat of the full dual grid the index of its
    projection on it), from one pass over the flats."""
    at: Dict[DualPoint, int] = {}
    index = [at.setdefault(x_side(P, flat), len(at)) for flat in P.full_dual_grid.points]
    return DualGrid(at), index


def boundary_coincidences(P: PerturbationProblem) -> List[Tuple[str, Tuple, object]]:
    """Grid points landing exactly on a coupling boundary <., u*> = alpha.

    A boundary coincidence flips which branch of the coupling fires under
    the smallest perturbation of the data, so the loader surfaces them.
    Returns (space, point, dual point) rows, dual point by dual point and
    each in grid order.  Each distinct gate (u*, alpha) is scanned once,
    over the lists ``funcrep._prepared`` returns, cut into X x Y, points
    and slopes times its one scale D and alphas times D².  On a product
    X x Y on ints (rational, or floats that ``_prepared`` certified no
    float operation of the flat scan could round), (x, y) is on the
    boundary iff <x, u*> = alpha - <y, v*>: one dict from that int to its
    y, one lookup per x, so O(|X| + |Y| + hits) per gate, and D scales
    the dx·|X| + dy·|Y| coordinates of the factors.  Any other grid, or
    values as given, is scanned flat, q on the boundary iff
    <q, u*> == alpha, since a + b == c and a == c - b round differently.
    """
    out = []
    for space, w_points, grid in (
        ("y", P.dual_y_grid.points, P.y_grid),
        ("(x,y)", P.full_dual_grid.points, P.product),
    ):
        _, ((X, ux), (Y, uy)), (alphas,) = funcrep._prepared(
            grid, ([w.ustar for w in w_points],), ([w.alpha for w in w_points],))
        x_columns, y_columns, n = list(zip(*X)), list(zip(*Y)), len(Y)
        on_boundary = {}
        for w, a, b, alpha in zip(w_points, ux, uy, alphas):
            gate = _key((*a, *b, alpha))
            hits = on_boundary.get(gate)
            if hits is None:
                ys = {}  # alpha - <y, v*> -> the y giving it
                for j, t in enumerate(dots(y_columns, [-c for c in b], n, alpha) if b else [alpha]):
                    ys.setdefault(t, []).append(j)
                x_col = dots(x_columns, a, len(X))
                if len(ys) == 1:  # one level, compared directly: hashing a float costs more
                    (level,) = ys
                    on_it = [i for i, t in enumerate(x_col) if t == level]
                else:
                    on_it = [i for i, t in enumerate(x_col) if t in ys]
                hits = on_boundary[gate] = [grid.points[i * n + j] for i in on_it for j in ys[x_col[i]]]
            out.extend((space, p, w) for p in hits)
    return out


def boundary_warnings(P: PerturbationProblem) -> List[str]:
    """The coincidence warnings a command prints: one line per dual point
    for the first 8, then one line counting the rest.  The scan emits
    each (space, dual point) as one run of rows, and only the printed
    runs are formatted."""
    lines = []
    runs = itertools.groupby(boundary_coincidences(P), key=lambda row: (row[0], id(row[2])))
    for _, run in itertools.islice(runs, 8):
        (space, first, w), *rest = run
        lines.append(
            f"{len(rest) + 1} {space}-grid point(s) lie exactly on the coupling "
            f"boundary of {_text(w)} (first: {_text(first)})"
        )
    more = sum(1 for _ in runs)
    if more:
        lines.append(f"... and {more} more coupling-boundary coincidences")
    return lines
