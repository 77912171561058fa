"""Coupling functions and the associated conjugation operators.

The dual space is W = X* x X* x R.  The coupling of a point x with
w = (x*, u*, alpha) is <x, x*> when <x, u*> < alpha and +inf otherwise;
its partner couples the same pair in the opposite order with the same
value.  Conjugates are suprema of coupling-minus-function and, on grids,
are taken over the grid as the space: no interpolation, no extrapolation,
and the strict gate is evaluated with an exact rational comparison or a
raw IEEE one -- never a tolerance.

Functions of two blocks of variables are conjugated with the paired
coupling on (X x Y) x ((X* x Y*) x (X* x Y*) x R); since inner products
split over concatenation, a paired dual point is just a dual point of the
product space, which is what :meth:`DualPairPoint.flatten` returns.

The coupling splits into a gate that depends only on (u*, alpha) and a
value that depends only on x*, and the grid conjugates follow the split.
With dom the grid points where f is below +inf, f^c(w) is -inf when dom
is empty, +inf when f takes -inf on dom, +inf when some point of dom
fails the gate <p, u*> < alpha, and otherwise the grid Fenchel value
max over dom of <p, x*> - f(p).  max over dom of <p, u*> is taken once
per distinct u*, so each alpha costs one comparison, and the Fenchel
value once per distinct x*: a sweep costs O((#x* + #u*)·|G| + |W|)
instead of O(|W|·|G|).  The c'-conjugate splits the same way: per
distinct u* only the least alpha over dom g can close the gate, and per
distinct x* only the least value of g can attain the sup.  The
c-conjugate also keeps, per distinct x*, the first row of dom attaining
the Fenchel value; the Lagrangian table is read off those rows, from one
c-sweep of all its slices, which share each column of inner products.

Each sweep reads the lists ``_prepared`` returns through ``esets.dots``:
<p, v> at every point, one coordinate column at a time, which is the
left fold of ``esets.dot`` at each point, so both backends run one
kernel.  The c'-sweep is slope-major: a shut mask per distinct u*, then
a running max per distinct x* at the open points, which keeps builtin
``max``'s first maximiser and NaN.  ``_prepared`` makes the one
exactness decision, about one scale D.  When every coordinate, slope,
alpha and payload the sweep reads is exactly a ``Fraction``, every list
comes back as ints times D, the lcm of all their denominators (of all
functions' payloads in a sweep of several).
Otherwise D is None and every list comes back as given, since scaling
only some lists would change IEEE rounding.  With P, U, X, A and V the
lists a sweep reads and D taken as 1 for lists as given, a gate is shut
iff not <P, U> < D·A, a Fenchel term is <P, X> - D·V, and a value is
``Fraction(best, D·D)`` for ints and ``best`` otherwise.  Scaling by a
positive int keeps every comparison, so gates, maxima, the first
attaining row, the value, its type and its rendering are those of the
``Fraction`` sweep; on lists as given the factor is 1·alpha and 1·v, so
the arithmetic is that of the definition, NaN and -0.0 included.

``_coupling`` (the gate, written once) and ``_sup_minus`` (the sup of
coupling minus value, with the +-inf conventions only) are the one
definitional reference.  ``_reference_c_conjugate`` and
``_reference_cprime_conjugate`` feed them one dual point against every
grid point, as the differential tests' oracle, and
``lagrangian.dual_slice_audit`` each dual point's coupling column over Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from math import nan
from typing import Iterable, Sequence, Tuple

from econvex.esets import Interval1, dot, dots
from econvex.extreal import NEG_INF, POS_INF, ExtReal, NaNError, scalar
from econvex import extreal
from econvex.funcrep import Grid, PwAffine1, SampledFn, _over_lcm

__all__ = [
    "DualPoint",
    "DualPairPoint",
    "DualGrid",
    "coupling_c",
    "coupling_cprime",
    "coupling_cbar",
    "c_conjugate",
    "cprime_conjugate",
    "biconjugate",
    "c_conjugate_exact",
    "tensor_dual_grid",
    "pair_tensor_dual_grid",
    "adapted_dual_grid",
]


def _coerce_vec(v, backend: str) -> Tuple:
    if not isinstance(v, (tuple, list)):
        v = (v,)
    return tuple(scalar(c, backend) for c in v)


@dataclass(frozen=True)
class DualPoint:
    """An element (x*, u*, alpha) of W = X* x X* x R."""

    xstar: Tuple
    ustar: Tuple
    alpha: object

    @staticmethod
    def of(xstar, ustar, alpha, backend: str = "rational") -> "DualPoint":
        return DualPoint(
            _coerce_vec(xstar, backend),
            _coerce_vec(ustar, backend),
            scalar(alpha, backend),
        )

    @property
    def dim(self) -> int:
        return len(self.xstar)

    def __post_init__(self):
        if len(self.xstar) != len(self.ustar):
            raise ValueError("xstar and ustar must share the primal dimension")


@dataclass(frozen=True)
class DualPairPoint:
    """An element ((x*, y*), (u*, v*), alpha) of the paired dual space."""

    xstar: Tuple
    ystar: Tuple
    ustar: Tuple
    vstar: Tuple
    alpha: object

    @staticmethod
    def of(xstar, ystar, ustar, vstar, alpha, backend: str = "rational") -> "DualPairPoint":
        return DualPairPoint(
            _coerce_vec(xstar, backend),
            _coerce_vec(ystar, backend),
            _coerce_vec(ustar, backend),
            _coerce_vec(vstar, backend),
            scalar(alpha, backend),
        )

    def __post_init__(self):
        if len(self.xstar) != len(self.ustar) or len(self.ystar) != len(self.vstar):
            raise ValueError("paired dual point blocks must match dimensions")

    def flatten(self) -> DualPoint:
        """The same functional on the product space X x Y."""
        return DualPoint(self.xstar + self.ystar, self.ustar + self.vstar, self.alpha)


class DualGrid:
    """Finite list of pairwise-distinct dual points, usable as a grid."""

    def __init__(self, points: Iterable, backend: str = "rational"):
        self.points = tuple(points)
        self.backend = backend
        self._index = {}
        for i, p in enumerate(self.points):
            if p in self._index:
                raise ValueError(f"duplicate dual point {p!r}")
            self._index[p] = i

    @property
    def alpha_positive(self) -> bool:
        return all(p.alpha > 0 for p in self.points)

    def index_of(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise KeyError(f"dual point {point!r} is not on the grid") from None

    def __contains__(self, point) -> bool:
        return point in self._index

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def tensor_dual_grid(
    xstars, ustars, alphas, backend: str = "rational"
) -> DualGrid:
    """Tensor product of slope lists and an alpha list."""
    pts = [
        DualPoint.of(xs, us, a, backend)
        for xs in xstars
        for us in ustars
        for a in alphas
    ]
    return DualGrid(pts, backend)


def pair_tensor_dual_grid(
    xstars, ystars, ustars, vstars, alphas, backend: str = "rational"
) -> DualGrid:
    pts = [
        DualPairPoint.of(xs, ys, us, vs, a, backend)
        for xs in xstars
        for ys in ystars
        for us in ustars
        for vs in vstars
        for a in alphas
    ]
    return DualGrid(pts, backend)


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
# Couplings
# ---------------------------------------------------------------------------


def _coupling(x, w: DualPoint):
    """The raw coupling: <x, x*> if <x, u*> < alpha, None (+inf)
    otherwise.  A NaN gate shuts."""
    if dot(x, w.ustar) < w.alpha:
        return dot(x, w.xstar)
    return None


def coupling_c(x, w: DualPoint) -> ExtReal:
    """<x, x*> if <x, u*> < alpha, +inf otherwise."""
    c = _coupling(x, w)
    return POS_INF if c is None else ExtReal(c)


def coupling_cprime(w: DualPoint, x) -> ExtReal:
    """The partner coupling; same value with arguments swapped."""
    return coupling_c(x, w)


def coupling_cbar(x, y, pair: DualPairPoint) -> ExtReal:
    """<x,x*> + <y,y*> if <x,u*> + <y,v*> < alpha, +inf otherwise."""
    return coupling_c(tuple(x) + tuple(y), pair.flatten())


# ---------------------------------------------------------------------------
# Grid conjugates
# ---------------------------------------------------------------------------


def _key(v: Sequence) -> Tuple:
    """Grouping key of a scalar tuple.  Equal keys give bit-identical
    arithmetic, so the payload type is part of the key: 1, 1.0 and
    Fraction(1) compare equal but do not multiply alike."""
    return tuple((c.__class__, c) for c in v)


def _split_dom(f: SampledFn):
    """(point, payload) rows of dom f, or the constant conjugate.

    An empty domain conjugates to -inf and a -inf value on the domain to
    +inf, whatever the dual point; the rows are returned only when every
    value on the domain is finite.
    """
    dom = [(p, v) for p, v in zip(f.grid.points, f.values) if not v.is_pos_inf]
    if not dom:
        return None, NEG_INF
    if any(v.is_neg_inf for _, v in dom):
        return None, POS_INF
    return [(p, v.value) for p, v in dom], None


def _prepared(vectors, scalars):
    """(D, vectors, scalars): the lists a sweep reads, over one scale D.

    ``vectors`` are lists of points, u* and x*, which must share one
    length; ``scalars`` are lists of alphas and payloads.  When every
    entry is exactly a Fraction, D is the lcm of every denominator of
    every list and each list comes back as ints times D.  Otherwise D is
    None and the lists come back as given, since scaling only some of
    them would change IEEE rounding.
    """
    if len({len(v) for vs in vectors for v in vs}) > 1:
        raise ValueError("dimension mismatch in inner product")
    entries = [c for vs in vectors for v in vs for c in v] + [c for cs in scalars for c in cs]
    if any(c.__class__ is not Fraction for c in entries):
        return None, vectors, scalars
    ints, D = _over_lcm(entries)
    ints = iter(ints)
    vectors = [[tuple(islice(ints, len(v))) for v in vs] for vs in vectors]
    return D, vectors, [list(islice(ints, len(cs))) for cs in scalars]


def _value(best) -> ExtReal:
    """ExtReal(best).  A term <p, x*> - f(p) is NaN only where <p, x*> adds
    opposite infinities, so the error names the slopes."""
    try:
        return ExtReal(best)
    except NaNError:
        raise NaNError("grids.xstar/grids.ystar: <grid point, slope> overflows to NaN") from None


def _c_conjugate_rows(fs, w_grid: DualGrid):
    """Per function of fs, all on one grid, (f^c(w), attaining row) per
    dual point, in the order of the dual grid.

    The row is the first (point, payload) of dom f attaining the Fenchel
    value on a finite cell and None on a +-inf cell.  The dots column of
    each distinct u*, and of each x* some open gate needs, is taken once
    over the union of the domains and read by each function (by index if
    its domain is smaller): per function, max over dom of <p, u*>, NaN if
    some dot is (inf·0 fails every gate, as in the definition), and the
    Fenchel value for each x* its own open gates need."""
    splits = [_split_dom(f) for f in fs]
    out = [[(constant, None)] * len(w_grid) for _, constant in splits]
    swept = [(r, dom) for r, (dom, _) in enumerate(splits) if dom is not None]
    if not swept:
        return out
    # the union of the domains; per function, its positions there (None: all)
    grid = fs[0].grid.points
    inside = [[not v.is_pos_inf for v in fs[r].values] for r, _ in swept]
    union = list(compress(range(len(grid)), map(any, zip(*inside))))
    points = [grid[i] for i in union]
    picks = [None if len(dom) == len(union) else [k for k, i in enumerate(union) if mask[i]]
             for (_, dom), mask in zip(swept, inside)]
    D, (points, ustars, xstars), (alphas, *payloads) = _prepared(
        (points, [w.ustar for w in w_grid.points], [w.xstar for w in w_grid.points]),
        [[w.alpha for w in w_grid.points]] + [[v for _, v in dom] for _, dom in swept],
    )
    scale, columns, n = D or 1, list(zip(*points)), len(points)
    values = [[scale * v for v in payload] for payload in payloads]

    def read(column, pick):
        return column if pick is None else [column[k] for k in pick]

    firsts = {}, {}  # u* and x* key -> index of the first dual point with it
    gates = [firsts[0].setdefault(_key(u), j) for j, u in enumerate(ustars)]
    slopes = [firsts[1].setdefault(_key(x), j) for j, x in enumerate(xstars)]
    tops = [{} for _ in swept]  # per function: gate -> max over dom of <p, u*>
    for j in firsts[0].values():
        column = dots(columns, ustars[j], n)
        for top, t in zip(tops, (read(column, pick) for pick in picks)):
            top[j] = max(t) if all(c == c for c in t) else nan
    levels = [scale * alpha for alpha in alphas]
    opens = [[top[g] < level for g, level in zip(gates, levels)] for top in tops]
    needs = [{s for is_open, s in zip(row, slopes) if is_open} for row in opens]
    cells = [{} for _ in swept]  # per function: slope -> (Fenchel value, attaining row)
    for j in firsts[1].values():
        column = None
        for need, cell, pick, vs, (_, dom) in zip(needs, cells, picks, values, swept):
            if j in need:
                column = column or dots(columns, xstars[j], n)
                terms = [t - v for t, v in zip(read(column, pick), vs)]
                best = max(terms)
                value = _value(best if D is None else Fraction(best, D * D))
                cell[j] = (value, dom[terms.index(best)])
    shut = (POS_INF, None)
    for (r, _), row, cell in zip(swept, opens, cells):
        out[r] = [cell[s] if is_open else shut for is_open, s in zip(row, slopes)]
    return out


def c_conjugate(f: SampledFn, w_grid: DualGrid) -> SampledFn:
    """f^c(w) = sup over the grid of { c(x, w) - f(x) }."""
    return SampledFn(w_grid, [v for v, _ in _c_conjugate_rows([f], w_grid)[0]])


def cprime_conjugate(g: SampledFn, x_grid: Grid) -> SampledFn:
    """g^{c'}(x) = sup over the dual grid of { c'(w, x) - g(w) }.

    Per distinct u* only the least alpha over dom g decides the gate (a
    NaN alpha sticks and shuts it at every x), and per distinct x* only
    the least value of g can attain the sup.  Both tables keep the order
    in which the dual grid first meets a key, so ties and NaN terms
    resolve as in the definitional sweep.
    """
    dom, constant = _split_dom(g)
    if dom is None:
        return SampledFn(x_grid, [constant] * len(x_grid))
    D, (points, ustars, xstars), (alphas, values) = _prepared(
        (x_grid.points, [w.ustar for w, _ in dom], [w.xstar for w, _ in dom]),
        ([w.alpha for w, _ in dom], [v for _, v in dom]),
    )
    gates = {}  # u* key -> [u*, least alpha over dom g]
    slopes = {}  # x* key -> [x*, least value of g]
    for u, alpha, x, v in zip(ustars, alphas, xstars, values):
        gate = gates.setdefault(_key(u), [u, alpha])
        if alpha < gate[1] or alpha != alpha:
            gate[1] = alpha
        slope = slopes.setdefault(_key(x), [x, v])
        if v < slope[1]:
            slope[1] = v
    scale, columns, n = D or 1, list(zip(*points)), len(points)
    shut = [False] * n
    for u, alpha in gates.values():
        level = scale * alpha
        shut = [s or not (t < level) for s, t in zip(shut, dots(columns, u, n))]
    points = [p for p, s in zip(points, shut) if not s]
    columns, n = list(zip(*points)), len(points)
    best = None
    for x, v in slopes.values():
        dv = scale * v
        terms = [t - dv for t in dots(columns, x, n)]
        best = terms if best is None else [t if t > b else b for t, b in zip(terms, best)]
    best = iter(best if D is None else [Fraction(b, D * D) for b in best])
    return SampledFn(x_grid, [POS_INF if s else _value(next(best)) for s in shut])


def biconjugate(f: SampledFn, w_grid: DualGrid) -> SampledFn:
    """f^{cc'} back on f's own grid: a minorant of f that tightens as the
    dual grid is refined."""
    return cprime_conjugate(c_conjugate(f, w_grid), f.grid)


# ---------------------------------------------------------------------------
# Definitional sweeps: single-point values, the oracle of the
# differential tests and the other side of the dual-slice audit
# ---------------------------------------------------------------------------


def _classify(values):
    """(tag, payload) rows: tag 'f' finite, '+' +inf, '-' -inf."""
    rows = []
    for v in values:
        if v.is_pos_inf:
            rows.append(("+", None))
        elif v.is_neg_inf:
            rows.append(("-", None))
        else:
            rows.append(("f", v.value))
    return rows


def _sup_minus(couplings, rows, d=None) -> ExtReal:
    """sup of each raw coupling (None for +inf) minus its row's value,
    with the +-inf conventions: f^c(w) pairs w with every grid point,
    g^{c'}(x) x with every dual point.  Given a scale d, couplings and
    payloads are ints times d and a finite sup is Fraction(best, d)."""
    best = None  # raw finite payload of the running sup, None = -inf so far
    for c, (tag, payload) in zip(couplings, rows):
        if tag == "+":
            continue  # both (+inf)-(+inf) and finite-(+inf) are -inf
        if c is None or tag == "-":
            return POS_INF  # +inf - (finite or -inf), finite - (-inf)
        term = c - payload
        if best is None or term > best:
            best = term
    return NEG_INF if best is None else _value(best if d is None else Fraction(best, d))


def _reference_c_conjugate(f: SampledFn, w_grid: DualGrid) -> SampledFn:
    """f^c by the definition: every dual point against every grid point."""
    rows = _classify(f.values)
    columns = ((_coupling(p, w) for p in f.grid.points) for w in w_grid.points)
    return SampledFn(w_grid, [_sup_minus(column, rows) for column in columns])


def _reference_cprime_conjugate(g: SampledFn, x_grid: Grid) -> SampledFn:
    """g^{c'} by the definition: every grid point against every dual point."""
    rows = _classify(g.values)
    columns = ((_coupling(x, w) for w in g.grid.points) for x in x_grid.points)
    return SampledFn(x_grid, [_sup_minus(column, rows) for column in columns])


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
    if w.dim != 1:
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
