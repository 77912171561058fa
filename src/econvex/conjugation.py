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
the Fenchel value; the Lagrangian table is read off those rows.

Each sweep reads the lists ``_prepared`` returns through ``_dots``: <p,
v> at every point, one coordinate column of ``_columns`` at a time from
int 0, which is the left fold of ``esets.dot`` at each point, so both
backends run one kernel.  The c'-sweep is slope-major: a shut mask per
distinct u*, then a running max per distinct x* at the open points,
which keeps builtin ``max``'s first maximiser and NaN.  ``_scaled``
makes the one exactness decision.  When every coordinate, slope, alpha
and payload the sweep reads is exactly a ``Fraction``, each list comes
back as ints times the lcm of its denominators: D for the points, e for
u*, a for alpha, E for x* and L for the values.  Otherwise every list
comes back as given with scale 1, since scaling only some lists would
change IEEE rounding.  A gate is shut iff not top·a < alpha·D·e, top the
max of <p, u*>; a Fenchel term is <p, k·x*> - m·v over M = lcm(D·E, L),
and the value is ``Fraction(best, M)`` for ints and ``best`` otherwise.
Scaling by a positive int keeps every comparison, so gates, maxima, the
first attaining row, the value, its type and its rendering are those of
the ``Fraction`` sweep; with scale 1 the arithmetic is that of the
definition, NaN included.

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
from math import lcm, nan
from typing import Iterable, Sequence, Tuple

from econvex.esets import Interval1, dot
from econvex.extreal import NEG_INF, POS_INF, ExtReal, NaNError, scalar
from econvex import extreal
from econvex.funcrep import Grid, PwAffine1, SampledFn

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


def _scaled(vectors):
    """(the vectors as int tuples times d, d), d the lcm of every
    denominator; None unless every coordinate is exactly a Fraction."""
    dens = set()
    for v in vectors:
        for c in v:
            if c.__class__ is not Fraction:
                return None
            dens.add(c.denominator)
    d = lcm(*dens)
    return [tuple(c.numerator * (d // c.denominator) for c in v) for v in vectors], d


def _prepared(vectors, scalars):
    """(exact, [(vectors, d)], [(scalars, d)]): the lists a sweep reads,
    each with its scale d.

    ``vectors`` are lists of points, u* and x*, which must share one
    length; ``scalars`` are lists of alphas and payloads.  All or nothing:
    when every entry is exactly a Fraction, every list comes back from
    ``_scaled`` as ints times the lcm d of its denominators and exact is
    True; otherwise every list comes back as given with d = 1, since
    scaling only some lists would change IEEE rounding.
    """
    if len({len(v) for vs in vectors for v in vs}) > 1:
        raise ValueError("dimension mismatch in inner product")
    lists = [*vectors, *([(c,) for c in cs] for cs in scalars)]
    scaled = []
    for vs in lists:
        s = _scaled(vs)
        if s is None:
            return False, [(vs, 1) for vs in vectors], [(cs, 1) for cs in scalars]
        scaled.append(s)
    n = len(vectors)
    return True, scaled[:n], [([c for (c,) in vs], d) for vs, d in scaled[n:]]


def _columns(points):
    """The coordinate columns of points; no points give one empty column."""
    return list(zip(*points)) or [()]


def _dots(cols, v):
    """<p, v> at every point p of the columns cols: ints stay exact, and
    floats round, overflow and reach NaN as in ``esets.dot``."""
    out = [0] * len(cols[0])
    for col, c in zip(cols, v):
        out = [t + q * c for t, q in zip(out, col)]
    return out


def _value(best) -> ExtReal:
    """ExtReal(best).  A term <p, x*> - f(p) is NaN only where <p, x*> adds
    opposite infinities, so the error names the slopes."""
    try:
        return ExtReal(best)
    except NaNError:
        raise NaNError("grids.xstar/grids.ystar: <grid point, slope> overflows to NaN") from None


def _c_conjugate_rows(f: SampledFn, w_grid: DualGrid):
    """(f^c(w), attaining row) per dual point, in the order of the grid.

    The row is the first (point, payload) of dom f attaining the Fenchel
    value on a finite cell and None on a +-inf cell.  max over dom of
    <p, u*> is taken once per distinct u*, NaN when some dot is (inf·0
    fails every gate, as in the definition), and the Fenchel value once
    per distinct x*, and only for an x* that some open gate needs.
    """
    dom, constant = _split_dom(f)
    if dom is None:
        return [(constant, None)] * len(w_grid)
    w_points = w_grid.points
    exact, ((points, D), (ustars, e), (xstars, E)), ((alphas, a), (values, L)) = _prepared(
        ([p for p, _ in dom], [w.ustar for w in w_points], [w.xstar for w in w_points]),
        ([w.alpha for w in w_points], [v for _, v in dom]),
    )
    cols = _columns(points)
    M = lcm(D * E, L)
    k, m, De = M // (D * E), M // L, D * e
    values = [m * v for v in values]
    highest = {}  # u* key -> max over dom of <p, u*>, NaN if some dot is
    fenchel = {}  # x* key -> (grid Fenchel value, attaining row)
    out = []
    for u, alpha, x in zip(ustars, alphas, xstars):
        gate = _key(u)
        top = highest.get(gate)
        if top is None:
            dots = _dots(cols, u)
            top = highest[gate] = max(dots) if all(d == d for d in dots) else nan
        if not (top * a < alpha * De):
            out.append((POS_INF, None))
            continue
        slope = _key(x)
        cell = fenchel.get(slope)
        if cell is None:
            terms = [t - v for t, v in zip(_dots(cols, [k * c for c in x]), values)]
            best = max(terms)
            value = _value(Fraction(best, M) if exact else best)
            cell = fenchel[slope] = (value, dom[terms.index(best)])
        out.append(cell)
    return out


def c_conjugate(f: SampledFn, w_grid: DualGrid) -> SampledFn:
    """f^c(w) = sup over the grid of { c(x, w) - f(x) }."""
    return SampledFn(w_grid, [v for v, _ in _c_conjugate_rows(f, w_grid)])


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
    exact, ((points, D), (ustars, e), (xstars, E)), ((alphas, a), (values, L)) = _prepared(
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
    M = lcm(D * E, L)
    k, m, De = M // (D * E), M // L, D * e
    cols = _columns(points)
    shut = [False] * len(points)
    for u, alpha in gates.values():
        level = alpha * De
        shut = [s or not (t * a < level) for s, t in zip(shut, _dots(cols, u))]
    cols = _columns([p for p, s in zip(points, shut) if not s])
    best = None
    for x, v in slopes.values():
        mv = m * v
        terms = [t - mv for t in _dots(cols, [k * c for c in x])]
        best = terms if best is None else [t if t > b else b for t, b in zip(terms, best)]
    best = iter([Fraction(b, M) for b in best] if exact else best)
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


def _sup_minus(couplings, rows) -> ExtReal:
    """sup of each raw coupling (None for +inf) minus its row's value,
    with the +-inf conventions: f^c(w) pairs w with every grid point,
    g^{c'}(x) x with every dual point."""
    best = None  # raw finite payload of the running sup, None = -inf so far
    for c, (tag, payload) in zip(couplings, rows):
        if tag == "+":
            continue  # both (+inf)-(+inf) and finite-(+inf) are -inf
        if c is None or tag == "-":
            return POS_INF  # +inf - (finite or -inf), finite - (-inf)
        term = c - payload
        if best is None or term > best:
            best = term
    return NEG_INF if best is None else _value(best)


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
