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
max over dom of <p, x*> - f(p).  The gate is tested once per distinct
(u*, alpha) and the Fenchel value computed once per distinct x*, so a
sweep costs O((#x* + #gates)·|G| + |W|) instead of O(|W|·|G|).  The
c'-conjugate splits the same way: per distinct u* only the least alpha
over dom g can close the gate, and per distinct x* only the least value
of g can attain the sup.  The c-conjugate also keeps, per distinct x*,
the first row of dom attaining the Fenchel value; the Lagrangian table is
read off those rows.

A sweep in which every coordinate, slope, alpha and payload it reads is
exactly a ``Fraction`` runs in plain ints.  ``_scaled`` multiplies a list
of vectors by the lcm of their denominators: D for the points, e for u*,
E for x* and L for the values.  A gate is shut iff max over dom of the
scaled <p, u*> reaches ceil(alpha·D·e); a Fenchel term is an int over
M = lcm(D·E, L), and the value is ``Fraction(best, M)``.  Scaling by a
positive int keeps every comparison, so gates, maxima, the first
attaining row, the value, its type and its rendering are those of the
``Fraction`` sweep.  Any float, or an ``int`` among the fractions, sends
the sweep down the plain loop, which keeps IEEE rounding as it was.

``_reference_c_conjugate`` and ``_reference_cprime_conjugate`` keep the
definitional sweeps, one dual point against every grid point.  They are
the one definitional reference: the differential tests hold the kernel to
them, and ``lagrangian.dual_slice_audit`` compares the Lagrangian table
with ``_reference_c_conjugate`` of every slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence, Tuple

from econvex.extreal import NEG_INF, POS_INF, ExtReal, scalar
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


def _dot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise ValueError("dimension mismatch in inner product")
    total = 0
    for x, y in zip(a, b):
        total += x * y
    return total


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

    def x_side(self) -> DualPoint:
        """Projection onto W = X* x X* x R."""
        return DualPoint(self.xstar, self.ustar, self.alpha)


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


def coupling_c(x, w: DualPoint) -> ExtReal:
    """<x, x*> if <x, u*> < alpha, +inf otherwise."""
    if _dot(x, w.ustar) < w.alpha:
        return ExtReal(_dot(x, w.xstar))
    return POS_INF


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


def _gate_key(w: DualPoint) -> Tuple:
    """Grouping key of the gate <., u*> < alpha of a dual point."""
    return (_key(w.ustar), w.alpha.__class__, w.alpha)


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


def _fenchel(dom, xstar):
    """(max over dom of <p, x*> - f(p), the first (p, payload) row of dom
    attaining it), in the order of the grid."""
    best = row = None
    for p, payload in dom:
        term = _dot(p, xstar) - payload
        if best is None or term > best:
            best, row = term, (p, payload)
    return ExtReal(best), row


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


def _one_length(*lists) -> bool:
    """Every vector of the lists has one length.  The integer sweeps check
    this up front and otherwise leave the plain sweep to raise the
    dimension error of :func:`_dot`."""
    return len({len(v) for vs in lists for v in vs}) <= 1


def _int_dot(a, b):
    """<a, b> of int tuples of one length."""
    return sum(map(mul, a, b))


def _int_c_conjugate_rows(dom, w_points):
    """The rows of :func:`_c_conjugate_rows` in scaled ints, or None
    unless every coordinate, slope, alpha and payload is a Fraction.
    Alphas scale by a, so ceil(alpha·D·e) is -(-A·D·e // a) for the
    scaled alpha A; the first maximal term is the first attaining row."""
    ints = [_scaled(vs) for vs in (
        [p for p, _ in dom], [(v,) for _, v in dom],
        [w.ustar for w in w_points], [(w.alpha,) for w in w_points],
        [w.xstar for w in w_points],
    )]
    if None in ints:
        return None
    (points, D), (values, L), (ustars, e), (alphas, a), (xstars, E) = ints
    if not _one_length(points, ustars):
        return None
    M = lcm(D * E, L)
    k = M // (D * E)
    values = [v * (M // L) for (v,) in values]
    highest = {}  # scaled u* -> max over dom of the scaled <p, u*>
    fenchel = {}  # scaled x* -> (grid Fenchel value, attaining row)
    out = []
    for u, (alpha,), x in zip(ustars, alphas, xstars):
        top = highest.get(u)
        if top is None:
            top = highest[u] = max(_int_dot(p, u) for p in points)
        if top >= -(-alpha * D * e // a):
            out.append((POS_INF, None))
            continue
        cell = fenchel.get(x)
        if cell is None:
            kx = tuple(k * c for c in x)
            terms = [_int_dot(p, kx) - v for p, v in zip(points, values)]
            best = max(terms)
            cell = fenchel[x] = (ExtReal(Fraction(best, M)), dom[terms.index(best)])
        out.append(cell)
    return out


def _c_conjugate_rows(f: SampledFn, w_grid: DualGrid):
    """(f^c(w), attaining row) per dual point, in the order of the grid.

    The row is the first (point, payload) of dom f attaining the Fenchel
    value on a finite cell and None on a +-inf cell.  The gate is tested
    once per distinct (u*, alpha) and the Fenchel value computed once per
    distinct x*, and only for an x* that some open gate needs.
    """
    dom, constant = _split_dom(f)
    if dom is None:
        return [(constant, None)] * len(w_grid)
    out = _int_c_conjugate_rows(dom, w_grid.points)
    if out is not None:
        return out
    blocked = {}  # gate key -> some point of dom fails the gate
    fenchel = {}  # x* key -> (grid Fenchel value, attaining row)
    out = []
    for w in w_grid.points:
        gate = _gate_key(w)
        shut = blocked.get(gate)
        if shut is None:
            ustar, alpha = w.ustar, w.alpha
            shut = blocked[gate] = any(not (_dot(p, ustar) < alpha) for p, _ in dom)
        if shut:
            out.append((POS_INF, None))
            continue
        slope = _key(w.xstar)
        cell = fenchel.get(slope)
        if cell is None:
            cell = fenchel[slope] = _fenchel(dom, w.xstar)
        out.append(cell)
    return out


def c_conjugate(f: SampledFn, w_grid: DualGrid) -> SampledFn:
    """f^c(w) = sup over the grid of { c(x, w) - f(x) }."""
    return SampledFn(w_grid, [v for v, _ in _c_conjugate_rows(f, w_grid)])


def _int_cprime_values(dom, x_points):
    """The values of :func:`cprime_conjugate` in scaled ints, or None
    unless every coordinate, slope, alpha and payload is a Fraction.
    Per distinct u* the least alpha becomes the threshold ceil(alpha·D·e)
    and per distinct x* the least value is kept; with no NaN among
    fractions, the order of either table does not matter."""
    ints = [_scaled(vs) for vs in (
        x_points, [w.ustar for w, _ in dom], [(w.alpha,) for w, _ in dom],
        [w.xstar for w, _ in dom], [(v,) for _, v in dom],
    )]
    if None in ints:
        return None
    (points, D), (ustars, e), (alphas, a), (xstars, E), (values, L) = ints
    if not _one_length(points, ustars):
        return None
    least_alpha, least_value = {}, {}
    for u, (alpha,), x, (v,) in zip(ustars, alphas, xstars, values):
        least_alpha[u] = min(least_alpha.get(u, alpha), alpha)
        least_value[x] = min(least_value.get(x, v), v)
    gates = [(u, -(-alpha * D * e // a)) for u, alpha in least_alpha.items()]
    M = lcm(D * E, L)
    k, m = M // (D * E), M // L
    slopes = [(tuple(k * c for c in x), v * m) for x, v in least_value.items()]
    out = []
    for p in points:
        if any(_int_dot(p, u) >= threshold for u, threshold in gates):
            out.append(POS_INF)
        else:
            out.append(ExtReal(Fraction(max(_int_dot(p, x) - v for x, v in slopes), M)))
    return out


def cprime_conjugate(g: SampledFn, x_grid: Grid) -> SampledFn:
    """g^{c'}(x) = sup over the dual grid of { c'(w, x) - g(w) }.

    Per distinct u* only the least alpha over dom g decides the gate (a
    NaN alpha shuts it at every x), and per distinct x* only the least
    value of g can attain the sup.  Both tables keep the order in which
    the dual grid first meets a key, so ties and NaN terms resolve as in
    the definitional sweep.
    """
    dom, constant = _split_dom(g)
    if dom is None:
        return SampledFn(x_grid, [constant] * len(x_grid))
    vals = _int_cprime_values(dom, x_grid.points)
    if vals is not None:
        return SampledFn(x_grid, vals)
    gates = {}  # u* key -> [u*, least non-NaN alpha or None, some alpha is NaN]
    slopes = {}  # x* key -> [x*, least value of g]
    for w, payload in dom:
        gate = gates.setdefault(_key(w.ustar), [w.ustar, None, False])
        alpha = w.alpha
        if alpha != alpha:
            gate[2] = True
        elif gate[1] is None or alpha < gate[1]:
            gate[1] = alpha
        slope = slopes.setdefault(_key(w.xstar), [w.xstar, payload])
        if payload < slope[1]:
            slope[1] = payload
    gates = list(gates.values())
    slopes = list(slopes.values())
    vals = []
    for x in x_grid.points:
        if any(nan or not (_dot(x, ustar) < alpha) for ustar, alpha, nan in gates):
            vals.append(POS_INF)
            continue
        best = None
        for xstar, least in slopes:
            term = _dot(x, xstar) - least
            if best is None or term > best:
                best = term
        vals.append(ExtReal(best))
    return SampledFn(x_grid, vals)


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


def _sup_coupling_minus(points, rows, w: DualPoint) -> ExtReal:
    """sup over the rows of coupling(x, w) - value, with the conventions."""
    ustar, alpha, xstar = w.ustar, w.alpha, w.xstar
    best = None  # raw finite payload of the running sup, None = -inf so far
    for p, (tag, payload) in zip(points, rows):
        if tag == "+":
            continue  # both (+inf)-(+inf) and finite-(+inf) are -inf
        if not (_dot(p, ustar) < alpha):
            return POS_INF  # +inf - (finite or -inf) = +inf
        if tag == "-":
            return POS_INF  # finite - (-inf) = +inf
        term = _dot(p, xstar) - payload
        if best is None or term > best:
            best = term
    return NEG_INF if best is None else ExtReal(best)


def _reference_c_conjugate(f: SampledFn, w_grid: DualGrid) -> SampledFn:
    """f^c by the definition: every dual point against every grid point."""
    rows = _classify(f.values)
    points = f.grid.points
    return SampledFn(w_grid, [_sup_coupling_minus(points, rows, w) for w in w_grid.points])


def _sup_prime_minus(w_points, rows, x) -> ExtReal:
    best = None
    for w, (tag, payload) in zip(w_points, rows):
        if tag == "+":
            continue  # anything - (+inf) = -inf
        if not (_dot(x, w.ustar) < w.alpha):
            return POS_INF  # +inf - (finite or -inf) = +inf
        if tag == "-":
            return POS_INF  # finite - (-inf) = +inf
        term = _dot(x, w.xstar) - payload
        if best is None or term > best:
            best = term
    return NEG_INF if best is None else ExtReal(best)


def _reference_cprime_conjugate(g: SampledFn, x_grid: Grid) -> SampledFn:
    """g^{c'} by the definition: every grid point against every dual point."""
    rows = _classify(g.values)
    w_points = g.grid.points
    return SampledFn(x_grid, [_sup_prime_minus(w_points, rows, x) for x in x_grid.points])


# ---------------------------------------------------------------------------
# Exact 1-D conjugate
# ---------------------------------------------------------------------------


def _gate_intervals(w: DualPoint):
    """({x : x*u* < alpha}, its complement) as 1-D intervals."""
    from econvex.esets import Interval1

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
