"""Exact rational model of evenly convex sets.

A set here is a finite intersection of strict and non-strict halfspaces
over the rationals -- the computable subclass of evenly convex sets.  Open
and closed halfspaces are both evenly convex and the class is closed under
intersection, so every `EPolyhedron` is evenly convex by construction.

All predicates are exact rational comparisons; there is no epsilon
anywhere in this module.  Emptiness and separation are supported up to
dimension 2, the lower-envelope machinery (sets living in X x R with X
one-dimensional) up to a 2-dimensional ambient space.  Higher dimensions
raise :class:`UnsupportedDimensionError` rather than approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from econvex.extreal import NEG_INF, POS_INF, ExtReal

__all__ = [
    "GeometryError",
    "UnsupportedDimensionError",
    "Vec",
    "ratvec",
    "dot",
    "dots",
    "Halfspace",
    "EPolyhedron",
    "Interval1",
    "EnvelopeFn",
    "separate",
    "in_recession_cone",
    "lower_envelope",
    "is_functionally_representable",
]

Vec = tuple  # tuple of Fraction


class GeometryError(ValueError):
    pass


class UnsupportedDimensionError(GeometryError):
    pass


def ratvec(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


def dot(a: Sequence, b: Sequence):
    """<a, b> as a left fold from 0, so Fractions stay exact and floats
    round coordinate by coordinate, in one order for every caller."""
    if len(a) != len(b):
        raise GeometryError(f"dimension mismatch: {len(a)} vs {len(b)}")
    total = 0
    for x, y in zip(a, b):
        total += x * y
    return total


def dots(columns: Sequence, v: Sequence, n: int, start=0) -> list:
    """start + <p, v> at the n points whose coordinate columns are columns,
    one column at a time: the left fold of :func:`dot` from start at each
    point, so ints stay exact and floats round, overflow and reach NaN
    alike.  No columns give n copies of start."""
    out = [start] * n
    for column, c in zip(columns, v):
        out = [t + q * c for t, q in zip(out, column)]
    return out


@dataclass(frozen=True)
class Halfspace:
    """``{x : <x, normal> < offset}`` when strict, ``<=`` when not.

    A zero normal makes the constraint constant; such constraints are kept
    (they may render the set empty) and flagged via :attr:`is_constant` /
    :attr:`constant_truth`.
    """

    normal: Vec
    offset: Fraction
    strict: bool

    def __post_init__(self):
        object.__setattr__(self, "normal", ratvec(self.normal))
        object.__setattr__(self, "offset", Fraction(self.offset))

    @property
    def dim(self) -> int:
        return len(self.normal)

    @property
    def is_constant(self) -> bool:
        return all(c == 0 for c in self.normal)

    @property
    def constant_truth(self) -> Optional[bool]:
        """Truth value of a constant constraint, None otherwise."""
        if not self.is_constant:
            return None
        zero = Fraction(0)
        return zero < self.offset if self.strict else zero <= self.offset

    def satisfied_by(self, x: Sequence[Fraction]) -> bool:
        lhs = dot(self.normal, x)
        return lhs < self.offset if self.strict else lhs <= self.offset


@dataclass(frozen=True)
class EPolyhedron:
    """Finite intersection of halfspaces; evenly convex by construction."""

    dim: int
    constraints: tuple

    def __init__(self, dim: int, constraints: Iterable[Halfspace] = ()):
        if dim < 1:
            raise GeometryError("dimension must be a positive integer")
        constraints = tuple(constraints)
        for c in constraints:
            if c.dim != dim:
                raise GeometryError(
                    f"constraint dimension {c.dim} does not match set dimension {dim}"
                )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "constraints", constraints)

    @property
    def has_constant_false(self) -> bool:
        return any(c.constant_truth is False for c in self.constraints)

    def contains(self, x: Sequence) -> bool:
        """Exact membership; the empty constraint list is the whole space."""
        x = ratvec(x)
        if len(x) != self.dim:
            raise GeometryError(f"point dimension {len(x)} != set dimension {self.dim}")
        return all(c.satisfied_by(x) for c in self.constraints)

    def is_empty(self) -> bool:
        """Exact emptiness test, supported for dim <= 2.

        Fourier-Motzkin elimination with strict/non-strict bookkeeping:
        dim 2 pairs every lower bound on the second coordinate with every
        upper bound (the combined constraint is strict iff either parent
        is) and hands the result to the dim-1 interval test.  The rationals
        are dense, so a strict gap is inhabited iff it is nonempty.
        """
        rows = [(c.normal, c.offset, c.strict) for c in self.constraints]
        if self.dim == 1:
            return _interval_of_rows(rows).is_empty
        if self.dim == 2:
            return _dim2_is_empty(rows)
        raise UnsupportedDimensionError(
            f"emptiness is only decided for dim <= 2, got {self.dim}"
        )


def _interval_of_rows(rows) -> "Interval1":
    """Solution set of 1-D constraints ``a*x R b`` as an interval."""
    box = Interval1.whole_line()
    for (a,), b, strict in rows:
        if a == 0:
            truth = Fraction(0) < b if strict else Fraction(0) <= b
            if not truth:
                return Interval1.empty()
            continue
        bound = Fraction(b, a)
        if a > 0:
            box = box.intersect(Interval1(NEG_INF, True, ExtReal(bound), strict))
        else:
            box = box.intersect(Interval1(ExtReal(bound), strict, POS_INF, True))
    return box


def _dim2_is_empty(rows) -> bool:
    uppers = []  # x2 R u(x1), u(x1) = s*x1 + t
    lowers = []  # l(x1) R x2
    kept = []  # constraints not involving x2
    for (a1, a2), b, strict in rows:
        if a2 == 0:
            kept.append(((a1,), b, strict))
        elif a2 > 0:
            uppers.append((-Fraction(a1, a2), Fraction(b, a2), strict))
        else:
            lowers.append((-Fraction(a1, a2), Fraction(b, a2), strict))
    for ls, lt, lstrict in lowers:
        for us, ut, ustrict in uppers:
            # l(x1) R x2 R u(x1) is inhabited iff l - u R 0 (strict iff either).
            kept.append(((ls - us,), ut - lt, lstrict or ustrict))
    return _interval_of_rows(kept).is_empty


@dataclass(frozen=True)
class Interval1:
    """Interval over the rationals with independently open endpoints."""

    lo: ExtReal
    lo_open: bool
    hi: ExtReal
    hi_open: bool

    def __post_init__(self):
        # Infinite endpoints are open by definition.
        if not self.lo.is_finite:
            object.__setattr__(self, "lo_open", True)
        if not self.hi.is_finite:
            object.__setattr__(self, "hi_open", True)

    @staticmethod
    def whole_line() -> "Interval1":
        return Interval1(NEG_INF, True, POS_INF, True)

    @staticmethod
    def empty() -> "Interval1":
        return Interval1(ExtReal(1), False, ExtReal(0), False)

    @property
    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def intersect(self, other: "Interval1") -> "Interval1":
        if self.lo > other.lo or (self.lo == other.lo and self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if self.hi < other.hi or (self.hi == other.hi and self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        return Interval1(lo, lo_open, hi, hi_open)

    def contains(self, x: Fraction) -> bool:
        p = ExtReal(Fraction(x))
        if p < self.lo or (p == self.lo and self.lo_open):
            return False
        if p > self.hi or (p == self.hi and self.hi_open):
            return False
        return True


def separate(P: EPolyhedron, x0: Sequence) -> Optional[Vec]:
    """Separating certificate ``a*`` with ``<x - x0, a*> < 0`` for all x in P.

    For halfspace-intersection representations the first constraint
    violated at x0 certifies directly: every x in P satisfies it, x0 does
    not, and subtracting the two bounds leaves a strictly negative gap
    (strict on the P side for strict constraints, strict on the x0 side
    otherwise).  The fallback candidate search the contract allows for is
    therefore never needed, and None is never returned for a genuinely
    exterior point.
    """
    if P.dim > 2:
        raise UnsupportedDimensionError("separation is only supported for dim <= 2")
    x0 = ratvec(x0)
    if len(x0) != P.dim:
        raise GeometryError("point dimension does not match set dimension")
    if P.is_empty():
        raise GeometryError("separation requires a nonempty set")
    if P.contains(x0):
        raise GeometryError("x0 belongs to the set; nothing to separate")
    for c in P.constraints:
        if not c.satisfied_by(x0) and not c.is_constant:
            return c.normal
    return None  # pragma: no cover - unreachable: some non-constant constraint failed


def in_recession_cone(P: EPolyhedron, y: Sequence) -> bool:
    """True iff ``<y, normal> <= 0`` for every constraint.

    For a nonempty intersection of halfspaces this characterizes the
    recession cone exactly: directions with nonpositive products preserve
    every (strict or not) bound, and a positive product eventually walks
    any point across its bound.
    """
    y = ratvec(y)
    if len(y) != P.dim:
        raise GeometryError("direction dimension does not match set dimension")
    return all(dot(c.normal, y) <= 0 for c in P.constraints)


class EnvelopeFn:
    """Lower envelope ``h(x) = inf {a : (x, a) in C}`` of a set in X x R.

    Built by :func:`lower_envelope`; evaluation is exact per fiber with
    -inf for fibers unbounded below and +inf for empty fibers.
    """

    def __init__(self, polyhedron: EPolyhedron):
        self.polyhedron = polyhedron

    def fiber(self, x) -> Interval1:
        """The set ``{a : (x, a) in C}`` as an interval in a."""
        x = Fraction(x)
        rows = []
        for c in self.polyhedron.constraints:
            n1, n2 = c.normal
            # n1*x + n2*a R b  =>  n2*a R b - n1*x
            rows.append(((n2,), c.offset - n1 * x, c.strict))
        return _interval_of_rows(rows)

    def value(self, x) -> ExtReal:
        fib = self.fiber(x)
        if fib.is_empty:
            return POS_INF
        return fib.lo

    def attained(self, x) -> bool:
        """Whether the infimum is a member of the fiber."""
        fib = self.fiber(x)
        return not fib.is_empty and fib.lo.is_finite and not fib.lo_open


def lower_envelope(C: EPolyhedron) -> EnvelopeFn:
    """Envelope of a nonempty C in X x R with (0,1) in its recession cone."""
    if C.dim != 2:
        raise UnsupportedDimensionError(
            "lower envelopes are computed exactly for X of dimension 1 only"
        )
    if C.is_empty():
        raise GeometryError("lower_envelope requires a nonempty set")
    if not in_recession_cone(C, (0, 1)):
        raise GeometryError("lower_envelope requires (0,1) in the recession cone")
    return EnvelopeFn(C)


def is_functionally_representable(C: EPolyhedron):
    """Whether the graph of the lower envelope lies inside C.

    Returns ``(True, None)`` or ``(False, witness_x)`` with a rational x
    where ``(x, h(x))`` escapes C.  Exact: h is a finite max of affine
    pieces, its active set is constant between breakpoints, and the graph
    point escapes exactly where some strict bound is tight at the max, so
    checking every breakpoint and one interior sample per region decides
    the question.  The epigraph comparison of the envelope (equality with
    C) is reported separately by callers; this predicate is the defining
    graph-containment check.
    """
    env = lower_envelope(C)
    lowers = []  # a R s*x + t from constraints with negative a-coefficient
    xdomain = Interval1.whole_line()
    for c in C.constraints:
        n1, n2 = c.normal
        if n2 == 0:
            rows = [((n1,), c.offset, c.strict)]
            xdomain = xdomain.intersect(_interval_of_rows(rows))
        else:
            # (0,1) in rec C forces n2 <= 0, so this is a lower bound on a.
            lowers.append((-Fraction(n1, n2), Fraction(c.offset, n2), c.strict))
    if xdomain.is_empty or not lowers:
        return True, None  # no finite values of h, nothing to contain

    candidates = set()
    for i in range(len(lowers)):
        for j in range(i + 1, len(lowers)):
            s1, t1, _ = lowers[i]
            s2, t2, _ = lowers[j]
            if s1 != s2:
                candidates.add(Fraction(t2 - t1, s1 - s2))
    breakpoints = sorted(b for b in candidates if xdomain.contains(b))

    # One sample per open region between consecutive boundaries, plus the
    # breakpoints themselves and any closed finite domain endpoint.
    bounds: list = [xdomain.lo] + [ExtReal(b) for b in breakpoints] + [xdomain.hi]
    samples = set(breakpoints)
    for end in (xdomain.lo, xdomain.hi):
        if end.is_finite and xdomain.contains(end.value):
            samples.add(end.value)
    for p, q in zip(bounds, bounds[1:]):
        if p.is_finite and q.is_finite:
            mid = Fraction(p.value + q.value, 2)
        elif p.is_finite:
            mid = p.value + 1
        elif q.is_finite:
            mid = q.value - 1
        else:
            mid = Fraction(0)
        if xdomain.contains(mid):
            samples.add(mid)

    for x in sorted(samples):
        hx = max(s * x + t for s, t, _ in lowers)
        if any(strict and s * x + t == hx for s, t, strict in lowers):
            return False, x
    return True, None
