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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple, Union

from econvex import extreal
from econvex.conjugation import DualGrid, DualPoint, coupling_c, tensor_dual_grid
from econvex.esets import Interval1
from econvex.extreal import NEG_INF, POS_INF, ExtReal
from econvex.funcrep import Grid, SampledFn


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
