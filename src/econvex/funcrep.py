"""Function representations and the infimum value function.

Three carriers:

* `SampledFn` -- extended-real values on a finite grid of points.  Grid
  conjugation and every duality audit treat the grid itself as the space,
  so off-grid queries are errors, not interpolations.
* `PwAffine1` -- exact 1-D piecewise-affine functions over the rationals,
  with per-piece open/closed endpoints and infinite constant pieces.
* `PerturbFn` -- a bivariate perturbation function over X x Y, either a
  small expression tree (affine, abs, indicator of an `EPolyhedron`, sum,
  pointwise max/min, affine precomposition) or an explicit table, sampled
  a column of points at a time: every table of phi comes from one
  `PerturbFn.sample` call.  Sums use the extended-real conventions, so
  they propagate into every derived object.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from econvex.esets import EPolyhedron, Interval1
from econvex.extreal import NEG_INF, POS_INF, ExtReal, fold_sum, scalar
from econvex import extreal

__all__ = [
    "Grid",
    "SampledFn",
    "PwAffine1",
    "Expr",
    "Affine",
    "Abs",
    "Indicator",
    "Sum",
    "Max",
    "Min",
    "Precompose",
    "PerturbFn",
    "product_grid",
    "rows",
    "columns",
    "infimum_value_function",
    "restrict_to_zero",
    "slice_x",
    "materialize",
]

Point = Tuple  # tuple of scalars, one per coordinate


def _coerce_point(p, dim: int, backend: str) -> Point:
    if not isinstance(p, (tuple, list)):
        p = (p,)
    if len(p) != dim:
        raise ValueError(f"point {p!r} does not have dimension {dim}")
    return tuple(scalar(v, backend) for v in p)


class Grid:
    """Finite ordered list of pairwise-distinct points in a fixed dimension."""

    def __init__(self, dim: int, points: Iterable, backend: str = "rational"):
        if dim < 1:
            raise ValueError("grid dimension must be positive")
        self.dim = dim
        self.backend = backend
        self.points: Tuple[Point, ...] = tuple(
            _coerce_point(p, dim, backend) for p in points
        )
        self._index: Dict[Point, int] = {}
        for i, p in enumerate(self.points):
            if p in self._index:
                raise ValueError(f"duplicate grid point {p!r}")
            self._index[p] = i

    @classmethod
    def uniform(cls, lo, hi, count: int, backend: str = "rational") -> "Grid":
        """Uniform 1-D grid from lo to hi inclusive."""
        if count < 1:
            raise ValueError("count must be positive")
        if count == 1:
            return cls(1, [(lo,)], backend)
        if backend == "rational":
            lo, hi = Fraction(lo), Fraction(hi)
            step = Fraction(hi - lo, count - 1)
            pts = [(lo + i * step,) for i in range(count)]
        else:
            lo, hi = float(lo), float(hi)
            pts = [(lo + i * (hi - lo) / (count - 1),) for i in range(count)]
        return cls(1, pts, backend)

    @property
    def origin(self) -> Point:
        return (scalar(0, self.backend),) * self.dim

    @property
    def has_origin(self) -> bool:
        return self.origin in self._index

    def index_of(self, point) -> int:
        p = _coerce_point(point, self.dim, self.backend)
        try:
            return self._index[p]
        except KeyError:
            raise KeyError(f"point {point!r} is not on the grid") from None

    def __contains__(self, point) -> bool:
        try:
            self.index_of(point)
            return True
        except (KeyError, ValueError):
            return False

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


class SampledFn:
    """Extended-real function known on a grid, one value per point."""

    def __init__(self, grid, values: Sequence[ExtReal]):
        values = tuple(values)
        if len(values) != len(grid.points):
            raise ValueError("values must align one-to-one with grid points")
        self.grid = grid
        self.values = values

    def value_at(self, point) -> ExtReal:
        return self.values[self.grid.index_of(point)]

    def items(self):
        return zip(self.grid.points, self.values)

    def dom_points(self) -> Tuple[Point, ...]:
        """Points where the function is below +inf."""
        return tuple(p for p, v in self.items() if v < POS_INF)

    @property
    def is_proper(self) -> bool:
        return all(v > NEG_INF for v in self.values) and bool(self.dom_points())


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


# ---------------------------------------------------------------------------
# Perturbation functions
# ---------------------------------------------------------------------------

AffineForm = Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...], Fraction]  # (cx, cy, const)


def _form(cx, cy, const=0) -> AffineForm:
    return (
        tuple(Fraction(c) for c in cx),
        tuple(Fraction(c) for c in cy),
        Fraction(const),
    )


def _affine(form: AffineForm, xs: Sequence[Point], ys: Sequence[Point], backend: str) -> list:
    """The form at each pair of the columns xs, ys: a left fold from the
    constant adding c * v over x, then y.  Zero coefficients are folded too,
    so float rounding, -0.0 and inf * 0 = NaN are those of the definition."""
    cx, cy = ([scalar(c, backend) for c in cs] for cs in form[:2])
    const = scalar(form[2], backend)
    out = []
    for x, y in zip(xs, ys):
        if len(cx) != len(x) or len(cy) != len(y):
            raise ValueError("affine form dimensions do not match the point")
        total = const
        for c, v in zip(cx, x):
            total += c * v
        for c, v in zip(cy, y):
            total += c * v
        out.append(total)
    return out


def _transpose(columns: list, n: int) -> list:
    """The n rows across the columns; n empty rows when there are none."""
    return list(zip(*columns)) if columns else [()] * n


def _image(forms: Tuple[AffineForm, ...], xs, ys, backend: str) -> list:
    """The point (r(x, y) for r in forms) at each pair of the columns."""
    return _transpose([_affine(r, xs, ys, backend) for r in forms], len(xs))


class Expr:
    """Node of the perturbation-function expression grammar."""

    def sample(self, xs: Sequence[Point], ys: Sequence[Point], backend: str) -> list:
        """One value per pair (xs[i], ys[i]) of the parallel columns."""
        raise NotImplementedError


@dataclass(frozen=True)
class Affine(Expr):
    form: AffineForm

    @staticmethod
    def of(cx, cy, const=0) -> "Affine":
        return Affine(_form(cx, cy, const))

    def sample(self, xs, ys, backend):
        return [ExtReal(v) for v in _affine(self.form, xs, ys, backend)]


@dataclass(frozen=True)
class Abs(Expr):
    arg: Expr

    def sample(self, xs, ys, backend):
        values = self.arg.sample(xs, ys, backend)
        return [ExtReal(abs(v.value)) if v.is_finite else POS_INF for v in values]


@dataclass(frozen=True)
class Indicator(Expr):
    """0 where the affinely mapped point lies in the set, +inf outside.

    ``rows`` holds one affine form per coordinate of the set.  Containment
    uses exact comparisons in the rational backend and raw IEEE
    comparisons in the float backend; never a tolerance.
    """

    polyhedron: EPolyhedron
    rows: Tuple[AffineForm, ...]

    @staticmethod
    def of(polyhedron, rows) -> "Indicator":
        return Indicator(polyhedron, tuple(_form(*r) for r in rows))

    def sample(self, xs, ys, backend):
        if len(self.rows) != self.polyhedron.dim:
            raise ValueError("one affine row per polyhedron coordinate required")
        mapped = _image(self.rows, xs, ys, backend)
        inside, no_y = range(len(mapped)), [()] * len(mapped)
        for c in self.polyhedron.constraints:
            if not inside:
                break
            holds, rhs = operator.lt if c.strict else operator.le, scalar(c.offset, backend)
            lhs = _affine((c.normal, (), 0), [mapped[i] for i in inside], no_y, backend)
            inside = [i for i, v in zip(inside, lhs) if holds(v, rhs)]
        zero, inside = ExtReal(scalar(0, backend)), set(inside)
        return [zero if i in inside else POS_INF for i in range(len(mapped))]


@dataclass(frozen=True)
class _Fold(Expr):
    terms: Tuple[Expr, ...]

    def sample(self, xs, ys, backend):
        values = [t.sample(xs, ys, backend) for t in self.terms]
        return [self.fold(v) for v in _transpose(values, len(xs))]


class Sum(_Fold):
    fold = staticmethod(fold_sum)


class Max(_Fold):
    fold = staticmethod(extreal.sup)


class Min(_Fold):
    fold = staticmethod(extreal.inf)


@dataclass(frozen=True)
class Precompose(Expr):
    """Evaluate ``inner`` at affine images of (x, y)."""

    inner: Expr
    x_rows: Tuple[AffineForm, ...]
    y_rows: Tuple[AffineForm, ...]

    def sample(self, xs, ys, backend):
        return self.inner.sample(
            _image(self.x_rows, xs, ys, backend), _image(self.y_rows, xs, ys, backend), backend
        )


class PerturbFn:
    """Bivariate perturbation function, expression- or table-backed."""

    def __init__(
        self,
        x_dim: int,
        y_dim: int,
        expr: Optional[Expr] = None,
        table: Optional[Dict[Tuple[Point, Point], ExtReal]] = None,
    ):
        if (expr is None) == (table is None):
            raise ValueError("exactly one of expr or table must be given")
        self.x_dim = x_dim
        self.y_dim = y_dim
        self.expr = expr
        self.table = table

    def sample(self, points: Sequence[Point], backend: str = "rational") -> list:
        """phi at points of X x Y stored as grids store them (coerced, x then
        y coordinates), one value each; a table-backed phi looks them up."""
        d = self.x_dim
        if self.expr is not None:
            return self.expr.sample([p[:d] for p in points], [p[d:] for p in points], backend)
        try:
            return [self.table[(p[:d], p[d:])] for p in points]
        except KeyError as exc:
            raise KeyError(f"{exc.args[0]!r} is not in the table") from None

    def value(self, x, y, backend: str = "rational") -> ExtReal:
        point = _coerce_point(x, self.x_dim, backend) + _coerce_point(y, self.y_dim, backend)
        return self.sample([point], backend)[0]


def product_grid(x_grid: Grid, y_grid: Grid) -> Grid:
    """Grid over X x Y with concatenated coordinates, x-major order.  Only
    :func:`rows` and :func:`columns` read a table over it by that order."""
    if x_grid.backend != y_grid.backend:
        raise ValueError("product grids need a common backend")
    pts = [x + y for x, y in itertools.product(x_grid.points, y_grid.points)]
    return Grid(x_grid.dim + y_grid.dim, pts, x_grid.backend)


def rows(values: Sequence, n: int) -> list:
    """The n rows of an x-major table over a product: row i holds the
    cells of the i-th x, in the order of the second grid."""
    size = len(values) // n if n else 0
    return [values[i * size:(i + 1) * size] for i in range(n)]


def columns(values: Sequence, n: int) -> list:
    """The n columns of an x-major table over a product: column j holds
    the cells of the j-th point of the second grid, in x-grid order."""
    return [values[j::n] for j in range(n)]


def infimum_value_function(phi: PerturbFn, x_grid: Grid, y_grid: Grid) -> SampledFn:
    """p(y) = inf over the x-grid of phi(x, y)."""
    values = phi.sample(product_grid(x_grid, y_grid).points, y_grid.backend)
    return SampledFn(y_grid, [extreal.inf(c) for c in columns(values, len(y_grid))])


def restrict_to_zero(phi: PerturbFn, x_grid: Grid, y_grid: Grid) -> SampledFn:
    """The map x -> phi(x, 0); requires the origin on the y-grid."""
    if not y_grid.has_origin:
        raise ValueError("the origin is missing from the y-grid")
    origin = y_grid.origin
    return SampledFn(x_grid, phi.sample([x + origin for x in x_grid.points], x_grid.backend))


def slice_x(phi: PerturbFn, x, y_grid: Grid) -> SampledFn:
    """The map y -> phi(x, y); its dom_points() realize Y_x on the grid."""
    x = _coerce_point(x, phi.x_dim, y_grid.backend)
    return SampledFn(y_grid, phi.sample([x + y for y in y_grid.points], y_grid.backend))


def materialize(phi: PerturbFn, x_grid: Grid, y_grid: Grid) -> PerturbFn:
    """Tabulate an expression-backed phi over the grid product."""
    points, d = product_grid(x_grid, y_grid).points, phi.x_dim
    table = {(p[:d], p[d:]): v for p, v in zip(points, phi.sample(points, x_grid.backend))}
    return PerturbFn(phi.x_dim, phi.y_dim, table=table)
