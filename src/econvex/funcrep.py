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
  over the coordinate columns of its points: every table of phi comes
  from one `PerturbFn.sample` call, and every affine form is one
  `esets.dots` fold in both backends.  The nodes fold raw payloads, exact
  ints over scales they know in the rational backend and floats in the
  float backend, in the order of the pointwise definition, and the root
  builds one `ExtReal` per point.  Sums use the extended-real
  conventions, so they propagate into every derived object.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from econvex.esets import EPolyhedron, Interval1, dots
from econvex.extreal import NEG_INF, POS_INF, ExtReal, NaNError, fold_sum, scalar
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

    @classmethod
    def _of(cls, dim: int, points: Tuple[Point, ...], backend: str) -> "Grid":
        """The grid of points that are already coerced and pairwise
        distinct; its index is built at the first lookup."""
        grid = cls.__new__(cls)
        grid.dim, grid.backend, grid.points = dim, backend, points
        return grid

    @cached_property
    def _index(self) -> Dict[Point, int]:
        return {p: i for i, p in enumerate(self.points)}

    def index_of(self, point) -> int:
        """The position of point; a KeyError off the grid, also for a
        coordinate (such as +-inf) that the backend cannot hold."""
        try:
            return self._index[_coerce_point(point, self.dim, self.backend)]
        except (KeyError, OverflowError):
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


def _transpose(columns: list, n: int) -> list:
    """The n rows across the columns; n empty rows when there are none."""
    return list(zip(*columns)) if columns else [()] * n


# The sampler reads its n points as coordinate columns: floats as they
# are (d None), or in the rational backend ints over one scale d (a
# coordinate is int / d).  None stands for points of unequal lengths.
# Every affine form is one ``esets.dots`` fold from its constant over the
# x, then the y columns.  A node returns (values, s), one raw payload per
# point: on int columns an int equal to the value times s, or a float
# +-inf; on float columns floats and s None, or the payloads of `ExtReal`s
# and s _EXTREAL below a fold that is empty (the empty Sum is rational 0).

_EXTREAL = 1  # the scale on float columns of values that are ExtReal payloads


def _over_lcm(values: Sequence[Fraction]) -> Tuple[list, int]:
    """The values as ints over e, the lcm of their denominators."""
    e = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (e // v.denominator) for v in values], e


def _coefficients(values: Sequence[Fraction], d: Optional[int]) -> Tuple[list, int]:
    """The values as a node multiplies them into columns over d, with their
    scale: floats over 1 for float columns (d None), else ints over the
    lcm of their denominators."""
    return ([float(v) for v in values], 1) if d is None else _over_lcm(values)


def _fold(columns: Sequence, ks: Sequence, n: int, start) -> list:
    """``esets.dots`` less the columns whose coefficient is an int 0, which
    adds nothing to an int column; a float 0 still folds, since inf·0 is
    NaN."""
    keep = [k.__class__ is float or k != 0 for k in ks]
    return dots(list(itertools.compress(columns, keep)), list(itertools.compress(ks, keep)), n, start)


def _forms(forms: Sequence[AffineForm], xc, yc, n: int, d: Optional[int] = None) -> Tuple[list, int]:
    """(one column of values per affine form, their scale s) at the n points
    of the columns xc, yc.  Float columns (d None) give s = 1 and fold the
    float coefficients, zeros too, so rounding, -0.0 and NaN are those of
    the pointwise definition; int columns over d give s = e·d, e the lcm
    of every denominator of every form."""
    if n and (xc is None or any(len(cx) != len(xc) or len(cy) != len(yc) for cx, cy, _ in forms)):
        raise ValueError("affine form dimensions do not match the point")
    ks, e = _coefficients([c for cx, cy, const in forms for c in (const, *cx, *cy)], d)
    ks, d = iter(ks), 1 if d is None else d
    columns = [] if xc is None else [*xc, *yc]
    out = []
    for cx, cy, _ in forms:
        start, *coefficients = itertools.islice(ks, 1 + len(cx) + len(cy))
        out.append(_fold(columns, coefficients, n, start * d))
    return out, e * d


def _rescaled(values: list, k: int) -> list:
    """Int values times k; infinities as they are."""
    return values if k == 1 else [v * k if v.__class__ is int else v for v in values]


def _common_scale(sampled: list) -> Tuple[list, int]:
    """The (values, scale) pairs brought to the lcm of their scales."""
    s = math.lcm(*(e for _, e in sampled))
    return [_rescaled(v, s // e) for v, e in sampled], s


def _sum(row) -> Union[int, float]:
    """fold_sum over ints or floats and infinities, a left fold (``sum``
    turns -0.0 into 0.0 and, from 3.12, compensates): -inf absorbs, then a
    -inf that floats overflow to before the first +inf, then +inf."""
    if -math.inf in row:
        return -math.inf
    if math.inf in row:
        row = row[:row.index(math.inf)]
        return -math.inf if row and reduce(operator.add, row) == -math.inf else math.inf
    return reduce(operator.add, row) if row else 0


def _split(columns: list, points: Sequence[Point], x_dim: int) -> tuple:
    """The x and the y columns of the points; None for both when the points
    have unequal lengths."""
    if len({len(p) for p in points}) > 1:
        return None, None
    return columns[:x_dim], columns[x_dim:]


def _sample_ints(expr: "Expr", points: Sequence[Point], x_dim: int) -> list:
    """expr at points of Fractions: the coordinates scaled once by the lcm
    of their denominators, and one `Fraction` per finite value at the end."""
    columns = list(zip(*points))
    ints, d = _over_lcm([v for column in columns for v in column])
    xc, yc = _split(rows(ints, len(columns)), points, x_dim)
    values, s = expr.sample(xc, yc, len(points), d)
    return [
        ExtReal(Fraction(v, s)) if v.__class__ is int else POS_INF if v > 0 else NEG_INF
        for v in values
    ]


class Expr:
    """Node of the perturbation-function expression grammar.  A node
    samples whole columns of points in the arithmetic of the backend."""

    def sample(self, xc, yc, n: int, d: Optional[int]) -> Tuple[list, Optional[int]]:
        """(values, scale) at the n points of the int columns over d, or of
        the float columns (d None): floats and None, or `ExtReal` payloads
        and `_EXTREAL`."""
        raise NotImplementedError


@dataclass(frozen=True)
class Affine(Expr):
    form: AffineForm

    @staticmethod
    def of(cx, cy, const=0) -> "Affine":
        return Affine(_form(cx, cy, const))

    def sample(self, xc, yc, n, d):
        (values,), s = _forms((self.form,), xc, yc, n, d)
        if d is None and any(map(math.isnan, values)):
            raise NaNError("NaN has no extended-real meaning")  # before a Max or Min drops it
        return values, None if d is None else s


@dataclass(frozen=True)
class Abs(Expr):
    arg: Expr

    def sample(self, xc, yc, n, d):
        values, s = self.arg.sample(xc, yc, n, d)
        return [abs(v) for v in values], s


@dataclass(frozen=True)
class Indicator(Expr):
    """0 where the affinely mapped point lies in the set, +inf outside.

    ``rows`` holds one affine form per coordinate of the set.  Containment
    uses exact comparisons in the rational backend and raw IEEE
    comparisons in the float backend; never a tolerance.  Each constraint
    is tested only at the points that met the ones before it.
    """

    polyhedron: EPolyhedron
    rows: Tuple[AffineForm, ...]

    @staticmethod
    def of(polyhedron, rows) -> "Indicator":
        return Indicator(polyhedron, tuple(_form(*r) for r in rows))

    def _inside(self, xc, yc, n, d=None) -> set:
        """The indices of the points inside: <normal, mapped> against offset,
        on int columns both over e·s, e clearing the constraint's
        denominators and s the scale of the mapped ints."""
        if len(self.rows) != self.polyhedron.dim:
            raise ValueError("one affine row per polyhedron coordinate required")
        mapped, s = _forms(self.rows, xc, yc, n, d)
        inside = range(n)
        for c in self.polyhedron.constraints:
            if not inside:
                break
            holds = operator.lt if c.strict else operator.le
            (offset, *normal), _ = _coefficients((c.offset, *c.normal), d)
            lhs = _fold([[column[i] for i in inside] for column in mapped], normal, len(inside), 0)
            inside = [i for i, v in zip(inside, lhs) if holds(v, offset * s)]
        return set(inside)

    def sample(self, xc, yc, n, d):
        inside, (zero, s) = self._inside(xc, yc, n, d), (0.0, None) if d is None else (0, 1)
        return [zero if i in inside else math.inf for i in range(n)], s


@dataclass(frozen=True)
class _Fold(Expr):
    terms: Tuple[Expr, ...]

    def sample(self, xc, yc, n, d):
        sampled = [t.sample(xc, yc, n, d) for t in self.terms]
        if d is not None:
            values, s = _common_scale(sampled)
        elif sampled and all(s is None for _, s in sampled):
            values, s = [v for v, _ in sampled], None
        else:  # an empty fold, or floats meeting what one gave: the ExtReal fold decides
            rows = _transpose([v for v, _ in sampled], n)
            return [self.fold(map(ExtReal, row))._v for row in rows], _EXTREAL
        return [self.raw_fold(row) for row in _transpose(values, n)], s


class Sum(_Fold):
    fold, raw_fold = staticmethod(fold_sum), staticmethod(_sum)


class Max(_Fold):
    fold, raw_fold = staticmethod(extreal.sup), staticmethod(lambda row: max(row, default=-math.inf))


class Min(_Fold):
    fold, raw_fold = staticmethod(extreal.inf), staticmethod(lambda row: min(row, default=math.inf))


@dataclass(frozen=True)
class Precompose(Expr):
    """Evaluate ``inner`` at affine images of (x, y)."""

    inner: Expr
    x_rows: Tuple[AffineForm, ...]
    y_rows: Tuple[AffineForm, ...]

    def sample(self, xc, yc, n, d):
        images, s = _forms(self.x_rows + self.y_rows, xc, yc, n, d)
        k = len(self.x_rows)
        return self.inner.sample(images[:k], images[k:], n, None if d is None else s)


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
        y coordinates), one value each; a table-backed phi looks them up.
        The backend picks the arithmetic of the nodes: scaled ints for
        rationals, the float fold for floats."""
        d = self.x_dim
        if self.table is not None:
            try:
                return [self.table[(p[:d], p[d:])] for p in points]
            except KeyError as exc:
                raise KeyError(f"{exc.args[0]!r} is not in the table") from None
        if backend == "rational":
            return _sample_ints(self.expr, points, d)
        if backend == "float":
            try:
                values, _ = self.expr.sample(*_split(list(zip(*points)), points, d), len(points), None)
            except NaNError:
                raise NaNError("phi: its float arithmetic overflows to NaN") from None
            return [ExtReal(v) if -math.inf < v < math.inf else POS_INF if v > 0 else NEG_INF for v in values]
        raise ValueError(f"unknown backend {backend!r}")

    def value(self, x, y, backend: str = "rational") -> ExtReal:
        point = _coerce_point(x, self.x_dim, backend) + _coerce_point(y, self.y_dim, backend)
        return self.sample([point], backend)[0]


def product_grid(x_grid: Grid, y_grid: Grid) -> Grid:
    """Grid over X x Y with concatenated coordinates, x-major order.  Only
    :func:`rows` and :func:`columns` read a table over it by that order.
    The factors' points are coerced and distinct, so their pairs are too."""
    if x_grid.backend != y_grid.backend:
        raise ValueError("product grids need a common backend")
    pts = tuple(x + y for x, y in itertools.product(x_grid.points, y_grid.points))
    return Grid._of(x_grid.dim + y_grid.dim, pts, x_grid.backend)


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
