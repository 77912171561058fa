"""Function representations and the infimum value function.

Two carriers (the exact 1-D oracle of the grid tests is tests/oracles.py):

* `SampledFn` -- extended-real values on a finite grid of points, or
  int keys over a scale (an exact table).  Grid conjugation and every
  duality audit treat the grid itself as the space, so off-grid queries
  are errors, not interpolations.
* `PerturbFn` -- a bivariate perturbation function over X x Y, either a
  small expression tree (affine, abs, indicator of an `EPolyhedron`, sum
  and pointwise max/min of at least one term, affine precomposition) or
  an explicit table, sampled over the coordinate columns of its points:
  every table of phi comes from one `PerturbFn.sample` call, and every
  affine form is one `esets.dots` fold in both backends.  The nodes fold
  raw payloads, exact ints over scales they know in the rational backend
  and floats in the float backend (+-inf as floats in both), in the
  order of the pointwise definition: the root's ints are an exact
  table's keys.  Sums use the extended-real conventions, so they
  propagate into every derived object.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple, Union

from econvex.esets import EPolyhedron, dots
from econvex.extreal import BackendMismatchError, ExtReal, NaNError, scalar
from econvex import extreal

__all__ = [
    "Grid",
    "SampledFn",
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

    factors: Optional[Tuple["Grid", "Grid"]] = None  # (X, Y) of a product_grid

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
            if self._index.setdefault(p, i) != i:
                raise ValueError(f"duplicate grid point {p!r}")

    @classmethod
    def uniform(cls, lo, hi, count: int, backend: str = "rational") -> "Grid":
        """Uniform 1-D grid from lo to hi inclusive.  Each point is taken
        exactly, lo + i·(hi - lo)/(count - 1) in Fractions, and rounded
        once to the backend: a float point is the double nearest it."""
        if count < 1:
            raise ValueError("count must be positive")
        if count == 1:
            return cls(1, [(lo,)], backend)
        lo = Fraction(lo)
        step = (Fraction(hi) - lo) / (count - 1)
        return cls(1, [(scalar(lo + i * step, backend),) for i in range(count)], backend)

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
    """Extended-real function known on a grid, one value per point.

    ``keys`` holds one raw key per point, +-inf as floats: for a
    function given by its values, each value's payload; for an exact
    table (``keyed`` with a scale), an int, the value times ``scale``, so
    reductions compare ints; for ``keyed`` with no scale, the payloads as
    given.  ``cell`` gives a key's ExtReal, and ``values`` are built from
    the keys at their first read.  A table with a scale is in the backend
    it is given, any other in that of its first finite key (None with
    none).  ``raw`` is the values' payloads, which the checks read.
    """

    scale: Optional[int] = None  # None: the keys are the payloads

    def __init__(self, grid, values: Sequence[ExtReal]):
        self.values = tuple(values)
        self._set(grid, tuple(v._v for v in self.values))

    @classmethod
    def keyed(cls, grid, keys: Iterable, scale: Optional[int], backend: str) -> "SampledFn":
        """The exact table of keys over scale, its values in backend (that
        of the entries a sweep scaled, or of the table it is read off); for
        scale None, the function whose payloads are the keys."""
        fn = cls.__new__(cls)
        fn._set(grid, tuple(keys))
        if scale is not None:
            fn.scale, fn.backend = scale, backend
        return fn

    def _set(self, grid, keys: tuple) -> None:
        if len(keys) != len(grid):
            raise ValueError("values must align one-to-one with grid points")
        self.grid, self.keys = grid, keys

    @cached_property
    def backend(self) -> Optional[str]:
        finite = (k for k in self.keys if -math.inf < k < math.inf)
        return next(("float" if k.__class__ is float else "rational" for k in finite), None)

    @cached_property
    def values(self) -> Tuple[ExtReal, ...]:
        return tuple(_cells(self.keys, self.scale, self.backend))

    @cached_property
    def cell(self):
        """The table's map from a key to its ExtReal (``_cell_rule``)."""
        return _cell_rule(self.scale, self.backend)

    def raw(self) -> list:
        """Per point the value's payload, +-inf as floats, read off an
        exact table's keys with no ExtReal."""
        back = _over(self.scale, self.backend)
        return [back(k) if k.__class__ is int else k for k in self.keys]

    def value_at(self, point) -> ExtReal:
        return self.cell(self.keys[self.grid.index_of(point)])

    def items(self):
        return zip(self.grid.points, self.values)


def _cell_rule(scale: Optional[int], backend: str):
    """The map from a key over scale to its ExtReal: an int through
    ``_over``, any other key (a float +-inf, or a payload) as it is."""
    back = _over(scale, backend)
    return lambda k: ExtReal(back(k) if k.__class__ is int else k)


def _cells(keys, scale: Optional[int], backend: str) -> list:
    """``_cell_rule`` at each key, inlined: a call per key costs more."""
    back = _over(scale, backend)
    return [ExtReal(back(k) if k.__class__ is int else k) for k in keys]


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


# Every pass over a grid (phi's sampler, the two conjugation sweeps and
# the loader's boundary scan) reads it as ``_prepared`` returns it: cut
# into X x Y, then over one scale D.  A pass hands it each entry of the
# dual points it reads once (``DualGrid.parts``): an lcm, a largest power
# of two and a largest size do not change when an entry repeats, so D and
# the float lift are those of the points.  A product grid is cut on its two
# factors, each dual vector after the x coordinates; any other grid, or a
# plain list of points, is its points times the one point of R^0, whose
# y-parts add nothing, each dual vector whole on X.  When every
# coordinate, slope, alpha and payload the pass reads is exactly a
# ``Fraction``, every list comes back as ints, with D the lcm of all
# their denominators: points and dual vectors times D, scalars (alphas,
# payloads) times D², the scale of <point, dual vector>.  D scales a
# product's dx·|X| + dy·|Y| coordinates, never its |X|·|Y| points.
# Scaling by a positive int keeps every comparison, so a pass on ints
# answers as the ``Fraction`` definition does.
#
# A pass that pairs points with dual vectors (a sweep, either space of
# the scan) lifts floats onto ints too, when no IEEE operation of the
# flat float loop can round.  Every entry must be a finite float; each
# is n/2^k (``float.as_integer_ratio``), D is the largest 2^k, at most
# 2^500 so that every nonzero multiple of 1/D² is a normal double, and
# with P, V and S the scaled coordinates, dual coordinates and scalars,
# B = dim·max|P|·max|V| + max|S| must stay below 2^53.  Then every
# product, partial sum, difference and comparison of the flat loop is an
# exact double, a multiple of 1/D² of at most B units, so the int pass
# gives its gates, maxima, first attaining rows and boundary hits, and a
# value goes back by ``_over`` as an int true division, correctly
# rounded and so exact.  The flat loops fold from int 0, so no term is
# -0.0, nor is 0 / D².  phi's sampler keeps floats as given, since its
# nodes multiply them by coefficients ``_prepared`` never sees.
#
# Otherwise D is None, every list comes back as given, since scaling only
# some lists would change IEEE rounding, and cut flat, since (a + b) - c
# and a + (b - c) round differently too; the arithmetic is that of the
# definition, NaN and -0.0 included.
#
# The sampler reads the cut's columns x-major: each X column repeated |Y|
# times, each Y column tiled |X| times.  Every affine form is one
# ``esets.dots`` fold from its constant over the x, then the y columns.
# A node returns (values, s), one raw payload per point: on int columns
# over D an int equal to the value times s, or a float +-inf; on float
# columns floats (+-inf included) and s None.  Every fold has a term, so
# each row is folded in the one arithmetic of its backend.

_LIFT_D, _LIFT_B = 2 ** 500, 2 ** 53  # the float lift's caps on D and on B


def _over_lcm(values: Sequence[Fraction]) -> Tuple[list, int]:
    """The values as ints over e, the lcm of their denominators."""
    e = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (e // v.denominator) for v in values], e


def _over_power(values: Sequence[float]) -> Tuple[list, Optional[int]]:
    """Finite floats as ints over D, the largest power of two among their
    denominators; D None for any other value or for D past 2^500."""
    if not all(v.__class__ is float and math.isfinite(v) for v in values):
        return [], None
    ratios = [v.as_integer_ratio() for v in values]
    D = max(d for _, d in ratios)
    return ([n * (D // d) for n, d in ratios], D) if D <= _LIFT_D else ([], None)


def _rounds(blocks, scalars) -> bool:
    """Whether B = dim·max|P|·max|V| + max|S| of scaled blocks and scalars
    reaches 2^53, so that the flat float loop may round."""
    def top(values):
        return max(map(abs, values), default=0)
    dim = sum(max(map(len, itertools.chain(*block)), default=0) for block in blocks)
    P = top(c for block in blocks for p in block[0] for c in p)
    V = top(c for block in blocks for vs in block[1:] for v in vs for c in v)
    S = top(c for cs in scalars for c in cs)
    return dim * P * V + S >= _LIFT_B


def _over(scale: Optional[int], backend: str):
    """The map taking an int over scale to its value in the backend:
    ``Fraction(v, scale)``, or ``v / scale``, an int true division,
    correctly rounded and so exact; values as given for scale None."""
    if scale is None:
        return lambda v: v
    return (lambda v: Fraction(v, scale)) if backend == "rational" else (lambda v: v / scale)


def _blocks(grid, duals, factors) -> list:
    """[(X, the x-part of each list of duals), (Y, their y-parts)]: the two
    factors, or without them the points and R^0."""
    if factors is None:
        return [(getattr(grid, "points", grid), *duals), (((),), *([()] * len(vs) for vs in duals))]
    (X, Y), d = factors, factors[0].dim
    return [(X.points, *([v[:d] for v in vs] for vs in duals)),
            (Y.points, *([v[d:] for v in vs] for vs in duals))]


class _Scaled(NamedTuple):
    """Finite values k / scale of a backend, as their ints k."""

    ints: list
    scale: int
    backend: str

    def times(self, scale: int) -> list:
        q, r = divmod(scale, self.scale)
        return [k * scale // self.scale if r else k * q for k in self.ints]


def _prepared(grid, duals=(), scalars=()) -> tuple:
    """(D, [(X, *x-parts of duals), (Y, *y-parts)], scalars): the points of
    grid and the lists of dual vectors and of scalars that a pass reads,
    cut and scaled by the one rule above.  Vectors share one length
    within a block.  A ``_Scaled`` list counts as its values, with no
    Fraction: their denominators' lcm is scale / gcd(scale, *ints)."""
    factors = getattr(grid, "factors", None)
    blocks = _blocks(grid, duals, factors)
    if any(len({len(v) for vs in block for v in vs}) > 1 for block in blocks):
        raise ValueError("dimension mismatch in inner product")
    entries = [c for block in blocks for vs in block for v in vs for c in v]
    entries += [c for cs in scalars if cs.__class__ is not _Scaled for c in cs]
    keyed = [cs for cs in scalars if cs.__class__ is _Scaled]
    exact = all(c.__class__ is Fraction for c in entries)
    ints, D = [], None
    if all(cs.backend == ("rational" if exact else "float") for cs in keyed):
        ints, D = _over_lcm(entries) if exact else _over_power(entries) if duals else ([], None)
    if D is not None and keyed:  # on floats every scale is a power of two: the lcm is the largest
        E = math.lcm(D, *(cs.scale // math.gcd(cs.scale, *cs.ints) for cs in keyed))
        ints = [c * (E // D) for c in ints] if E != D else ints
        D = E if exact or E <= _LIFT_D else None
    if D is not None:
        ints = iter(ints)
        cut = [[[tuple(itertools.islice(ints, len(v))) for v in vs] for vs in block] for block in blocks]
        scaled = [cs.times(D * D) if cs.__class__ is _Scaled else [c * D for c in itertools.islice(ints, len(cs))]
                  for cs in scalars]
        if exact or not _rounds(cut, scaled):
            return D, cut, scaled
    if keyed:
        scalars = [list(map(_over(cs.scale, cs.backend), cs.ints)) if cs.__class__ is _Scaled else cs
                   for cs in scalars]
    return None, blocks if factors is None else _blocks(grid, duals, None), scalars


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
    if n and any(len(cx) != len(xc) or len(cy) != len(yc) for cx, cy, _ in forms):
        raise ValueError("affine form dimensions do not match the point")
    ks, e = _coefficients([c for cx, cy, const in forms for c in (const, *cx, *cy)], d)
    ks, d = iter(ks), 1 if d is None else d
    columns = [*xc, *yc]
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
    """The extended sum of a nonempty row of ints or floats and
    infinities, a left fold (``sum`` turns -0.0 into 0.0 and, from 3.12,
    compensates): -inf absorbs, then a -inf that floats overflow to before
    the first +inf, then +inf."""
    if -math.inf in row:
        return -math.inf
    if math.inf in row:
        row = row[:row.index(math.inf)]
        return -math.inf if row and reduce(operator.add, row) == -math.inf else math.inf
    return reduce(operator.add, row)


def _sample(expr: "Expr", points: Sequence[Point], x_dim: int) -> Tuple[list, Optional[int]]:
    """(keys, scale) of expr at the points, or at a grid's, read as
    ``_prepared`` cuts and scales them (``SampledFn.keyed``).  A product
    is cut on its factors; other points are scaled as their coordinate
    columns, each read as one point of a flat cut."""
    if getattr(points, "factors", None) is None:
        D, ((columns,), _), _ = _prepared(list(zip(*getattr(points, "points", points), strict=True)))
    else:
        D, ((X,), (Y,)), _ = _prepared(points)
        columns = [[v for v in c for _ in Y] for c in zip(*X)] + [c * len(X) for c in zip(*Y)]
    return expr.sample(columns[:x_dim], columns[x_dim:], len(points), D)


class Expr:
    """Node of the perturbation-function expression grammar.  A node
    samples whole columns of points in the arithmetic of the backend."""

    def sample(self, xc, yc, n: int, d: Optional[int]) -> Tuple[list, Optional[int]]:
        """(values, scale) at the n points of the int columns over d, or of
        the float columns (d None): floats, +-inf included, and None."""
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
    """A sum or pointwise max/min of at least one term."""

    terms: Tuple[Expr, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError(f"{type(self).__name__} needs at least one term")

    def sample(self, xc, yc, n, d):
        sampled = [t.sample(xc, yc, n, d) for t in self.terms]
        values, s = ([v for v, _ in sampled], None) if d is None else _common_scale(sampled)
        return [self.fold(row) for row in zip(*values)], s


class Sum(_Fold):
    fold = staticmethod(_sum)


class Max(_Fold):
    fold = staticmethod(max)


class Min(_Fold):
    fold = staticmethod(min)


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

    def sample_keys(self, points: Sequence[Point], backend: str = "rational") -> Tuple[list, Optional[int]]:
        """phi at points of X x Y (x then y coordinates), or at a grid's, as
        the (keys, scale) of ``SampledFn.keyed``; a table-backed phi looks
        up its cells' payloads, which must share one backend.  The nodes
        fold scaled ints in the rational backend and floats in the float
        backend.  Plain points are coerced to the backend, which is a
        class check for points that are already."""
        d = self.x_dim
        if self.table is not None:
            try:
                keys = [self.table[(p[:d], p[d:])]._v for p in points]
            except KeyError as exc:
                raise KeyError(f"{exc.args[0]!r} is not in the table") from None
            if len({k.__class__ is float for k in keys if -math.inf < k < math.inf}) > 1:
                raise BackendMismatchError("cannot compare rational-backed and float-backed values")
            return keys, None
        if backend not in ("rational", "float"):
            raise ValueError(f"unknown backend {backend!r}")
        if not hasattr(points, "points"):  # a grid's points are coerced already
            points = [tuple(scalar(c, backend) for c in p) for p in points]
        try:
            return _sample(self.expr, points, d)
        except NaNError:
            raise NaNError("phi: its float arithmetic overflows to NaN") from None

    def sample(self, points: Sequence[Point], backend: str = "rational") -> list:
        """phi at the points, one ExtReal each (``sample_keys``)."""
        return _cells(*self.sample_keys(points, backend), backend)

    def value(self, x, y, backend: str = "rational") -> ExtReal:
        point = _coerce_point(x, self.x_dim, backend) + _coerce_point(y, self.y_dim, backend)
        return self.sample([point], backend)[0]


def product_grid(x_grid: Grid, y_grid: Grid) -> Grid:
    """Grid over X x Y with concatenated coordinates, x-major order.  It
    keeps its two factors, on which ``_prepared`` cuts it for every
    rational pass.  The factors' points are coerced and distinct, so their
    pairs are too."""
    if x_grid.backend != y_grid.backend:
        raise ValueError("product grids need a common backend")
    pts = tuple(x + y for x, y in itertools.product(x_grid.points, y_grid.points))
    grid = Grid._of(x_grid.dim + y_grid.dim, pts, x_grid.backend)
    grid.factors = (x_grid, y_grid)
    return grid


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
    values = phi.sample(product_grid(x_grid, y_grid), y_grid.backend)
    return SampledFn(y_grid, [extreal.inf(c) for c in columns(values, len(y_grid))])


def restrict_to_zero(phi: PerturbFn, x_grid: Grid, y_grid: Grid) -> SampledFn:
    """The map x -> phi(x, 0); requires the origin on the y-grid."""
    if not y_grid.has_origin:
        raise ValueError("the origin is missing from the y-grid")
    origin = y_grid.origin
    return SampledFn.keyed(x_grid, *phi.sample_keys([x + origin for x in x_grid.points], x_grid.backend),
                           x_grid.backend)


def slice_x(phi: PerturbFn, x, y_grid: Grid) -> SampledFn:
    """The map y -> phi(x, y); the points of its items() below +inf
    realize Y_x on the grid."""
    x = _coerce_point(x, phi.x_dim, y_grid.backend)
    return SampledFn(y_grid, phi.sample([x + y for y in y_grid.points], y_grid.backend))

