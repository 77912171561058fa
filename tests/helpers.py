"""Shared builders for duality/subdifferential/lagrangian tests."""

import copy
import dataclasses
import importlib
import json
import math
import random
import sys
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

from hypothesis import strategies as st

from econvex.conjugation import DualGrid, DualPoint, _split_dom
from econvex.esets import EPolyhedron, Halfspace
from econvex.duality import PerturbationProblem
from econvex.extreal import NEG_INF, POS_INF, ExtReal, fold_sum, scalar
from econvex.funcrep import (
    Abs,
    Affine,
    Grid,
    Indicator,
    Max,
    Min,
    PerturbFn,
    Precompose,
    SampledFn,
    Sum,
)
from econvex.subdifferential import conjugate_value
from oracles import prime_conjugate_value

from econvex import catalog, extreal, funcrep, problemio


QUARTERS = st.integers(-12, 12).map(lambda k: Fraction(k, 4))

# Thirds, sevenths and powers of two up to 2**40, with small numerators
# (which still meet the integers now and then) or numerators up to
# 10**12: one such scalar in a sweep makes the lcm of its denominators
# and its scaled ints large.
WIDE_FRACTIONS = st.builds(
    Fraction,
    st.integers(-4, 4) | st.integers(-10**12, 10**12),
    st.sampled_from([3, 7, 2, 2**5, 2**17, 2**40]),
)


def drawn_from(values, backend):
    """Draws from values; rational draws also take wide fractions."""
    if backend == "rational":
        return st.sampled_from(values) | WIDE_FRACTIONS
    return st.sampled_from(values)


@st.composite
def ext_values(draw, n, backend, finite=QUARTERS):
    """n extended reals: finite draws of ``finite`` (quarters unless
    given), +inf and -inf; one draw in five makes every value +inf (an
    empty domain).  Quarters are dyadic, so float sums and differences of
    a few of them are exact."""
    if draw(st.integers(0, 4)) == 4:
        return [POS_INF] * n
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(["finite"] * 6 + ["+inf", "+inf", "-inf"]))
        if kind == "finite":
            out.append(ExtReal(scalar(draw(finite), backend)))
        else:
            out.append(POS_INF if kind == "+inf" else NEG_INF)
    return out


def plain_scalar(draw, c: Fraction):
    """c as an int (rounded) or as a float: a scalar that is not exactly a
    Fraction, which sends a sweep off the integer path."""
    return draw(st.sampled_from([round(c), float(c)]))


def with_plain_scalar(draw, w: DualPoint, fields=("xstar", "ustar", "alpha")) -> DualPoint:
    """w with one coordinate of x* or u*, or alpha, made a plain scalar."""
    field = draw(st.sampled_from(fields))
    if field == "alpha":
        return dataclasses.replace(w, alpha=plain_scalar(draw, w.alpha))
    vec = list(getattr(w, field))
    i = draw(st.integers(0, len(vec) - 1))
    vec[i] = plain_scalar(draw, vec[i])
    return dataclasses.replace(w, **{field: tuple(vec)})


@contextmanager
def scaling_log():
    """A list recording, per call of ``funcrep._prepared`` inside the
    block, whether it returned the one scale D of a pass on ints (True)
    or None for lists used as given (False).  Every kernel sweep, each of
    the loader's two boundary scans and each sample of phi asks once, so
    a pass that ran unscaled leaves exactly one False and a scaled pass
    one True."""
    log = []
    real = funcrep._prepared

    def prepared(*args):
        out = real(*args)
        log.append(out[0] is not None)
        return out

    with mock.patch.object(funcrep, "_prepared", prepared):
        yield log


@contextmanager
def lcm_log():
    """A list of (site, n) per call of ``funcrep._over_lcm`` inside the
    block: n is the length of the list it scales, and site the function
    that asked, ``_coefficients`` in funcrep, or the sampler, sweep or
    scan that called ``funcrep._prepared``."""
    log, real = [], funcrep._over_lcm

    def over_lcm(values):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_prepared":
            caller = caller.f_back
        log.append((caller.f_code.co_name, len(values)))
        return real(values)

    with mock.patch.object(funcrep, "_over_lcm", over_lcm):
        yield log


def reference_c_conjugate(f, w_grid):
    """f^c by the definition: every dual point against every grid point."""
    return SampledFn(w_grid, [conjugate_value(f, w) for w in w_grid.points])


def reference_cprime_conjugate(g, x_grid):
    """g^{c'} by the definition: every grid point against every dual point."""
    return SampledFn(x_grid, [prime_conjugate_value(g, x) for x in x_grid.points])


def _numbers(value):
    """The numbers a term was given: tuples, lists, sets and dual points
    are opened, and tags (strings) and None (+inf) are skipped."""
    if value is None or isinstance(value, str):
        return
    if isinstance(value, (tuple, list, set, frozenset)):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, DualPoint):
        yield from _numbers((value.xstar, value.ustar, value.alpha))
    else:
        yield value


@contextmanager
def scale_log(module_name, *terms):
    """Two lists for the block: per ``_check_ints`` call made through the
    module ``econvex.<module_name>``, whether it gave a scale; and per call
    of each term (``"module.function"``), whether it was given ints, and
    None, only."""
    module = importlib.import_module(f"econvex.{module_name}")
    scales, paths, real_ints = [], [], module._check_ints

    def check_ints(*args):
        out = real_ints(*args)
        scales.append(out[0] is not None)
        return out

    def term(real):
        def counted(*args):
            paths.append(all(c.__class__ is int for c in _numbers(args)))
            return real(*args)
        return counted

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(module, "_check_ints", check_ints))
        for qualified in terms:
            owner, attr = qualified.split(".")
            owner = importlib.import_module(f"econvex.{owner}")
            stack.enter_context(mock.patch.object(owner, attr, term(getattr(owner, attr))))
        yield scales, paths


@contextmanager
def route_log(check, *terms):
    """A list recording, per call of ``check`` (``"module.function"`` of
    econvex) made through its module inside the block, the route its
    terms took: True when its one ``_check_ints`` call gave a scale and
    every call of each term (``"module.function"``) was given ints, and
    None, only; False when that call gave no scale, so the check took the
    values as given.  A check that asked for a scale more or less than
    once, or scaled and still gave a term a Fraction or a float, records
    None."""
    module_name, name = check.split(".")
    module = importlib.import_module(f"econvex.{module_name}")
    log, real_check = [], getattr(module, name)
    with scale_log(module_name, *terms) as (scales, paths):
        def audited(*args):
            del scales[:], paths[:]
            out = real_check(*args)
            if scales == [False]:
                log.append(False)
            else:
                log.append(True if scales == [True] and all(paths) else None)
            return out

        with mock.patch.object(module, name, audited):
            yield log


@contextmanager
def built_extreals():
    """A list of the payload of every ExtReal the constructor builds inside
    the block, in order."""
    built, real = [], ExtReal.__init__

    def init(self, value):
        built.append(value)
        real(self, value)

    with mock.patch.object(ExtReal, "__init__", init):
        yield built


CATALOG_PROBLEMS = [n for n in catalog.names() if catalog.entry(n)["kind"] == "problem"]


def dom_rows(f):
    """The (point, payload) rows of dom f (``_split_dom``), or None when
    f's conjugate is a constant."""
    cells, payloads = _split_dom(f)
    return None if cells is None else [(f.grid.points[k], v) for k, v in zip(cells, payloads)]


def coincidence_rows(scan):
    """The boundary scan's rows (``problemio.boundary_coincidences``)
    expanded to one (space, grid point, dual point) row per hit, in order."""
    return [(space, p, w_grid[i]) for space, w_grid, i, hits in scan for p in hits]


def catalog_problem(name):
    return catalog.load(name).build()


def float_twin(name):
    """The catalog problem with ``"backend": "float"``, loaded from its JSON."""
    doc = dict(catalog.entry(name), backend="float")
    return problemio.loads(json.dumps(doc)).build()


# The catalog problems and thirds, whose grids, slopes and alphas step by
# 1/3: its float twin is the one whose passes stay on the floats as given.
LIFT_PROBLEMS = CATALOG_PROBLEMS + ["thirds"]


def data_problem(name, backend="rational"):
    """The problem file data/<name>.json, in the backend."""
    path = Path(__file__).parent / "data" / f"{name}.json"
    doc = dict(json.loads(path.read_text(encoding="utf-8")), backend=backend)
    return problemio.loads(json.dumps(doc)).build()


def twin(name, backend):
    """A problem of LIFT_PROBLEMS in the backend."""
    if name != "thirds":
        return catalog_problem(name) if backend == "rational" else float_twin(name)
    return data_problem(name, backend)


def lifted(name, backend):
    """Whether every sweep and scan of a LIFT_PROBLEMS twin runs on ints:
    the rational ones, and the float twins whose entries are dyadic."""
    return backend == "rational" or name != "thirds"


def certified(points, duals=(), scalars=()):
    """Whether a float pass over the points, the lists of dual vectors and
    the lists of scalars may run on ints, by the definition in Fractions:
    every entry a finite float, D the largest denominator of an entry,
    D <= 2**500, and dim·max|p|·max|v|·D² + max|s|·D² < 2**53."""
    coordinates = [c for p in points for c in p]
    vectors = [c for vs in duals for v in vs for c in v]
    plain = [c for cs in scalars for c in cs]
    entries = coordinates + vectors + plain
    if not all(c.__class__ is float and math.isfinite(c) for c in entries):
        return False
    D = max(Fraction(c).denominator for c in entries)

    def top(values):
        return max((abs(Fraction(c)) for c in values), default=0)
    dim = max((len(p) for p in points), default=0)
    return D <= 2**500 and (dim * top(coordinates) * top(vectors) + top(plain)) * D * D < 2**53


@contextmanager
def unlifted():
    """Inside the block every float pass runs on the values as given, as
    when the certificate refuses it."""
    with mock.patch.object(funcrep, "_over_power", lambda values: ([], None)):
        yield


def fenchel_abs_duality_grid(n):
    """fenchel_abs on n-point x and y grids with x* in -4..4, u* in
    {-1, 0, 1}, y* in {-1, 0, 1}, v* = 0 and alpha = 1: 81 paired dual
    points that share 3 gates."""
    doc = copy.deepcopy(catalog.entry("fenchel_abs"))
    doc["grids"].update(
        x={"lo": "-5", "hi": "5", "count": n},
        y={"lo": "-5", "hi": "5", "count": n},
        xstar=[str(v) for v in range(-4, 5)],
        ustar=["-1", "0", "1"],
        ystar=["-1", "0", "1"],
        vstar=["0"],
        alpha=["1"],
    )
    return doc


def fenchel_abs_wide_grid(nx, ny):
    """fenchel_abs on an nx-point x grid and an ny-point y grid with the
    wide Y side of the Lagrangian benchmark: x* = u* = 0, y* in -4..4,
    v* in {-1, 0, 1} and alpha in {1, 2}, 54 dual points."""
    doc = copy.deepcopy(catalog.entry("fenchel_abs"))
    doc["grids"].update(
        x={"lo": "-5", "hi": "5", "count": nx},
        y={"lo": "-5", "hi": "5", "count": ny},
        xstar=["0"],
        ustar=["0"],
        ystar=[str(v) for v in range(-4, 5)],
        vstar=["-1", "0", "1"],
        alpha=["1", "2"],
    )
    return doc


def abs_pair_problem() -> PerturbationProblem:
    """phi(x, y) = |x| + |x + y|: every slice is finite piecewise-affine
    with slopes in {-1, 0, 1}, so the Y-side dual grid below recovers all
    slices exactly and the saddle-point equivalence has its hypothesis."""
    from econvex.conjugation import pair_tensor_dual_grid, tensor_dual_grid

    expr = Sum((Abs(Affine.of((1,), (0,))), Abs(Affine.of((1,), (1,)))))
    phi = PerturbFn(1, 1, expr=expr)
    x_grid = Grid.uniform(-4, 4, 9)
    y_grid = Grid.uniform(-4, 4, 9)
    dual_y = tensor_dual_grid([(-1,), (0,), (1,)], [(0,)], [1])
    pairs = pair_tensor_dual_grid(
        [(-1,), (0,), (1,)], [(-1,), (0,), (1,)], [(0,)], [(0,)], [1]
    )
    return PerturbationProblem(phi, x_grid, y_grid, dual_y, pairs, name="abs_pair")


def random_problem(
    rng: random.Random,
    backend: str = "float",
    max_x: int = 9,
    max_y: int = 9,
    max_dual: int = 12,
    max_pairs: int = 12,
    neg_inf_rate: float = 0.02,
) -> PerturbationProblem:
    """Random table-backed instance; grids are small, values include
    infinities so the convention arithmetic is exercised end to end."""

    nx = rng.randint(2, max_x)
    ny = rng.randint(2, max_y)
    xs = rng.sample(range(-50, 51), nx)
    ys = [0] + rng.sample([v for v in range(-50, 51) if v != 0], ny - 1)
    x_grid = Grid(1, [(scalar(v, backend),) for v in xs], backend)
    y_grid = Grid(1, [(scalar(v, backend),) for v in ys], backend)

    def cell():
        u = rng.random()
        if u < 0.12:
            return POS_INF
        if u < 0.12 + neg_inf_rate:
            return NEG_INF
        return ExtReal(scalar(Fraction(rng.randint(-20, 20), 4), backend))

    table = {
        (x, y): cell() for x in x_grid.points for y in y_grid.points
    }
    phi = PerturbFn(1, 1, table=table)

    seen = set()
    duals = []
    while len(duals) < rng.randint(1, max_dual):
        w = (rng.randint(-3, 3), rng.randint(-2, 2), rng.choice([1, 2, 3]))
        if w not in seen:
            seen.add(w)
            duals.append(DualPoint.of((w[0],), (w[1],), w[2], backend))
    dual_y = DualGrid(duals)

    seen = set()
    pairs = []
    while len(pairs) < rng.randint(0, max_pairs):
        p = (
            rng.randint(-3, 3),
            rng.randint(-3, 3),
            rng.randint(-2, 2),
            rng.randint(-2, 2),
            rng.choice([-1, 1, 2, 3]),
        )
        if p not in seen:
            seen.add(p)
            pairs.append(DualPoint.of((p[0], p[1]), (p[2], p[3]), p[4], backend))
    full = DualGrid(pairs)
    return PerturbationProblem(phi, x_grid, y_grid, dual_y, full, name="random")


# ---------------------------------------------------------------------------
# Reference ExtReal
# ---------------------------------------------------------------------------


def _reference_extreal():
    """The ExtReal class, its two infinities and fmt as they were before
    the operations dispatched on exact payload classes, kept verbatim as
    the oracle of the differential tests: every method tests payloads with
    ``isinstance`` and builds every result through the constructor."""
    import math

    from econvex.extreal import BackendMismatchError, NaNError, Scalar, _digits

    class ExtReal:
        """An element of the extended real line.

        Immutable.  ``_v`` is a `Fraction` or `float` for finite values and
        ``math.inf`` / ``-math.inf`` for the two infinities; a finite value
        never stores a non-finite payload.
        """

        __slots__ = ("_v",)

        def __init__(self, value: Scalar):
            if isinstance(value, bool):
                raise TypeError("bool is not a scalar payload")
            if isinstance(value, int):
                value = Fraction(value)
            elif isinstance(value, float):
                if math.isnan(value):
                    raise NaNError("NaN has no extended-real meaning")
            elif not isinstance(value, Fraction):
                raise TypeError(f"unsupported payload type {type(value).__name__}")
            object.__setattr__(self, "_v", value)

        def __setattr__(self, name, value):  # pragma: no cover - immutability guard
            raise AttributeError("ExtReal is immutable")

        # -- classification -------------------------------------------------

        @property
        def is_pos_inf(self) -> bool:
            return isinstance(self._v, float) and self._v == math.inf

        @property
        def is_neg_inf(self) -> bool:
            return isinstance(self._v, float) and self._v == -math.inf

        @property
        def is_finite(self) -> bool:
            return not (isinstance(self._v, float) and math.isinf(self._v))

        @property
        def backend(self) -> str | None:
            """``"rational"`` or ``"float"`` for finite values, None for infinities."""
            if not self.is_finite:
                return None
            return "rational" if isinstance(self._v, Fraction) else "float"

        @property
        def value(self) -> Scalar:
            """The finite payload; raises on infinities."""
            if not self.is_finite:
                raise ValueError("infinite ExtReal has no finite payload")
            return self._v

        # -- order -----------------------------------------------------------

        def _check_comparable(self, other: "ExtReal") -> None:
            if (
                self.is_finite
                and other.is_finite
                and isinstance(self._v, Fraction) != isinstance(other._v, Fraction)
            ):
                raise BackendMismatchError(
                    "cannot compare rational-backed and float-backed values"
                )

        def __eq__(self, other: object) -> bool:
            if not isinstance(other, ExtReal):
                return NotImplemented
            if self.is_finite != other.is_finite:
                return False
            if not self.is_finite:
                return self._v == other._v
            self._check_comparable(other)
            return self._v == other._v

        def __lt__(self, other: "ExtReal") -> bool:
            if not isinstance(other, ExtReal):
                return NotImplemented
            if self.is_finite and other.is_finite:
                self._check_comparable(other)
            # float infinities compare correctly against Fraction payloads.
            return self._v < other._v

        def __le__(self, other: "ExtReal") -> bool:
            return self == other or self < other

        def __gt__(self, other: "ExtReal") -> bool:
            return not self <= other

        def __ge__(self, other: "ExtReal") -> bool:
            return not self < other

        def __hash__(self) -> int:
            return hash(self._v)

        # -- arithmetic --------------------------------------------------------

        def __neg__(self) -> "ExtReal":
            if self.is_pos_inf:
                return NEG_INF
            if self.is_neg_inf:
                return POS_INF
            return ExtReal(-self._v)

        def __add__(self, other: "ExtReal") -> "ExtReal":
            if not isinstance(other, ExtReal):
                return NotImplemented
            if self.is_finite and other.is_finite:
                self._check_comparable(other)
                return ExtReal(self._v + other._v)
            # At least one infinity: opposite signs collapse to -inf.
            if self.is_pos_inf:
                return NEG_INF if other.is_neg_inf else POS_INF
            if self.is_neg_inf:
                return NEG_INF
            return other + self

        def __sub__(self, other: "ExtReal") -> "ExtReal":
            if not isinstance(other, ExtReal):
                return NotImplemented
            return self + (-other)

        # -- rendering ---------------------------------------------------------

        def __repr__(self) -> str:
            return f"ExtReal({fmt(self)})"

        def __str__(self) -> str:
            return fmt(self)


    POS_INF = ExtReal.__new__(ExtReal)
    object.__setattr__(POS_INF, "_v", math.inf)
    NEG_INF = ExtReal.__new__(ExtReal)
    object.__setattr__(NEG_INF, "_v", -math.inf)


    def fmt(x: ExtReal) -> str:
        """Render as ``inf``, ``-inf``, ``p/q``/``p`` (rational) or repr (float)."""
        if x.is_pos_inf:
            return "inf"
        if x.is_neg_inf:
            return "-inf"
        v = x.value
        if isinstance(v, Fraction):
            p = _digits(v.numerator)
            return p if v.denominator == 1 else f"{p}/{_digits(v.denominator)}"
        return repr(v)

    return ExtReal, POS_INF, NEG_INF, fmt


ReferenceExtReal, REFERENCE_POS_INF, REFERENCE_NEG_INF, reference_fmt = _reference_extreal()


def parse(text: str, backend: str = "rational") -> ExtReal:
    """Inverse of ``extreal.fmt``; ``backend`` selects the finite payload type."""
    s = text.strip()
    if s in ("inf", "+inf"):
        return POS_INF
    if s == "-inf":
        return NEG_INF
    return ExtReal(scalar(s, backend))


# ---------------------------------------------------------------------------
# Pointwise reference for expression sampling
# ---------------------------------------------------------------------------


def _eval_form(form, x, y, backend):
    cx, cy, const = form
    if len(cx) != len(x) or len(cy) != len(y):
        raise ValueError("affine form dimensions do not match the point")
    if backend == "float":
        total = float(const)
        for c, v in zip(cx, x):
            total += float(c) * v
        for c, v in zip(cy, y):
            total += float(c) * v
        return total
    total = const
    for c, v in zip(cx, x):
        total += c * v
    for c, v in zip(cy, y):
        total += c * v
    return total


def evaluate(expr, x, y, backend):
    """expr at the one point (x, y), walking the tree node by node: the
    pointwise definition that ``Expr.sample`` over columns is held to.
    An indicator stops at the first constraint the point fails."""
    if isinstance(expr, Affine):
        return ExtReal(_eval_form(expr.form, x, y, backend))
    if isinstance(expr, Abs):
        v = evaluate(expr.arg, x, y, backend)
        if not v.is_finite:
            return POS_INF
        return ExtReal(abs(v.value))
    if isinstance(expr, Indicator):
        if len(expr.rows) != expr.polyhedron.dim:
            raise ValueError("one affine row per polyhedron coordinate required")
        mapped = tuple(_eval_form(r, x, y, backend) for r in expr.rows)
        for c in expr.polyhedron.constraints:
            lhs = _eval_form((c.normal, (), Fraction(0)), mapped, (), backend)
            rhs = float(c.offset) if backend == "float" else c.offset
            ok = lhs < rhs if c.strict else lhs <= rhs
            if not ok:
                return POS_INF
        return ExtReal(scalar(0, backend))
    if isinstance(expr, (Sum, Max, Min)):
        fold = {Sum: fold_sum, Max: extreal.sup, Min: extreal.inf}[type(expr)]
        return fold(evaluate(t, x, y, backend) for t in expr.terms)
    if isinstance(expr, Precompose):
        x2 = tuple(_eval_form(r, x, y, backend) for r in expr.x_rows)
        y2 = tuple(_eval_form(r, x, y, backend) for r in expr.y_rows)
        return evaluate(expr.inner, x2, y2, backend)
    raise TypeError(f"unknown expression node {expr!r}")  # pragma: no cover


# Small coefficients and coordinates meet often, so mapped points land
# exactly on constraint boundaries; +-10**308 make float folds overflow
# to +-inf (and inf - inf or inf * 0 to NaN).
SMALL_VALUES = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]
SMALL = st.sampled_from(SMALL_VALUES)
COEFFICIENT_VALUES = SMALL_VALUES * 3 + [Fraction(10**308), Fraction(-10**308)]
COEFFICIENTS = st.sampled_from(COEFFICIENT_VALUES)


def affine_forms(x_dim, y_dim, coefficients=COEFFICIENTS):
    return st.tuples(
        st.tuples(*[coefficients] * x_dim),
        st.tuples(*[coefficients] * y_dim),
        coefficients,
    )


@st.composite
def expressions(draw, x_dim, y_dim, depth=3, coefficients=COEFFICIENTS):
    """An expression tree over X x Y of the given dimensions using the
    seven node types, with affine coefficients drawn from
    ``coefficients``; indicators have strict and non-strict constraints
    whose offsets the mapped points often meet exactly."""
    forms = affine_forms(x_dim, y_dim, coefficients)
    ops = ["affine", "indicator"]
    if depth > 0:
        ops += ["abs", "sum", "max", "min", "precompose"]
    op = draw(st.sampled_from(ops))
    if op == "affine":
        return Affine(draw(forms))
    if op == "indicator":
        dim = draw(st.integers(1, 2))
        halfspaces = st.builds(
            Halfspace, st.tuples(*[SMALL] * dim), SMALL, st.booleans()
        )
        constraints = draw(st.lists(halfspaces, max_size=3))
        rows = tuple(draw(forms) for _ in range(dim))
        return Indicator(EPolyhedron(dim, constraints), rows)
    if op == "abs":
        return Abs(draw(expressions(x_dim, y_dim, depth - 1, coefficients)))
    if op == "precompose":
        x_rows = draw(st.lists(forms, max_size=2))
        y_rows = draw(st.lists(forms, max_size=2))
        inner = draw(expressions(len(x_rows), len(y_rows), depth - 1, coefficients))
        return Precompose(inner, tuple(x_rows), tuple(y_rows))
    terms = draw(st.lists(expressions(x_dim, y_dim, depth - 1, coefficients), min_size=1, max_size=3))
    return {"sum": Sum, "max": Max, "min": Min}[op](tuple(terms))
