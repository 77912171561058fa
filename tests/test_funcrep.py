import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from econvex import funcrep, problemio
from econvex.conjugation import _split_dom
from econvex.esets import EPolyhedron, Halfspace, Interval1
from econvex.extreal import NEG_INF, POS_INF, ExtReal, scalar
from econvex.lagrangian import lagrangian_table
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
    columns,
    infimum_value_function,
    product_grid,
    restrict_to_zero,
    rows,
    slice_x,
)

from helpers import (
    CATALOG_PROBLEMS,
    LIFT_PROBLEMS,
    built_extreals,
    COEFFICIENT_VALUES,
    SMALL,
    SMALL_VALUES,
    catalog_problem,
    certified,
    drawn_from,
    evaluate,
    expressions,
    ext_values,
    float_twin,
    lifted,
    twin,
)
from oracles import PwAffine1

LEQ_ZERO = EPolyhedron(1, [Halfspace((Fraction(1),), Fraction(0), False)])  # {t <= 0}


def example52_expr() -> PerturbFn:
    """phi(x, y) = x + indicator(x + y <= 0)."""
    expr = Sum(
        (
            Affine.of((1,), (0,)),
            Indicator.of(LEQ_ZERO, [((1,), (1,), 0)]),
        )
    )
    return PerturbFn(1, 1, expr=expr)


def fenchel_abs_expr() -> PerturbFn:
    """phi(x, y) = |x| + indicator(x + y <= 0)."""
    expr = Sum(
        (
            Abs(Affine.of((1,), (0,))),
            Indicator.of(LEQ_ZERO, [((1,), (1,), 0)]),
        )
    )
    return PerturbFn(1, 1, expr=expr)


class TestGrid:
    def test_uniform_symmetric_contains_origin(self):
        g = Grid.uniform(-5, 5, 11)
        assert g.has_origin
        assert len(g) == 11
        assert g.points[0] == (Fraction(-5),)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            Grid(1, [(0,), (0,)])

    def test_float_backend(self):
        g = Grid.uniform(-1, 1, 5, backend="float")
        assert g.points[2] == (0.0,)
        assert g.has_origin

    @given(st.integers(-20, 20), st.integers(1, 40), st.integers(2, 13),
           st.sampled_from([1, 2, 3, 7, 10]))
    @settings(max_examples=200, deadline=None)
    def test_a_float_point_is_the_double_nearest_the_rational_one(self, lo, width, count, den):
        """On the ends' doubles, each float point is the rational point on
        the same ends rounded once: the ends come back as given."""
        lo, hi = float(Fraction(lo, den)), float(Fraction(lo + width, den))
        rational = Grid.uniform(Fraction(lo), Fraction(hi), count)
        floats = Grid.uniform(lo, hi, count, backend="float")
        assert floats.points == tuple((float(x),) for x, in rational.points)
        assert floats.points[0] == (lo,) and floats.points[-1] == (hi,)

    def test_thirds_reach_the_nearest_doubles(self):
        g = Grid.uniform(-1, 1, 7, backend="float")
        assert g.points[5] == (0.6666666666666666,) == (float(Fraction(2, 3)),)
        assert g.points[1] == (-0.6666666666666666,)

    def test_off_grid_lookup_fails(self):
        g = Grid.uniform(0, 1, 2)
        with pytest.raises(KeyError):
            g.index_of((Fraction(1, 2),))

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_infinite_coordinates_are_off_the_grid(self, backend):
        # A rational grid cannot hold +-inf (Fraction(inf) overflows); the
        # lookup says so as it does for any other point off the grid.
        g = Grid.uniform(-1, 1, 3, backend)
        for v in (math.inf, -math.inf):
            assert (v,) not in g
            with pytest.raises(KeyError, match=r"is not on the grid"):
                g.index_of((v,))
        assert (math.nan,) not in g


class TestSampledFn:
    def test_off_grid_eval_is_error(self):
        g = Grid(1, [(0,)])
        f = SampledFn(g, [ExtReal(0)])
        with pytest.raises(KeyError):
            f.value_at((1,))


class TestPwAffine1:
    def test_abs_values(self):
        f = PwAffine1.abs_fn()
        assert f.value(-3) == ExtReal(3)
        assert f.value(0) == ExtReal(0)
        assert f.value(Fraction(5, 2)) == ExtReal(Fraction(5, 2))

    def test_indicator_leq(self):
        g = PwAffine1.indicator_leq(0)
        assert g.value(1) == POS_INF
        assert g.value(0) == ExtReal(0)
        assert g.value(-7) == ExtReal(0)

    def test_tiling_enforced(self):
        gap = [
            (Interval1(NEG_INF, True, ExtReal(0), True), (Fraction(1), Fraction(0))),
            (Interval1(ExtReal(0), True, POS_INF, True), (Fraction(1), Fraction(0))),
        ]
        with pytest.raises(ValueError):
            PwAffine1(gap)

    def test_sampling_agrees_with_exact_evaluation(self):
        f = PwAffine1.abs_fn()
        g = Grid(1, [(Fraction(-7, 3),), (0,), (Fraction(1, 2),), (4,)])
        s = f.sample(g)
        for (p,), v in s.items():
            assert v == f.value(p)


class TestExpressions:
    def test_indicator_outside(self):
        phi = PerturbFn(1, 1, expr=Indicator.of(LEQ_ZERO, [((0,), (1,), 0)]))
        assert phi.value((0,), (1,)) == POS_INF
        assert phi.value((0,), (0,)) == ExtReal(0)

    def test_example52_value(self):
        phi = example52_expr()
        assert phi.value((1,), (-2,)) == ExtReal(1)
        assert phi.value((1,), (0,)) == POS_INF

    def test_max_min(self):
        # max(x, -x) = |x| pointwise on the grid
        m = Max((Affine.of((1,), ()), Affine.of((-1,), ())))
        phi = PerturbFn(1, 0, expr=m)
        assert phi.value((-3,), ()) == ExtReal(3)
        two_point = Min(
            (
                Indicator.of(
                    EPolyhedron(
                        1,
                        [
                            Halfspace((Fraction(1),), Fraction(-1), False),
                            Halfspace((Fraction(-1),), Fraction(1), False),
                        ],
                    ),
                    [((1,), (), 0)],
                ),
                Indicator.of(
                    EPolyhedron(
                        1,
                        [
                            Halfspace((Fraction(1),), Fraction(1), False),
                            Halfspace((Fraction(-1),), Fraction(-1), False),
                        ],
                    ),
                    [((1,), (), 0)],
                ),
            )
        )
        phi = PerturbFn(1, 0, expr=two_point)
        assert phi.value((-1,), ()) == ExtReal(0)
        assert phi.value((1,), ()) == ExtReal(0)
        assert phi.value((0,), ()) == POS_INF

    def test_precompose_shifts_argument(self):
        # |x - 2| via precomposition of |.| with x -> x - 2
        inner = Abs(Affine.of((1,), ()))
        expr = Precompose(inner, (((Fraction(1),), (), Fraction(-2)),), ())
        phi = PerturbFn(1, 0, expr=expr)
        assert phi.value((5,), ()) == ExtReal(3)
        assert phi.value((2,), ()) == ExtReal(0)

    def test_float_backend_evaluation(self):
        phi = fenchel_abs_expr()
        assert phi.value((-1.5,), (0.0,), backend="float") == ExtReal(1.5)
        assert phi.value((1.0,), (0.5,), backend="float") == POS_INF

    @pytest.mark.parametrize("fold", [Sum, Max, Min])
    def test_a_fold_needs_a_term(self, fold):
        with pytest.raises(ValueError, match="at least one term"):
            fold(())
        assert fold((Affine.of((1,), ()),)).terms

    def test_mixed_infinities_in_sums_follow_convention(self):
        # indicator(+inf) plus a -inf table value collapses to -inf
        g1 = Grid(1, [(0,)])
        phi = PerturbFn(
            1, 1, table={((Fraction(0),), (Fraction(0),)): NEG_INF}
        )
        assert phi.value((0,), (0,)) == NEG_INF


class TestInfimumValueFunction:
    def test_abs_instance_minimum_at_zero(self):
        phi = fenchel_abs_expr()
        xg = Grid.uniform(-5, 5, 11)
        yg = Grid.uniform(-5, 5, 11)
        p = infimum_value_function(phi, xg, yg)
        assert p.value_at((0,)) == ExtReal(0)

    def test_grid_truncation_semantics(self):
        phi = example52_expr()
        xg = Grid.uniform(-10, 10, 21)
        yg = Grid.uniform(-1, 1, 3)
        p = infimum_value_function(phi, xg, yg)
        # Over the reals p(0) = -inf; the grid realizes its own infimum.
        assert p.value_at((0,)) == ExtReal(-10)

    def test_everywhere_infinite_column(self):
        table = {
            ((Fraction(0),), (Fraction(0),)): POS_INF,
            ((Fraction(1),), (Fraction(0),)): POS_INF,
        }
        phi = PerturbFn(1, 1, table=table)
        xg = Grid(1, [(0,), (1,)])
        yg = Grid(1, [(0,)])
        p = infimum_value_function(phi, xg, yg)
        assert p.value_at((0,)) == POS_INF

    def test_dominated_by_every_slice(self):
        phi = fenchel_abs_expr()
        xg = Grid.uniform(-3, 3, 7)
        yg = Grid.uniform(-3, 3, 7)
        p = infimum_value_function(phi, xg, yg)
        for y in yg.points:
            for x in xg.points:
                assert p.value_at(y) <= phi.value(x, y)


class TestSlices:
    def test_restriction_matches_pw_form(self):
        phi = example52_expr()
        xg = Grid.uniform(-5, 5, 11)
        yg = Grid.uniform(-5, 5, 11)
        f0 = restrict_to_zero(phi, xg, yg)
        exact = PwAffine1(
            [
                (
                    Interval1(NEG_INF, True, ExtReal(0), False),
                    (Fraction(1), Fraction(0)),
                ),
                (Interval1(ExtReal(0), True, POS_INF, True), POS_INF),
            ]
        )
        for (x,), v in f0.items():
            assert v == exact.value(x)

    def test_restriction_requires_origin(self):
        phi = example52_expr()
        xg = Grid.uniform(-5, 5, 11)
        with pytest.raises(ValueError, match="origin"):
            restrict_to_zero(phi, xg, Grid(1, [(1,), (2,)]))

    def test_slice_x_exposes_Yx(self):
        phi = example52_expr()
        yg = Grid.uniform(-2, 2, 5)
        s = slice_x(phi, (0,), yg)
        assert s.value_at((-1,)) == ExtReal(0)
        assert s.value_at((1,)) == POS_INF
        assert [y for y, v in s.items() if v < POS_INF] == [(Fraction(-2),), (Fraction(-1),), (Fraction(0),)]

    def test_infinite_column_gives_empty_Yx(self):
        table = {((Fraction(0),), (Fraction(0),)): POS_INF}
        phi = PerturbFn(1, 1, table=table)
        s = slice_x(phi, (0,), Grid(1, [(0,)]))
        assert [y for y, v in s.items() if v < POS_INF] == []


class TestMaterialize:
    def test_table_agrees_with_expression(self):
        phi = fenchel_abs_expr()
        xg = Grid.uniform(-2, 2, 5)
        yg = Grid.uniform(-2, 2, 5)
        grid = product_grid(xg, yg)
        tab = PerturbFn(1, 1, table={(p[:1], p[1:]): v for p, v in zip(grid.points, phi.sample(grid))})
        for x in xg.points:
            for y in yg.points:
                assert tab.value(x, y) == phi.value(x, y)

    def test_product_grid_order_and_membership(self):
        xg = Grid(1, [(0,), (1,)])
        yg = Grid(1, [(5,), (6,)])
        pg = product_grid(xg, yg)
        assert pg.points[0] == (Fraction(0), Fraction(5))
        assert pg.points[1] == (Fraction(0), Fraction(6))
        assert len(pg) == 4

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_product_grid_is_the_grid_of_its_points(self, backend):
        # The factors' points are coerced and distinct already: the product
        # coerces none again and holds what Grid would make of its points.
        xg = Grid.uniform(-1, 1, 3, backend)
        yg = Grid(2, [(0, 1), (1, 0), (Fraction(1, 3), -2)], backend)
        for a, b in ((xg, yg), (yg, xg), (xg, xg)):
            with mock.patch.object(funcrep, "_coerce_point", wraps=funcrep._coerce_point) as coerce:
                pg = product_grid(a, b)
            assert coerce.call_count == 0
            ref = Grid(a.dim + b.dim, [x + y for x in a.points for y in b.points], backend)
            assert (pg.dim, pg.backend, pg.points) == (ref.dim, ref.backend, ref.points)
            assert [type(v) for p in pg.points for v in p] == [type(v) for p in ref.points for v in p]
            assert [pg.index_of(p) for p in ref.points] == list(range(len(ref)))
            with pytest.raises(KeyError):
                pg.index_of((5,) * pg.dim)

    def test_rows_and_columns_follow_the_product_order(self):
        xg = Grid(1, [(0,), (1,), (2,)])
        yg = Grid(1, [(5,), (6,)])
        pg = product_grid(xg, yg)
        assert rows(pg.points, 3) == [
            tuple(x + y for y in yg.points) for x in xg.points
        ]
        assert columns(pg.points, 2) == [
            tuple(x + y for x in xg.points) for y in yg.points
        ]

    def test_rows_and_columns_of_an_empty_second_grid(self):
        # |X| rows with no cells each, and no columns.
        assert rows((), 3) == [(), (), ()]
        assert columns((), 0) == []


def _shape(v):
    """What the reports can tell apart: the repr (signed zeros included)
    and the payload type of a finite value."""
    return repr(v), type(v.value) if v.is_finite else None


def _outcome(thunk):
    """What thunk() returns, or the type of the error it raises: a
    ValueError when a float fold reaches NaN."""
    try:
        return thunk()
    except ValueError as exc:
        return type(exc)


@st.composite
def phi_and_points(draw, backend):
    """phi and a few points of X x Y; rational coordinates and affine
    coefficients also take wide fractions, so scales grow large."""
    x_dim, y_dim = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    coefficients = drawn_from(COEFFICIENT_VALUES, backend)
    phi = PerturbFn(x_dim, y_dim, expr=draw(expressions(x_dim, y_dim, coefficients=coefficients)))
    coordinate = drawn_from(SMALL_VALUES, backend).map(lambda c: scalar(c, backend))
    point = st.tuples(*[coordinate] * (x_dim + y_dim))
    return phi, draw(st.lists(point, min_size=1, max_size=6))


class _Case:
    """Stands in for ``st.data()`` in an ``@example``: every draw gives
    phi and its points, which the test makes scalars of its backend."""

    def __init__(self, expr, points, x_dim=1):
        points = [tuple(Fraction(v) for v in p) for p in points]
        self.case = PerturbFn(x_dim, len(points[0]) - x_dim, expr=expr), points

    def draw(self, strategy):
        return self.case


def _on_the_line(strict):
    """phi(x) = indicator of {t < 1/3} (strict) or {t <= 1/3} at t = 2x/3;
    x = 1/2 maps exactly onto the boundary."""
    line = Halfspace((Fraction(1),), Fraction(1, 3), strict)
    return _Case(
        Indicator(EPolyhedron(1, [line]), (((Fraction(2, 3),), (), Fraction(0)),)),
        [(Fraction(1, 2),), (0,), (1,)],
    )


def _nested_precompose():
    """A Precompose inside a Precompose: the images of the outer one are
    over 3 * D, those of the inner one over 2**40 * 3 * D."""
    third, tiny = Fraction(1, 3), Fraction(1, 2**40)
    inner = Precompose(
        Affine.of((1,), (-1,), third),
        (((tiny,), (Fraction(1),), Fraction(0)),),
        (((Fraction(1),), (tiny,), tiny),),
    )
    outer = Precompose(inner, (((third,), (Fraction(1),), Fraction(0)),), (((Fraction(1),), (third,), third),))
    return _Case(outer, [(Fraction(1, 7), Fraction(2, 5)), (0, 0), (-3, tiny)])


def _overflowing_row():
    """phi = indicator of {t : 0·t <= 1} at t = 1e308 + 1e308·y.  At y = 1
    the float row overflows to inf and 0·inf = NaN shuts the indicator
    (+inf), while in rationals 0·t <= 1 holds (0): a float fold that
    skipped the zero coefficient would sample 0.0."""
    big = Fraction(10**308)
    zero_normal = Halfspace((Fraction(0),), Fraction(1), False)
    return _Case(Indicator(EPolyhedron(1, [zero_normal]), (((Fraction(0),), (big,), big),)), [(0, 1)])


PLANE = [(0, 1), (Fraction(-1, 2), 2)]
X_ONLY = Affine.of((1,), (0,))
# 1e308·x - 1e308·y: at (2, 2) the float fold is inf - inf = NaN (0 in
# rationals), which a bare max or min keeps or drops by position.
NAN_AT_TWO = Affine.of((10**308,), (-10**308,))
NAN_POINTS = [(0, 0), (2, 2)]
# -1e308·x: two of them at x = 1 overflow to -inf, which then absorbs a
# +inf; OUTSIDE is +inf there (the indicator of {x <= 0}).
NEG_BIG = Affine.of((-10**308,), (0,))
OUTSIDE = Indicator.of(LEQ_ZERO, [((1,), (0,), 0)])


class TestColumnSampling:
    """``PerturbFn.sample`` over a column of points against one-point
    samples and the pointwise reference walk of ``helpers.evaluate``."""

    @pytest.mark.parametrize("backend", ["rational", "float"])
    @given(data=st.data())
    @example(data=_nested_precompose())
    @example(data=_on_the_line(strict=True))
    @example(data=_on_the_line(strict=False))
    @example(data=_overflowing_row())
    @example(data=_Case(Max((X_ONLY, NAN_AT_TWO)), NAN_POINTS))  # NaN after a finite term
    @example(data=_Case(Max((NAN_AT_TWO, X_ONLY)), NAN_POINTS))  # NaN before it
    @example(data=_Case(Min((X_ONLY, NAN_AT_TWO)), NAN_POINTS))
    @example(data=_Case(Min((NAN_AT_TWO, X_ONLY)), NAN_POINTS))
    @example(data=_Case(Sum((X_ONLY, NAN_AT_TWO)), NAN_POINTS))  # a float before NaN
    @example(data=_Case(Sum((NEG_BIG, NEG_BIG, OUTSIDE)), [(1, 0)]))  # -inf, then +inf
    @example(data=_Case(Sum((OUTSIDE, NEG_BIG, NEG_BIG)), [(1, 0)]))  # +inf absorbs first
    @settings(max_examples=300, deadline=None)
    def test_sample_is_pointwise(self, backend, data):
        phi, points = data.draw(phi_and_points(backend))
        points = [tuple(scalar(v, backend) for v in p) for p in points]
        d = phi.x_dim
        expected = [
            _outcome(lambda p=p: _shape(evaluate(phi.expr, p[:d], p[d:], backend)))
            for p in points
        ]
        singles = [_outcome(lambda p=p: _shape(phi.sample([p], backend)[0])) for p in points]
        assert singles == expected
        column = _outcome(lambda: [_shape(v) for v in phi.sample(points, backend)])
        errors = [e for e in expected if isinstance(e, type)]
        # Nodes run in the same order either way, so the column stops at
        # an error one of its points raises on its own.
        assert column in errors if errors else column == expected
        if backend == "float" and not errors:  # one arithmetic: floats and +-inf, no scale
            keys, scale = phi.sample_keys(points, backend)
            assert scale is None and all(k.__class__ is float for k in keys)

    @pytest.mark.parametrize("backend", ["rational", "float"])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_product_grid_is_sampled_cell_by_cell(self, backend, data):
        x_dim, y_dim = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        coefficients = drawn_from(COEFFICIENT_VALUES, backend)
        phi = PerturbFn(x_dim, y_dim, expr=data.draw(expressions(x_dim, y_dim, coefficients=coefficients)))
        coordinate = drawn_from(SMALL_VALUES, backend).map(lambda c: scalar(c, backend))
        X, Y = (Grid(k, data.draw(st.lists(st.tuples(*[coordinate] * k), min_size=1, max_size=4,
                                           unique=True)), backend) for k in (x_dim, y_dim))
        grid = product_grid(X, Y)
        expected = [_outcome(lambda p=p: _shape(phi.value(p[:x_dim], p[x_dim:], backend)))
                    for p in grid.points]
        cells = _outcome(lambda: [_shape(v) for v in phi.sample(grid, backend)])
        errors = [e for e in expected if isinstance(e, type)]
        assert cells in errors if errors else cells == expected

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_shape_errors_come_in_node_order(self, backend):
        wide = Affine.of((1, 1), (0,))  # two x coefficients, one x coordinate
        one_row = Indicator(EPolyhedron(2), (((Fraction(1),), (Fraction(0),), Fraction(0)),))
        point = [(scalar(0, backend), scalar(1, backend))]
        for first, second, message in ((wide, one_row, "affine form"), (one_row, wide, "one affine row")):
            phi = PerturbFn(1, 1, expr=Sum((first, second)))
            with pytest.raises(ValueError, match=message):
                phi.sample(point, backend)
            # With no points an affine form has nothing to mismatch, but
            # the row count of an indicator is still checked.
            with pytest.raises(ValueError, match="one affine row"):
                phi.sample([], backend)
        assert PerturbFn(1, 1, expr=wide).sample([], backend) == []

    @pytest.mark.parametrize("backend", ["rational", "float"])
    @given(data=st.data())
    @settings(deadline=None)
    def test_table_cells_are_looked_up(self, backend, data):
        coordinate = SMALL.map(lambda c: (scalar(c, backend),))
        keys = data.draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6, unique=True))
        phi = PerturbFn(1, 1, table=dict(zip(keys, data.draw(ext_values(len(keys), backend)))))
        pairs = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=8))
        values = phi.sample([x + y for x, y in pairs], backend)
        assert all(v is phi.table[k] for v, k in zip(values, pairs))
        assert values == [phi.value(x, y, backend) for x, y in pairs]

    def test_a_point_off_the_table_is_named(self):
        phi = PerturbFn(1, 1, table={((Fraction(0),), (Fraction(0),)): POS_INF})
        with pytest.raises(KeyError, match=r"\(\(Fraction\(1, 1\),\), \(Fraction\(0, 1\),\)\) is not"):
            phi.sample([(Fraction(1), Fraction(0))])


class TestIntegerPath:
    """Counts, not clocks: rational tables of phi are sampled in scaled
    ints, one scale from ``_prepared`` per table, and float tables never."""

    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    def test_catalog_tables_take_the_integer_path(self, name):
        for P, per_table in ((catalog_problem(name), 1), (float_twin(name), 0)):
            calls, real = [], funcrep._prepared

            def counted(*args):
                out = real(*args)
                if sys._getframe(1).f_code.co_name == "_sample" and out[0] is not None:
                    calls.append(args)
                return out

            with mock.patch.object(funcrep, "_prepared", counted):
                P.phi_on_product
                P.f0
                L = lagrangian_table(P)  # its slices are rows of phi_on_product
                assert len(calls) == 2 * per_table
                slices = [slice_x(P.phi, x, P.y_grid) for x in P.x_grid.points]
            assert len(calls) == (2 + len(P.x_grid)) * per_table
            assert [sl.values for sl in slices] == [sl.values for sl in L.slices]


@contextmanager
def prepared_log():
    """A list of (caller, grid, D, Y) per call of ``funcrep._prepared``
    inside the block: the function that asked, the grid it passed, the
    scale it got and the Y block of its cut."""
    log, real = [], funcrep._prepared

    def prepared(grid, *args):
        D, blocks, scalars = real(grid, *args)
        log.append((sys._getframe(1).f_code.co_name, grid, D, blocks[1][0]))
        return D, blocks, scalars

    with mock.patch.object(funcrep, "_prepared", prepared):
        yield log


class TestOnePreparedPerPass:
    """Counts only: phi's sampler, the two sweeps and each space of the
    boundary scan ask ``_prepared`` once per call.  A rational product is
    cut on its factors over a scale, and so is a dyadic float one except
    in the sampler; thirds' float product is cut flat with none."""

    @pytest.mark.parametrize("name", LIFT_PROBLEMS)
    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_every_pass_asks_once(self, name, backend):
        P = twin(name, backend)
        passes = []
        for attr, conjugated in (("phi_on_product", None), ("psi", "phi_on_product"), ("psi_prime", "psi")):
            swept = conjugated is None or _split_dom(getattr(P, conjugated))[0] is not None
            with prepared_log() as log:
                getattr(P, attr)
            assert [grid for _, grid, _, _ in log] == [P.product] * swept, attr
            passes += log
        with prepared_log() as log:
            problemio.boundary_coincidences(P)
        assert [grid for _, grid, _, _ in log] == [P.y_grid, P.product]
        passes += log
        assert {caller for caller, *_ in passes} <= {"_sample", "_c_conjugate_rows",
                                                      "cprime_conjugate", "boundary_coincidences"}
        for caller, grid, D, Y in passes:
            if backend == "rational" or caller != "_sample" and lifted(name, backend):
                widths = [P.y_grid.dim] * len(P.y_grid) if grid is P.product else [0]
                assert D is not None and [len(y) for y in Y] == widths
            else:
                assert D is None and Y == ((),)

    def test_the_certificate_refuses_the_thirds_float_twin(self):
        """Every sweep and scan of thirds' float twin reads a double of 1/3,
        whose denominator 2^54 puts B past 2^53."""
        P = twin("thirds", "float")
        for grid, ws in ((P.y_grid, P.dual_y_grid), (P.product, P.full_dual_grid)):
            assert not certified(grid.points, ([w.ustar for w in ws], [w.xstar for w in ws]),
                                 ([w.alpha for w in ws],))
            assert funcrep._prepared(grid, ([w.ustar for w in ws],), ([w.alpha for w in ws],))[0] is None

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_points_of_unequal_lengths_raise(self, backend):
        points = [(scalar(0, backend), scalar(1, backend)), (scalar(0, backend),)]
        for expr in (X_ONLY, Affine.of((0,), (0,), 1)):
            with pytest.raises(ValueError):
                PerturbFn(1, 1, expr=expr).sample(points, backend)


class TestPlainPoints:
    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_plain_points_take_the_backend(self, backend):
        """Uncoerced points are sampled in the backend asked for, as
        coerced ones are: ints read as Fractions in the rational one."""
        phi = PerturbFn(1, 1, expr=Affine.of((1,), (2,)))
        (value,) = phi.sample([(1, 1)], backend)
        assert value == phi.value(1, 1, backend) == ExtReal(scalar(3, backend))
        assert value.value.__class__ is (Fraction if backend == "rational" else float)


class TestOneExtRealPerPoint:
    """Counts, not clocks: the nodes fold raw payloads and only the root of
    a float phi builds an ExtReal, one per point of the product."""

    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    def test_float_phi_on_product(self, name):
        P = float_twin(name)
        with built_extreals() as built:
            values = P.phi_on_product.values
        assert 0 < len(built) <= len(P.x_grid) * len(P.y_grid) == len(values)
