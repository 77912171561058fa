"""Exact tables (``SampledFn.keyed``): int keys over one scale that stand
for the values of phi, psi and psi^{c'} on a rational grid, and of the
lifted float sweeps.

The reductions that compare keys (``p_fn``, ``psi_prime_x_minima``,
``phi_biconj_at_zero`` and ``psi_block_min``) are held to ``extreal.inf``
over the columns and blocks of ``.values``; an exact table's ``.values``
to the pointwise walk of ``helpers.evaluate``, repr for repr, payload
type included; and a problem whose phi table is exact to its twin whose
table is given by its values."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    COEFFICIENT_VALUES,
    QUARTERS,
    SMALL_VALUES,
    WIDE_FRACTIONS,
    built_extreals,
    drawn_from,
    evaluate,
    expressions,
    ext_values,
    fenchel_abs_duality_grid,
)
from oracles import x_side

from econvex import cli, extreal, problemio
from econvex.conjugation import DualGrid, DualPoint
from econvex.duality import PerturbationProblem
from econvex.esets import EPolyhedron, Halfspace
from econvex.extreal import BackendMismatchError, ExtReal, scalar
from econvex.funcrep import Abs, Affine, Grid, Indicator, PerturbFn, SampledFn, Sum, columns, product_grid


def shape(v: ExtReal):
    """What a report can tell apart: the repr and a finite payload's type."""
    return repr(v), type(v.value) if v.is_finite else None


def shapes(values):
    return [shape(v) for v in values]


def _problem(phi, xs, ys, w_y, pairs, backend):
    return PerturbationProblem(
        phi, Grid(1, xs, backend), Grid(1, ys, backend),
        DualGrid([DualPoint.of(*w, backend) for w in w_y]),
        DualGrid([DualPoint.of((xs, ys), (us, vs), a, backend) for xs, ys, us, vs, a in pairs]),
    )


@st.composite
def table_problems(draw, backend):
    """(values of phi on X x Y, x-major, and a problem over them): 1-D
    grids of up to four points, y holding the origin, phi a table of
    finite draws (wide fractions too in the rational backend), +inf and
    -inf, or +inf everywhere (an empty domain); a few dual points."""
    finite = drawn_from([Fraction(k, 4) for k in range(-8, 9)], backend)
    coordinate = finite.map(lambda c: scalar(c, backend))
    xs = draw(st.lists(coordinate, min_size=1, max_size=4, unique=True))
    ys = [scalar(0, backend)] + draw(st.lists(coordinate.filter(bool), max_size=3, unique=True))
    finite_value = (QUARTERS | WIDE_FRACTIONS) if backend == "rational" else QUARTERS
    values = draw(ext_values(len(xs) * len(ys), backend, finite_value))
    points = [((x,), (y,)) for x in xs for y in ys]
    phi = PerturbFn(1, 1, table=dict(zip(points, values)))
    small = st.integers(-2, 2)
    w_y = draw(st.lists(st.tuples(small, small, st.integers(1, 3)), min_size=1, max_size=3, unique=True))
    pairs = draw(st.lists(st.tuples(small, small, small, small, st.integers(-1, 3)), max_size=6, unique=True))
    return values, _problem(phi, [(x,) for x in xs], [(y,) for y in ys], w_y, pairs, backend)


def exact_twin(values, P, factor):
    """P's grids with phi_on_product the exact table of values, over the
    lcm of their denominators times factor, so the scale is not always
    the least one."""
    finite = [v.value for v in values if v.is_finite]
    scale = math.lcm(*(c.denominator for c in finite)) * factor
    keys = [v.value.numerator * (scale // v.value.denominator) if v.is_finite
            else math.inf if v.is_pos_inf else -math.inf for v in values]
    twin = PerturbationProblem(P.phi, P.x_grid, P.y_grid, P.dual_y_grid, P.full_dual_grid)
    twin.phi_on_product = SampledFn.keyed(twin.product, keys, scale, P.backend)  # the cached property's slot
    return twin


def reductions(P):
    """The four key reductions of P, as shapes and points."""
    return (
        shapes(P.p_fn.values),
        [(shape(low), xs) for low, xs in P.psi_prime_x_minima],
        shapes(P.phi_biconj_at_zero.values),
        shapes(P.psi_block_min.values),
    )


def reference_reductions(P):
    """The same four read off ``.values`` with ``extreal.inf``: the column
    infima of phi, each column's least psi^{c'} with the x attaining it,
    psi^{c'}'s column at y = 0, and per projected dual point the least psi
    over the flats projecting to it, all in grid order."""
    ny, xs = len(P.y_grid), P.x_grid.points
    minima = []
    for column in columns(P.psi_prime.values, ny):
        low = extreal.inf(column)
        minima.append((shape(low), tuple(x for x, v in zip(xs, column) if v == low)))
    origin = P.y_grid.index_of(P.y_grid.origin)
    blocks = {}
    for flat, v in P.psi.items():
        blocks.setdefault(x_side(P, flat), []).append(v)
    return (
        shapes(extreal.inf(c) for c in columns(P.phi_on_product.values, ny)),
        minima,
        shapes(columns(P.psi_prime.values, ny)[origin]),
        shapes(extreal.inf(blocks[w]) for w in P.x_side_grid.points),
    )


class TestReductions:
    """Differential, in both backends: the key reductions against
    ``extreal.inf`` over the values, and an exact phi table against its
    twin given by its values."""

    @pytest.mark.parametrize("backend", ["rational", "float"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_the_reductions_are_the_infima_of_the_values(self, backend, data):
        values, P = data.draw(table_problems(backend))
        assert reductions(P) == reference_reductions(P)
        if backend == "rational":
            twin = exact_twin(values, P, data.draw(st.sampled_from([1, 2, 3])))
            assert twin.phi_on_product.scale is not None
            assert shapes(twin.phi_on_product.values) == shapes(values)
            assert reductions(twin) == reference_reductions(twin) == reductions(P)
            for name in ("psi", "psi_prime"):
                assert shapes(getattr(twin, name).values) == shapes(getattr(P, name).values), name

    def test_an_exact_table_keeps_its_scale_through_the_sweeps(self):
        """fenchel_abs at n = 11: phi, psi and psi^{c'} are exact tables, and
        so are the reductions over them."""
        P = problemio.loads(json.dumps(fenchel_abs_duality_grid(11))).build()
        for name in ("phi_on_product", "psi", "psi_prime", "p_fn", "phi_biconj_at_zero", "psi_block_min"):
            table = getattr(P, name)
            assert table.scale is not None and "values" not in vars(table), name
        assert reductions(P) == reference_reductions(P)

    def test_mixed_backends_still_raise(self):
        """A table phi whose values mix Fractions and floats: the column
        infimum compares ExtReals, which raise as ``extreal.inf`` does."""
        xs, ys = [(Fraction(0),), (Fraction(1),)], [(Fraction(0),)]
        phi = PerturbFn(1, 1, table={((Fraction(0),), (Fraction(0),)): ExtReal(Fraction(1)),
                                     ((Fraction(1),), (Fraction(0),)): ExtReal(0.5)})
        P = _problem(phi, xs, ys, [(0, 0, 1)], [], "rational")
        with pytest.raises(BackendMismatchError):
            extreal.inf(P.phi_on_product.values)
        with pytest.raises(BackendMismatchError):
            P.p_fn


class TestSampledTables:
    @given(data=st.data())
    @example(data=None)
    @settings(max_examples=150, deadline=None)
    def test_values_are_the_pointwise_walk(self, data):
        """A rational phi_on_product is an exact table whose values are, repr
        for repr, those of ``helpers.evaluate`` at each cell (the values
        the sampler built one per cell before it kept keys)."""
        if data is None:  # an empty domain: the indicator of {t : t < 0} at t = 1
            inside = Indicator(EPolyhedron(1, [Halfspace((Fraction(1),), Fraction(0), True)]),
                               (((Fraction(0),), (Fraction(0),), Fraction(1)),))
            expr, xs = Sum((Abs(Affine.of((1,), (0,))), inside)), [Fraction(-1), Fraction(1, 3)]
            ys = [Fraction(0), Fraction(2, 7)]
        else:
            expr = data.draw(expressions(1, 1, coefficients=drawn_from(COEFFICIENT_VALUES, "rational")))
            coordinate = drawn_from(SMALL_VALUES, "rational")
            xs = data.draw(st.lists(coordinate, min_size=1, max_size=4, unique=True))
            ys = [Fraction(0)] + data.draw(st.lists(coordinate.filter(bool), max_size=3, unique=True))
        phi = PerturbFn(1, 1, expr=expr)
        P = _problem(phi, [(x,) for x in xs], [(y,) for y in ys], [(0, 0, 1)], [], "rational")
        table = P.phi_on_product
        assert table.scale is not None
        assert shapes(table.values) == [shape(evaluate(expr, p[:1], p[1:], "rational"))
                                        for p in product_grid(P.x_grid, P.y_grid).points]
        assert reductions(P) == reference_reductions(P)


def test_a_rational_duality_builds_extreals_per_point_not_per_cell(tmp_path, capsys):
    """Counts only: a rational ``duality`` on fenchel_abs at n = 21, loader
    and kernel included, builds O(|W| + |X| + |Y|) ExtReals: none per
    cell of phi or psi^{c'}."""
    doc = fenchel_abs_duality_grid(21)
    problem = tmp_path / "n21.json"
    problem.write_text(json.dumps(doc), encoding="utf-8")
    P = problemio.loads(json.dumps(doc)).build()
    W, X, Y = len(P.full_dual_grid), len(P.x_grid), len(P.y_grid)
    with built_extreals() as built:
        assert cli.main(["duality", str(problem)]) == 0
    capsys.readouterr()
    assert len(built) <= 3 * (W + X + Y) < X * Y
