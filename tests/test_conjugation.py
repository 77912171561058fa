import copy
import dataclasses
import json
import math
import operator
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from econvex import cli, conjugation, duality, esets, funcrep, problemio
from econvex.conjugation import (
    DualGrid,
    DualPoint,
    biconjugate,
    c_conjugate,
    coupling_c,
    cprime_conjugate,
    tensor_dual_grid,
    _c_conjugate_rows,
    _key,
    _split_dom,
)
from econvex.esets import dot, dots
from econvex.extreal import NEG_INF, POS_INF, ExtReal, NaNError
from econvex.funcrep import Grid, SampledFn, _over, _prepared, product_grid
from econvex.lagrangian import CLagrangian
from econvex.subdifferential import conjugate_value

from helpers import (
    CATALOG_PROBLEMS,
    LIFT_PROBLEMS,
    QUARTERS,
    WIDE_FRACTIONS,
    catalog_problem,
    certified,
    coincidence_rows,
    dom_rows,
    drawn_from,
    ext_values,
    fenchel_abs_duality_grid,
    plain_scalar,
    reference_c_conjugate,
    reference_cprime_conjugate,
    scalar,
    lcm_log,
    lifted,
    scaling_log,
    twin,
    unlifted,
    with_plain_scalar,
)
import oracles
from oracles import (
    PwAffine1,
    adapted_dual_grid,
    c_conjugate_exact,
    coupling_cbar,
    coupling_cprime,
    sup_minus,
)


def w(xs, us, a):
    return DualPoint.of((xs,), (us,), a)


def abs_on(grid):
    return SampledFn(grid, [ExtReal(abs(p[0])) for p in grid.points])


class TestCouplings:
    def test_zero_point_positive_alpha(self):
        assert coupling_c((0,), w(3, 7, 1)) == ExtReal(0)

    def test_zero_point_nonpositive_alpha(self):
        assert coupling_c((0,), w(3, 7, 0)) == POS_INF
        assert coupling_c((0,), w(3, 7, -1)) == POS_INF

    def test_gate_failure(self):
        assert coupling_c((2,), w(3, 1, 1)) == POS_INF

    def test_cprime_symmetry(self):
        for x in (-2, 0, 1):
            ww = w(2, -1, 3)
            assert coupling_cprime(ww, (x,)) == coupling_c((x,), ww)

    def test_cbar_values(self):
        p = DualPoint.of((1, 1), (0, 0), 1)
        assert coupling_cbar((0,), (0,), p) == ExtReal(0)
        assert coupling_cbar((1,), (1,), p) == ExtReal(2)
        q = DualPoint.of((0, 0), (1, 0), 1)
        assert coupling_cbar((1,), (0,), q) == POS_INF  # 1 < 1 fails

    def test_cbar_is_c_on_the_product_space(self):
        p = DualPoint.of((2, -1), (1, 3), 5)
        for x in (-1, 0, 2):
            for y in (-2, 1):
                assert coupling_cbar((x,), (y,), p) == coupling_c((x, y), p)


class TestGridConjugate:
    def test_abs_at_flat_dual_point(self):
        g = Grid.uniform(-10, 10, 21)
        fc = c_conjugate(abs_on(g), DualGrid([w(0, 0, 1)]))
        assert fc.value_at(w(0, 0, 1)) == ExtReal(0)

    def test_abs_steep_slope_truncated_by_grid(self):
        g = Grid.uniform(-10, 10, 21)
        point = w(2, 0, 1)
        fc = c_conjugate(abs_on(g), DualGrid([point]))
        # Independent oracle: brute-force the defining supremum.
        oracle = max(2 * p[0] - abs(p[0]) for p in g.points)
        assert oracle == 10
        assert fc.value_at(point) == ExtReal(oracle)

    def test_indicator_of_halfline(self):
        g = Grid.uniform(-10, 10, 21)
        f = SampledFn(g, [ExtReal(0) if p[0] >= 0 else POS_INF for p in g.points])
        fc = c_conjugate(f, DualGrid([w(-1, 0, 1)]))
        assert fc.value_at(w(-1, 0, 1)) == ExtReal(0)

    def test_function_hitting_neg_inf_conjugates_to_pos_inf(self):
        g = Grid(1, [(0,), (1,)])
        f = SampledFn(g, [NEG_INF, ExtReal(0)])
        wg = tensor_dual_grid([(1,)], [(5,)], [Fraction(-3)])
        fc = c_conjugate(f, wg)
        assert all(v == POS_INF for v in fc.values)


class TestPrimeConjugate:
    def test_everywhere_infinite_gives_neg_inf(self):
        wg = tensor_dual_grid([(0,), (1,)], [(0,)], [1])
        g = SampledFn(wg, [POS_INF] * len(wg))
        gc = cprime_conjugate(g, Grid.uniform(-2, 2, 5))
        assert all(v == NEG_INF for v in gc.values)

    def test_single_finite_point_reproduces_elementary_function(self):
        point = w(1, 0, 1)
        wg = DualGrid([point])
        g = SampledFn(wg, [ExtReal(0)])
        gc = cprime_conjugate(g, Grid.uniform(-3, 3, 7))
        for (x,), v in gc.items():
            assert v == ExtReal(x)

    def test_conjugate_pair_is_minorant(self):
        grid = Grid.uniform(-5, 5, 11)
        f = abs_on(grid)
        wg = tensor_dual_grid([(-1,), (0,), (1,)], [(0,)], [1])
        fcc = cprime_conjugate(c_conjugate(f, wg), grid)
        for p in grid.points:
            assert fcc.value_at(p) <= f.value_at(p)


class TestBiconjugate:
    def test_affine_recovered_with_adapted_grid(self):
        grid = Grid.uniform(-4, 4, 9)
        f = SampledFn(grid, [ExtReal(p[0]) for p in grid.points])
        wg = tensor_dual_grid([(1,)], [(0,)], [1])  # slope 1 present, alpha > 0
        hull = biconjugate(f, wg)
        for p in grid.points:
            assert hull.value_at(p) == f.value_at(p)

    def test_open_ray_indicator_hull_at_zero(self):
        grid = Grid.uniform(-2, 2, 9)
        f = SampledFn(
            grid, [ExtReal(0) if p[0] > 0 else POS_INF for p in grid.points]
        )
        wg = tensor_dual_grid([(0,), (1,), (2,)], [(0,)], [1])
        hull = biconjugate(f, wg)
        # Oracle: double supremum computed directly (gates are open: u*=0,
        # alpha > 0), so f^c(w) = max over dom f of x*x_star.
        fc = {
            ww: max(
                (ExtReal(p[0] * ww.xstar[0]) for p in grid.points if p[0] > 0),
                default=NEG_INF,
            )
            for ww in wg.points
        }
        oracle = max(ExtReal(0) - fc[ww] for ww in wg.points)
        assert oracle == ExtReal(0)
        assert hull.value_at((0,)) == oracle
        assert hull.value_at((0,)) <= ExtReal(0)


small_values = st.one_of(
    st.just(POS_INF),
    st.just(NEG_INF),
    st.integers(-4, 4).map(lambda n: ExtReal(Fraction(n, 2))),
)


@st.composite
def random_instance(draw):
    n = draw(st.integers(2, 6))
    xs = draw(
        st.lists(
            st.integers(-6, 6).map(lambda n: Fraction(n, 2)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    grid = Grid(1, [(x,) for x in xs])
    f = SampledFn(grid, [draw(small_values) for _ in xs])
    m = draw(st.integers(1, 6))
    duals = draw(
        st.lists(
            st.tuples(
                st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 3)
            ),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    wg = DualGrid([w(a, b, c) for a, b, c in duals])
    return grid, f, wg


class TestGaloisProperties:
    @given(random_instance())
    @settings(max_examples=60, deadline=None)
    def test_triple_conjugate_identity(self, inst):
        grid, f, wg = inst
        fc = c_conjugate(f, wg)
        fccc = c_conjugate(cprime_conjugate(fc, grid), wg)
        assert list(fccc.values) == list(fc.values)

    @given(random_instance())
    @settings(max_examples=60, deadline=None)
    def test_biconjugate_is_minorant(self, inst):
        grid, f, wg = inst
        hull = biconjugate(f, wg)
        for p in grid.points:
            assert hull.value_at(p) <= f.value_at(p)

    @given(random_instance())
    @settings(max_examples=60, deadline=None)
    def test_prime_biconjugate_is_minorant(self, inst):
        grid, f, wg = inst
        g = c_conjugate(f, wg)  # an arbitrary function on the dual grid
        gcc = c_conjugate(cprime_conjugate(g, grid), wg)
        for p in wg.points:
            assert gcc.value_at(p) <= g.value_at(p)

    @given(random_instance(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_order_reversal(self, inst, bump):
        grid, f, wg = inst
        g = SampledFn(grid, [v + ExtReal(bump) for v in f.values])
        fc, gc = c_conjugate(f, wg), c_conjugate(g, wg)
        for p in wg.points:
            assert fc.value_at(p) >= gc.value_at(p)


class TestExactConjugate:
    def test_abs_flat(self):
        assert c_conjugate_exact(PwAffine1.abs_fn(), w(1, 0, 1)) == ExtReal(0)

    def test_abs_steep_unbounded(self):
        assert c_conjugate_exact(PwAffine1.abs_fn(), w(2, 0, 1)) == POS_INF

    def test_halfline_indicator_with_active_gate(self):
        f = PwAffine1.indicator_leq(0)
        assert c_conjugate_exact(f, w(1, 1, 1)) == ExtReal(0)

    def test_gate_failure_over_the_domain_blows_up(self):
        # |x| is finite on the gate-failure region {x >= 1}, where the
        # coupling is +inf, so the conjugate is +inf.
        f = PwAffine1.abs_fn()
        assert c_conjugate_exact(f, w(0, 1, 1)) == POS_INF

    def test_gate_respected_when_domain_fits_inside(self):
        # dom of the [0, 2] indicator sits inside {x < 3}; sup of -x there
        # is 0, attained at the left endpoint.
        from econvex.esets import Interval1

        f = PwAffine1.indicator(Interval1(ExtReal(0), False, ExtReal(2), False))
        assert c_conjugate_exact(f, w(-1, 1, 3)) == ExtReal(0)

    def test_empty_gate_region_against_finite_function(self):
        # c is identically +inf for alpha <= 0 with u* = 0, and |x| is
        # finite, so the supremum is +inf.
        f = PwAffine1.abs_fn()
        assert c_conjugate_exact(f, w(1, 0, 0)) == POS_INF

    def test_everywhere_infinite_function_conjugates_to_neg_inf(self):
        from econvex.esets import Interval1

        f = PwAffine1.indicator(Interval1.empty())  # identically +inf
        assert c_conjugate_exact(f, w(1, 0, 0)) == NEG_INF
        assert c_conjugate_exact(f, w(1, 0, 1)) == NEG_INF

    def test_grid_conjugate_never_exceeds_exact(self):
        f = PwAffine1.abs_fn()
        grid = Grid.uniform(Fraction(-7, 2), Fraction(7, 2), 15)
        duals = [w(1, 0, 1), w(0, 1, 1), w(-1, -1, 2), w(1, 1, 3), w(0, 0, 1)]
        fc = c_conjugate(f.sample(grid), DualGrid(duals))
        for ww in duals:
            assert fc.value_at(ww) <= c_conjugate_exact(f, ww)

    def test_grid_conjugate_matches_exact_on_adapted_grid(self):
        # Attaining points of |x| conjugates are 0 and the gate boundaries;
        # a grid holding them reproduces the exact values.
        f = PwAffine1.abs_fn()
        grid = Grid.uniform(-4, 4, 9)
        duals = [w(1, 0, 1), w(0, 1, 1), w(0, 0, 5), w(-1, 0, 1)]
        fc = c_conjugate(f.sample(grid), DualGrid(duals))
        for ww in duals:
            assert fc.value_at(ww) == c_conjugate_exact(f, ww)

    def test_adapted_grid_carries_piece_slopes(self):
        wg = adapted_dual_grid(PwAffine1.abs_fn(), alphas=[1])
        slopes = {p.xstar for p in wg.points}
        assert (Fraction(1),) in slopes and (Fraction(-1),) in slopes


def random_pw_affine(rng) -> PwAffine1:
    from econvex.esets import Interval1

    k = rng.randint(0, 4)
    breaks = sorted(
        {Fraction(rng.randint(-8, 8), rng.choice([1, 2])) for _ in range(k)}
    )
    bounds = [NEG_INF] + [ExtReal(b) for b in breaks] + [POS_INF]
    pieces = []
    left_open = True
    for lo, hi in zip(bounds, bounds[1:]):
        hi_open = rng.random() < 0.5 if hi.is_finite else True
        interval = Interval1(lo, left_open, hi, hi_open)
        left_open = not hi_open
        u = rng.random()
        if u < 0.2:
            val = POS_INF
        elif u < 0.25:
            val = NEG_INF
        else:
            val = (
                Fraction(rng.randint(-4, 4)),
                Fraction(rng.randint(-10, 10), 2),
            )
        pieces.append((interval, val))
    return PwAffine1(pieces)


class TestExactVsGridCrossValidation:
    def test_grid_conjugate_never_exceeds_exact_randomized(self):
        # Two independent routes to the same supremum: piecewise closure
        # analysis vs brute force over a grid that contains every
        # breakpoint.  The grid route can only fall short.
        rng = random.Random(515)
        comparable = 0
        for _ in range(150):
            f = random_pw_affine(rng)
            finite_breaks = {
                iv.lo.value for iv, _ in f.pieces if iv.lo.is_finite
            } | {iv.hi.value for iv, _ in f.pieces if iv.hi.is_finite}
            pts = {Fraction(v) for v in range(-12, 13)} | finite_breaks
            grid = Grid(1, [(p,) for p in sorted(pts)])
            sampled = f.sample(grid)
            for _ in range(6):
                ww = w(
                    Fraction(rng.randint(-3, 3)),
                    Fraction(rng.randint(-2, 2)),
                    Fraction(rng.randint(-2, 4)),
                )
                exact = c_conjugate_exact(f, ww)
                grid_val = c_conjugate(sampled, DualGrid([ww])).value_at(ww)
                assert grid_val <= exact
                if grid_val == exact:
                    comparable += 1
        assert comparable > 100  # the two routes agree often, not vacuously

    def test_exact_conjugate_of_sampled_max_under_flat_gates(self):
        # With u* = 0 and alpha > 0 the gate is open and the exact value
        # of a piecewise function's conjugate is a finite max over pieces;
        # refining the grid to the breakpoints reaches it whenever some
        # attaining point is closed.
        f = PwAffine1.abs_fn()
        grid = Grid.uniform(-10, 10, 41)
        sampled = f.sample(grid)
        for slope in (-1, 0, 1):
            ww = w(slope, 0, 3)
            assert c_conjugate(sampled, DualGrid([ww])).value_at(
                ww
            ) == c_conjugate_exact(f, ww)


# ---------------------------------------------------------------------------
# The split kernel against the definitional sweeps
# ---------------------------------------------------------------------------

# Small coordinate ranges put grid points on gate boundaries <x, u*> =
# alpha often; the float backend adds infinite coordinates, whose
# products with 0 are NaN, and NaN alphas.  The rational backend adds
# wide fractions, so the integer sweeps scale by large lcms.
COORDS = list(range(-3, 4))
FLOAT_COORDS = COORDS + [math.inf, -math.inf]
ALPHAS = list(range(-2, 4))
FLOAT_ALPHAS = ALPHAS + [math.inf, math.nan]


def payloads(backend):
    return QUARTERS | WIDE_FRACTIONS if backend == "rational" else QUARTERS


@st.composite
def kernel_grid(draw, dim, backend, max_size=8, float_coords=FLOAT_COORDS):
    vec = st.tuples(*[drawn_from(float_coords if backend == "float" else COORDS, backend)] * dim)
    pts = draw(st.lists(vec, min_size=1, max_size=max_size, unique=True))
    return Grid(dim, [tuple(scalar(c, backend) for c in p) for p in pts], backend)


@st.composite
def kernel_dual_grid(draw, dim, backend, max_size=10, float_coords=FLOAT_COORDS):
    """Dual points drawn from a few x*, u* and alpha, so gates share
    slopes, slopes share gates, and one u* carries several alphas."""
    vec = st.tuples(*[drawn_from(float_coords if backend == "float" else COORDS, backend)] * dim)
    xstars = draw(st.lists(vec, min_size=1, max_size=3, unique=True))
    ustars = draw(st.lists(vec, min_size=1, max_size=2, unique=True))
    alphas = draw(
        st.lists(
            drawn_from(FLOAT_ALPHAS if backend == "float" else ALPHAS, backend),
            min_size=1,
            max_size=3,
            unique_by=str,
        )
    )
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(xstars) - 1),
                st.integers(0, len(ustars) - 1),
                st.integers(0, len(alphas) - 1),
            ),
            min_size=1,
            max_size=max_size,
            unique=True,
        )
    )
    pts = [DualPoint.of(xstars[i], ustars[j], alphas[k], backend) for i, j, k in picks]
    return DualGrid(pts)


@st.composite
def conjugate_case(draw, backends=("rational", "float")):
    backend = draw(st.sampled_from(backends))
    dim = draw(st.integers(1, 2))
    grid = draw(kernel_grid(dim, backend))
    f = SampledFn(grid, draw(ext_values(len(grid), backend, payloads(backend))))
    return f, draw(kernel_dual_grid(dim, backend))


@st.composite
def prime_conjugate_case(draw, backends=("rational", "float")):
    backend = draw(st.sampled_from(backends))
    dim = draw(st.integers(1, 2))
    wg = draw(kernel_dual_grid(dim, backend))
    g = SampledFn(wg, draw(ext_values(len(wg), backend, payloads(backend))))
    return g, draw(kernel_grid(dim, backend))


def with_plain_point(draw, grid, candidates):
    """A copy of a rational grid whose points are used as given, with one
    coordinate of the point at one of the candidate indices made an int
    or a float."""
    points = list(grid.points)
    i = draw(st.sampled_from(candidates))
    j = draw(st.integers(0, grid.dim - 1))
    points[i] = points[i][:j] + (plain_scalar(draw, points[i][j]),) + points[i][j + 1:]
    out = copy.copy(grid)
    out.points = tuple(points)
    return out


def with_plain_dual_point(draw, wg, candidates):
    """wg with the dual point at one of the candidate indices carrying a
    plain scalar (see helpers.with_plain_scalar)."""
    points = list(wg.points)
    k = draw(st.sampled_from(candidates))
    points[k] = with_plain_scalar(draw, points[k])
    assume(points[k] not in points[:k] + points[k + 1:])
    return DualGrid(points)


def finite_rows(fn):
    """Indices of the grid points where fn is below +inf (all of them
    when there are none): the rows a sweep reads."""
    return [i for i, v in enumerate(fn.values) if not v.is_pos_inf] or range(len(fn.values))


@st.composite
def plain_conjugate_case(draw):
    """A rational c-conjugate case with one plain scalar in a point of dom
    f, an x*, a u* or an alpha: a Fraction sweep that must fall back."""
    f, wg = draw(conjugate_case(backends=("rational",)))
    if draw(st.booleans()):
        f = SampledFn(with_plain_point(draw, f.grid, finite_rows(f)), f.values)
    else:
        wg = with_plain_dual_point(draw, wg, range(len(wg)))
    return f, wg


@st.composite
def plain_prime_conjugate_case(draw):
    """The same for the c'-conjugate: a plain scalar in an x-grid point
    or in a dual point of dom g."""
    g, grid = draw(prime_conjugate_case(backends=("rational",)))
    if draw(st.booleans()):
        grid = with_plain_point(draw, grid, range(len(grid)))
    else:
        wg = with_plain_dual_point(draw, g.grid, finite_rows(g))
        g = SampledFn(wg, g.values)
    return g, grid


def kernel_rows(fs, wg):
    """The kernel's (value, attaining row) lists of fs: each raw value
    taken back over the sweep's D·D, as ``c_conjugate``'s table does."""
    D, out = _c_conjugate_rows(fs, wg)
    back = (lambda v: v) if D is None else _over(D * D, fs[0].grid.backend)
    return [[(ExtReal(best if row is None else back(best)), row) for best, row in rows]
            for rows in out]


def one_row(f, wg):
    """The kernel's (value, attaining row) list of the one function f."""
    (rows,) = kernel_rows([f], wg)
    return rows


def outcome(fn, *args):
    """Tagged values with their payload types and renderings, or the
    error raised."""
    try:
        values = fn(*args).values
    except ValueError as exc:
        return ("raised", str(exc))
    rows = []
    for v in values:
        if v.is_pos_inf:
            rows.append(("+",))
        elif v.is_neg_inf:
            rows.append(("-",))
        else:
            rows.append(("f", type(v.value), repr(v)))
    return rows


def assert_first_attaining_rows(f, wg):
    """Each finite cell's row is the first row of dom f, in grid order,
    whose term <p, x*> - f(p) is the value."""
    dom = [(p, v.value) for p, v in zip(f.grid.points, f.values) if v.is_finite]
    for ww, (value, row) in zip(wg.points, one_row(f, wg)):
        if value.is_finite:
            assert row == next(r for r in dom if dot(r[0], ww.xstar) - r[1] == value.value)


# inf·0 is NaN: the dot of the second point with u* = 0 is NaN after a
# finite one, which a max that skips NaN would miss, leaving the gate open.
NAN_DOT_AFTER_A_FINITE_ONE = (
    SampledFn(Grid(1, [(0,), (math.inf,)], "float"), [ExtReal(0.0)] * 2),
    DualGrid([DualPoint.of((0,), (0,), 1, "float")]),
)


class TestKernelMatchesReference:
    @given(conjugate_case())
    @example(NAN_DOT_AFTER_A_FINITE_ONE)
    @settings(max_examples=300, deadline=None)
    def test_c_conjugate_bit_identical(self, case):
        f, wg = case
        result = outcome(c_conjugate, f, wg)
        assert result == outcome(reference_c_conjugate, f, wg)
        if result[0] != "raised":
            assert_first_attaining_rows(f, wg)

    @given(prime_conjugate_case())
    @settings(max_examples=300, deadline=None)
    def test_cprime_conjugate_bit_identical(self, case):
        g, grid = case
        assert outcome(cprime_conjugate, g, grid) == outcome(
            reference_cprime_conjugate, g, grid
        )

    @given(plain_conjugate_case())
    @settings(max_examples=150, deadline=None)
    def test_plain_scalar_falls_back_to_the_c_sweep(self, case):
        f, wg = case
        dom, _ = _split_dom(f)
        with scaling_log() as log:
            result = outcome(c_conjugate, f, wg)
        assert log.count(False) == (dom is not None)  # the sweep ran unscaled
        assert result == outcome(reference_c_conjugate, f, wg)

    @given(plain_prime_conjugate_case())
    @settings(max_examples=150, deadline=None)
    def test_plain_scalar_falls_back_to_the_cprime_sweep(self, case):
        g, grid = case
        dom, _ = _split_dom(g)
        with scaling_log() as log:
            result = outcome(cprime_conjugate, g, grid)
        assert log.count(False) == (dom is not None)  # the sweep ran unscaled
        assert result == outcome(reference_cprime_conjugate, g, grid)

    def test_nan_gate_blows_up_as_in_the_definition(self):
        # inf * 0 is NaN, and not (NaN < alpha): the gate fails at (inf, 0),
        # so the value is +inf although max <p, u*> over the finite dots
        # (5) is below alpha.
        grid = Grid(2, [(0, 5), (math.inf, 0)], "float")
        f = SampledFn(grid, [ExtReal(0.0)] * 2)
        wg = DualGrid([DualPoint.of((0, 0), (0, 1), 6, "float")])
        assert c_conjugate(f, wg).values == (POS_INF,)
        assert reference_c_conjugate(f, wg).values == (POS_INF,)

    def test_nan_alpha_shuts_the_prime_gate(self):
        wg = DualGrid(
            [
                DualPoint.of((1,), (0,), 1, "float"),
                DualPoint.of((0,), (0,), math.nan, "float"),
            ],
        )
        g = SampledFn(wg, [ExtReal(0.0), ExtReal(1.0)])
        grid = Grid(1, [(-1,), (0,)], "float")
        assert cprime_conjugate(g, grid).values == (POS_INF, POS_INF)
        assert reference_cprime_conjugate(g, grid).values == (POS_INF, POS_INF)

    def test_boundary_point_shuts_the_gate_but_not_its_neighbour(self):
        grid = Grid.uniform(-2, 2, 5)
        f = abs_on(grid)
        wg = tensor_dual_grid([(0,), (1,)], [(1,)], [2, 3])
        # <2, 1> = 2 sits on the alpha = 2 boundary and shuts that gate.
        expected = [POS_INF, ExtReal(0), POS_INF, ExtReal(0)]
        assert list(c_conjugate(f, wg).values) == expected
        assert list(reference_c_conjugate(f, wg).values) == expected

    def test_integer_gate_rounds_a_fractional_alpha_up(self):
        # alpha = 3/2 lies between the dots 1 and 2 of the points 0, 1 with
        # u* = 1.  The sweep's one scale D clears its denominator, so
        # max <P, U> = D² stays below D·A = (3/2)·D², while alpha = 1 puts
        # the point 1 on the boundary and shuts the gate.
        grid = Grid(1, [(0,), (1,)])
        f = SampledFn(grid, [ExtReal(0), ExtReal(0)])
        wg = DualGrid([w(1, 1, Fraction(3, 2)), w(1, 1, 1)])
        assert c_conjugate(f, wg).values == (ExtReal(1), POS_INF)
        assert reference_c_conjugate(f, wg).values == (ExtReal(1), POS_INF)
        for alpha, expected in ((Fraction(3, 2), (ExtReal(0), ExtReal(0))),
                                (1, (ExtReal(0), POS_INF))):
            g = SampledFn(DualGrid([w(0, 1, alpha)]), [ExtReal(0)])
            assert cprime_conjugate(g, grid).values == expected
            assert reference_cprime_conjugate(g, grid).values == expected

    def test_tied_rows_resolve_to_the_first(self):
        grid = Grid(1, [(-1,), (0,), (1,)])
        f = SampledFn(grid, [ExtReal(Fraction(1, 3)), ExtReal(5), ExtReal(Fraction(1, 3))])
        ((value, row),) = one_row(f, DualGrid([w(0, 0, 1)]))
        assert (value, row) == (ExtReal(Fraction(-1, 3)), ((Fraction(-1),), Fraction(1, 3)))

    def test_equal_slopes_of_two_types_keep_their_own_arithmetic(self):
        # x* = 1.0 and x* = 1 are equal but do not multiply alike, so they
        # share no Fenchel value and no least value of g.
        grid = Grid(1, [(0,), (1,)])
        f = SampledFn(grid, [ExtReal(0), ExtReal(Fraction(1, 3))])
        wg = DualGrid([DualPoint((1.0,), (Fraction(0),), Fraction(1)),
                       DualPoint((Fraction(1),), (Fraction(0),), Fraction(2))])
        assert outcome(c_conjugate, f, wg) == outcome(reference_c_conjugate, f, wg) == [
            ("f", float, "ExtReal(0.6666666666666667)"), ("f", Fraction, "ExtReal(2/3)")
        ]
        g = SampledFn(wg, [ExtReal(1), ExtReal(0)])
        assert outcome(cprime_conjugate, g, grid) == outcome(reference_cprime_conjugate, g, grid)
        assert outcome(cprime_conjugate, g, grid)[1] == ("f", Fraction, "ExtReal(1)")

    def test_empty_domain_and_neg_inf_are_constant(self):
        grid = Grid.uniform(-2, 2, 5)
        wg = tensor_dual_grid([(0,), (1,)], [(0,), (1,)], [1, -1])
        empty = SampledFn(grid, [POS_INF] * 5)
        assert set(c_conjugate(empty, wg).values) == {NEG_INF}
        dips = SampledFn(grid, [POS_INF, NEG_INF, ExtReal(0), POS_INF, ExtReal(1)])
        assert set(c_conjugate(dips, wg).values) == {POS_INF}


# ---------------------------------------------------------------------------
# The nested sweeps over product grids against the definitional sweeps
# ---------------------------------------------------------------------------


@st.composite
def product_values(draw, grid, rows, finite):
    """Values on a product grid of the given number of x rows: +inf cells,
    whole +inf rows and now and then one -inf cell; the finite values are
    ``finite`` at each point.  The rare draws are the largest integers,
    which hypothesis draws least."""
    size = len(grid) // rows
    empty = draw(st.sets(st.integers(0, rows - 1), max_size=2))
    values = [POS_INF if k // size in empty or draw(st.integers(0, 3)) == 3 else ExtReal(finite(p))
              for k, p in enumerate(grid.points)]
    if draw(st.integers(0, 7)) == 7:
        values[draw(st.integers(0, len(values) - 1))] = NEG_INF
    return values


@st.composite
def product_dual_grid(draw, dim, slope=None):
    """Dual points of a few x*, u* and alpha, as ``kernel_dual_grid``
    draws them, with gates that small grids often pass or meet exactly:
    u* in {-1, 0, 1} and alpha in {-1, 0, 1, 2, 4, 8}, or wide fractions.
    A given slope is one of the x*."""
    def vectors(values, most):
        vec = st.tuples(*[drawn_from(values, "rational")] * dim)
        return draw(st.lists(vec, min_size=1, max_size=most, unique=True))

    xstars, ustars = vectors(COORDS, 3), vectors([0, 1, -1], 2)
    if slope is not None and slope not in xstars:
        xstars[0] = slope
    alphas = draw(st.lists(drawn_from([1, 2, 4, 8, 0, -1], "rational"), min_size=1, max_size=3, unique=True))
    picks = draw(st.lists(st.tuples(st.integers(0, len(xstars) - 1), st.integers(0, len(ustars) - 1),
                                    st.integers(0, len(alphas) - 1)), min_size=1, max_size=10, unique=True))
    return DualGrid([DualPoint.of(xstars[i], ustars[j], alphas[k]) for i, j, k in picks])


@st.composite
def product_case(draw):
    """(f on X x Y, a dual grid of X x Y, g on it, X x Y) in the rational
    backend, the factors 1-D x 1-D, 2-D x 1-D or 1-D x 2-D.  The finite
    values of f tie within and across rows (few values, or an affine
    function, whose slope on the dual grid makes every term tie) or take
    wide fractions; g is random or f's conjugate."""
    dx, dy = draw(st.sampled_from([(1, 1), (2, 1), (1, 2)]))
    X, Y = draw(kernel_grid(dx, "rational", max_size=4)), draw(kernel_grid(dy, "rational", max_size=4))
    grid = product_grid(X, Y)
    kind, slope = draw(st.sampled_from(["few", "affine", "wide"])), None
    if kind == "affine":
        slope = draw(st.tuples(*[st.sampled_from(COORDS)] * (dx + dy)))
        const = draw(QUARTERS)
        finite = lambda p: dot(p, slope) + const
    else:
        pool = st.sampled_from([Fraction(0), Fraction(1, 2)]) if kind == "few" else WIDE_FRACTIONS
        finite = lambda p: draw(pool)
    f = SampledFn(grid, draw(product_values(grid, len(X), finite)))
    wg = draw(product_dual_grid(dx + dy, slope))
    if draw(st.booleans()):
        g = c_conjugate(f, wg) if _split_dom(f)[0] is not None else SampledFn(wg, [POS_INF] * len(wg))
    else:
        g = SampledFn(wg, draw(ext_values(len(wg), "rational", payloads("rational"))))
    return f, wg, g, grid


def on_product(xs, ys, values, duals, g_values=None):
    """An example of product_case: values on the 1-D x 1-D product of xs
    and ys against the dual points (x*, u*, alpha) of the product."""
    grid = product_grid(Grid(1, [(x,) for x in xs]), Grid(1, [(y,) for y in ys]))
    wg = DualGrid([DualPoint.of(x, u, a) for x, u, a in duals])
    g = SampledFn(wg, g_values or [ExtReal(0)] * len(wg))
    return SampledFn(grid, values), wg, g, grid


def exact(v):
    return ExtReal(Fraction(v))


# Row x = 0 has no finite cell; in row x = 1 the second dual point's
# terms tie.
EMPTY_FIRST_ROW = on_product([0, 1], [0, 1], [POS_INF, POS_INF, exact(1), exact(0)],
                             [((1, 1), (0, 0), 1), ((0, -1), (1, 0), 2)])
# x* = 0: the terms -1, 0, 0, -5 tie at (0, 1) and (1, 0); the first in
# x-major order is (0, 1), the second y of the least x.
TIED_X_ROWS = on_product([0, 1], [0, 1], [exact(1), exact(0), exact(0), exact(5)], [((0, 0), (0, 0), 1)],
                         [exact(0)])
# <(1, 1), (1, 1)> = 2 = alpha: the point (1, 1) shuts the gate, in the
# c-sweep (it is in dom f) and at (1, 1) in the c'-sweep.
ON_THE_BOUNDARY = on_product([0, 1], [0, 1], [exact(0), exact(1), exact(1), exact(0)],
                             [((1, 0), (1, 1), 2), ((1, 0), (1, 1), 3), ((0, 1), (0, 0), 1)],
                             [exact(0), exact(1), exact(0)])


class TestProductGrids:
    """The nested int sweeps over X x Y give the definitional values,
    payload types and first attaining rows."""

    @given(product_case())
    @example(EMPTY_FIRST_ROW)
    @example(TIED_X_ROWS)
    @example(ON_THE_BOUNDARY)
    @settings(max_examples=300, deadline=None)
    def test_nested_sweeps_match_the_reference(self, case):
        f, wg, g, grid = case
        result = outcome(c_conjugate, f, wg)
        assert result == outcome(reference_c_conjugate, f, wg)
        if result[0] != "raised":
            assert_first_attaining_rows(f, wg)
        assert outcome(cprime_conjugate, g, grid) == outcome(reference_cprime_conjugate, g, grid)

    def test_the_examples_reach_what_they_name(self):
        f, wg, _, _ = EMPTY_FIRST_ROW
        one = Fraction(1)
        assert one_row(f, wg) == [(exact(2), ((one, one), Fraction(0))), (exact(-1), ((one, 0 * one), one))]
        f, wg, g, grid = TIED_X_ROWS
        assert one_row(f, wg) == [(exact(0), ((Fraction(0), Fraction(1)), Fraction(0)))]
        f, wg, g, grid = ON_THE_BOUNDARY
        assert c_conjugate(f, wg).values == (POS_INF, exact(1), exact(1))
        assert cprime_conjugate(g, grid).values[3] == POS_INF
        with scaling_log() as log:
            for f, wg, g, grid in (EMPTY_FIRST_ROW, TIED_X_ROWS, ON_THE_BOUNDARY):
                c_conjugate(f, wg), cprime_conjugate(g, grid)
        assert log == [True] * 6  # the nested int sweeps ran


class TestIntegerPathRuns:
    """Counts only: every conjugate sweep of fenchel_abs asks ``_prepared``
    once and gets one scale, in both backends, since its float twin is
    dyadic; every sweep of thirds' float twin asks once and gets none."""

    SWEEPS = ("psi", "psi_prime", "f0_conj", "f0_biconj", "g_prime", "p_conj", "p_biconj")

    def per_sweep(self, monkeypatch, name, backend):
        """Whether _prepared gave a scale, per call during each sweep."""
        per_sweep = []
        with scaling_log() as log:
            for sweep_name in ("c_conjugate", "cprime_conjugate"):
                def sweep(*args, _real=getattr(duality, sweep_name)):
                    before = len(log)
                    out = _real(*args)
                    per_sweep.append(log[before:])
                    return out

                monkeypatch.setattr(duality, sweep_name, sweep)
            P = twin(name, backend)
            for attr in self.SWEEPS:
                getattr(P, attr)
        assert len(per_sweep) == len(self.SWEEPS)
        return per_sweep

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_every_sweep_of_fenchel_abs(self, monkeypatch, backend):
        assert self.per_sweep(monkeypatch, "fenchel_abs", backend) == [[True]] * len(self.SWEEPS)

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_every_sweep_of_thirds(self, monkeypatch, backend):
        expected = [[backend == "rational"]] * len(self.SWEEPS)
        assert self.per_sweep(monkeypatch, "thirds", backend) == expected


# ---------------------------------------------------------------------------
# The column kernel against the row-major sweeps it replaced
# ---------------------------------------------------------------------------


def _row_major_dot(exact):
    """The inner product of the row-major sweeps: ints in any order,
    values as given by the left fold of ``esets.dot``."""
    return (lambda a, b: sum(map(operator.mul, a, b))) if exact else dot


def as_backend(best, D, backend):
    """A value of the row-major sweeps: best as given (D None), or the int
    best over D·D as a Fraction or, for floats, the nearest double."""
    if D is None:
        return best
    return Fraction(best, D * D) if backend == "rational" else best / (D * D)


def row_major_c_conjugate_rows(f, w_grid):
    """The c-sweep as it was before the column kernel: one dot per
    (point, gate) and per (point, slope)."""
    dom, constant = dom_rows(f), _split_dom(f)[1]
    if dom is None:
        return [(constant, None)] * len(w_grid)
    w_points = w_grid.points
    D, ((points, ustars, xstars), _), (alphas, values) = _prepared(
        [p for p, _ in dom], ([w.ustar for w in w_points], [w.xstar for w in w_points]),
        ([w.alpha for w in w_points], [v for _, v in dom]),
    )
    inner = _row_major_dot(D is not None)
    highest, fenchel, out = {}, {}, []
    for u, alpha, x in zip(ustars, alphas, xstars):
        gate = _key(u)
        top = highest.get(gate)
        if top is None:
            tops = [inner(p, u) for p in points]
            top = highest[gate] = max(tops) if all(t == t for t in tops) else math.nan
        if not (top < alpha):
            out.append((POS_INF, None))
            continue
        slope = _key(x)
        cell = fenchel.get(slope)
        if cell is None:
            terms = [inner(p, x) - v for p, v in zip(points, values)]
            best = max(terms)
            value = ExtReal(as_backend(best, D, f.grid.backend))
            cell = fenchel[slope] = (value, dom[terms.index(best)])
        out.append(cell)
    return out


def row_major_cprime_conjugate(g, x_grid):
    """The c'-sweep as it was before the column kernel: point by point,
    every gate, then the max over every slope."""
    dom, constant = dom_rows(g), _split_dom(g)[1]
    if dom is None:
        return SampledFn(x_grid, [constant] * len(x_grid))
    D, ((points, ustars, xstars), _), (alphas, values) = _prepared(
        list(x_grid.points), ([w.ustar for w, _ in dom], [w.xstar for w, _ in dom]),
        ([w.alpha for w, _ in dom], [v for _, v in dom]),
    )
    inner = _row_major_dot(D is not None)
    gates, slopes = {}, {}
    for u, alpha, x, v in zip(ustars, alphas, xstars, values):
        gate = gates.setdefault(_key(u), [u, alpha])
        if alpha < gate[1] or alpha != alpha:
            gate[1] = alpha
        slope = slopes.setdefault(_key(x), [x, v])
        if v < slope[1]:
            slope[1] = v
    vals = []
    for p in points:
        if any(not (inner(p, u) < alpha) for u, alpha in gates.values()):
            vals.append(POS_INF)
        else:
            best = max(inner(p, x) - v for x, v in slopes.values())
            vals.append(ExtReal(as_backend(best, D, x_grid.backend)))
    return SampledFn(x_grid, vals)


def rendered(x):
    """repr with the payload type of every scalar inside, recursively."""
    if isinstance(x, tuple):
        return tuple(rendered(c) for c in x)
    if isinstance(x, ExtReal):
        return ("ExtReal", repr(x), type(x.value).__name__ if x.is_finite else None)
    return (repr(x), type(x).__name__)


def swept(fn, *args):
    """Every value (and attaining row) of a sweep, rendered, or the class
    of the error it raised: the kernel names the fields behind a NaN, the
    row-major sweep does not."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return ("raised", type(exc).__name__)
    return [rendered(cell) for cell in (out.values if isinstance(out, SampledFn) else out)]


# Coordinates whose products overflow to +-inf and whose sums then reach
# inf - inf = NaN, next to the small ones, the infinities and -0.0.
EDGE_COORDS = FLOAT_COORDS + [-0.0, 0.5, 1e308, -1e308, 1.5e308, -1.5e308]
TIED_ZEROS = (
    # Tied terms 0.0 - (-0.0) and 0.0 - 0.0: the first row, whose payload
    # is -0.0, attains.
    SampledFn(Grid(1, [(1,), (2,)], "float"), [ExtReal(-0.0), ExtReal(0.0)]),
    DualGrid([DualPoint.of((0,), (0,), 1, "float"), DualPoint.of((0,), (1,), -0.0, "float")]),
)
OVERFLOWING = (
    # <p, x*> is inf + -inf = NaN at the first point, the first term of
    # the max, and inf at the second; the second gate's dot overflows to
    # inf at the third.
    SampledFn(Grid(2, [(1e308, 1e308), (1e308, -1e308), (1.5e308, 0)], "float"),
              [ExtReal(0.0), ExtReal(1.0), ExtReal(0.0)]),
    DualGrid([DualPoint.of((1e308, -1e308), (0, 0), 1, "float"),
              DualPoint.of((-1e308, 1e308), (1e308, 0), 1, "float")]),
)
NAN_GATES = (
    # inf·0 and inf - inf make NaN gates; a NaN alpha shuts its gate too.
    SampledFn(Grid(3, [(math.inf, 0, 1), (1, 1, 1), (-1e308, 1e308, 0)], "float"),
              [ExtReal(0.0), ExtReal(0.5), ExtReal(-1.0)]),
    DualGrid([DualPoint.of((1, 0, 0), (0, 1, 0), 2, "float"),
              DualPoint.of((0, 0, 1), (1e308, 1e308, 0), 1, "float"),
              DualPoint.of((1, 1, 1), (0, 0, 1), math.nan, "float")]),
)


def nan_slope(first):
    """A c'-case whose first point meets a NaN term <(1e308, 1e308),
    (1e308, -1e308)> - 0 before or after a finite one: the running max
    keeps the NaN only when it comes first, as builtin max does."""
    nan_w = DualPoint.of((1e308, -1e308), (0, 0), 1, "float")
    finite_w = DualPoint.of((0, 0), (0, 0), 2, "float")
    wg = DualGrid([nan_w, finite_w] if first else [finite_w, nan_w])
    return SampledFn(wg, [ExtReal(0.0)] * 2), Grid(2, [(1e308, 1e308), (1, 1)], "float")


@st.composite
def edge_case(draw):
    """(function on a grid, dual grid, function on the dual grid, grid) in
    one backend and one dimension from 1 to 3."""
    backend = draw(st.sampled_from(("rational", "float")))
    dim = draw(st.integers(1, 3))
    grid = draw(kernel_grid(dim, backend, float_coords=EDGE_COORDS))
    wg = draw(kernel_dual_grid(dim, backend, float_coords=EDGE_COORDS))
    finite = payloads(backend) | st.sampled_from([Fraction(0), Fraction(10**308)])
    if backend == "float":
        finite = finite | st.just(-0.0)
    f = SampledFn(grid, draw(ext_values(len(grid), backend, finite)))
    g = SampledFn(wg, draw(ext_values(len(wg), backend, finite)))
    return f, wg, g, grid


# Starts of a fold: int 0 as the kernel folds from, signed zeros, and
# values whose sums with the first product overflow or cancel.
START_FLOATS = [0, 0.0, -0.0, 0.5, 1e308, -1e308]
START_FRACTIONS = [0, Fraction(0), Fraction(-7, 3), Fraction(10**308), Fraction(-10**308)]


@st.composite
def dots_case(draw):
    """(points, v, start) of one backend and one dimension from 1 to 3."""
    backend = draw(st.sampled_from(("rational", "float")))
    dim = draw(st.integers(1, 3))
    grid = draw(kernel_grid(dim, backend, float_coords=EDGE_COORDS))
    coords = drawn_from(EDGE_COORDS if backend == "float" else COORDS, backend)
    start = draw(st.sampled_from(START_FLOATS if backend == "float" else START_FRACTIONS))
    return grid.points, draw(st.tuples(*[coords] * dim)), start


def fold_from(start, p, v):
    """The left fold of ``esets.dot`` at the point p, from start."""
    total = start
    for q, c in zip(p, v):
        total += q * c
    return total


def as_edge_case(f, wg):
    """An example of edge_case: f on its grid against wg, and the same
    values on wg conjugated back to f's grid."""
    values = (list(f.values) * len(wg))[:len(wg)]
    return f, wg, SampledFn(wg, values), f.grid


def as_prime_case(g, grid):
    """An example of edge_case built around the c'-case (g, grid)."""
    return SampledFn(grid, [ExtReal(0.0)] * len(grid)), g.grid, g, grid


class TestColumnKernel:
    @given(edge_case())
    @example(as_edge_case(*TIED_ZEROS))
    @example(as_edge_case(*OVERFLOWING))
    @example(as_edge_case(*NAN_GATES))
    @example(as_edge_case(*NAN_DOT_AFTER_A_FINITE_ONE))
    @example(as_prime_case(*nan_slope(first=True)))
    @example(as_prime_case(*nan_slope(first=False)))
    @settings(max_examples=300, deadline=None)
    def test_byte_identical_to_the_row_major_sweeps(self, case):
        f, wg, g, grid = case
        assert swept(one_row, f, wg) == swept(row_major_c_conjugate_rows, f, wg)
        assert swept(cprime_conjugate, g, grid) == swept(row_major_cprime_conjugate, g, grid)

    def test_the_examples_reach_what_they_name(self):
        (_, row), _ = one_row(*TIED_ZEROS)
        assert rendered(row[1]) == ("-0.0", "float")  # the first of two tied rows
        with pytest.raises(NaNError, match="^grids.xstar/grids.ystar:"):
            one_row(*OVERFLOWING)
        f, wg = NAN_GATES
        assert c_conjugate(f, wg).values == (POS_INF,) * 3
        with pytest.raises(NaNError, match="^grids.xstar/grids.ystar:"):
            cprime_conjugate(*nan_slope(first=True))
        assert cprime_conjugate(*nan_slope(first=False)).values[0] == ExtReal(0.0)

    @given(dots_case())
    # Left to right, 1e308 + 1e308 overflows before -1e308 can cancel it.
    @example(([(1e308, 1e308, -1e308), (1e308, -1e308, 1e308)], (1.0, 1.0, 1.0), 0))
    # From -1e308 the first product cancels; from -0.0 a 0.0 product is 0.0.
    @example(([(1e308, 1e308), (0.0, -1.0)], (1.0, 1.0), -1e308))
    @example(([(0.0, 0.0), (-0.0, 1.0)], (1.0, -0.0), -0.0))
    @settings(max_examples=200, deadline=None)
    def test_dots_fold_like_esets_dot(self, case):
        points, v, start = case
        got = dots(list(zip(*points)), v, len(points), start)
        assert [rendered(t) for t in got] == [rendered(fold_from(start, p, v)) for p in points]
        if start.__class__ is int:
            assert [rendered(t) for t in got] == [rendered(dot(p, v)) for p in points]

    def test_no_points_give_no_dots(self):
        for start in START_FLOATS + START_FRACTIONS:
            assert dots([], (1, 2), 0, start) == []

    def test_no_columns_give_copies_of_the_start(self):
        for start in START_FLOATS + START_FRACTIONS:
            got = dots([], (), 3, start)
            assert len(got) == 3 and all(t is start for t in got)


@st.composite
def batch_case(draw):
    """Several functions on one grid and a dual grid.  Each draw of
    ``ext_values`` may be +inf anywhere (so domains differ and need not
    cover the grid), take -inf, or be +inf everywhere; rational draws take
    wide fractions, and now and then one rational function is made float
    among the Fraction ones.  Half the rational grids are products, whose
    sweeps nest."""
    backend = draw(st.sampled_from(["rational", "float"]))
    dim = draw(st.integers(1, 2))
    grid = draw(kernel_grid(dim, backend))
    if backend == "rational" and draw(st.booleans()):
        grid = product_grid(draw(kernel_grid(1, backend, max_size=4)), grid)
        dim += 1
    rows = draw(st.lists(ext_values(len(grid), backend, payloads(backend)), min_size=1, max_size=4))
    if backend == "rational" and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = [ExtReal(float(v.value)) if v.is_finite else v for v in rows[i]]
    return [SampledFn(grid, values) for values in rows], draw(kernel_dual_grid(dim, backend))


def batch_outcome(fs, wg):
    """The kernel's rows for all of fs in one call, rendered, or the error."""
    try:
        return [[rendered(cell) for cell in rows] for rows in kernel_rows(fs, wg)]
    except ValueError as exc:
        return ("raised", str(exc))


def single_outcomes(fs, wg):
    """The same with one call per function: the first error raised, if any."""
    try:
        return [[rendered(cell) for cell in one_row(f, wg)] for f in fs]
    except ValueError as exc:
        return ("raised", str(exc))


_MIXED_GRID = Grid(1, [(-1,), (0,), (1,), (2,)])
# Fraction functions whose domains differ and leave the point 2 out, an
# empty domain, a -inf value, wide fractions and one float function.
MIXED_ROWS = (
    [SampledFn(_MIXED_GRID, [ExtReal(Fraction(1, 3)), POS_INF,
                             ExtReal(Fraction(10**12 + 1, 2**40)), POS_INF]),
     SampledFn(_MIXED_GRID, [POS_INF, ExtReal(Fraction(-5, 7)), ExtReal(Fraction(1, 4)), POS_INF]),
     SampledFn(_MIXED_GRID, [POS_INF] * 4),
     SampledFn(_MIXED_GRID, [ExtReal(Fraction(0)), NEG_INF, POS_INF, POS_INF]),
     SampledFn(_MIXED_GRID, [ExtReal(0.25), POS_INF, ExtReal(-1.5), POS_INF])],
    DualGrid([w(Fraction(1, 3), 1, 2), w(Fraction(-2, 7), 0, 1), w(1, 1, Fraction(3, 2)),
              w(Fraction(1, 3), 1, 1)]),
)
# The NaN gates, next to a function on part of their grid.
NAN_GATE_ROWS = (
    [NAN_GATES[0], SampledFn(NAN_GATES[0].grid, [POS_INF, ExtReal(0.5), POS_INF])],
    NAN_GATES[1],
)


class TestBatchedSweep:
    """One kernel call for several functions on one grid gives, value by
    value and row by row, what one call per function gives."""

    @given(batch_case())
    @example(MIXED_ROWS)
    @example(NAN_GATE_ROWS)
    @example(([NAN_DOT_AFTER_A_FINITE_ONE[0]] * 2, NAN_DOT_AFTER_A_FINITE_ONE[1]))
    @settings(max_examples=300, deadline=None)
    def test_rows_match_one_call_per_function(self, case):
        fs, wg = case
        assert batch_outcome(fs, wg) == single_outcomes(fs, wg)

    def test_the_examples_reach_what_they_name(self):
        fs, wg = MIXED_ROWS
        with scaling_log() as log:
            rows = kernel_rows(fs, wg)
        assert log == [False]  # the float function sends every function off the ints
        # the point 1 of the first domain sits on the last gate's boundary
        assert [v.is_finite for v, _ in rows[0]] == [True, True, True, False]
        assert rows[2] == [(NEG_INF, None)] * 4 and rows[3] == [(POS_INF, None)] * 4
        assert [rendered(v)[2] for v, _ in rows[4]] == ["float", "float", "float", None]
        # the first gate, shut by inf·0 on the whole grid, is open on (1, 1, 1)
        fs, wg = NAN_GATE_ROWS
        nan_rows, part_rows = kernel_rows(fs, wg)
        assert [v for v, _ in nan_rows] == [POS_INF] * 3
        assert [v for v, _ in part_rows] == [ExtReal(0.5), POS_INF, POS_INF]

    def test_constant_functions_ask_for_no_scale(self):
        fs = [SampledFn(_MIXED_GRID, [POS_INF] * 4), SampledFn(_MIXED_GRID, [NEG_INF] * 4)]
        with scaling_log() as log:
            D, rows = _c_conjugate_rows(fs, MIXED_ROWS[1])
        # the raw form: no scale, and each cell the float -inf or +inf with no row
        assert log == [] and D is None
        assert rows == [[(-math.inf, None)] * 4, [(math.inf, None)] * 4]


def _distinct(vectors):
    return len({_key(v) for v in vectors})


def distinct_reads(ws, fields=("xstar", "ustar", "alpha")):
    """The coordinates a pass reads of the dual points ws when it reads
    each distinct x*, u* and alpha (by ``_key``) once."""
    ws = list(ws)
    return sum(len(key) for f in fields
               for key in {_key(getattr(w, f) if f != "alpha" else (w.alpha,)) for w in ws})


class TestColumnWork:
    """Counts only: the product-grid sweeps and the boundary scan take no
    per-point inner product, and each ``esets.dots`` column is taken once
    per distinct key a sweep needs: on floats as given (thirds' float
    twin) over the flattened product, on ints (the nested sweeps, also of
    the dyadic float twins) over one factor, once per distinct x-part and
    y-part.  The boundary scan takes one column per distinct gate, on ints
    on the product one over each factor."""

    @pytest.mark.parametrize("backend", ["rational", "float"])
    @pytest.mark.parametrize("name", LIFT_PROBLEMS)
    def test_one_column_per_distinct_key(self, name, backend, monkeypatch):
        P, on_ints = twin(name, backend), lifted(name, backend)
        f = P.phi_on_product
        counts = {"dot": 0, "dots": 0}
        reads = []  # (coordinates, points) of each esets.dots call

        def counted(fn, key):
            def wrapper(*args):
                counts[key] += 1
                if key == "dots":
                    reads.append((len(args[0]), args[2]))
                return fn(*args)
            return wrapper

        for module in (conjugation, esets, problemio):
            if getattr(module, "dot", None) is dot:
                monkeypatch.setattr(module, "dot", counted(dot, "dot"))
        monkeypatch.setattr(conjugation, "dots", counted(dots, "dots"))
        monkeypatch.setattr(problemio, "dots", counted(dots, "dots"))

        def work(build):
            before = dict(counts)
            del reads[:]
            build()
            return {key: counts[key] - before[key] for key in counts}

        d, sizes = P.x_grid.dim, (len(P.x_grid), len(P.y_grid))
        dom = dom_rows(f)
        expected = 0
        if dom is not None:
            needed = [w.xstar for w in P.full_dual_grid
                      if all(dot(p, w.ustar) < w.alpha for p, _ in dom)]
            ustars = [w.ustar for w in P.full_dual_grid]
            if not on_ints:
                expected = _distinct(ustars) + _distinct(needed)
            else:
                expected = (_distinct(u[:d] for u in ustars) + _distinct(x[:d] for x in needed)
                            + _distinct([u[d:] for u in ustars] + [x[d:] for x in needed]))
        assert work(lambda: P.psi) == {"dot": 0, "dots": expected}
        if on_ints:
            assert all(n <= max(sizes) and k in (d, P.y_grid.dim) for k, n in reads), reads

        dom = dom_rows(P.psi)
        expected = 0
        if dom is not None:
            ustars, xstars = [w.ustar for w, _ in dom], [w.xstar for w, _ in dom]
            if not on_ints:
                expected = _distinct(ustars) + _distinct(xstars)
            else:
                expected = (_distinct(u[:d] for u in ustars) + _distinct(x[:d] for x in xstars)
                            + _distinct([u[d:] for u in ustars] + [x[d:] for x in xstars]))
        assert work(lambda: P.psi_prime) == {"dot": 0, "dots": expected}
        if on_ints:
            assert all(n <= max(sizes) and k in (d, P.y_grid.dim) for k, n in reads), reads

        y_gates, gates = (_distinct((*w.ustar, w.alpha) for w in grid)
                          for grid in (P.dual_y_grid, P.full_dual_grid))
        per_gate = 2 if on_ints else 1  # the int (x,y) scan: X and Y
        scan = work(lambda: problemio.boundary_coincidences(P))
        assert scan == {"dot": 0, "dots": y_gates + per_gate * gates}
        if on_ints:
            assert all(n <= max(sizes) and k in (d, P.y_grid.dim) for k, n in reads), reads

    def test_doubling_the_x_star_adds_at_most_one_outer_row_per_new_slope(self, monkeypatch):
        # psi on a fixed 11 x 11 fenchel_abs grid, the x* in 0..3, then in
        # 0..7: each new (x*, y*) an open gate needs reads at most one
        # term per x, and the tables over Y, which depend on y* only, are
        # not taken again.  Counted as the items max and min see.
        seen = {"max": 0, "min": 0}

        def counting(name, real):
            def spy(*args, **kwargs):
                items = list(args[0]) if len(args) == 1 else list(args)
                seen[name] += len(items)
                return real(items, **kwargs)
            return spy

        monkeypatch.setattr(conjugation, "max", counting("max", max), raising=False)
        monkeypatch.setattr(conjugation, "min", counting("min", min), raising=False)

        def psi_work(xstars):
            doc = fenchel_abs_duality_grid(11)
            doc["grids"] = dict(doc["grids"], xstar=[str(v) for v in xstars])
            P = problemio.loads(json.dumps(doc)).build()
            P.phi_on_product
            before = dict(seen)
            P.psi
            dom = dom_rows(P.phi_on_product)
            needed = {w.xstar for w in P.full_dual_grid if all(dot(p, w.ustar) < w.alpha for p, _ in dom)}
            return {k: seen[k] - before[k] for k in seen}, needed, len(P.x_grid)

        (few, few_needed, x_size), (many, many_needed, _) = psi_work(range(4)), psi_work(range(8))
        new = len(many_needed - few_needed)
        assert new == 4 * 3  # x* in 4..7, each with the three y*
        assert 0 < many["max"] - few["max"] <= x_size * new
        assert many["min"] == few["min"]

    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    def test_the_int_sweeps_scale_the_factors_not_the_product(self, name):
        P = catalog_problem(name)
        P.phi_on_product
        d = P.x_grid.dim + P.y_grid.dim
        axes = P.x_grid.dim * len(P.x_grid) + P.y_grid.dim * len(P.y_grid)
        for sweep, conjugated, site in (("psi", "phi_on_product", "_c_conjugate_rows"),
                                        ("psi_prime", "psi", "cprime_conjugate")):
            with lcm_log() as log:
                getattr(P, sweep)
            dom = dom_rows(getattr(P, conjugated))
            if dom is None:
                assert log == []
                continue
            # each distinct u*, x* and alpha of the dual points read once,
            # over every dual point for psi and over dom psi for psi^{c'}.
            # dom's payloads are the int keys of an exact table, which
            # reach the lcm through one gcd with its scale, not through
            # _over_lcm.
            assert getattr(P, conjugated).scale is not None
            duals = P.full_dual_grid.points if sweep == "psi" else [w for w, _ in dom]
            (read,) = log
            assert read == (site, axes + distinct_reads(duals)), sweep
            assert distinct_reads(duals) <= len(duals) * (2 * d + 1)

    @pytest.mark.parametrize("case", ["example52", "fenchel_abs_n21"])
    def test_a_duality_command_scales_the_factors_not_the_product(self, case, tmp_path, capsys):
        if case == "example52":
            problem, P = case, catalog_problem(case)
        else:
            doc = fenchel_abs_duality_grid(21)
            problem = tmp_path / "n21.json"
            problem.write_text(json.dumps(doc), encoding="utf-8")
            P = problemio.loads(json.dumps(doc)).build()
        with lcm_log() as log:
            assert cli.main(["duality", str(problem)]) == 0
        capsys.readouterr()
        (dx, X), (dy, Y) = ((g.dim, len(g)) for g in (P.x_grid, P.y_grid))
        axes, points = dx * X + dy * Y, (dx + dy) * X * Y
        samples = [n for site, n in log if site == "_sample"]
        scans = [n for site, n in log if site == "boundary_coincidences"]
        # phi on the product reads the factors' coordinates, f0 the x-grid at
        # y = 0.  The scans read each distinct u* and alpha of the dual
        # points once besides the grid: Y, then the factors of the product.
        assert sorted(samples) == sorted([axes, (dx + dy) * X]) and points not in samples
        gates = ("ustar", "alpha")
        assert scans == [dy * Y + distinct_reads(P.dual_y_grid.points, gates),
                         axes + distinct_reads(P.full_dual_grid.points, gates)]

    def test_each_distinct_entry_is_read_once(self):
        """Counts only, on the duality benchmark's layout at n = 41 and with
        its y* axis doubled: psi, psi^{c'} and the scan hand ``_prepared``
        each distinct gate, slope and alpha once, not one per dual point.
        There are 3 gates (u*), 27 slopes (9 x* by 3 y*) and 1 alpha; dom
        psi meets one gate, and the Y-side scan one v*.  The scan's reads
        do not grow with y*."""
        def reads(ystars):
            doc = fenchel_abs_duality_grid(41)
            doc["grids"]["ystar"] = ystars
            P = problemio.loads(json.dumps(doc)).build()
            P.phi_on_product
            log, real = [], funcrep._prepared

            def prepared(grid, duals=(), scalars=()):
                log.append(([len(vs) for vs in duals], len(scalars[0])))  # scalars[0]: the alphas
                return real(grid, duals, scalars)

            out = []
            with mock.patch.object(funcrep, "_prepared", prepared):
                for build in (lambda: P.psi, lambda: P.psi_prime, lambda: problemio.boundary_coincidences(P)):
                    del log[:]
                    build()
                    out.append(list(log))
            return out, len(P.full_dual_grid)

        assert reads(["-1", "0", "1"]) == (
            [[([3, 27], 1)], [([1, 27], 1)], [([1], 1), ([3], 1)]], 81)
        assert reads(["-1", "0", "1", "-2", "2", "3"]) == (
            [[([3, 54], 1)], [([1, 54], 1)], [([1], 1), ([3], 1)]], 162)

    def test_a_dyadic_float_twin_reads_the_factors_as_the_rational_one(self):
        """fenchel_abs at n = 21 on the duality grid: the float twin's psi,
        psi^{c'} and boundary scans take the rational twin's ``dots``
        columns, each over the 21 points of one factor."""
        reads = {}
        for backend in ("rational", "float"):
            doc = dict(fenchel_abs_duality_grid(21), backend=backend)
            P = problemio.loads(json.dumps(doc)).build()
            P.phi_on_product
            log = []

            def counted(*args):
                log.append((len(args[0]), args[2]))
                return dots(*args)

            reads[backend] = []
            with mock.patch.object(conjugation, "dots", counted), mock.patch.object(problemio, "dots", counted):
                for build in (lambda: P.psi, lambda: P.psi_prime, lambda: problemio.boundary_coincidences(P)):
                    del log[:]
                    build()
                    reads[backend].append(list(log))
        assert reads["float"] == reads["rational"] and all(reads["float"])
        assert {read for calls in reads["float"] for read in calls} <= {(1, 21)}



# ---------------------------------------------------------------------------
# Float passes lifted onto ints against the same passes on floats as given
# ---------------------------------------------------------------------------

# Steps of the float entries: dyadic ones, which the certificate may lift,
# and 1/3 and 1/10, whose doubles have denominators 2^54 and 2^55, which
# it refuses.  Sizes put dim·max|P|·max|V| on both sides of 2^53: with
# coordinates and slopes near 2^24 it meets 2^53 in 2-D.  Payload sizes
# put D·max|S| near 2^52 when D is 1 or 4.
LIFT_STEPS = [1.0, 0.25, 2.0 ** -20, 1 / 3, 0.1]
LIFT_SIZES = [1, 2 ** 12, 2 ** 23, 2 ** 24, 2 ** 26]
PAYLOAD_SIZES = [1, 2 ** 47, 2 ** 49, 2 ** 51]
SPECIALS = [math.inf, -math.inf]


@st.composite
def lift_case(draw):
    """(f on X x Y, a dual grid of X x Y, g on it, X x Y, the dual grid of
    Y) in floats, the factors 1-D x 1-D, 2-D x 1-D or 1-D x 2-D.  Entries
    are small multiples of one step times a size, and -0.0; now and then
    an infinite coordinate or slope, or an infinite or NaN alpha.  f is an
    affine function whose slope is one of the x*, so terms tie, or takes
    payloads; alphas are drawn or the gate's value at a grid point, which
    then lies on its boundary; g is random or f's conjugate."""
    step = draw(st.sampled_from(LIFT_STEPS))
    special = draw(st.integers(0, 7)) == 0

    def entries(size):
        drawn = st.integers(-3, 3).map(lambda k: k * step * size) | st.just(-0.0)
        return drawn | st.sampled_from(SPECIALS) if special else drawn

    dx, dy = draw(st.sampled_from([(1, 1), (2, 1), (1, 2)]))
    coordinate = entries(draw(st.sampled_from(LIFT_SIZES)))
    X, Y = (Grid(d, draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=4, unique=True)), "float")
            for d in (dx, dy))
    grid = product_grid(X, Y)
    vector = st.tuples(*[entries(draw(st.sampled_from(LIFT_SIZES)))] * (dx + dy))
    xstars = draw(st.lists(vector, min_size=1, max_size=3, unique=True))
    ustars = draw(st.lists(vector | st.tuples(*[st.sampled_from([-1.0, 0.0, 1.0])] * (dx + dy)),
                           min_size=1, max_size=2, unique=True))
    payload = entries(draw(st.sampled_from(PAYLOAD_SIZES)))
    if draw(st.booleans()):
        slope, const = draw(st.sampled_from(xstars)), draw(payload)
        finite = lambda p: (lambda v: v if v == v else math.inf)(dot(p, slope) + const)  # inf·0
    else:
        finite = lambda p: draw(payload)
    f = SampledFn(grid, draw(product_values(grid, len(X), finite)))
    on_a_point = st.tuples(st.sampled_from(grid.points), st.sampled_from(ustars)).map(lambda q: dot(*q))
    alpha = payload | on_a_point | (st.sampled_from([math.inf, math.nan]) if special else st.nothing())
    alphas = draw(st.lists(alpha, min_size=1, max_size=3, unique_by=repr))
    picks = draw(st.lists(st.tuples(st.sampled_from(xstars), st.sampled_from(ustars), st.sampled_from(alphas)),
                          min_size=1, max_size=8, unique_by=repr))
    wg = DualGrid(dict.fromkeys(DualPoint(*pick) for pick in picks))
    if draw(st.booleans()) and _split_dom(f)[0] is not None:
        try:
            g = c_conjugate(f, wg)
        except NaNError:
            g = SampledFn(wg, [POS_INF] * len(wg))
    else:
        g = SampledFn(wg, draw(ext_values(len(wg), "float", payload.filter(math.isfinite))))
    wy = DualGrid(dict.fromkeys(DualPoint(w.xstar[dx:], w.ustar[dx:], w.alpha) for w in wg.points))
    return f, wg, g, grid, wy


def lift_outcomes(case):
    """Rendered, or the class of what they raised: the c-sweep's values and
    attaining rows, the c'-sweep's values, the boundary scan's rows."""
    f, wg, g, grid, _ = case
    rows, values = swept(one_row, f, wg), swept(cprime_conjugate, g, grid)
    return rows, values, [(space, rendered(p), w) for space, p, w in boundary_rows(case)]


def boundary_rows(case):
    """The boundary scan of the case's Y and X x Y."""
    _, wg, _, grid, wy = case
    P = SimpleNamespace(y_grid=grid.factors[1], dual_y_grid=wy, product=grid, full_dual_grid=wg)
    return coincidence_rows(problemio.boundary_coincidences(P))


def expected_lifts(case):
    """Per pass that asks ``_prepared``, whether ``certified`` lifts it: the
    c-sweep and the c'-sweep of a non-constant function, then the scan of
    Y and of the product."""
    f, wg, g, grid, wy = case
    out = []
    for h, duals in ((f, [(w, None) for w in wg.points]), (g, None)):
        dom = dom_rows(h)
        if dom is None:
            continue
        payloads = [v for tag, v in h.tagged() if tag == "f"]  # dom's values, also of an exact table
        ws = [w for w, _ in duals] if duals else [w for w, _ in dom]
        out.append(certified(grid.points, ([w.ustar for w in ws], [w.xstar for w in ws]),
                             ([w.alpha for w in ws], payloads)))
    for points, ws in ((grid.factors[1].points, wy.points), (grid.points, wg.points)):
        out.append(certified(points, ([w.ustar for w in ws],), ([w.alpha for w in ws],)))
    return out


def dyadic_case(values, duals, g_values, xs=(-1.0, 0.5), ys=(-0.0, 0.25)):
    """An example of lift_case on the 1-D x 1-D product of xs and ys."""
    X, Y = Grid(1, [(x,) for x in xs], "float"), Grid(1, [(y,) for y in ys], "float")
    grid = product_grid(X, Y)
    wg = DualGrid([DualPoint.of(x, u, a, "float") for x, u, a in duals])
    wy = DualGrid(dict.fromkeys(DualPoint(w.xstar[1:], w.ustar[1:], w.alpha) for w in wg.points))
    return SampledFn(grid, values), wg, SampledFn(wg, g_values), grid, wy


# The affine f = <p, (1, 1)>, whose slope is an x*, on grids with -0.0:
# its four terms tie at 0, the first 0.0 - -0.0 at the payload -0.0.
SIGNED_ZERO_TIES = dyadic_case(
    [ExtReal(-0.0), ExtReal(0.25), ExtReal(0.5), ExtReal(0.75)],
    [((1.0, 1.0), (0.0, 0.0), 1.0), ((0.0, 1.0), (0.0, 0.0), 1.0)],
    [ExtReal(-0.0), ExtReal(0.0)],
    xs=(-0.0, 0.5),
)
# <(0.5, 0.25), (1, 2)> = 1 = alpha: (0.5, 0.25) lies on the boundary of
# the first gate, which it shuts in both sweeps.
ON_A_FLOAT_BOUNDARY = dyadic_case(
    [ExtReal(0.0)] * 4,
    [((1.0, 0.0), (1.0, 2.0), 1.0), ((0.0, 1.0), (0.0, 1.0), 0.5)],
    [ExtReal(0.0), ExtReal(-0.25)],
)
# Coordinates and slopes near 2^26 and payloads of 2^52: the sweeps' B
# passes 2^53, and the flat term 2^53 + 2^26 - 3 at (2^26, 2^26) rounds;
# the scans' u* = 0, so they lift.
PAST_THE_BOUND = dyadic_case(
    [ExtReal(2.0 ** 52), ExtReal(3.0), ExtReal(-(2.0 ** 52)), POS_INF],
    [((2.0 ** 26, 2.0 ** 26 + 1), (0.0, 0.0), 1.0)],
    [ExtReal(2.0 ** 52)],
    xs=(2.0 ** 26, 1.0), ys=(0.0, 2.0 ** 26),
)


class TestFloatLift:
    """Float sweeps and scans lifted onto ints give, byte for byte, what
    the same passes give on the floats as given, and they lift exactly
    when ``certified`` says no IEEE operation of the pass can round."""

    @given(lift_case())
    @example(SIGNED_ZERO_TIES)
    @example(ON_A_FLOAT_BOUNDARY)
    @example(PAST_THE_BOUND)
    @settings(max_examples=300, deadline=None)
    def test_lifted_passes_match_the_flat_ones(self, case):
        with scaling_log() as log:
            lifted_outcomes = lift_outcomes(case)
        with unlifted(), scaling_log() as flat:
            assert lift_outcomes(case) == lifted_outcomes
        assert log == expected_lifts(case) and not any(flat)

    def test_the_examples_reach_what_they_name(self):
        with scaling_log() as log:
            (tied, other), _, scan = lift_outcomes(SIGNED_ZERO_TIES)
        assert log == [True] * 4
        assert tied == (rendered(ExtReal(0.0)), rendered(((-0.0, -0.0), -0.0)))  # the first of four ties
        f, wg, g, grid, _ = ON_A_FLOAT_BOUNDARY
        with scaling_log() as log:
            assert c_conjugate(f, wg).values[0] == POS_INF
            assert cprime_conjugate(g, grid).values[3] == POS_INF
            assert [p for _, p, _ in boundary_rows(ON_A_FLOAT_BOUNDARY)] == [(0.5, 0.25)]
        assert log == [True] * 4
        with scaling_log() as log:
            lift_outcomes(PAST_THE_BOUND)
        assert log == [False, False, True, True]

    def test_the_bound_is_strict(self):
        """B = 1·2^26·2^26 + 1·alpha: 2^53 - 1 lifts, 2^53 does not."""
        grid = Grid(1, [(2.0 ** 26,)], "float")
        for alpha, lifts in ((2.0 ** 52 - 1, True), (2.0 ** 52, False)):
            D, _, _ = _prepared(grid, ([(2.0 ** 26,)],), ([alpha],))
            assert (D is not None) is lifts is certified(grid.points, ([(2.0 ** 26,)],), ([alpha],))

    def test_the_scale_is_capped_at_2_to_the_500(self):
        for k, lifts in ((500, True), (501, False)):
            tiny = 2.0 ** -k
            grid = Grid(1, [(tiny,), (3 * tiny,)], "float")
            D, _, _ = _prepared(grid, ([(2.0 ** -480,)],), ([0.0],))
            assert (D == 2 ** 500 if lifts else D is None), k

    @pytest.mark.parametrize("entry", [1 / 3, 0.1, math.inf, -math.inf, math.nan])
    def test_what_no_int_holds_stays_as_given(self, entry):
        grid = product_grid(Grid(1, [(0.0,), (1.0,)], "float"), Grid(1, [(0.5,)], "float"))
        for duals, scalars in ((([(entry, 1.0)],), ([1.0],)), (([(1.0, 0.0)],), ([entry],))):
            D, blocks, given = _prepared(grid, duals, scalars)
            assert D is None and blocks == [(grid.points, *duals), (((),), [()])] and given == scalars
        assert _prepared(grid, ([(1.0, 1.0)],), ([1.0],))[0] == 2

    @pytest.mark.parametrize("backend", ["float", "rational"])
    def test_a_lifted_sweep_keeps_the_type_of_its_entries(self, backend):
        """The values of a scaled c-conjugate are of the type of the entries
        it scaled, as the definitional sweep's are."""
        f = SampledFn(Grid(1, [(-1,), (0,), (1,)], backend),
                      [ExtReal(scalar(v, backend)) for v in (2, 1, Fraction(1, 2))])
        wg = DualGrid([DualPoint.of(1, 0, 1, backend), DualPoint.of(-1, 0, 1, backend)])
        with scaling_log() as log:
            out = c_conjugate(f, wg)
        assert log == [True] and {v.backend for v in out.values} == {backend}
        assert out.values == tuple(conjugate_value(f, w) for w in wg.points)

    @pytest.mark.parametrize("alpha, lifts", [(0.5, True), (0.1, False)])
    def test_a_sweep_keeps_its_backend_lifted_or_not(self, alpha, lifts):
        """On fenchel_abs' float twin, a sweep is in the float backend
        whether it runs on ints (alpha 0.5) or on the floats as given (0.1,
        which is not dyadic)."""
        f0 = twin("fenchel_abs", "float").f0
        with scaling_log() as log:
            out = c_conjugate(f0, DualGrid([DualPoint((1.0,), (0.0,), alpha)]))
        assert log == [lifts] and out.backend == "float"
        assert {v.backend for v in out.values} == {"float"}

    def test_the_sampler_keeps_floats_as_given(self):
        grid = product_grid(Grid(1, [(0.0,), (1.0,)], "float"), Grid(1, [(0.5,)], "float"))
        assert _prepared(grid)[0] is None
        assert _prepared(grid, ([(1.0, 1.0)],))[0] == 2


class TestTableBackends:
    """A table's backend is its source's: a sweep's that of the function
    it conjugates, a table read off another that one's, and a table given
    by its values that of its first finite value, never a dual grid's."""

    @pytest.mark.parametrize("name", ["fenchel_abs", "thirds"])
    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_a_tables_backend_follows_its_source(self, name, backend):
        P = twin(name, backend)
        L = CLagrangian(P)
        pairs = [(P.phi_on_product, P), (P.p_fn, P.phi_on_product), (P.psi, P.phi_on_product),
                 (P.psi_prime, P.psi), (P.psi_block_min, P.psi), (P.g_on_dual_y, P.psi),
                 (P.g_prime, P.g_on_dual_y), (P.p_conj, P.p_fn), (P.p_biconj, P.p_conj),
                 (P.f0_conj, P.f0), (P.f0_biconj, P.f0_conj), (P.phi_biconj_at_zero, P.psi_prime)]
        pairs += [(s, P.phi_on_product) for s in L.slices]
        pairs += [(c, s) for c, s in zip(L.slice_conjugates, L.slices)]
        assert [table.backend for table, _ in pairs] == [source.backend for _, source in pairs]
        assert {table.backend for table, _ in pairs} == {backend}

    def test_a_value_table_on_a_dual_grid_takes_its_values_backend(self):
        wg = tensor_dual_grid([(0,), (1,)], [(0,)], [1], "float")
        for values, backend in (([POS_INF, ExtReal(Fraction(1, 2))], "rational"),
                                ([ExtReal(0.5), ExtReal(Fraction(1))], "float"),
                                ([POS_INF, NEG_INF], None)):
            assert SampledFn(wg, values).backend == backend

    def test_a_rational_value_table_conjugates_to_fractions_on_ints(self):
        f = SampledFn(Grid(1, [(-1,), (0,), (1,)]), [ExtReal(Fraction(v)) for v in (2, 1, Fraction(1, 2))])
        with scaling_log() as log:
            out = c_conjugate(f, tensor_dual_grid([(1,), (-1,)], [(0,)], [1]))
        assert log == [True] and out.scale is not None and out.backend == "rational"
        assert [v.value.__class__ for v in out.values] == [Fraction, Fraction]

    @pytest.mark.parametrize("name", ["fenchel_abs", "thirds"])
    def test_float_twins_lifted_or_not_keep_float_values(self, name):
        P = twin(name, "float")
        P.phi_on_product  # the sampler keeps floats as given
        with scaling_log() as log:
            tables = [P.psi, P.g_on_dual_y, P.psi_block_min, *CLagrangian(P).slice_conjugates]
        assert set(log) == {lifted(name, "float")}
        assert {v.value.__class__ for f in tables for v in f.values if v.is_finite} == {float}


class TestDualPointHash:
    def test_a_dual_grid_hashes_each_point_once(self):
        """Counts only: building a grid and looking every point up hashes
        each Fraction field of each point once."""
        points = [DualPoint.of((k, 1), (0, k), Fraction(k, 3)) for k in range(4)]
        points += [DualPoint.of((k, 1), (0, k), 1) for k in range(4, 8)]
        hashed, real = [], Fraction.__hash__

        def counted(self):
            hashed.append(self)
            return real(self)

        with mock.patch.object(Fraction, "__hash__", counted):
            grid = DualGrid(points)
            for i, p in enumerate(points):
                assert grid.index_of(p) == i and p in grid and hash(p) == hash(p)
        assert len(hashed) == 5 * len(points)
        with pytest.raises(ValueError, match="duplicate dual point"):
            DualGrid(points + [DualPoint.of((0, 1), (0, 0), 0)])

    def test_equality_and_hash_are_those_of_the_fields(self):
        a, b = DualPoint.of((1,), (2,), 3), DualPoint.of((1,), (2,), 3)
        assert hash(a) == hash(((Fraction(1),), (Fraction(2),), Fraction(3)))
        assert a == b and hash(b) == hash(a) and a is not b
        assert a != dataclasses.replace(a, alpha=Fraction(4))
        assert hash(dataclasses.replace(a, alpha=Fraction(4))) == hash(((Fraction(1),), (Fraction(2),), Fraction(4)))
        assert repr(a) == "DualPoint(xstar=(Fraction(1, 1),), ustar=(Fraction(2, 1),), alpha=Fraction(3, 1))"
        assert {a: 1}[b] == 1 and len({a, b}) == 1


# Few values, so that axes repeat entries and embeddings meet the pairs.
AXIS_VALUES = [0, 1, -1, Fraction(1, 3)]


def axis_entries(d, backend, min_size=0, unique=False):
    """Lists of up to 3 vectors of dimension d, empty one time in six when
    min_size is 0; with unique, distinct once coerced to the backend."""
    vectors = st.tuples(*[st.sampled_from(AXIS_VALUES)] * d)
    by = {"unique_by": lambda v: tuple(scalar(c, backend) for c in v)} if unique else {}
    drawn = st.lists(vectors, min_size=max(min_size, 1), max_size=3, **by)
    if min_size:
        return drawn
    return st.integers(0, 5).flatmap(lambda k: st.just([]) if k == 0 else drawn)


@st.composite
def factored_case(draw):
    """(build the factored grid, build the flat oracle, probe points):
    ``tensor_dual_grid`` or ``pair_tensor_dual_grid`` in either backend,
    on 1-D and 2-D axes that may be empty, hold one entry or repeat one,
    and alphas that may be 0 or negative.  Probes are points of the flat
    grid and points built from the same values, mostly off it."""
    backend = draw(st.sampled_from(["rational", "float"]))
    dx, dy = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    xs, us = draw(axis_entries(dx, backend)), draw(axis_entries(dx, backend))
    alphas = draw(st.lists(st.sampled_from([1, 2, 0, -1, Fraction(1, 2)]), min_size=1, max_size=3)
                  | st.just([]))
    if draw(st.booleans()):
        make = lambda: conjugation.tensor_dual_grid(xs, us, alphas, backend)
        flat = lambda: oracles._tensor([xs], [us], alphas, backend)
        d = dx
    else:
        ys, vs = draw(axis_entries(dy, backend)), draw(axis_entries(dy, backend))
        make = lambda: conjugation.pair_tensor_dual_grid(xs, ys, us, vs, alphas, backend)
        flat = lambda: oracles._tensor([xs, ys], [us, vs], alphas, backend)
        d = dx + dy
    drawn = built(flat)
    points = [] if drawn is ValueError else list(drawn.points)
    vector = st.tuples(*[st.sampled_from(AXIS_VALUES)] * d)
    other = st.builds(lambda x, u, a: DualPoint.of(x, u, a, backend), vector, vector,
                      st.sampled_from([1, 2, 3]))
    probes = draw(st.lists(st.sampled_from(points) | other if points else other, max_size=4))
    return make, flat, probes


@st.composite
def factored_problem(draw):
    """(P, the full dual pairs it was given): a table problem with 1-D or
    2-D x and y grids in either backend.  The pairs are a pair tensor, the
    same points given one by one, the tensor of the concatenated axes (a
    block the x side cannot split), or absent; the Y-side grid is a tensor
    or a point list.  x* and u* may miss 0, and the Y-side axes are drawn
    apart from the pairs', so none, some or all embeddings are pairs."""
    backend = draw(st.sampled_from(["rational", "float"]))
    dx, dy = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    xs, us = draw(axis_entries(dx, backend, unique=True)), draw(axis_entries(dx, backend, unique=True))
    ys, vs = (draw(axis_entries(dy, backend, min_size=1, unique=True)) for _ in range(2))
    alphas = draw(st.lists(st.sampled_from([1, 2, Fraction(1, 2)]), min_size=1, max_size=2, unique=True))
    y_axes = [draw(st.sampled_from([ys, vs]) | axis_entries(dy, backend, min_size=1, unique=True))
              for _ in range(2)]
    y_alphas = draw(st.sampled_from([alphas, [1], [3, 1]]))
    dual_y = tensor_dual_grid(*y_axes, y_alphas, backend)
    if draw(st.booleans()):
        dual_y = DualGrid(dual_y.points)
    kind = draw(st.sampled_from(["pair", "points", "concatenated", "none"]))
    pairs = {
        "pair": lambda: conjugation.pair_tensor_dual_grid(xs, ys, us, vs, alphas, backend),
        "points": lambda: DualGrid(oracles._tensor([xs, ys], [us, vs], alphas, backend).points),
        "concatenated": lambda: tensor_dual_grid([x + y for x in xs for y in ys],
                                                 [u + v for u in us for v in vs], alphas, backend),
        "none": lambda: None,
    }[kind]()
    x_grid = Grid(dx, [(0,) * dx, (1,) * dx], backend)
    y_grid = Grid(dy, [(0,) * dy], backend)
    zero = ExtReal(scalar(0, backend))
    phi = funcrep.PerturbFn(dx, dy, table={(x, y): zero for x in x_grid.points for y in y_grid.points})
    return duality.PerturbationProblem(phi, x_grid, y_grid, dual_y, pairs), pairs


def built(make):
    """make(), or ValueError when it raises one."""
    try:
        return make()
    except ValueError:
        return ValueError


def index_or_error(grid, point):
    try:
        return grid.index_of(point)
    except KeyError:
        return KeyError


# The alphas of the first, second and third product block of a stacked
# grid: apart, so that no two products share a point.
PRODUCT_ALPHAS = ([1, 2, Fraction(1, 2)], [3, Fraction(5, 2)], [4])


@st.composite
def stacked_grid(draw):
    """(grid, its flat oracle, backend, n, d, probes): a dual grid of dimension
    n = 1..3 that no loader builds, in either backend, as up to four
    blocks one after another.  A product block is a three-axis
    ``tensor_dual_grid`` or a ``pair_tensor_dual_grid`` whose x* axis has
    any dimension from 1 to n, on axes that may be empty, and zipped
    blocks of points come before, between and after the products, each
    keeping the points on no other block.  d is the x* dimension of the
    first product (n with none).  Every entry but alpha is 0 or 1, so
    projections repeat within and across blocks.  The probes are points
    built from the same values, mostly off the grid."""
    backend = draw(st.sampled_from(["rational", "float"]))
    n = draw(st.integers(1, 3))
    bits = lambda k: st.tuples(*[st.sampled_from([0, 1])] * k)
    axis = lambda k: draw(st.lists(bits(k), max_size=3, unique=True))
    point = st.builds(lambda x, u, a: DualPoint.of(x, u, a, backend), bits(n), bits(n),
                      st.sampled_from([1, 2, 3]))
    specs, dims = [], []
    for kind in draw(st.lists(st.sampled_from(["points", "product"]), max_size=4)):
        if kind == "points":
            specs.append(draw(st.lists(point, max_size=4, unique=True)))
            continue
        alphas = draw(st.lists(st.sampled_from(PRODUCT_ALPHAS[len(dims)]), max_size=2, unique=True))
        k = draw(st.integers(1, n))
        if k == n and draw(st.booleans()):
            xs, us = axis(n), axis(n)
            specs.append((tensor_dual_grid(xs, us, alphas, backend), oracles._tensor([xs], [us], alphas, backend)))
        else:
            axes = [axis(k), axis(n - k)], [axis(k), axis(n - k)]
            specs.append((conjugation.pair_tensor_dual_grid(*axes[0], *axes[1], alphas, backend),
                          oracles._tensor(*axes, alphas, backend)))
        dims.append(k)
        if len(dims) == len(PRODUCT_ALPHAS):
            break
    taken = {w for spec in specs if isinstance(spec, tuple) for w in spec[1].points}
    blocks, flat = [], []
    for spec in specs:
        if isinstance(spec, tuple):
            grid, points = spec[0], spec[1].points
        else:
            points = [w for w in spec if w not in taken]
            taken.update(points)
            grid = DualGrid(points)
        blocks += grid.blocks
        flat += points
    vector = bits(n)
    other = st.builds(lambda x, u, a: DualPoint.of(x, u, a, backend), vector, vector,
                      st.sampled_from([1, 2, 3, 4, Fraction(1, 2)]))
    probes = draw(st.lists(st.sampled_from(flat) | other if flat else other, max_size=4))
    return DualGrid._of(blocks), DualGrid(flat), backend, n, dims[0] if dims else n, probes


def same_grid(grid, flat, probes=()):
    """grid and the flat oracle agree on every point and every query, the
    oracle's queries read off its tuple of points; ``grid[i]`` answers as
    ``points[i]`` at every index, negative ones too, and raises IndexError
    just past either end; ``codes`` index each point's entries in
    ``parts``.  A probe is on grid as on the oracle, at the same index."""
    n = len(flat.points)
    assert grid.points == flat.points and len(grid) == n
    assert grid.alpha_positive == all(p.alpha > 0 for p in flat.points)
    for i, p in enumerate(flat.points):
        assert grid.index_of(p) == i and p in grid and grid[i] == p and grid[i - n] == p
    for i in (-n - 1, n):
        with pytest.raises(IndexError):
            grid[i]
    slopes, gates, alphas = grid.parts
    assert [DualPoint(slopes[s], gates[g], alphas[a]) for s, g, a in grid.codes()] == list(flat.points)
    for p in probes:
        assert (p in grid) == (p in flat.points)
        assert index_or_error(grid, p) == (flat.points.index(p) if p in flat.points else KeyError)


class TestTensorDualGrids:
    def test_the_paired_grid_is_flat_in_loop_order(self):
        grid = conjugation.pair_tensor_dual_grid([(1,), (2,)], [(3,)], [(4,)], [(5,), (6,)], [7, 8])
        assert grid.points == tuple(
            DualPoint.of((xs, 3), (4, vs), a) for xs in (1, 2) for vs in (5, 6) for a in (7, 8))

    def test_mismatched_blocks_raise(self):
        # The totals agree (|x*| + |y*| = |u*| + |v*| = 3); the blocks do not.
        with pytest.raises(ValueError, match="paired dual point blocks must match dimensions"):
            conjugation.pair_tensor_dual_grid([(1,)], [(1, 2)], [(1, 2)], [(1,)], [1])

    @given(factored_case())
    @settings(max_examples=200, deadline=None)
    def test_the_factored_grids_match_the_flat_ones(self, case):
        """Both tensor constructors against the flat oracle, point by point: points,
        len, grid[i], index_of (a KeyError off the grid), in,
        alpha_positive and the duplicate-point ValueError."""
        make, flat, probes = case
        grid, reference = built(make), built(flat)
        assert (grid is ValueError) == (reference is ValueError)
        if grid is ValueError:
            return
        same_grid(grid, reference, probes)

    @given(factored_problem())
    @settings(max_examples=150, deadline=None)
    def test_the_problem_grids_match_the_flat_ones(self, case):
        """full_dual_grid, the embeddings' indices, x_side_grid and the
        per-flat x-side index against the problem built point by point,
        with and without a block of embedded points."""
        P, pairs = case
        flat = oracles.full_dual_grid(P, pairs)
        same_grid(P.full_dual_grid, flat)
        assert P._embedded == [flat.index_of(oracles.embed(P, w)) for w in P.dual_y_grid.points]
        x_grid, index = oracles.x_sides(P)
        same_grid(P.x_side_grid, x_grid)
        assert P._x_sides[1] == index

    @given(stacked_grid(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_extended_matches_the_flat_full_dual_grid(self, case, data):
        """A stacked grid against its flat oracle, then ``extended``
        against ``oracles.full_dual_grid``: the embeddings of a Y-side grid
        of dimension n - k appended to a grid of X x Y."""
        grid, flat, backend, n, _, probes = case
        same_grid(grid, flat, probes)
        k = data.draw(st.integers(1, n))
        bits = st.tuples(*[st.sampled_from([0, 1, -1])] * (n - k))
        ws = data.draw(st.lists(st.builds(lambda y, v, a: DualPoint.of(y, v, a, backend),
                                          bits, bits, st.sampled_from([1, 2])), max_size=4, unique=True))
        P = SimpleNamespace(x_grid=Grid(k, [(0,) * k], backend), dual_y_grid=DualGrid(ws))
        extended = grid.extended([oracles.embed(P, w) for w in ws])
        same_grid(extended, oracles.full_dual_grid(P, grid), probes)

    @given(stacked_grid(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_projected_matches_the_flat_x_sides(self, case, data):
        """``projected`` against ``oracles.x_sides`` at every d from 1 to
        the full dimension, half the time at the first product's x*
        dimension."""
        grid, flat, _, n, d, _ = case
        d = data.draw(st.just(d) | st.integers(1, n))
        P = SimpleNamespace(full_dual_grid=flat, x_grid=SimpleNamespace(dim=d))
        projected, index = grid.projected(d)
        x_flat, flat_index = oracles.x_sides(P)
        same_grid(projected, x_flat)
        assert index == flat_index

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_projecting_a_first_product_builds_no_dual_point(self, backend):
        """Counts only: at every d, ``projected`` reads a first product
        block, a three-axis tensor or a pair tensor of any x* dimension,
        by its entries and builds no ``DualPoint``."""
        entries = lambda k: [(0,) * k, (1,) * k]
        grids = [tensor_dual_grid(entries(3), entries(3), [1, 2], backend)]
        grids += [conjugation.pair_tensor_dual_grid(entries(k), entries(3 - k), entries(k), entries(3 - k),
                                                    [1, 2], backend) for k in (1, 2)]
        built, real = [], DualPoint.__post_init__

        def counted(self):
            built.append(self)
            real(self)

        for grid in grids:
            for d in (1, 2, 3):
                with mock.patch.object(DualPoint, "__post_init__", counted):
                    projected, index = grid.projected(d)
                assert built == [] and len(index) == len(grid)

    @given(stacked_grid(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_extended_and_projected_check_only_the_blocks_they_add(self, case, data):
        """Counts only: ``extended`` and ``projected`` build a lookup dict
        (``_distinct``) for each list of a block they add, a zipped
        block's points or a product's three lists, and none for a block
        they keep."""
        grid, _, _, n, d, probes = case
        checked, real = [], conjugation._distinct

        def counted(entries):
            checked.append(entries)
            return real(entries)

        def added(new, kept):
            return [entries for *lists, given in new.blocks[kept:]
                    for entries in (lists if given is None else [given])]

        with mock.patch.object(conjugation, "_distinct", counted):
            extended = grid.extended(dict.fromkeys(probes))
        assert extended.blocks[:len(grid.blocks)] == grid.blocks
        assert checked == added(extended, len(grid.blocks))
        del checked[:]
        with mock.patch.object(conjugation, "_distinct", counted):
            projected, _ = grid.projected(data.draw(st.just(d) | st.integers(1, n)))
        assert checked == added(projected, 0)


# ---------------------------------------------------------------------------
# The one definitional sup against its term-by-term oracle
# ---------------------------------------------------------------------------

# Couplings and payloads from a narrow range, so terms tie often.
SUP_VALUES = (0, 1, -1, 2, Fraction(1, 2))


@st.composite
def sup_minus_case(draw):
    """(couplings, tagged rows) of one column.  A coupling is None (a shut
    gate) one time in six; in the float backend it may also be NaN (inf·0
    in <p, x*>) or an infinity (a dot that overflows), and a zero may
    carry either sign.  A row is +inf or -inf one time in five each, and
    one draw in five makes every row +inf (an empty domain).  Rational
    draws keep plain ints beside Fractions, as the checks' ints do."""
    backend = draw(st.sampled_from(["rational", "float"]))
    n = draw(st.integers(0, 6))
    empty = draw(st.integers(0, 4)) == 4

    def number():
        v = draw(drawn_from(SUP_VALUES, backend))
        if backend == "rational":
            return v
        v = float(v)
        return -0.0 if v == 0 and draw(st.booleans()) else v

    kinds = ["value"] * 5 + ["shut"] + (["nan", "inf", "-inf"] if backend == "float" else [])
    couplings, rows = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        couplings.append({"shut": None, "nan": math.nan, "inf": math.inf,
                          "-inf": -math.inf}.get(kind) if kind != "value" else number())
        tag = "+" if empty else draw(st.sampled_from(["f", "f", "f", "+", "-"]))
        rows.append((tag, number() if tag == "f" else None))
    return couplings, rows


def sup_outcome(fn, couplings, rows):
    """The rendering and payload type of fn's sup, or the NaNError text."""
    try:
        v = fn(iter(couplings), rows)
    except NaNError as exc:
        return "raised", str(exc)
    return repr(v), type(v.value) if v.is_finite else None


class TestOneDefinitionalSup:
    """``conjugation._sup_minus``, the one-column form of ``_sups``, is the
    term-by-term sup of ``oracles.sup_minus``: the same +-inf conventions,
    the same first maximiser (signed zeros tell ties apart) and the same
    NaN, in both backends."""

    @given(sup_minus_case())
    @example(([math.nan, 1.0], [("f", 0.0), ("f", 0.0)]))
    @example(([1.0, math.nan], [("f", 0.0), ("f", 0.0)]))
    @example(([0.0, -0.0], [("f", 0.0), ("f", 0.0)]))
    @example(([-0.0, 0.0], [("f", 0.0), ("f", 0.0)]))
    @example(([None, 1], [("+", None), ("f", Fraction(1, 2))]))
    @example(([math.nan, 1.0], [("f", 0.0), ("-", None)]))
    @example(([], []))
    @settings(max_examples=500, deadline=None)
    def test_sup_minus_is_the_term_by_term_sup(self, case):
        couplings, rows = case
        assert sup_outcome(conjugation._sup_minus, couplings, rows) == sup_outcome(
            sup_minus, couplings, rows)

    def test_a_nan_sup_raises_naming_the_slopes(self):
        with pytest.raises(NaNError, match="grids.xstar/grids.ystar: <grid point, slope> overflows"):
            conjugation._sup_minus([math.nan, 1.0], [("f", 0.0), ("f", 0.0)])

    def test_the_signed_zero_tie_keeps_the_first_term(self):
        rows = [("f", 0.0), ("f", 0.0)]
        assert repr(conjugation._sup_minus([-0.0, 0.0], rows)) == "ExtReal(-0.0)"
        assert repr(conjugation._sup_minus([0.0, -0.0], rows)) == "ExtReal(0.0)"
