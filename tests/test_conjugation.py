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

from econvex import cli, conjugation, duality, esets, problemio
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

from helpers import (
    CATALOG_PROBLEMS,
    LIFT_PROBLEMS,
    QUARTERS,
    WIDE_FRACTIONS,
    catalog_problem,
    certified,
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
from oracles import PwAffine1, adapted_dual_grid, c_conjugate_exact, coupling_cbar, coupling_cprime


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
    return DualGrid(pts, backend)


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
    return DualGrid(points, wg.backend)


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
    DualGrid([DualPoint.of((0,), (0,), 1, "float")], "float"),
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
        wg = DualGrid([DualPoint.of((0, 0), (0, 1), 6, "float")], "float")
        assert c_conjugate(f, wg).values == (POS_INF,)
        assert reference_c_conjugate(f, wg).values == (POS_INF,)

    def test_nan_alpha_shuts_the_prime_gate(self):
        wg = DualGrid(
            [
                DualPoint.of((1,), (0,), 1, "float"),
                DualPoint.of((0,), (0,), math.nan, "float"),
            ],
            "float",
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
    dom, constant = _split_dom(f)
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
    dom, constant = _split_dom(g)
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
    DualGrid([DualPoint.of((0,), (0,), 1, "float"), DualPoint.of((0,), (1,), -0.0, "float")],
             "float"),
)
OVERFLOWING = (
    # <p, x*> is inf + -inf = NaN at the first point, the first term of
    # the max, and inf at the second; the second gate's dot overflows to
    # inf at the third.
    SampledFn(Grid(2, [(1e308, 1e308), (1e308, -1e308), (1.5e308, 0)], "float"),
              [ExtReal(0.0), ExtReal(1.0), ExtReal(0.0)]),
    DualGrid([DualPoint.of((1e308, -1e308), (0, 0), 1, "float"),
              DualPoint.of((-1e308, 1e308), (1e308, 0), 1, "float")], "float"),
)
NAN_GATES = (
    # inf·0 and inf - inf make NaN gates; a NaN alpha shuts its gate too.
    SampledFn(Grid(3, [(math.inf, 0, 1), (1, 1, 1), (-1e308, 1e308, 0)], "float"),
              [ExtReal(0.0), ExtReal(0.5), ExtReal(-1.0)]),
    DualGrid([DualPoint.of((1, 0, 0), (0, 1, 0), 2, "float"),
              DualPoint.of((0, 0, 1), (1e308, 1e308, 0), 1, "float"),
              DualPoint.of((1, 1, 1), (0, 0, 1), math.nan, "float")], "float"),
)


def nan_slope(first):
    """A c'-case whose first point meets a NaN term <(1e308, 1e308),
    (1e308, -1e308)> - 0 before or after a finite one: the running max
    keeps the NaN only when it comes first, as builtin max does."""
    nan_w = DualPoint.of((1e308, -1e308), (0, 0), 1, "float")
    finite_w = DualPoint.of((0, 0), (0, 0), 2, "float")
    wg = DualGrid([nan_w, finite_w] if first else [finite_w, nan_w], "float")
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
        dom, _ = _split_dom(f)
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

        dom, _ = _split_dom(P.psi)
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
            dom, _ = _split_dom(P.phi_on_product)
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
            dom, _ = _split_dom(getattr(P, conjugated))
            if dom is None:
                assert log == []
                continue
            # u*, x* and alpha of each dual point read.  dom's payloads are
            # the int keys of an exact table, which reach the lcm through
            # one gcd with its scale, not through _over_lcm.
            assert getattr(P, conjugated).scale is not None
            duals = P.full_dual_grid if sweep == "psi" else dom
            others = len(duals) * (2 * d + 1)
            (read,) = log
            assert read == (site, axes + others), sweep

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
        # y = 0.  The scans read u* and alpha of each dual point besides the
        # grid: Y, then the factors of the product.
        assert sorted(samples) == sorted([axes, (dx + dy) * X]) and points not in samples
        assert scans == [dy * Y + len(P.dual_y_grid) * (dy + 1),
                         axes + len(P.full_dual_grid) * (dx + dy + 1)]

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
    wg = DualGrid(dict.fromkeys(DualPoint(*pick) for pick in picks), "float")
    if draw(st.booleans()) and _split_dom(f)[0] is not None:
        try:
            g = c_conjugate(f, wg)
        except NaNError:
            g = SampledFn(wg, [POS_INF] * len(wg))
    else:
        g = SampledFn(wg, draw(ext_values(len(wg), "float", payload.filter(math.isfinite))))
    wy = DualGrid(dict.fromkeys(DualPoint(w.xstar[dx:], w.ustar[dx:], w.alpha) for w in wg.points), "float")
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
    return problemio.boundary_coincidences(P)


def expected_lifts(case):
    """Per pass that asks ``_prepared``, whether ``certified`` lifts it: the
    c-sweep and the c'-sweep of a non-constant function, then the scan of
    Y and of the product."""
    f, wg, g, grid, wy = case
    out = []
    for h, duals in ((f, [(w, None) for w in wg.points]), (g, None)):
        dom, _ = _split_dom(h)
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
    wg = DualGrid([DualPoint.of(x, u, a, "float") for x, u, a in duals], "float")
    wy = DualGrid(dict.fromkeys(DualPoint(w.xstar[1:], w.ustar[1:], w.alpha) for w in wg.points), "float")
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

    def test_the_sampler_keeps_floats_as_given(self):
        grid = product_grid(Grid(1, [(0.0,), (1.0,)], "float"), Grid(1, [(0.5,)], "float"))
        assert _prepared(grid)[0] is None
        assert _prepared(grid, ([(1.0, 1.0)],))[0] == 2


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


class TestTensorDualGrids:
    def test_the_paired_grid_is_flat_in_loop_order(self):
        grid = conjugation.pair_tensor_dual_grid([(1,), (2,)], [(3,)], [(4,)], [(5,), (6,)], [7, 8])
        assert grid.points == tuple(
            DualPoint.of((xs, 3), (4, vs), a) for xs in (1, 2) for vs in (5, 6) for a in (7, 8))

    def test_mismatched_blocks_raise(self):
        # The totals agree (|x*| + |y*| = |u*| + |v*| = 3); the blocks do not.
        with pytest.raises(ValueError, match="paired dual point blocks must match dimensions"):
            conjugation.pair_tensor_dual_grid([(1,)], [(1, 2)], [(1, 2)], [(1,)], [1])
