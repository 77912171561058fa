import copy
import json
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from econvex import catalog, conjugation, duality, esets, problemio
from econvex.conjugation import (
    DualGrid,
    DualPairPoint,
    DualPoint,
    adapted_dual_grid,
    biconjugate,
    c_conjugate,
    c_conjugate_exact,
    coupling_c,
    coupling_cbar,
    coupling_cprime,
    cprime_conjugate,
    tensor_dual_grid,
    _c_conjugate_rows,
    _columns,
    _dots,
    _key,
    _prepared,
    _reference_c_conjugate,
    _reference_cprime_conjugate,
    _split_dom,
)
from econvex.esets import dot
from econvex.extreal import NEG_INF, POS_INF, ExtReal, NaNError
from econvex.funcrep import Grid, PwAffine1, SampledFn

from helpers import (
    CATALOG_PROBLEMS,
    QUARTERS,
    WIDE_FRACTIONS,
    catalog_problem,
    drawn_from,
    ext_values,
    float_twin,
    plain_scalar,
    scalar,
    scaling_log,
    with_plain_scalar,
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
        p = DualPairPoint.of((1,), (1,), (0,), (0,), 1)
        assert coupling_cbar((0,), (0,), p) == ExtReal(0)
        assert coupling_cbar((1,), (1,), p) == ExtReal(2)
        q = DualPairPoint.of((0,), (0,), (1,), (0,), 1)
        assert coupling_cbar((1,), (0,), q) == POS_INF  # 1 < 1 fails

    def test_cbar_is_c_on_the_product_space(self):
        p = DualPairPoint.of((2,), (-1,), (1,), (3,), 5)
        for x in (-1, 0, 2):
            for y in (-2, 1):
                assert coupling_cbar((x,), (y,), p) == coupling_c(
                    (x, y), p.flatten()
                )


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
    for ww, (value, row) in zip(wg.points, _c_conjugate_rows(f, wg)):
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
        assert result == outcome(_reference_c_conjugate, f, wg)
        if result[0] != "raised":
            assert_first_attaining_rows(f, wg)

    @given(prime_conjugate_case())
    @settings(max_examples=300, deadline=None)
    def test_cprime_conjugate_bit_identical(self, case):
        g, grid = case
        assert outcome(cprime_conjugate, g, grid) == outcome(
            _reference_cprime_conjugate, g, grid
        )

    @given(plain_conjugate_case())
    @settings(max_examples=150, deadline=None)
    def test_plain_scalar_falls_back_to_the_c_sweep(self, case):
        f, wg = case
        dom, _ = _split_dom(f)
        with scaling_log() as log:
            result = outcome(c_conjugate, f, wg)
        assert log.count(False) == (dom is not None)  # the sweep ran unscaled
        assert result == outcome(_reference_c_conjugate, f, wg)

    @given(plain_prime_conjugate_case())
    @settings(max_examples=150, deadline=None)
    def test_plain_scalar_falls_back_to_the_cprime_sweep(self, case):
        g, grid = case
        dom, _ = _split_dom(g)
        with scaling_log() as log:
            result = outcome(cprime_conjugate, g, grid)
        assert log.count(False) == (dom is not None)  # the sweep ran unscaled
        assert result == outcome(_reference_cprime_conjugate, g, grid)

    def test_nan_gate_blows_up_as_in_the_definition(self):
        # inf * 0 is NaN, and not (NaN < alpha): the gate fails at (inf, 0),
        # so the value is +inf although max <p, u*> over the finite dots
        # (5) is below alpha.
        grid = Grid(2, [(0, 5), (math.inf, 0)], "float")
        f = SampledFn(grid, [ExtReal(0.0)] * 2)
        wg = DualGrid([DualPoint.of((0, 0), (0, 1), 6, "float")], "float")
        assert c_conjugate(f, wg).values == (POS_INF,)
        assert _reference_c_conjugate(f, wg).values == (POS_INF,)

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
        assert _reference_cprime_conjugate(g, grid).values == (POS_INF, POS_INF)

    def test_boundary_point_shuts_the_gate_but_not_its_neighbour(self):
        grid = Grid.uniform(-2, 2, 5)
        f = abs_on(grid)
        wg = tensor_dual_grid([(0,), (1,)], [(1,)], [2, 3])
        # <2, 1> = 2 sits on the alpha = 2 boundary and shuts that gate.
        expected = [POS_INF, ExtReal(0), POS_INF, ExtReal(0)]
        assert list(c_conjugate(f, wg).values) == expected
        assert list(_reference_c_conjugate(f, wg).values) == expected

    def test_integer_gate_rounds_a_fractional_alpha_up(self):
        # Points 0, 1 and u* = 1 scale by D = e = 1, and alpha·D·e = 3/2:
        # max <p, u*> = 1 stays below it (the threshold is 2, not 1), while
        # alpha = 1 puts the point 1 on the boundary and shuts the gate.
        grid = Grid(1, [(0,), (1,)])
        f = SampledFn(grid, [ExtReal(0), ExtReal(0)])
        wg = DualGrid([w(1, 1, Fraction(3, 2)), w(1, 1, 1)])
        assert c_conjugate(f, wg).values == (ExtReal(1), POS_INF)
        assert _reference_c_conjugate(f, wg).values == (ExtReal(1), POS_INF)
        for alpha, expected in ((Fraction(3, 2), (ExtReal(0), ExtReal(0))),
                                (1, (ExtReal(0), POS_INF))):
            g = SampledFn(DualGrid([w(0, 1, alpha)]), [ExtReal(0)])
            assert cprime_conjugate(g, grid).values == expected
            assert _reference_cprime_conjugate(g, grid).values == expected

    def test_tied_rows_resolve_to_the_first(self):
        grid = Grid(1, [(-1,), (0,), (1,)])
        f = SampledFn(grid, [ExtReal(Fraction(1, 3)), ExtReal(5), ExtReal(Fraction(1, 3))])
        ((value, row),) = _c_conjugate_rows(f, DualGrid([w(0, 0, 1)]))
        assert (value, row) == (ExtReal(Fraction(-1, 3)), ((Fraction(-1),), Fraction(1, 3)))

    def test_equal_slopes_of_two_types_keep_their_own_arithmetic(self):
        # x* = 1.0 and x* = 1 are equal but do not multiply alike, so they
        # share no Fenchel value and no least value of g.
        grid = Grid(1, [(0,), (1,)])
        f = SampledFn(grid, [ExtReal(0), ExtReal(Fraction(1, 3))])
        wg = DualGrid([DualPoint((1.0,), (Fraction(0),), Fraction(1)),
                       DualPoint((Fraction(1),), (Fraction(0),), Fraction(2))])
        assert outcome(c_conjugate, f, wg) == outcome(_reference_c_conjugate, f, wg) == [
            ("f", float, "ExtReal(0.6666666666666667)"), ("f", Fraction, "ExtReal(2/3)")
        ]
        g = SampledFn(wg, [ExtReal(1), ExtReal(0)])
        assert outcome(cprime_conjugate, g, grid) == outcome(_reference_cprime_conjugate, g, grid)
        assert outcome(cprime_conjugate, g, grid)[1] == ("f", Fraction, "ExtReal(1)")

    def test_empty_domain_and_neg_inf_are_constant(self):
        grid = Grid.uniform(-2, 2, 5)
        wg = tensor_dual_grid([(0,), (1,)], [(0,), (1,)], [1, -1])
        empty = SampledFn(grid, [POS_INF] * 5)
        assert set(c_conjugate(empty, wg).values) == {NEG_INF}
        dips = SampledFn(grid, [POS_INF, NEG_INF, ExtReal(0), POS_INF, ExtReal(1)])
        assert set(c_conjugate(dips, wg).values) == {POS_INF}


class TestIntegerPathRuns:
    """Counts only: every conjugate sweep of the rational fenchel_abs gets
    ints from the scaling helper, and no sweep of its float twin does."""

    SWEEPS = ("psi", "psi_prime", "f0_conj", "f0_biconj", "g_prime", "p_conj", "p_biconj")

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_every_sweep_of_fenchel_abs(self, monkeypatch, backend):
        per_sweep = []  # the scaling helper's returns during each sweep
        with scaling_log() as log:
            for name in ("c_conjugate", "cprime_conjugate"):
                def sweep(*args, _real=getattr(duality, name)):
                    before = len(log)
                    out = _real(*args)
                    per_sweep.append(log[before:])
                    return out

                monkeypatch.setattr(duality, name, sweep)
            doc = dict(catalog.entry("fenchel_abs"), backend=backend)
            P = problemio.loads(json.dumps(doc)).build()
            for name in self.SWEEPS:
                getattr(P, name)
        assert len(per_sweep) == len(self.SWEEPS)
        if backend == "rational":
            assert all(calls and all(calls) for calls in per_sweep), per_sweep
        else:
            assert per_sweep == [[False]] * len(self.SWEEPS)


# ---------------------------------------------------------------------------
# The column kernel against the row-major sweeps it replaced
# ---------------------------------------------------------------------------


def _row_major_dot(exact):
    """The inner product of the row-major sweeps: ints in any order,
    values as given by the left fold of ``esets.dot``."""
    return (lambda a, b: sum(map(operator.mul, a, b))) if exact else dot


def row_major_c_conjugate_rows(f, w_grid):
    """The c-sweep as it was before the column kernel: one dot per
    (point, gate) and per (point, slope)."""
    dom, constant = _split_dom(f)
    if dom is None:
        return [(constant, None)] * len(w_grid)
    w_points = w_grid.points
    exact, ((points, D), (ustars, e), (xstars, E)), ((alphas, a), (values, L)) = _prepared(
        ([p for p, _ in dom], [w.ustar for w in w_points], [w.xstar for w in w_points]),
        ([w.alpha for w in w_points], [v for _, v in dom]),
    )
    inner = _row_major_dot(exact)
    M = math.lcm(D * E, L)
    k, m, De = M // (D * E), M // L, D * e
    values = [m * v for v in values]
    highest, fenchel, out = {}, {}, []
    for u, alpha, x in zip(ustars, alphas, xstars):
        gate = _key(u)
        top = highest.get(gate)
        if top is None:
            dots = [inner(p, u) for p in points]
            top = highest[gate] = max(dots) if all(d == d for d in dots) else math.nan
        if not (top * a < alpha * De):
            out.append((POS_INF, None))
            continue
        slope = _key(x)
        cell = fenchel.get(slope)
        if cell is None:
            kx = tuple(k * c for c in x)
            terms = [inner(p, kx) - v for p, v in zip(points, values)]
            best = max(terms)
            value = ExtReal(Fraction(best, M) if exact else best)
            cell = fenchel[slope] = (value, dom[terms.index(best)])
        out.append(cell)
    return out


def row_major_cprime_conjugate(g, x_grid):
    """The c'-sweep as it was before the column kernel: point by point,
    every gate, then the max over every slope."""
    dom, constant = _split_dom(g)
    if dom is None:
        return SampledFn(x_grid, [constant] * len(x_grid))
    exact, ((points, D), (ustars, e), (xstars, E)), ((alphas, a), (values, L)) = _prepared(
        (x_grid.points, [w.ustar for w, _ in dom], [w.xstar for w, _ in dom]),
        ([w.alpha for w, _ in dom], [v for _, v in dom]),
    )
    inner = _row_major_dot(exact)
    gates, slopes = {}, {}
    for u, alpha, x, v in zip(ustars, alphas, xstars, values):
        gate = gates.setdefault(_key(u), [u, alpha])
        if alpha < gate[1] or alpha != alpha:
            gate[1] = alpha
        slope = slopes.setdefault(_key(x), [x, v])
        if v < slope[1]:
            slope[1] = v
    M = math.lcm(D * E, L)
    k, m, De = M // (D * E), M // L, D * e
    gates = [(u, alpha * De) for u, alpha in gates.values()]
    slopes = [(tuple(k * c for c in x), m * v) for x, v in slopes.values()]
    vals = []
    for p in points:
        if any(not (inner(p, u) * a < level) for u, level in gates):
            vals.append(POS_INF)
        else:
            best = max(inner(p, x) - v for x, v in slopes)
            vals.append(ExtReal(Fraction(best, M) if exact else best))
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


@st.composite
def dots_case(draw):
    """(points, v) of one backend and one dimension from 1 to 3."""
    backend = draw(st.sampled_from(("rational", "float")))
    dim = draw(st.integers(1, 3))
    grid = draw(kernel_grid(dim, backend, float_coords=EDGE_COORDS))
    coords = drawn_from(EDGE_COORDS if backend == "float" else COORDS, backend)
    return grid.points, draw(st.tuples(*[coords] * dim))


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
        assert swept(_c_conjugate_rows, f, wg) == swept(row_major_c_conjugate_rows, f, wg)
        assert swept(cprime_conjugate, g, grid) == swept(row_major_cprime_conjugate, g, grid)

    def test_the_examples_reach_what_they_name(self):
        (_, row), _ = _c_conjugate_rows(*TIED_ZEROS)
        assert rendered(row[1]) == ("-0.0", "float")  # the first of two tied rows
        with pytest.raises(NaNError, match="^grids.xstar/grids.ystar:"):
            _c_conjugate_rows(*OVERFLOWING)
        f, wg = NAN_GATES
        assert c_conjugate(f, wg).values == (POS_INF,) * 3
        with pytest.raises(NaNError, match="^grids.xstar/grids.ystar:"):
            cprime_conjugate(*nan_slope(first=True))
        assert cprime_conjugate(*nan_slope(first=False)).values[0] == ExtReal(0.0)

    @given(dots_case())
    # Left to right, 1e308 + 1e308 overflows before -1e308 can cancel it.
    @example(([(1e308, 1e308, -1e308), (1e308, -1e308, 1e308)], (1.0, 1.0, 1.0)))
    @settings(max_examples=200, deadline=None)
    def test_dots_fold_like_esets_dot(self, case):
        points, v = case
        got = _dots(_columns(points), v)
        assert [rendered(t) for t in got] == [rendered(dot(p, v)) for p in points]

    def test_no_points_give_no_dots(self):
        assert _dots(_columns([]), (1, 2)) == []


def _distinct(vectors):
    return len({_key(v) for v in vectors})


class TestColumnWork:
    """Counts only: the product-grid sweeps and the boundary scan take no
    per-point inner product, and each ``_dots`` column is taken once per
    distinct key a sweep needs."""

    @pytest.mark.parametrize("backend", ["rational", "float"])
    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    def test_one_column_per_distinct_key(self, name, backend, monkeypatch):
        P = catalog_problem(name) if backend == "rational" else float_twin(name)
        f = P.phi_on_product
        counts = {"dot": 0, "_dots": 0}

        def counted(fn, key):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        for module in (conjugation, esets, problemio):
            if getattr(module, "dot", None) is dot:
                monkeypatch.setattr(module, "dot", counted(dot, "dot"))
        monkeypatch.setattr(conjugation, "_dots", counted(_dots, "_dots"))
        monkeypatch.setattr(problemio, "_dots", counted(_dots, "_dots"))

        def work(build):
            before = dict(counts)
            build()
            return {key: counts[key] - before[key] for key in counts}

        dom, _ = _split_dom(f)
        expected = 0
        if dom is not None:
            needed = [w.xstar for w in P.full_dual_grid
                      if all(dot(p, w.ustar) < w.alpha for p, _ in dom)]
            expected = _distinct(w.ustar for w in P.full_dual_grid) + _distinct(needed)
        assert work(lambda: P.psi) == {"dot": 0, "_dots": expected}

        dom, _ = _split_dom(P.psi)
        expected = 0
        if dom is not None:
            expected = _distinct(w.ustar for w, _ in dom) + _distinct(w.xstar for w, _ in dom)
        assert work(lambda: P.psi_prime) == {"dot": 0, "_dots": expected}

        gates = sum(_distinct((*w.ustar, w.alpha) for w in grid)
                    for grid in (P.dual_y_grid, P.full_dual_grid))
        assert work(lambda: problemio.boundary_coincidences(P)) == {"dot": 0, "_dots": gates}
