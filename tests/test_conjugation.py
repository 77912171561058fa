import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

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
    _reference_c_conjugate,
    _reference_cprime_conjugate,
)
from econvex.extreal import NEG_INF, POS_INF, ExtReal
from econvex.funcrep import Grid, PwAffine1, SampledFn

from helpers import ext_values, scalar


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
# products with 0 are NaN, and NaN alphas.
COORDS = list(range(-3, 4))
FLOAT_COORDS = COORDS + [math.inf, -math.inf]
ALPHAS = list(range(-2, 4))
FLOAT_ALPHAS = ALPHAS + [math.inf, math.nan]


@st.composite
def kernel_grid(draw, dim, backend, max_size=8):
    coords = FLOAT_COORDS if backend == "float" else COORDS
    vec = st.tuples(*[st.sampled_from(coords)] * dim)
    pts = draw(st.lists(vec, min_size=1, max_size=max_size, unique=True))
    return Grid(dim, [tuple(scalar(c, backend) for c in p) for p in pts], backend)


@st.composite
def kernel_dual_grid(draw, dim, backend, max_size=10):
    """Dual points drawn from a few x*, u* and alpha, so gates share
    slopes, slopes share gates, and one u* carries several alphas."""
    coords = FLOAT_COORDS if backend == "float" else COORDS
    vec = st.tuples(*[st.sampled_from(coords)] * dim)
    xstars = draw(st.lists(vec, min_size=1, max_size=3, unique=True))
    ustars = draw(st.lists(vec, min_size=1, max_size=2, unique=True))
    alphas = draw(
        st.lists(
            st.sampled_from(FLOAT_ALPHAS if backend == "float" else ALPHAS),
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
def conjugate_case(draw):
    backend = draw(st.sampled_from(["rational", "float"]))
    dim = draw(st.integers(1, 2))
    grid = draw(kernel_grid(dim, backend))
    f = SampledFn(grid, draw(ext_values(len(grid), backend)))
    return f, draw(kernel_dual_grid(dim, backend))


@st.composite
def prime_conjugate_case(draw):
    backend = draw(st.sampled_from(["rational", "float"]))
    dim = draw(st.integers(1, 2))
    wg = draw(kernel_dual_grid(dim, backend))
    g = SampledFn(wg, draw(ext_values(len(wg), backend)))
    return g, draw(kernel_grid(dim, backend))


def outcome(fn, *args):
    """Tagged values with their payload types, or the error raised."""
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
            rows.append(("f", type(v.value), v.value))
    return rows


class TestKernelMatchesReference:
    @given(conjugate_case())
    @settings(max_examples=300, deadline=None)
    def test_c_conjugate_bit_identical(self, case):
        f, wg = case
        assert outcome(c_conjugate, f, wg) == outcome(_reference_c_conjugate, f, wg)

    @given(prime_conjugate_case())
    @settings(max_examples=300, deadline=None)
    def test_cprime_conjugate_bit_identical(self, case):
        g, grid = case
        assert outcome(cprime_conjugate, g, grid) == outcome(
            _reference_cprime_conjugate, g, grid
        )

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

    def test_empty_domain_and_neg_inf_are_constant(self):
        grid = Grid.uniform(-2, 2, 5)
        wg = tensor_dual_grid([(0,), (1,)], [(0,), (1,)], [1, -1])
        empty = SampledFn(grid, [POS_INF] * 5)
        assert set(c_conjugate(empty, wg).values) == {NEG_INF}
        dips = SampledFn(grid, [POS_INF, NEG_INF, ExtReal(0), POS_INF, ExtReal(1)])
        assert set(c_conjugate(dips, wg).values) == {POS_INF}
