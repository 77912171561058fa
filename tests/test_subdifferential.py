import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import catalog_problem, ext_values, random_problem, scalar

from econvex.conjugation import (
    DualGrid,
    DualPoint,
    c_conjugate,
    cprime_conjugate,
    tensor_dual_grid,
)
from econvex.extreal import NEG_INF, POS_INF, ExtReal
from econvex.funcrep import Grid, PerturbFn, SampledFn
from econvex.duality import PerturbationProblem
from econvex.subdifferential import (
    _default_ladder,
    _projected_full_subdiff,
    c_subdifferential,
    conjugate_value,
    eps_c_subdifferential,
    is_c_subgradient,
    is_c_subgradient_via_conjugate,
    is_cprime_subgradient,
    prop43_audit,
    theorem43_audit,
    theorem44_audit,
    total_duality_certificate,
    transfer_audit,
)


def w(xs, us, a):
    return DualPoint.of((xs,), (us,), a)


@pytest.fixture(scope="module")
def abs_fn():
    g = Grid.uniform(-5, 5, 11)
    return SampledFn(g, [ExtReal(abs(p[0])) for p in g.points])


@pytest.fixture(scope="module")
def fenchel_abs():
    return catalog_problem("fenchel_abs")


@pytest.fixture(scope="module")
def truncated():
    return catalog_problem("truncated_dual")


class TestCSubgradient:
    def test_global_minimum_with_flat_point(self, abs_fn):
        assert is_c_subgradient(abs_fn, (0,), w(0, 0, 1))

    def test_gate_failure_rejects(self, abs_fn):
        assert not is_c_subgradient(abs_fn, (0,), w(0, 0, -1))

    def test_slope_one_at_positive_point(self, abs_fn):
        assert is_c_subgradient(abs_fn, (1,), w(1, 0, 1))

    def test_infinite_value_at_base_point(self):
        g = Grid(1, [(0,), (1,)])
        f = SampledFn(g, [POS_INF, ExtReal(0)])
        assert not is_c_subgradient(f, (0,), w(0, 0, 1))

    def test_conjugate_route_agrees_everywhere(self, abs_fn):
        duals = [
            w(a, b, c)
            for a in (-2, -1, 0, 1, 2)
            for b in (-1, 0, 1)
            for c in (-1, 1, 2)
        ]
        for x0 in abs_fn.grid.points:
            for ww in duals:
                fc = conjugate_value(abs_fn, ww)
                assert is_c_subgradient(abs_fn, x0, ww) == (
                    is_c_subgradient_via_conjugate(abs_fn, fc, x0, ww)
                )

    def test_lemma_equality_at_minimum(self, abs_fn):
        ww = w(0, 0, 1)
        fc = conjugate_value(abs_fn, ww)
        assert fc == ExtReal(0)
        assert is_c_subgradient_via_conjugate(abs_fn, fc, (0,), ww)

    def test_infinite_conjugate_rejects(self, abs_fn):
        ww = w(0, 1, 1)  # gate fails on part of dom f, so f^c = +inf
        fc = conjugate_value(abs_fn, ww)
        assert fc == POS_INF
        assert not is_c_subgradient_via_conjugate(abs_fn, fc, (0,), ww)


class TestCPrimeSubgradient:
    def test_transfer_from_primal_minimum(self, abs_fn):
        wg = tensor_dual_grid([(-1,), (0,), (1,)], [(0,)], [1])
        fc = c_conjugate(abs_fn, wg)
        assert is_cprime_subgradient(fc, w(0, 0, 1), (0,))

    def test_gate_rejects(self, abs_fn):
        wg = tensor_dual_grid([(0,)], [(1,)], [1])
        g = SampledFn(wg, [ExtReal(0)])
        # gate <x, u0*> < alpha0 fails at x = 2
        assert not is_cprime_subgradient(g, wg.points[0], (2,))

    def test_infinite_value_rejects(self):
        wg = tensor_dual_grid([(0,)], [(0,)], [1])
        g = SampledFn(wg, [POS_INF])
        assert not is_cprime_subgradient(g, wg.points[0], (0,))


class TestTransferAudit:
    def test_forward_always_holds(self, abs_fn):
        rng = random.Random(11)
        wg = tensor_dual_grid(
            [(-2,), (-1,), (0,), (1,), (2,)], [(-1,), (0,), (1,)], [1, 2]
        )
        assert transfer_audit(abs_fn, wg).forward_ok
        for _ in range(10):
            g = Grid(1, [(v,) for v in rng.sample(range(-6, 7), 5)])
            vals = [
                random.choice([POS_INF, ExtReal(rng.randint(-3, 3))]) for _ in g.points
            ]
            rep = transfer_audit(SampledFn(g, vals), wg)
            assert rep.forward_ok

    def test_converse_under_surrogate(self, abs_fn):
        # |x| restricted to an adapted dual grid: hull equals the function.
        wg = tensor_dual_grid([(-1,), (0,), (1,)], [(0,)], [1])
        rep = transfer_audit(abs_fn, wg)
        assert rep.econvex_surrogate
        assert rep.converse_ok and rep.counterexamples == ()

    def test_two_point_indicator_breaks_converse(self):
        g = Grid.uniform(-2, 2, 9)
        f = SampledFn(
            g,
            [
                ExtReal(0) if abs(p[0]) == 1 else POS_INF
                for p in g.points
            ],
        )
        wg = tensor_dual_grid([(-1,), (0,), (1,)], [(0,)], [1])
        rep = transfer_audit(f, wg)
        assert rep.forward_ok
        assert not rep.econvex_surrogate
        assert not rep.converse_ok
        assert ((Fraction(0),), w(0, 0, 1)) in rep.counterexamples


class TestTotalDuality:
    def test_fenchel_abs_certificate(self, fenchel_abs):
        cert = total_duality_certificate(fenchel_abs)
        assert cert is not None
        x, ww = cert
        assert x == (Fraction(0),)
        assert ww == DualPoint.of((0,), (0,), 1)

    def test_truncated_grid_has_no_certificate(self, truncated):
        assert total_duality_certificate(truncated) is None

    def test_unbounded_primal_has_no_certificate(self):
        table = {
            ((Fraction(x),), (Fraction(0),)): NEG_INF for x in (0, 1)
        }
        phi = PerturbFn(1, 1, table=table)
        P = PerturbationProblem(
            phi,
            Grid(1, [(0,), (1,)]),
            Grid(1, [(0,)]),
            DualGrid([DualPoint.of((0,), (0,), 1)]),
        )
        assert total_duality_certificate(P) is None

    def test_prop43_equivalence_on_catalog(self, fenchel_abs, truncated):
        for P in (fenchel_abs, truncated):
            out = prop43_audit(P)
            assert out["equivalence_ok"], out["mismatches"]
            assert out["certificate_consistent"]

    def test_prop43_equivalence_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(8):
            P = random_problem(rng, max_x=5, max_y=5, max_dual=6, max_pairs=4)
            out = prop43_audit(P)
            assert out["equivalence_ok"], out["mismatches"]
            assert out["certificate_consistent"]


class TestEpsSubdifferential:
    def test_eps_zero_reduces_to_plain_set(self, abs_fn):
        wg = tensor_dual_grid(
            [(-1,), (0,), (1,)], [(0,), (1,)], [1, 2]
        )
        plain = c_subdifferential(abs_fn, (0,), wg)
        relaxed = eps_c_subdifferential(abs_fn, (0,), Fraction(0), wg)
        assert plain.members == relaxed.members

    def test_documented_membership(self, abs_fn):
        # f(1) + f^c(0,0,1) = 1 <= c(1, w) + 2 = 2.
        wg = DualGrid([w(0, 0, 1)])
        s = eps_c_subdifferential(abs_fn, (1,), Fraction(2), wg)
        assert w(0, 0, 1) in s

    def test_infinite_base_point_gives_empty_set(self):
        g = Grid(1, [(0,), (1,)])
        f = SampledFn(g, [POS_INF, ExtReal(0)])
        wg = DualGrid([w(0, 0, 1), w(1, 0, 1)])
        assert eps_c_subdifferential(f, (0,), Fraction(1), wg).members == ()

    def test_negative_eps_rejected(self, abs_fn):
        with pytest.raises(ValueError):
            eps_c_subdifferential(abs_fn, (0,), Fraction(-1), DualGrid([]))

    def test_monotone_in_eps(self, abs_fn):
        wg = tensor_dual_grid(
            [(-2,), (-1,), (0,), (1,), (2,)], [(0,), (1,)], [1, 3]
        )
        rng = random.Random(5)
        for _ in range(6):
            x0 = (Fraction(rng.randint(-5, 5)),)
            eps_values = sorted(Fraction(rng.randint(0, 8), 2) for _ in range(3))
            sets = [
                set(eps_c_subdifferential(abs_fn, x0, e, wg).members)
                for e in eps_values
            ]
            for small, big in zip(sets, sets[1:]):
                assert small <= big

    def test_members_respect_the_gate(self, abs_fn):
        wg = tensor_dual_grid([(0,), (1,)], [(-1,), (1,)], [1])
        s = eps_c_subdifferential(abs_fn, (2,), Fraction(5), wg)
        for member in s.members:
            assert 2 * member.ustar[0] < member.alpha


class TestTheorem43:
    def test_superset_direction_exact(self, fenchel_abs, truncated):
        for P in (fenchel_abs, truncated):
            for x in ((0,), (-2,), (3,)):
                for eps in (Fraction(0), Fraction(1, 2), Fraction(1)):
                    out = theorem43_audit(P, x, eps)
                    assert out["superset_ok"], (P.name, x, eps)

    def test_equality_on_c5_instance(self, fenchel_abs):
        out = theorem43_audit(fenchel_abs, (0,), Fraction(0))
        assert out["c5_surrogate"]
        assert out["equal"]
        assert out["eta_min"] == Fraction(1, 1000)

    def test_certificate_projection_in_both_sides(self, fenchel_abs):
        cert_w = DualPoint.of((0,), (0,), 1)
        projected = fenchel_abs.x_side(fenchel_abs.embed(cert_w))
        out = theorem43_audit(fenchel_abs, (0,), Fraction(0))
        assert projected in out["lhs"]
        assert projected in out["intersection"]

    def test_ladder_validation(self, fenchel_abs):
        with pytest.raises(ValueError):
            theorem43_audit(fenchel_abs, (0,), Fraction(0), eta_ladder=())
        with pytest.raises(ValueError):
            theorem43_audit(
                fenchel_abs, (0,), Fraction(0), eta_ladder=(Fraction(1), Fraction(2))
            )

    def test_ladder_slack_bites_below_value_resolution(self):
        # The finite ladder collapses to its smallest eta, so an instance
        # whose values vary by less than eta_min can put a point in every
        # ladder projection without it being a true member at eps.  The
        # audit must surface that as a failed inclusion, not mask it.
        delta = Fraction(1, 2000)  # below the default eta_min = 1/1000
        table = {
            ((Fraction(0),), (Fraction(0),)): ExtReal(0),
            ((Fraction(1),), (Fraction(0),)): ExtReal(-delta),
        }
        phi = PerturbFn(1, 1, table=table)
        P = PerturbationProblem(
            phi,
            Grid(1, [(0,), (1,)]),
            Grid(1, [(0,)]),
            DualGrid([DualPoint.of((0,), (0,), 1)]),
        )
        out = theorem43_audit(P, (0,), Fraction(0))
        assert out["lhs"] == ()  # the slope-0 point is not a subgradient at 0
        assert DualPoint.of((0,), (0,), 1) in out["intersection"]
        assert not out["superset_ok"]
        # Shrinking the ladder below the instance resolution repairs it.
        fine = theorem43_audit(
            P, (0,), Fraction(0), eta_ladder=(Fraction(1, 4000),)
        )
        assert fine["superset_ok"]


class TestTheorem44:
    def test_superset_direction_exact(self, fenchel_abs, truncated):
        for P in (fenchel_abs, truncated):
            for x in ((0,), (-1,)):
                for eps in (Fraction(0), Fraction(1)):
                    assert theorem44_audit(P, x, eps)["superset_ok"]

    def test_equality_on_c5_instance(self, fenchel_abs):
        out = theorem44_audit(fenchel_abs, (0,), Fraction(0))
        assert out["c5_surrogate"] and out["equal"]

    def test_strict_inclusion_with_witness_on_truncated(self, truncated):
        out = theorem44_audit(truncated, (0,), Fraction(0))
        assert not out["c5_surrogate"]
        assert not out["equal"]
        assert DualPoint.of((2,), (0,), 1) in out["strict_witnesses"]


# ---------------------------------------------------------------------------
# The conjugate routes against scans of the definitional references
# ---------------------------------------------------------------------------

# Coordinates, slopes and alphas are small integers, so grid points sit on
# gate boundaries <x, u*> = alpha often; values are dyadic quarters and
# +-inf, so the float backend computes both routes exactly.
# Each list starts with the value hypothesis shrinks toward.
COORDS = (0, 1, -1, 2, -2, 3, -3)
SLOPES = (0, 1, -1, 2, -2)


def eps_values(backend):
    """0, 1/2, 1 and 1/2 + eta_min of the default ladder."""
    eta_min = _default_ladder(backend)[-1]
    return [scalar(Fraction(0), backend), scalar(Fraction(1, 2), backend),
            scalar(Fraction(1), backend), scalar(Fraction(1, 2), backend) + eta_min]


@st.composite
def dual_points(draw, dim, backend, alphas, max_size=8):
    vec = st.tuples(*[st.sampled_from(SLOPES)] * dim)
    rows = draw(st.lists(st.tuples(vec, vec, st.sampled_from(alphas)),
                         min_size=1, max_size=max_size, unique=True))
    return [DualPoint.of(xs, us, a, backend) for xs, us, a in rows]


@st.composite
def function_case(draw):
    """A sampled function on a 1-D or 2-D grid with a dual grid."""
    backend = draw(st.sampled_from(["rational", "float"]))
    dim = draw(st.integers(1, 2))
    vec = st.tuples(*[st.sampled_from(COORDS)] * dim)
    pts = draw(st.lists(vec, min_size=1, max_size=7, unique=True))
    grid = Grid(dim, [tuple(scalar(c, backend) for c in p) for p in pts], backend)
    f = SampledFn(grid, draw(ext_values(len(grid), backend)))
    return f, DualGrid(draw(dual_points(dim, backend, (1, 2, 0, -1, 3, -2))), backend)


@st.composite
def problem_case(draw):
    """A table-backed problem on small 1-D x and y grids."""
    backend = draw(st.sampled_from(["rational", "float"]))
    xs = draw(st.lists(st.sampled_from(COORDS), min_size=1, max_size=4, unique=True))
    ys = [0] + draw(st.lists(st.sampled_from(COORDS[1:]), max_size=3, unique=True))
    x_grid = Grid(1, [(scalar(v, backend),) for v in xs], backend)
    y_grid = Grid(1, [(scalar(v, backend),) for v in ys], backend)
    cells = [(x, y) for x in x_grid.points for y in y_grid.points]
    phi = PerturbFn(1, 1, table=dict(zip(cells, draw(ext_values(len(cells), backend)))))
    dual_y = DualGrid(draw(dual_points(1, backend, (1, 2, 3))), backend)
    pairs = DualGrid(draw(dual_points(2, backend, (1, 2, 0, -1, 3))), backend)
    return PerturbationProblem(phi, x_grid, y_grid, dual_y, pairs)


def projected_scan(P, x, eps):
    base = x + P.y_grid.origin
    return tuple(dict.fromkeys(
        P.x_side(flat) for flat in P.full_dual_grid.points
        if is_c_subgradient(P.phi_on_product, base, flat, eps)
    ))


class TestRoutesMatchDefinition:
    @given(function_case())
    @settings(max_examples=200, deadline=None)
    def test_eps_subdifferential(self, case):
        f, wg = case
        for x0 in f.grid.points:
            for eps in eps_values(f.grid.backend):
                scan = tuple(w for w in wg.points if is_c_subgradient(f, x0, w, eps))
                assert eps_c_subdifferential(f, x0, eps, wg).members == scan

    @given(function_case())
    @settings(max_examples=200, deadline=None)
    def test_transfer_audit(self, case):
        f, wg = case
        f_conj = c_conjugate(f, wg)
        pairs = [(x, w) for x in f.grid.points for w in wg.points]
        primal = {p: is_c_subgradient(f, *p) for p in pairs}
        dual = {(x, w): is_cprime_subgradient(f_conj, w, x) for x, w in pairs}
        rep = transfer_audit(f, wg)
        assert rep.forward_ok == all(dual[p] for p in pairs if primal[p])
        assert rep.counterexamples == tuple(p for p in pairs if dual[p] and not primal[p])
        assert rep.pairs_checked == len(pairs)
        hull = cprime_conjugate(f_conj, f.grid)
        assert rep.econvex_surrogate == all(
            hull.value_at(x) == f.value_at(x) for x in f.grid.points
        )

    @given(problem_case())
    @settings(max_examples=150, deadline=None)
    def test_projected_full_subdifferential(self, P):
        for x in P.x_grid.points:
            for eps in eps_values(P.backend):
                assert _projected_full_subdiff(P, x, eps) == projected_scan(P, x, eps)

    @given(problem_case())
    @settings(max_examples=150, deadline=None)
    def test_total_duality_certificate(self, P):
        base = P.y_grid.origin
        scan = [
            (x, w) for x in P.x_grid.points for w in P.dual_y_grid.points
            if is_c_subgradient(P.phi_on_product, x + base, P.embed(w))
        ]
        assert total_duality_certificate(P) == (scan[0] if scan else None)

    def test_boundary_points_infinite_values_and_empty_domain(self):
        # x = 1 lies on the gate boundary of (., 1, 1), x = -1 on that of
        # (., -1, 1); the value lists carry -inf, +inf and an empty domain.
        g = Grid(1, [(-1,), (0,), (1,)])
        wg = DualGrid([w(0, 1, 1), w(1, 1, 1), w(0, 0, 1), w(-1, -1, 1)])
        for values in ([ExtReal(0), ExtReal(1), NEG_INF], [POS_INF] * 3,
                       [ExtReal(1), ExtReal(0), POS_INF]):
            f = SampledFn(g, values)
            for x0 in g.points:
                for eps in eps_values("rational"):
                    scan = tuple(v for v in wg.points if is_c_subgradient(f, x0, v, eps))
                    assert eps_c_subdifferential(f, x0, eps, wg).members == scan


class TestLadderIsOneProjection:
    def ladder_cases(self):
        yield catalog_problem("fenchel_abs"), None
        yield catalog_problem("truncated_dual"), (Fraction(1, 2), Fraction(1, 8))
        rng = random.Random(43)
        for backend in ("rational", "float"):
            for _ in range(6):
                yield random_problem(rng, backend, max_x=5, max_y=5, max_dual=6, max_pairs=6), None

    def test_intersection_over_every_rung(self):
        for P, ladder in self.ladder_cases():
            rungs = ladder or _default_ladder(P.backend)
            for x in P.x_grid.points:
                for eps in eps_values(P.backend)[:3]:
                    out = theorem43_audit(P, x, eps, ladder)
                    explicit = frozenset.intersection(*(
                        frozenset(_projected_full_subdiff(P, x, eps + eta)) for eta in rungs
                    ))
                    assert frozenset(out["intersection"]) == explicit
                    assert out["eta_ladder"] == tuple(rungs)
