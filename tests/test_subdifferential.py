import math
import random
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CATALOG_PROBLEMS,
    QUARTERS,
    WIDE_FRACTIONS,
    built_extreals,
    catalog_problem,
    data_problem,
    ext_values,
    float_twin,
    random_problem,
    route_log,
    scale_log,
    scalar,
)
from oracles import embed, memberships, x_side

from econvex import conjugation, funcrep
from econvex.conjugation import (
    DualGrid,
    DualPoint,
    c_conjugate,
    coupling_c,
    cprime_conjugate,
    tensor_dual_grid,
)
from econvex.esets import dot
from econvex.extreal import NEG_INF, POS_INF, BackendMismatchError, ExtReal
from econvex.funcrep import Grid, PerturbFn, SampledFn
from econvex.duality import EXACT_PASS, PerturbationProblem, c5_audit
from econvex import subdifferential
from econvex.subdifferential import (
    _embedded_memberships,
    _projected_full_subdiff,
    _restriction_subdiff,
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


def conjugate_pair(f, wg):
    """f^c on wg and f^{cc'} back on f's grid: the pair transfer_audit checks."""
    f_conj = c_conjugate(f, wg)
    return f_conj, cprime_conjugate(f_conj, f.grid)


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
        assert transfer_audit(abs_fn, *conjugate_pair(abs_fn, wg)).forward_ok
        for _ in range(10):
            g = Grid(1, [(v,) for v in rng.sample(range(-6, 7), 5)])
            vals = [
                random.choice([POS_INF, ExtReal(rng.randint(-3, 3))]) for _ in g.points
            ]
            f = SampledFn(g, vals)
            rep = transfer_audit(f, *conjugate_pair(f, wg))
            assert rep.forward_ok

    def test_converse_under_surrogate(self, abs_fn):
        # |x| restricted to an adapted dual grid: hull equals the function.
        wg = tensor_dual_grid([(-1,), (0,), (1,)], [(0,)], [1])
        rep = transfer_audit(abs_fn, *conjugate_pair(abs_fn, wg))
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
        rep = transfer_audit(f, *conjugate_pair(f, wg))
        assert rep.forward_ok
        assert not rep.econvex_surrogate
        assert not rep.converse_ok
        assert ((Fraction(0),), w(0, 0, 1)) in rep.counterexamples


    def test_biconjugate_off_the_grid_of_f_is_refused(self, abs_fn):
        wg = tensor_dual_grid([(-1,), (0,), (1,)], [(0,)], [1])
        f_conj = c_conjugate(abs_fn, wg)
        with pytest.raises(ValueError):
            transfer_audit(abs_fn, f_conj, cprime_conjugate(f_conj, Grid.uniform(-1, 1, 3)))


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
            assert out["certificate"] == total_duality_certificate(P)

    def test_prop43_equivalence_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(8):
            P = random_problem(rng, max_x=5, max_y=5, max_dual=6, max_pairs=4)
            out = prop43_audit(P)
            assert out["equivalence_ok"], out["mismatches"]
            assert out["certificate_consistent"]
            assert out["certificate"] == total_duality_certificate(P)


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

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_negative_eps_rejected_on_every_route(self, backend):
        # The one guard comes before the values are checked as given, so
        # a negative eps of the other backend raises ValueError too.
        P = catalog_problem("fenchel_abs") if backend == "rational" else float_twin("fenchel_abs")
        w0, g0 = P.x_side_grid.points[0], P.f0_conj.values[0]
        for x in P.x_grid.points[:: len(P.x_grid) // 2]:
            for eps in (scalar(Fraction(-100), backend), scalar(Fraction(-1, 2), backend),
                        -0.5, Fraction(-1, 2)):
                checks = [
                    lambda: theorem43_audit(P, x, eps),
                    lambda: theorem44_audit(P, x, eps),
                    lambda: _restriction_subdiff(P, x, eps),
                    lambda: _projected_full_subdiff(P, x, eps),
                    lambda: is_c_subgradient_via_conjugate(P.f0, g0, x, w0, eps),
                    lambda: eps_c_subdifferential(P.f0, x, eps, P.x_side_grid),
                    lambda: is_c_subgradient(P.f0, x, w0, eps),
                ]
                for check in checks:
                    with pytest.raises(ValueError) as raised:
                        check()
                    assert raised.type is ValueError, (x, eps)

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_negative_eps_raises_before_any_sweep(self, backend, monkeypatch):
        """Counts only: eps_c_subdifferential takes no c-conjugate before
        the one guard raises."""
        P = catalog_problem("fenchel_abs") if backend == "rational" else float_twin("fenchel_abs")
        sweeps = []
        real = subdifferential.c_conjugate
        monkeypatch.setattr(subdifferential, "c_conjugate", lambda *a: sweeps.append(a) or real(*a))
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            eps_c_subdifferential(P.f0, P.x_grid.points[0], scalar(Fraction(-1), backend), P.x_side_grid)
        assert sweeps == []
        eps_c_subdifferential(P.f0, P.x_grid.points[0], scalar(0, backend), P.x_side_grid)
        assert len(sweeps) == 1  # the count sees the sweep

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
    """The intersection formula through its own entry point."""

    def test_superset_direction_exact(self, fenchel_abs, truncated):
        for P in (fenchel_abs, truncated):
            for x in ((0,), (-2,), (3,)):
                for eps in (Fraction(0), Fraction(1, 2), Fraction(1)):
                    out = theorem43_audit(P, x, eps)
                    assert out["superset_ok"], (P.name, x, eps)

    def test_equality_on_c5_instance(self, fenchel_abs):
        out = theorem43_audit(fenchel_abs, (0,), Fraction(0))
        assert c5_audit(fenchel_abs).status == EXACT_PASS
        assert out["equal"]


class TestTheorem44:
    def test_superset_direction_exact(self, fenchel_abs, truncated):
        for P in (fenchel_abs, truncated):
            for x in ((0,), (-1,), (-2,), (3,)):
                for eps in (Fraction(0), Fraction(1, 2), Fraction(1)):
                    assert theorem44_audit(P, x, eps)["superset_ok"], (P.name, x, eps)

    def test_equality_on_c5_instance(self, fenchel_abs):
        out = theorem44_audit(fenchel_abs, (0,), Fraction(0))
        assert c5_audit(fenchel_abs).status == EXACT_PASS and out["equal"]

    def test_strict_inclusion_with_witness_on_truncated(self, truncated):
        out = theorem44_audit(truncated, (0,), Fraction(0))
        assert c5_audit(truncated).status != EXACT_PASS
        assert not out["equal"]
        assert DualPoint.of((2,), (0,), 1) in out["strict_witnesses"]

    def test_certificate_projection_in_both_sides(self, fenchel_abs):
        cert_w = DualPoint.of((0,), (0,), 1)
        projected = x_side(fenchel_abs, embed(fenchel_abs, cert_w))
        out = theorem44_audit(fenchel_abs, (0,), Fraction(0))
        assert projected in out["lhs"]
        assert projected in out["projection"]

    def test_ladder_slack_bites_below_value_resolution(self):
        # The values vary by 1/2000: the slope-0 point is in the projection
        # at every eps + eta with eta >= 1/2000, so a finite ladder of etas
        # stopping at 1/1000 would put it in the intersection.  The limit
        # eta -> 0 is the projection at eps, which leaves it out.
        delta = Fraction(1, 2000)
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
        out = theorem44_audit(P, (0,), Fraction(0))
        assert out["lhs"] == ()  # the slope-0 point is not a subgradient at 0
        assert out["projection"] == ()
        assert out["superset_ok"] and out["equal"]
        assert DualPoint.of((0,), (0,), 1) in _projected_full_subdiff(P, (0,), delta)

    def test_the_intersection_formula_reads_the_same_audit(self):
        for name in CATALOG_PROBLEMS:
            for P in (catalog_problem(name), float_twin(name)):
                for x in P.x_grid.points:
                    for eps in eps_values(P.backend)[:3]:
                        assert theorem43_audit(P, x, eps) == theorem44_audit(P, x, eps)

    def test_the_sets_come_in_x_side_grid_order(self):
        # lhs and projection are the two member sweeps as they come, and
        # the witnesses are lhs without the projection, each a subsequence
        # of x_side_grid.
        for name in CATALOG_PROBLEMS:
            for P in (catalog_problem(name), float_twin(name)):
                order = {v: i for i, v in enumerate(P.x_side_grid.points)}
                for x in P.x_grid.points:
                    for eps in eps_values(P.backend):
                        out = theorem44_audit(P, x, eps)
                        lhs = _restriction_subdiff(P, x, eps)
                        projection = _projected_full_subdiff(P, x, eps)
                        assert out["lhs"] == lhs
                        assert out["projection"] == projection
                        assert out["strict_witnesses"] == tuple(
                            v for v in lhs if v not in projection)
                        assert list(lhs) == sorted(lhs, key=order.__getitem__)
                        assert list(projection) == sorted(projection, key=order.__getitem__)


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
    """0, 1/2, 1, 1/2 + 1/1000 and 1/1000."""
    return [scalar(e, backend) for e in (0, Fraction(1, 2), 1, Fraction(501, 1000), Fraction(1, 1000))]


def payloads(backend):
    """Finite values: quarters, and wide fractions in the rational backend
    (float sums of those would round, and the two routes with them)."""
    return QUARTERS | WIDE_FRACTIONS if backend == "rational" else QUARTERS


def with_gate_through(draw, duals, points, backend, base=()):
    """duals and, unless it is one of them already, a dual point whose gate
    <p, u*> < alpha shuts exactly at p = x + base for a grid point x."""
    x = draw(st.sampled_from(points))
    vec = st.tuples(*[st.sampled_from(SLOPES)] * (len(x) + len(base)))
    xs, us = draw(vec), draw(vec)
    point = tuple(x) + tuple(scalar(c, backend) for c in base)
    w = DualPoint.of(xs, us, dot(point, [scalar(c, backend) for c in us]), backend)
    return duals if w in duals else [*duals, w]


@st.composite
def dual_points(draw, dim, backend, alphas, max_size=8):
    vec = st.tuples(*[st.sampled_from(SLOPES)] * dim)
    rows = draw(st.lists(st.tuples(vec, vec, st.sampled_from(alphas)),
                         min_size=1, max_size=max_size, unique=True))
    return [DualPoint.of(xs, us, a, backend) for xs, us, a in rows]


@st.composite
def function_case(draw):
    """A sampled function on a 1-D or 2-D grid with a dual grid, one of
    whose gates shuts exactly at a grid point."""
    backend = draw(st.sampled_from(["rational", "float"]))
    dim = draw(st.integers(1, 2))
    vec = st.tuples(*[st.sampled_from(COORDS)] * dim)
    pts = draw(st.lists(vec, min_size=1, max_size=7, unique=True))
    grid = Grid(dim, [tuple(scalar(c, backend) for c in p) for p in pts], backend)
    f = SampledFn(grid, draw(ext_values(len(grid), backend, payloads(backend))))
    duals = draw(dual_points(dim, backend, (1, 2, 0, -1, 3, -2)))
    return f, DualGrid(with_gate_through(draw, duals, grid.points, backend))


@st.composite
def problem_case(draw):
    """A table-backed problem on small 1-D x and y grids; one gate of the
    full dual grid shuts exactly at some (x, 0)."""
    backend = draw(st.sampled_from(["rational", "float"]))
    xs = draw(st.lists(st.sampled_from(COORDS), min_size=1, max_size=4, unique=True))
    ys = [0] + draw(st.lists(st.sampled_from(COORDS[1:]), max_size=3, unique=True))
    x_grid = Grid(1, [(scalar(v, backend),) for v in xs], backend)
    y_grid = Grid(1, [(scalar(v, backend),) for v in ys], backend)
    cells = [(x, y) for x in x_grid.points for y in y_grid.points]
    values = draw(ext_values(len(cells), backend, payloads(backend)))
    phi = PerturbFn(1, 1, table=dict(zip(cells, values)))
    dual_y = DualGrid(draw(dual_points(1, backend, (1, 2, 3))))
    pairs = draw(dual_points(2, backend, (1, 2, 0, -1, 3)))
    pairs = with_gate_through(draw, pairs, x_grid.points, backend, base=(0,))
    return PerturbationProblem(phi, x_grid, y_grid, dual_y, DualGrid(pairs))


def projected_scan(P, x, eps):
    """The x-side projections of the full dual grid's members at (x, 0) by
    the definitional test, listed in x_side_grid order."""
    base = x + P.y_grid.origin
    hit = {
        x_side(P, flat) for flat in P.full_dual_grid.points
        if is_c_subgradient(P.phi_on_product, base, flat, eps)
    }
    return tuple(w for w in P.x_side_grid.points if w in hit)


def assert_transfer_matches_definition(f, wg):
    """transfer_audit on f^c and f^{cc'} against the definitional tests of
    every pair (x, w)."""
    f_conj = c_conjugate(f, wg)
    pairs = [(x, w) for x in f.grid.points for w in wg.points]
    primal = {p: is_c_subgradient(f, *p) for p in pairs}
    dual = {(x, w): is_cprime_subgradient(f_conj, w, x) for x, w in pairs}
    hull = cprime_conjugate(f_conj, f.grid)
    rep = transfer_audit(f, f_conj, hull)
    assert rep.forward_ok == all(dual[p] for p in pairs if primal[p])
    assert rep.counterexamples == tuple(p for p in pairs if dual[p] and not primal[p])
    assert rep.pairs_checked == len(pairs)
    assert rep.econvex_surrogate == all(
        hull.value_at(x) == f.value_at(x) for x in f.grid.points
    )


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
        assert_transfer_matches_definition(*case)

    def test_overflowing_float_couplings(self):
        # <x, x*> is +-inf at x = +-1e308 for x* = +-4, and at the gate
        # boundary of (., 1, 1e308): such a coupling is not finite, so no
        # pair through it is a member on either side.
        g = Grid(1, [(-1e308,), (0.0,), (1e308,)], "float")
        wg = DualGrid([DualPoint.of((s,), (u,), a, "float")
                       for s in (-4, 0, 4) for u in (0, 1) for a in (1, 1e308)])
        for values in ([ExtReal(0.0)] * 3, [ExtReal(1.0), ExtReal(0.0), ExtReal(1.0)]):
            f = SampledFn(g, values)
            for x0 in g.points:
                for eps in eps_values("float"):
                    scan = tuple(v for v in wg.points if is_c_subgradient(f, x0, v, eps))
                    assert eps_c_subdifferential(f, x0, eps, wg).members == scan
            assert_transfer_matches_definition(f, wg)

    @given(problem_case())
    @settings(max_examples=150, deadline=None)
    def test_projected_full_subdifferential(self, P):
        for x in P.x_grid.points:
            for eps in eps_values(P.backend):
                assert _projected_full_subdiff(P, x, eps) == projected_scan(P, x, eps)

    def test_projection_comes_in_grid_order_not_first_member_order(self):
        # Flats A and C project to w1 and B to w2, in the order A, B, C.
        # phi is 0 on (0, 0) and (0, 1): A gains 1 at y = 1, so it is not
        # a subgradient at (0, 0); B and C are.  The first member, B,
        # projects to w2, but the x-side grid lists w1 first.
        x_grid, y_grid = Grid(1, [(0,)]), Grid(1, [(0,), (1,)])
        phi = PerturbFn(1, 1, table={((0,), (0,)): ExtReal(0), ((0,), (1,)): ExtReal(0)})
        flats = [DualPoint.of((0, 1), (0, 0), 1), DualPoint.of((1, 0), (0, 0), 1),
                 DualPoint.of((0, -1), (0, 0), 1)]
        P = PerturbationProblem(phi, x_grid, y_grid, DualGrid([w(0, 0, 1)]), DualGrid(flats))
        w1, w2 = w(0, 0, 1), w(1, 0, 1)
        assert P.x_side_grid.points == (w1, w2)
        members = [f for f in flats if is_c_subgradient(P.phi_on_product, (0, 0), f)]
        assert [x_side(P, f) for f in members] == [w2, w1]
        assert _projected_full_subdiff(P, (0,), Fraction(0)) == (w1, w2)
        assert projected_scan(P, (0,), Fraction(0)) == (w1, w2)

    @given(problem_case())
    @settings(max_examples=150, deadline=None)
    def test_total_duality_certificate(self, P):
        # Every membership, not only the first, is held to the definition.
        base = P.y_grid.origin
        scan = [
            (x, w, is_c_subgradient(P.phi_on_product, x + base, embed(P, w)))
            for x in P.x_grid.points for w in P.dual_y_grid.points
        ]
        assert list(_embedded_memberships(P)) == scan
        members = [(x, w) for x, w, member in scan if member]
        assert total_duality_certificate(P) == (members[0] if members else None)

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


# eps for the problem's x-side form: 0, integers, and denominators that
# no grid here holds, so eps's p/q meets d only in the comparison.
FORM_EPS = (0, 1, 3, Fraction(1, 3), Fraction(2, 7), Fraction(5, 2))


def form_members(P):
    """{(x, eps): (lhs, projection)} of theorem44_audit, whose two sweeps
    read P's x-side form, over the x-grid and FORM_EPS; each sweep is held
    to the per-call oracle (``oracles.memberships``) on the same table, and
    the restriction to the definitional is_c_subgradient."""
    out = {}
    for x in P.x_grid.points:
        for e in FORM_EPS:
            eps = scalar(e, P.backend)
            audit = theorem44_audit(P, x, eps)
            for members, table in ((audit["lhs"], P.f0_conj), (audit["projection"], P.psi_block_min)):
                per_call = memberships(x, P.f0.value_at(x), table.grid.points, table.raw(), eps)
                assert members == tuple(compress(table.grid.points, per_call))
            scan = tuple(w for w in P.x_side_grid.points if is_c_subgradient(P.f0, x, w, eps))
            assert audit["lhs"] == scan
            out[x, e] = audit["lhs"], audit["projection"]
    return out


@st.composite
def twin_problems(draw):
    """problem_case's draw on quarters and +-inf, built in the rational
    backend and as its float twin, where every sum the checks take is
    exact; one gate of the full dual grid shuts exactly at some (x, 0)."""
    xs = draw(st.lists(st.sampled_from(COORDS), min_size=1, max_size=4, unique=True))
    ys = [0] + draw(st.lists(st.sampled_from(COORDS[1:]), max_size=3, unique=True))
    values = draw(ext_values(len(xs) * len(ys), "rational"))
    dual_y = draw(dual_points(1, "rational", (1, 2, 3)))
    pairs = draw(dual_points(2, "rational", (1, 2, 0, -1, 3)))
    pairs = with_gate_through(draw, pairs, [(Fraction(v),) for v in xs], "rational", base=(0,))

    def build(backend):
        x_grid = Grid(1, [(scalar(v, backend),) for v in xs], backend)
        y_grid = Grid(1, [(scalar(v, backend),) for v in ys], backend)
        cells = [(x, y) for x in x_grid.points for y in y_grid.points]
        table = {c: ExtReal(scalar(v.value, backend)) if v.is_finite else v
                 for c, v in zip(cells, values)}

        def grid(points):
            return DualGrid([DualPoint.of(p.xstar, p.ustar, p.alpha, backend) for p in points])
        return PerturbationProblem(PerturbFn(1, 1, table=table), x_grid, y_grid,
                                   grid(dual_y), grid(pairs))
    return build("rational"), build("float")


class TestXSideForm:
    """The eps-formula audit's sweeps, read off the problem's x-side form,
    against the per-call route and the definition."""

    @given(problem_case())
    @settings(max_examples=150, deadline=None)
    def test_drawn_problems(self, P):
        form_members(P)

    @given(twin_problems())
    @settings(max_examples=100, deadline=None)
    def test_a_rational_problem_and_its_float_twin(self, twins):
        # A Fraction and a float of one value compare equal, and so do
        # points and dual points holding them.
        P, twin = twins
        assert form_members(P) == form_members(twin)

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_infinite_values_and_an_empty_domain(self, backend):
        form_members(data_problem("empty_domain", backend))
        rng = random.Random(33)
        for _ in range(8):
            form_members(random_problem(rng, backend, max_x=5, max_y=4, max_dual=6, max_pairs=6))


def outcome(run):
    """run()'s value, or the type of the exception it raised."""
    try:
        return run()
    except (ValueError, TypeError) as exc:
        return type(exc)


def reference(x0, fx0, duals, conjs, eps) -> list:
    """``oracles.memberships`` behind the one guard every route keeps: a
    negative eps raises ValueError."""
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    return memberships(x0, fx0, duals, conjs, eps)


def reference_members(f, x, eps, table):
    return tuple(compress(table.grid.points,
                          reference(x, f.value_at(x), table.grid.points, table.raw(), eps)))


def reference_transfer(f, f_conj, f_biconj):
    """(forward_ok, counterexamples, surrogate) of the transfer audit: the
    primal memberships by the oracle, the dual ones by ExtReal arithmetic."""
    zero = scalar(0, f.grid.backend)
    forward_ok, counterexamples = True, []
    for (x, fx), h in zip(f.items(), f_biconj.values):
        flags = reference(x, fx, f_conj.grid.points, f_conj.raw(), zero)
        for (w, g), primal in zip(f_conj.items(), flags):
            c = coupling_c(x, w)
            dual = c.is_finite and g.is_finite and h.is_finite and g + h == c
            forward_ok = forward_ok and (dual or not primal)
            if dual and not primal:
                counterexamples.append((x, w))
    return forward_ok, tuple(counterexamples), f_biconj.values == f.values


def route_eps(backend):
    """The problem's own exact eps (FORM_EPS), raw ints, eps of the other
    backend, NaN and a negative eps."""
    other = [0.5, 0.0, 1 / 3] if backend == "rational" else [Fraction(1, 2), Fraction(0), Fraction(2, 7)]
    return [scalar(e, backend) for e in FORM_EPS] + [0, 2] + other + [
        math.nan, scalar(Fraction(-1, 2), backend)]


class TestEveryRouteMatchesTheOracle:
    """Every public membership route, on one form, returns the per-call
    oracle's members or raises its exception type: on drawn problems in
    either backend, with eps of either backend, NaN, a coupling that is
    NaN, and tables of two backends."""

    @given(twin_problems(), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_the_routes(self, twins, float_first, data):
        P, other = twins[::-1] if float_first else twins
        x = data.draw(st.sampled_from(P.x_grid.points))
        eps = data.draw(st.sampled_from(route_eps(P.backend)))
        f = P.f0
        lhs = outcome(lambda: reference_members(f, x, eps, P.f0_conj))
        projection = outcome(lambda: reference_members(f, x, eps, P.psi_block_min))
        assert outcome(lambda: _restriction_subdiff(P, x, eps)) == lhs
        assert outcome(lambda: _projected_full_subdiff(P, x, eps)) == projection
        both = lhs if isinstance(lhs, type) else projection if isinstance(projection, type) else (
            lhs, projection)
        for audit in (theorem43_audit, theorem44_audit):
            out = outcome(lambda: audit(P, x, eps))
            assert (out if isinstance(out, type) else (out["lhs"], out["projection"])) == both

        nan_point = DualPoint((math.nan,), (0.0,), 1.0)
        for grid in (P.x_side_grid, other.x_side_grid, DualGrid([nan_point])):
            # a negative eps raises before the sweep, whose NaN would raise too
            expected = ValueError if eps < 0 else outcome(
                lambda: reference_members(f, x, eps, c_conjugate(f, grid)))
            assert outcome(lambda: eps_c_subdifferential(f, x, eps, grid).members) == expected
            zero = scalar(0, f.grid.backend)
            expected = outcome(lambda: reference_members(f, x, zero, c_conjugate(f, grid)))
            assert outcome(lambda: c_subdifferential(f, x, grid).members) == expected

        pairs = [*P.f0_conj.items(), *other.f0_conj.items(), (nan_point, P.f0_conj.values[0])]
        for w0, g in pairs:
            expected = outcome(lambda: reference(x, f.value_at(x), [w0], [g._v], eps)[0])
            assert outcome(lambda: is_c_subgradient_via_conjugate(f, g, x, w0, eps)) == expected

        for f_conj in (P.f0_conj, other.f0_conj):
            expected = outcome(lambda: reference_transfer(f, f_conj, P.f0_biconj))
            out = outcome(lambda: transfer_audit(f, f_conj, P.f0_biconj))
            if not isinstance(out, type):
                out = out.forward_ok, out.counterexamples, out.econvex_surrogate
            assert out == expected


@pytest.mark.parametrize("name", CATALOG_PROBLEMS)
@pytest.mark.parametrize("backend", ["rational", "float"])
def test_projection_reads_the_cached_block_minimum(name, backend, monkeypatch):
    """The projection formula sweeps no conjugate once psi is cached, makes
    one coupling per x-side dual point, and reads the very table c5 reads."""
    P = catalog_problem(name) if backend == "rational" else float_twin(name)
    P.psi
    reads, real_table = [], vars(PerturbationProblem)["psi_block_min"]

    def table(problem):
        reads.append(real_table.__get__(problem, PerturbationProblem))
        return reads[-1]

    def no_sweep(*args):
        raise AssertionError("c_conjugate swept again")

    couplings, real_coupling = [], conjugation._coupling

    def coupling(x, dual):
        couplings.append(dual)
        return real_coupling(x, dual)

    monkeypatch.setattr(PerturbationProblem, "psi_block_min", property(table))
    with monkeypatch.context() as m:
        for module in ("conjugation", "duality", "subdifferential"):
            m.setattr(f"econvex.{module}.c_conjugate", no_sweep)
        m.setattr(conjugation, "_coupling", coupling)
        for x in P.x_grid.points:
            _projected_full_subdiff(P, x, scalar(Fraction(0), backend))
    assert len(couplings) == len(P.x_grid) * len(P.x_side_grid)
    c5_audit(P)
    assert len(reads) == len(P.x_grid) + 1 and all(r is reads[0] for r in reads)


@pytest.mark.parametrize("name", CATALOG_PROBLEMS)
@pytest.mark.parametrize("backend", ["rational", "float"])
def test_total_duality_evaluates_no_coupling(name, backend, monkeypatch):
    """Once phi(., 0), G and the duality report are cached, the embedded
    memberships are read off them: the coupling of (x, 0) with an embedded
    dual point is 0, so neither coupling function runs."""
    P = catalog_problem(name) if backend == "rational" else float_twin(name)
    P.f0, P.g_on_dual_y, P.report
    calls = []

    def counted(real):
        return lambda *args: calls.append(args) or real(*args)

    monkeypatch.setattr(conjugation, "_coupling", counted(conjugation._coupling))
    monkeypatch.setattr(subdifferential, "coupling_c", counted(subdifferential.coupling_c))
    out = prop43_audit(P)
    assert out["certificate"] == total_duality_certificate(P)
    assert calls == []


def test_the_eps_audits_share_the_restriction_members(monkeypatch):
    """Counts only: one eps-formula audit, for both formulae, takes the
    restriction's members and the projection once each per call, and a
    float eps on a rational problem raises on every call."""
    P = catalog_problem("fenchel_abs")
    calls, real = [], subdifferential._members

    def counted(f, x, eps, f_conj):
        calls.append(f_conj is P.f0_conj)
        return real(f, x, eps, f_conj)

    monkeypatch.setattr(subdifferential, "_members", counted)
    x = P.x_grid.points[0]
    for eps in (Fraction(0), Fraction(1, 2), Fraction(0)):
        theorem44_audit(P, x, eps)
    assert calls == [True, False] * 3
    for _ in range(2):
        with pytest.raises(BackendMismatchError):
            theorem44_audit(P, x, 0.5)


class TestMixedBackendsRaise:
    """A Fraction meeting a float raises, as ExtReal arithmetic does, on
    the route that takes the values as given."""

    def test_a_float_eps_on_a_rational_problem(self, fenchel_abs):
        P, x = fenchel_abs, (Fraction(0),)
        checks = [
            lambda: eps_c_subdifferential(P.f0, x, 0.5, P.x_side_grid),
            lambda: theorem43_audit(P, x, 0.5),
            lambda: theorem44_audit(P, x, 0.5),
            lambda: _restriction_subdiff(P, x, 0.5),
            lambda: is_c_subgradient_via_conjugate(P.f0, P.f0_conj.values[0], x,
                                                   P.x_side_grid.points[0], 0.5),
        ]
        for check in checks:
            with pytest.raises(BackendMismatchError):
                check()

    def test_a_rational_eps_on_a_float_problem(self):
        P = float_twin("fenchel_abs")
        x = (0.0,)
        for check in (eps_c_subdifferential, lambda f, x, eps, wg: theorem43_audit(P, x, eps),
                      lambda f, x, eps, wg: theorem44_audit(P, x, eps)):
            with pytest.raises(BackendMismatchError):
                check(P.f0, x, Fraction(1, 2), P.x_side_grid)

    def test_the_transfer_audit_given_mixed_tables(self, fenchel_abs):
        P, twin = fenchel_abs, float_twin("fenchel_abs")
        with pytest.raises(BackendMismatchError):
            transfer_audit(P.f0, twin.f0_conj, P.f0_biconj)
        with pytest.raises(BackendMismatchError):
            transfer_audit(twin.f0, P.f0_conj, twin.f0_biconj)
        # f^{cc'} of the other backend: the audit's one check over every row
        with pytest.raises(BackendMismatchError):
            transfer_audit(P.f0, P.f0_conj, twin.f0_biconj)


@pytest.mark.parametrize("name", CATALOG_PROBLEMS)
def test_the_checks_take_their_own_ints(name, monkeypatch):
    """Counts only.  On a rational catalog problem the transfer audit and
    the eps-formula memberships run on the checks' own ints (every coupling
    and membership term gets ints), build no ExtReal and never reach the
    kernel's scaling.  The transfer audit scales once and takes one
    coupling per (x, w), and each per-call check
    (is_c_subgradient_via_conjugate) scales once; every sweep of
    theorem44_audit at every x and eps reads the problem's one x-side
    scaling.  On the float twin they take the values as given (each
    scaling gives no scale), the sweeps still through one form, and build
    no ExtReal either."""
    problems = catalog_problem(name), float_twin(name)
    for P in problems:
        P.f0_conj, P.f0_biconj, P.psi_block_min

    def refuse(*args):
        raise AssertionError("a check reached the kernel's scaling")

    monkeypatch.setattr(funcrep, "_prepared", refuse)
    couplings = []
    monkeypatch.setattr(conjugation, "_coupling",
                        lambda *args, real=conjugation._coupling: couplings.append(args) or real(*args))
    terms = ("subdifferential._member", "conjugation._coupling")
    for P, ints in zip(problems, (True, False)):
        eps = scalar(Fraction(1, 2), P.backend)
        del couplings[:]
        with built_extreals() as built, route_log("subdifferential.transfer_audit", *terms) as transfer:
            subdifferential.transfer_audit(P.f0, P.f0_conj, P.f0_biconj)
        assert built == []
        assert transfer == [ints]
        assert len(couplings) == len(P.x_grid) * len(P.f0_conj.grid)
        x = P.x_grid.points[0]
        cases = [(w, g) for table in (P.f0_conj, P.psi_block_min) for w, g in table.items()]
        with built_extreals() as built, \
                route_log("subdifferential.is_c_subgradient_via_conjugate", *terms) as per_call:
            for w, g in cases:
                subdifferential.is_c_subgradient_via_conjugate(P.f0, g, x, w, eps)
        assert built == []
        assert per_call == [ints] * len(cases)
        eps_values = [scalar(e, P.backend) for e in (0, Fraction(1, 2), 1)]
        with built_extreals() as built, scale_log("subdifferential", *terms) as (scales, paths):
            for x in P.x_grid.points:
                for eps in eps_values:
                    theorem44_audit(P, x, eps)
        assert built == []
        assert scales == [ints]
        assert all(paths) == ints


class TestIntersectionIsTheLimit:
    """theorem44_audit's projection at eps is the intersection of the
    projections at eps + eta over eta > 0, and so that of the projections
    at eps + eta for eta = 1, 1/10, ..., 1/10^6: every instance here steps
    its values by more than 10^-6, fine_resolution's by 1/2000."""

    def cases(self):
        for name in CATALOG_PROBLEMS:
            yield catalog_problem(name)
            yield float_twin(name)
        for backend in ("rational", "float"):
            yield data_problem("fine_resolution", backend)
        rng = random.Random(43)
        for backend in ("rational", "float"):
            for _ in range(6):
                yield random_problem(rng, backend, max_x=5, max_y=5, max_dual=6, max_pairs=6)

    def test_the_intersection_is_the_projection_at_eps(self):
        for P in self.cases():
            etas = [scalar(Fraction(1, 10**k), P.backend) for k in range(7)]
            for x in P.x_grid.points:
                for eps in eps_values(P.backend)[:3]:
                    out = frozenset(theorem44_audit(P, x, eps)["projection"])
                    assert out == frozenset.intersection(*(
                        frozenset(_projected_full_subdiff(P, x, eps + eta)) for eta in etas
                    ))
