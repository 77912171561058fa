import random
from fractions import Fraction

import pytest

from helpers import built_extreals, catalog_problem, float_twin, random_problem

from econvex.conjugation import DualGrid, DualPoint
from econvex.duality import (
    EXACT_PASS,
    FAIL,
    GRID_TRUNCATED,
    SURROGATE_UNMET,
    TOLERANCE_PASS,
    AuditOutcome,
    PerturbationProblem,
    c5_audit,
    c5bar_audit,
    converse_duality_report,
    converse_pair_values,
    corollary310_audit,
    dual_value,
    dual_value_via_p,
    primal_value,
    theorem31_audit,
    weak_chain_audit,
)
from econvex.extreal import NEG_INF, POS_INF, ExtReal, scalar
from econvex.funcrep import Grid, PerturbFn, SampledFn


@pytest.fixture(scope="module")
def fenchel_abs():
    return catalog_problem("fenchel_abs")


@pytest.fixture(scope="module")
def example52():
    return catalog_problem("example52")


@pytest.fixture(scope="module")
def truncated():
    return catalog_problem("truncated_dual")


def all_plus_inf_problem():
    table = {
        ((Fraction(x),), (Fraction(y),)): POS_INF
        for x in (0, 1)
        for y in (-1, 0, 1)
    }
    phi = PerturbFn(1, 1, table=table)
    return PerturbationProblem(
        phi,
        Grid(1, [(0,), (1,)]),
        Grid(1, [(-1,), (0,), (1,)]),
        DualGrid([DualPoint.of((0,), (0,), 1)]),
    )


class TestValues:
    def test_fenchel_abs_primal(self, fenchel_abs):
        v, argmin = primal_value(fenchel_abs)
        assert v == ExtReal(0)
        assert argmin == ((Fraction(0),),)

    def test_example52_grid_truncated_primal(self, example52):
        v, argmin = primal_value(example52)
        assert v == ExtReal(-5)
        assert argmin == ((Fraction(-5),),)

    def test_infeasible_primal(self):
        P = all_plus_inf_problem()
        v, argmin = primal_value(P)
        assert v == POS_INF and argmin == ()

    def test_fenchel_abs_dual_attained_at_flat_point(self, fenchel_abs):
        v, argmax = dual_value(fenchel_abs)
        assert v == ExtReal(0)
        assert DualPoint.of((0,), (0,), 1) in argmax

    def test_dual_of_everywhere_infinite_conjugate(self):
        # A -inf cell makes every conjugate value +inf, so the dual is -inf.
        table = {((Fraction(0),), (Fraction(0),)): NEG_INF}
        phi = PerturbFn(1, 1, table=table)
        P = PerturbationProblem(
            phi,
            Grid(1, [(0,)]),
            Grid(1, [(0,)]),
            DualGrid([DualPoint.of((1,), (0,), 1)]),
        )
        v, argmax = dual_value(P)
        assert v == NEG_INF and argmax == ()

    def test_empty_dual_grid_gives_neg_inf_both_routes(self):
        phi = PerturbFn(1, 1, table={((Fraction(0),), (Fraction(0),)): ExtReal(0)})
        P = PerturbationProblem(
            phi, Grid(1, [(0,)]), Grid(1, [(0,)]), DualGrid([])
        )
        v, _ = dual_value(P)
        assert v == NEG_INF
        assert dual_value_via_p(P) == NEG_INF

    def test_barred_values_are_negations(self, fenchel_abs):
        v_gp, _ = primal_value(fenchel_abs)
        v_gdc, _ = dual_value(fenchel_abs)
        v_gpbar, v_gdbar = converse_pair_values(fenchel_abs)
        assert v_gpbar == -v_gdc
        assert v_gdbar == -v_gp
        assert v_gdbar <= v_gpbar


class TestRandomInstances:
    def test_weak_duality_and_sup_interchange(self):
        rng = random.Random(2024)
        for _ in range(40):
            P = random_problem(rng)
            v_gp, _ = primal_value(P)
            v_gdc, _ = dual_value(P)
            assert v_gdc <= v_gp
            assert dual_value_via_p(P) == v_gdc

    def test_e1_chain_exact(self):
        rng = random.Random(77)
        for _ in range(25):
            P = random_problem(rng)
            assert weak_chain_audit(P).status == EXACT_PASS

    def test_unconditional_audit_halves(self):
        rng = random.Random(4096)
        for _ in range(15):
            P = random_problem(rng)
            c5, c5bar = c5_audit(P), c5bar_audit(P)
            for out in (c5, c5bar, theorem31_audit(P, c5), corollary310_audit(P, c5bar)):
                # The exact halves never fail; conditional failure carries
                # kind "conditional".
                assert not out.is_exact_failure, out


class TestChain:
    def test_chain_on_catalog(self, fenchel_abs, example52, truncated):
        for P in (fenchel_abs, example52, truncated):
            assert weak_chain_audit(P).status == EXACT_PASS

    def test_chain_on_all_infinite(self):
        out = weak_chain_audit(all_plus_inf_problem())
        assert out.status == EXACT_PASS
        assert "inf" in out.detail


class TestC5:
    def test_fenchel_abs_passes(self, fenchel_abs):
        out = c5_audit(fenchel_abs)
        assert out.status == EXACT_PASS and out.witnesses == ()

    def test_restriction_direction_always(self, fenchel_abs, truncated):
        # lhs <= rhs is exact even when the surrogate fails.
        for P in (fenchel_abs, truncated):
            out = c5_audit(P)
            assert not out.is_exact_failure

    def test_truncated_dual_fails_with_witness(self, truncated):
        out = c5_audit(truncated)
        assert out.status == FAIL
        witnessed = {w for w, _, _ in out.witnesses}
        assert DualPoint.of((2,), (0,), 1) in witnessed
        for _, lhs, rhs in out.witnesses:
            assert lhs < rhs


class TestC5Bar:
    def test_fenchel_abs_equality_with_interior_attainment(self, fenchel_abs):
        out = c5bar_audit(fenchel_abs)
        assert out.status == EXACT_PASS

    def test_example52_equality_but_grid_truncated(self, example52):
        # The infimum over x is attained only at the grid edge x = -5:
        # the -inf of the continuum shows up as a truncation flag.
        out = c5bar_audit(example52)
        assert out.status in (EXACT_PASS, "grid-truncated")
        assert out.status == "grid-truncated"


class TestTheorem31:
    def test_inequality_on_catalog(self, fenchel_abs, example52, truncated):
        for P in (fenchel_abs, example52, truncated):
            out = theorem31_audit(P, c5_audit(P))
            assert not out.is_exact_failure

    def test_equality_under_c5(self, fenchel_abs):
        out = theorem31_audit(fenchel_abs, c5_audit(fenchel_abs))
        assert out.status == EXACT_PASS

    def test_surrogate_unmet_on_truncated(self, truncated):
        out = theorem31_audit(truncated, c5_audit(truncated))
        assert out.status == "surrogate-unmet"

    def test_all_infinite_phi(self):
        P = all_plus_inf_problem()
        out = theorem31_audit(P, c5_audit(P))
        assert not out.is_exact_failure


class TestCorollary310:
    def test_inequality_on_catalog(self, fenchel_abs, example52, truncated):
        for P in (fenchel_abs, example52, truncated):
            assert not corollary310_audit(P, c5bar_audit(P)).is_exact_failure

    def test_equality_under_c5bar(self, fenchel_abs):
        out = corollary310_audit(fenchel_abs, c5bar_audit(fenchel_abs))
        assert out.status == EXACT_PASS

    def test_single_x_grid_trivial_equality(self):
        phi = PerturbFn(
            1,
            1,
            table={
                ((Fraction(0),), (Fraction(y),)): ExtReal(abs(y))
                for y in (-1, 0, 1)
            },
        )
        P = PerturbationProblem(
            phi,
            Grid(1, [(0,)]),
            Grid(1, [(-1,), (0,), (1,)]),
            DualGrid([DualPoint.of((v,), (0,), 1) for v in (-1, 0, 1)]),
        )
        out = corollary310_audit(P, c5bar_audit(P))
        assert out.status in (EXACT_PASS, "grid-truncated")


class TestAlphaExclusion:
    def test_nonpositive_alpha_points_have_infinite_conjugate(self, fenchel_abs):
        # Rebuild with extra full-grid pairs at alpha <= 0.
        pairs = [
            DualPoint.of((0, 1), (0, 0), 0),
            DualPoint.of((0, -1), (0, 0), -1),
        ]
        P = PerturbationProblem(
            fenchel_abs.phi,
            fenchel_abs.x_grid,
            fenchel_abs.y_grid,
            fenchel_abs.dual_y_grid,
            DualGrid(pairs),
        )
        for pair in pairs:
            assert P.psi.value_at(pair) == POS_INF


class TestReport:
    def test_fenchel_abs_total_duality(self, fenchel_abs):
        r = converse_duality_report(fenchel_abs)
        assert r.v_gp == r.v_gdc == ExtReal(0)
        assert r.gap == ExtReal(0)
        assert r.weak_ok and r.zero_gap and r.strong and r.converse and r.total
        assert not r.primal_truncated
        assert not r.has_exact_failure
        assert r.audits["c5"].status == EXACT_PASS
        assert r.audits["theorem31"].status == EXACT_PASS

    def test_truncated_dual_positive_gap(self, truncated):
        r = converse_duality_report(truncated)
        assert r.v_gp == ExtReal(0)
        assert r.v_gdc == ExtReal(-5)
        assert r.gap == ExtReal(5)
        assert r.weak_ok and not r.zero_gap
        assert not r.converse and not r.total
        assert not r.has_exact_failure

    def test_example52_grid_truncation_flagged(self, example52):
        r = converse_duality_report(example52)
        assert r.v_gp == ExtReal(-5)
        assert r.primal_truncated
        assert not r.has_exact_failure

    def test_infeasible_primal_flags(self):
        r = converse_duality_report(all_plus_inf_problem())
        assert r.v_gp == POS_INF
        assert r.primal_argmin == ()
        assert not r.zero_gap and not r.converse and not r.total
        assert not r.has_exact_failure

    def test_report_on_random_instances_has_no_exact_failures(self):
        rng = random.Random(9)
        for _ in range(10):
            P = random_problem(rng)
            assert not converse_duality_report(P).has_exact_failure


@pytest.fixture(scope="module")
def planar():
    import json

    from econvex import problemio

    doc = {
        "kind": "problem",
        "name": "planar_abs",
        "x_dim": 2,
        "y_dim": 1,
        "backend": "rational",
        "phi": {
            "op": "sum",
            "terms": [
                {"op": "abs", "arg": {"op": "affine", "x": ["1", "0"]}},
                {"op": "abs", "arg": {"op": "affine", "x": ["0", "1"]}},
                {
                    "op": "indicator",
                    "set": {
                        "dim": 1,
                        "constraints": [{"a": ["1"], "b": "0", "strict": False}],
                    },
                    "rows": [{"x": ["1", "1"], "y": ["1"]}],
                },
            ],
        },
        "grids": {
            "x": {
                "points": [
                    [str(a), str(b)] for a in (-1, 0, 1) for b in (-1, 0, 1)
                ]
            },
            "y": {"lo": "-2", "hi": "2", "count": 5},
            "ystar": ["-1", "0", "1"],
            "vstar": ["0"],
            "alpha": ["1"],
            "xstar": [["0", "0"], ["1", "0"], ["0", "1"]],
            "ustar": [["0", "0"]],
        },
    }
    return problemio.loads(json.dumps(doc)).build()


class TestMultiDimensionalX:

    def test_total_duality_in_the_plane(self, planar):
        r = converse_duality_report(planar)
        assert r.v_gp == ExtReal(0)
        assert (Fraction(0), Fraction(0)) in r.primal_argmin
        assert r.total
        assert not r.has_exact_failure

    def test_projection_and_embedding_slicing(self, planar):
        w = planar.dual_y_grid.points[0]
        flat = planar.embed(w)
        assert flat.xstar == (Fraction(0), Fraction(0)) + w.xstar
        assert planar.x_side(flat).xstar == (Fraction(0), Fraction(0))

    def test_lagrangian_values_in_the_plane(self, planar):
        from econvex.lagrangian import lagrangian_value

        flat_w = DualPoint.of((0,), (0,), 1)
        assert lagrangian_value(planar, (0, 0), flat_w) == ExtReal(0)
        assert lagrangian_value(planar, (1, 1), flat_w) == ExtReal(2)

    def test_subdifferential_membership_in_the_plane(self, planar):
        from econvex.subdifferential import c_subdifferential

        s = c_subdifferential(planar.f0, (0, 0), planar.x_side_grid)
        assert DualPoint.of((0, 0), (0, 0), 1) in s.members


class TestConstruction:
    def test_missing_origin_rejected(self):
        phi = PerturbFn(1, 1, table={})
        with pytest.raises(ValueError, match="origin"):
            PerturbationProblem(
                phi, Grid(1, [(0,)]), Grid(1, [(1,)]), DualGrid([])
            )

    def test_nonpositive_alpha_rejected(self):
        phi = PerturbFn(1, 1, table={})
        with pytest.raises(ValueError, match="alpha"):
            PerturbationProblem(
                phi,
                Grid(1, [(0,)]),
                Grid(1, [(0,)]),
                DualGrid([DualPoint.of((0,), (0,), 0)]),
            )

    def test_embeddings_always_present(self, fenchel_abs):
        for w in fenchel_abs.dual_y_grid.points:
            assert fenchel_abs.embed(w) in fenchel_abs.full_dual_grid


class TestAuditOutcomeExact:
    def test_true_is_an_exact_pass(self):
        a = AuditOutcome.exact("weak_duality", True, "v(GD_c)=0 <= v(GP)=0")
        assert (a.name, a.kind, a.status) == ("weak_duality", "exact", EXACT_PASS)
        assert a.detail == "v(GD_c)=0 <= v(GP)=0" and a.witnesses == ()
        assert not a.is_exact_failure

    def test_false_is_an_exact_failure(self):
        a = AuditOutcome.exact("minimax", False)
        assert (a.kind, a.status, a.detail) == ("exact", FAIL, "")
        assert a.is_exact_failure

    def test_report_identities_are_exact_outcomes(self, fenchel_abs):
        audits = converse_duality_report(fenchel_abs).audits
        for name in ("weak_duality", "dual_route_identity", "barred_identities",
                     "barred_weak", "converse_equivalence", "e1_chain"):
            assert audits[name] == AuditOutcome.exact(name, True, audits[name].detail)


# ---------------------------------------------------------------------------
# Every branch of the four restriction audits, reached by overwriting a
# cached table of a catalog problem
# ---------------------------------------------------------------------------


BACKENDS = ("rational", "float")


def problem(name, backend):
    return catalog_problem(name) if backend == "rational" else float_twin(name)


def shift(P, table, steps, rhs):
    """Overwrite the cached table ``P.<table>`` with a copy whose k-th
    finite cell (counting cells where it and ``rhs`` are both finite) moves
    by ``steps[k]``; the moved rows (point, new value, rhs), in grid order."""
    fn = getattr(P, table)
    finite = [i for i, (a, b) in enumerate(zip(fn.values, rhs)) if a.is_finite and b.is_finite]
    values = list(fn.values)
    for k, step in steps.items():
        values[finite[k]] = values[finite[k]] + ExtReal(scalar(step, P.backend))
    P.__dict__[table] = SampledFn(fn.grid, values)
    moved = sorted(finite[k] for k in steps)
    return [(fn.grid.points[i], values[i], rhs[i]) for i in moved]


def minima(P):
    return [low for low, _ in P.psi_prime_x_minima]


def passed(backend):
    return EXACT_PASS if backend == "rational" else TOLERANCE_PASS


def assert_outcome(out, kind, status, detail, witnesses=()):
    assert (out.kind, out.status, out.detail) == (kind, status, detail)
    assert out.witnesses == tuple(witnesses)


@pytest.mark.parametrize("backend", BACKENDS)
class TestAuditBranches:
    def test_c5_pass(self, backend):
        assert_outcome(
            c5_audit(problem("fenchel_abs", backend)), "conditional", EXACT_PASS,
            "phi(.,0)^c equals the (y*,v*)-minimum of phi^c at every projected "
            "dual point (surrogate)",
        )

    def test_c5_conditional_fail(self, backend):
        P = problem("truncated_dual", backend)
        rows = [(w, a, b) for (w, a), b in zip(P.f0_conj.items(), P.psi_block_min.values)
                if a != b]
        assert_outcome(c5_audit(P), "conditional", FAIL,
                       f"{len(rows)} projected dual points miss the minimum", rows)

    def test_c5_exact_fail_lists_every_mismatch(self, backend):
        P = problem("fenchel_abs", backend)
        moved = shift(P, "f0_conj", {0: 1, 1: -1}, P.psi_block_min.values)
        assert_outcome(c5_audit(P), "exact", FAIL, "restriction inequality violated (bug)", moved)

    def test_c5bar_pass(self, backend):
        assert_outcome(
            c5bar_audit(problem("fenchel_abs", backend)), "conditional", EXACT_PASS,
            "G^{c'} equals the attained x-minimum of psi^{c'} at every y (surrogate)",
        )

    def test_c5bar_grid_truncated(self, backend):
        P = problem("example52", backend)
        edges = {P.x_grid.points[0], P.x_grid.points[-1]}
        ys = [y for y, (low, at) in zip(P.y_grid.points, P.psi_prime_x_minima)
              if low.is_finite and set(at) <= edges]
        assert_outcome(
            c5bar_audit(P), "conditional", GRID_TRUNCATED,
            f"equality holds but the minimum is attained only at x-grid edges for {len(ys)} "
            "y-points", ys,
        )

    def test_c5bar_conditional_fail(self, backend):
        P = problem("fenchel_abs", backend)
        moved = shift(P, "g_prime", {1: -1}, minima(P))
        assert_outcome(c5bar_audit(P), "conditional", FAIL,
                       "1 y-points miss the attained minimum", moved)

    def test_c5bar_exact_fail_lists_every_mismatch(self, backend):
        P = problem("fenchel_abs", backend)
        moved = shift(P, "g_prime", {0: 1, 1: -1}, minima(P))
        assert_outcome(c5bar_audit(P), "exact", FAIL, "lower-bound inequality violated (bug)",
                       moved)

    def test_theorem31_pass(self, backend):
        P = problem("fenchel_abs", backend)
        assert_outcome(theorem31_audit(P, c5_audit(P)), "conditional", passed(backend),
                       "inequality exact and equality holds under c5")

    def test_theorem31_surrogate_unmet(self, backend):
        P = problem("truncated_dual", backend)
        assert_outcome(theorem31_audit(P, c5_audit(P)), "conditional", SURROGATE_UNMET,
                       "inequality exact; equality not required (c5 surrogate unmet)")

    def test_theorem31_conditional_fail(self, backend):
        P = problem("fenchel_abs", backend)
        moved = shift(P, "f0_biconj", {1: 1}, P.phi_biconj_at_zero.values)
        assert_outcome(theorem31_audit(P, c5_audit(P)), "conditional", FAIL,
                       "c5 surrogate holds but equality fails at 1 points", moved)

    def test_theorem31_exact_fail_lists_only_violations(self, backend):
        P = problem("fenchel_abs", backend)
        moved = shift(P, "f0_biconj", {0: -1, 1: 1}, P.phi_biconj_at_zero.values)
        assert_outcome(theorem31_audit(P, c5_audit(P)), "exact", FAIL,
                       "pointwise >= violated (bug)", moved[:1])

    def test_corollary310_pass(self, backend):
        P = problem("fenchel_abs", backend)
        assert_outcome(
            corollary310_audit(P, c5bar_audit(P)), "conditional", passed(backend),
            "inequality exact and min-attainment equality holds under c5bar",
        )

    def test_corollary310_grid_truncated(self, backend):
        P = problem("example52", backend)
        assert_outcome(corollary310_audit(P, c5bar_audit(P)), "conditional", GRID_TRUNCATED,
                       "equality holds; minimum attained only at grid edges")

    def test_corollary310_surrogate_unmet(self, backend):
        P = problem("fenchel_abs", backend)
        shift(P, "g_prime", {1: -1}, minima(P))
        assert_outcome(corollary310_audit(P, c5bar_audit(P)), "conditional", SURROGATE_UNMET,
                       "inequality exact; equality not required (c5bar surrogate unmet)")

    def test_corollary310_conditional_fail(self, backend):
        P = problem("fenchel_abs", backend)
        moved = shift(P, "p_biconj", {1: -1}, minima(P))
        assert_outcome(corollary310_audit(P, c5bar_audit(P)), "conditional", FAIL,
                       "c5bar surrogate holds but equality fails at 1 points", moved)

    def test_corollary310_exact_fail_lists_only_violations(self, backend):
        P = problem("fenchel_abs", backend)
        moved = shift(P, "p_biconj", {0: 1, 1: -1}, minima(P))
        assert_outcome(corollary310_audit(P, c5bar_audit(P)), "exact", FAIL,
                       "pointwise <= violated (bug)", moved[:1])


@pytest.mark.parametrize("name", ["fenchel_abs", "example52"])
def test_g_is_read_off_psi_by_index(name):
    """Counts only: on a rational problem G is psi's exact table at the
    embeddings' indices, and its keys are read with no ExtReal built."""
    P = catalog_problem(name)
    psi = P.psi
    with built_extreals() as built:
        G = P.g_on_dual_y
        keys = list(G.keys)
    assert built == [] and G.scale == psi.scale and G.scale is not None
    assert keys == [psi.keys[P.full_dual_grid.index_of(P.embed(w))] for w in P.dual_y_grid]
    assert G.values == tuple(psi.value_at(P.embed(w)) for w in P.dual_y_grid)
