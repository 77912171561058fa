import json
import random
from fractions import Fraction

import pytest

from helpers import abs_pair_problem, catalog_problem, random_problem

from econvex import catalog, problemio
from econvex.conjugation import DualPoint
from econvex.duality import converse_duality_report, dual_value, primal_value
from econvex.extreal import NEG_INF, POS_INF, ExtReal
from econvex.lagrangian import (
    dual_slice_audit,
    example52_audit,
    find_convexity_violation,
    infsup_value,
    is_saddle_point,
    lagrangian_value,
    prop55_audit,
    saddle_search,
    supinf_value,
)


def w(ys, vs, a):
    return DualPoint.of((ys,), (vs,), a)


@pytest.fixture(scope="module")
def fenchel_abs():
    return catalog_problem("fenchel_abs")


@pytest.fixture(scope="module")
def example52():
    return catalog_problem("example52")


@pytest.fixture(scope="module")
def truncated():
    return catalog_problem("truncated_dual")


class TestLagrangianValue:
    def test_example52_neg_inf_branch(self, example52):
        assert lagrangian_value(example52, (-2,), w(1, 1, 1)) == NEG_INF

    def test_example52_oracle_value_at_zero(self, example52):
        # Direct evaluation of the defining infimum: over y <= 0 the
        # coupling is the identity, so the infimum of -y on the grid is 0.
        assert lagrangian_value(example52, (0,), w(1, 1, 1)) == ExtReal(0)

    def test_fenchel_abs_flat_point_gives_abs(self, fenchel_abs):
        for x in fenchel_abs.x_grid.points:
            assert lagrangian_value(fenchel_abs, x, w(0, 0, 1)) == ExtReal(
                abs(x[0])
            )

    def test_nonpositive_alpha_rejected(self, fenchel_abs):
        with pytest.raises(ValueError):
            lagrangian_value(fenchel_abs, (0,), w(0, 0, 0))

    def test_off_grid_dual_point_computed_directly(self, fenchel_abs):
        # (0, 0, 7) is not on the dual grid but alpha > 0: L = |x| again.
        assert lagrangian_value(fenchel_abs, (2,), w(0, 0, 7)) == ExtReal(2)

    def test_empty_Yx_gives_pos_inf(self):
        P = catalog_problem("affine_recovery")
        # phi(x, y) = x + ind(x + y >= 0); at x = -5 the slice dom is
        # {y >= 5}, so Y_x = {5} and L is finite; build emptiness via a
        # random table instead.
        rng = random.Random(0)
        while True:
            Q = random_problem(rng, max_x=4, max_y=4)
            empty = [
                x
                for x in Q.x_grid.points
                if all(
                    Q.phi.value(x, y, Q.backend) == POS_INF
                    for y in Q.y_grid.points
                )
            ]
            if empty and len(Q.dual_y_grid) > 0:
                assert (
                    lagrangian_value(Q, empty[0], Q.dual_y_grid.points[0])
                    == POS_INF
                )
                break


class TestDualSliceAudit:
    def test_catalog_instances(self, fenchel_abs, example52, truncated):
        for P in (fenchel_abs, example52, truncated):
            for x in P.x_grid.points:
                assert dual_slice_audit(P, x)["ok"]

    def test_random_instances(self):
        rng = random.Random(13)
        for _ in range(10):
            P = random_problem(rng, max_x=5, max_y=5, max_dual=8)
            for x in P.x_grid.points:
                assert dual_slice_audit(P, x)["ok"]

    def test_empty_slice_row(self):
        # Slice identically +inf: L = +inf and the conjugate is -inf.
        rng = random.Random(0)
        while True:
            Q = random_problem(rng, max_x=4, max_y=4)
            empty = [
                x
                for x in Q.x_grid.points
                if all(
                    Q.phi.value(x, y, Q.backend) == POS_INF
                    for y in Q.y_grid.points
                )
            ]
            if empty and len(Q.dual_y_grid) > 0:
                audit = dual_slice_audit(Q, empty[0])
                assert audit["ok"]
                _, lhs, rhs = audit["rows"][0]
                assert lhs == NEG_INF and rhs == NEG_INF
                break


class TestMinimax:
    def test_supinf_equals_dual_value_catalog(
        self, fenchel_abs, example52, truncated
    ):
        for P in (fenchel_abs, example52, truncated):
            v, _ = dual_value(P)
            assert supinf_value(P) == v

    def test_supinf_equals_dual_value_random(self):
        rng = random.Random(99)
        for _ in range(12):
            P = random_problem(rng, max_x=6, max_y=6, max_dual=8)
            v, _ = dual_value(P)
            assert supinf_value(P) == v

    def test_minimax_inequality(self, fenchel_abs, example52, truncated):
        rng = random.Random(3)
        problems = [fenchel_abs, example52, truncated] + [
            random_problem(rng, max_x=5, max_y=5, max_dual=6) for _ in range(8)
        ]
        for P in problems:
            assert supinf_value(P) <= infsup_value(P)

    def test_fenchel_abs_zero_minimax(self, fenchel_abs):
        assert supinf_value(fenchel_abs) == ExtReal(0)
        assert infsup_value(fenchel_abs) == ExtReal(0)


class TestSaddlePoints:
    def test_fenchel_abs_origin_saddle(self, fenchel_abs):
        assert is_saddle_point(fenchel_abs, (0,), w(0, 0, 1))

    def test_wrong_primal_point_fails(self, fenchel_abs):
        assert not is_saddle_point(fenchel_abs, (1,), w(0, 0, 1))

    def test_truncated_dual_saddle_certifies_minimax_not_total_duality(
        self, truncated
    ):
        # The truncated Y-side grid leaves a saddle at value -5 = supinf =
        # infsup, strictly below v(GP) = 0: a saddle pins the minimax
        # value, and only the slice surrogate would lift it to the
        # primal-dual pair.
        saddles = saddle_search(truncated)
        assert saddles != ()
        lo, hi = supinf_value(truncated), infsup_value(truncated)
        assert lo == hi == ExtReal(-5)
        for s in saddles:
            assert s.value == lo
        v_gp, _ = primal_value(truncated)
        assert v_gp == ExtReal(0)

    def test_minimax_gap_means_no_saddle(self):
        # Exact finite-table content: a saddle forces supinf = infsup.
        rng = random.Random(42)
        found_gap = 0
        for _ in range(40):
            P = random_problem(rng, max_x=5, max_y=5, max_dual=6)
            if supinf_value(P) < infsup_value(P):
                found_gap += 1
                assert saddle_search(P) == ()
        assert found_gap > 0

    def test_saddle_set_matches_attainers_on_fenchel_abs(self, fenchel_abs):
        report = converse_duality_report(fenchel_abs)
        saddles = {(s.xbar, s.wbar) for s in saddle_search(fenchel_abs)}
        expected = {
            (x, ww)
            for x in report.primal_argmin
            for ww in report.dual_argmax
        }
        assert saddles == expected
        assert ((Fraction(0),), w(0, 0, 1)) in saddles

    def test_saddle_values_equal_minimax(self, fenchel_abs):
        lo, hi = supinf_value(fenchel_abs), infsup_value(fenchel_abs)
        for s in saddle_search(fenchel_abs):
            assert s.value == lo == hi

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_search_matches_brute_force_scan(self, backend):
        problems = [catalog_problem(name) for name in catalog.names()
                    if catalog.entry(name)["kind"] == "problem"]
        if backend == "float":
            problems = [
                problemio.loads(json.dumps(dict(catalog.entry(p.name), backend="float"))).build()
                for p in problems
            ]
        problems.append(abs_pair_problem())
        rng = random.Random(55)
        problems += [random_problem(rng, backend, max_x=6, max_y=6, max_dual=8) for _ in range(30)]
        found = 0
        for P in problems:
            scan = tuple(
                (x, ww) for x in P.x_grid.points for ww in P.dual_y_grid.points
                if is_saddle_point(P, x, ww)
            )
            saddles = saddle_search(P)
            assert tuple((s.xbar, s.wbar) for s in saddles) == scan
            assert all(s.value == lagrangian_value(P, s.xbar, s.wbar) for s in saddles)
            found += len(scan)
        assert found > 0


class TestProp55:
    def test_fenchel_abs_saddles_match_attainers(self, fenchel_abs):
        out = prop55_audit(fenchel_abs)
        assert out["minimax_ok"]
        assert out["saddle_values_ok"]
        assert out["contains_argmin_x_argmax"]
        assert out["equals_argmin_x_argmax"]
        # The surrogate is only sufficient: it fails here (slices with
        # empty value at y=0 cannot be recovered through alpha > 0) while
        # the equivalence still holds.
        assert not out["slice_surrogate"]

    def test_abs_pair_equivalence_with_surrogate(self):
        out = prop55_audit(abs_pair_problem())
        assert out["slice_surrogate"]
        assert out["minimax_ok"] and out["saddle_values_ok"]
        assert out["contains_argmin_x_argmax"]
        assert out["equals_argmin_x_argmax"]
        assert out["report"].total
        assert out["saddles"] != ()

    def test_truncated_equivalence_breaks_only_with_surrogate(self, truncated):
        out = prop55_audit(truncated)
        assert out["minimax_ok"]
        assert out["saddle_values_ok"]
        assert out["contains_argmin_x_argmax"]  # vacuous: gap is positive
        # A saddle without total duality is possible precisely because the
        # surrogate is unmet.
        assert not out["equals_argmin_x_argmax"]
        assert not out["slice_surrogate"]

    def test_example52_grid_saddle_is_truncation_artifact(self, example52):
        # Over the reals the primal is unbounded below; the grid clamps it
        # at the edge, where a saddle appears and is flagged as truncated.
        out = prop55_audit(example52)
        assert out["minimax_ok"] and out["saddle_values_ok"]
        assert out["report"].primal_truncated
        saddles = {(s.xbar, s.wbar) for s in out["saddles"]}
        assert ((Fraction(-5),), w(0, 0, 1)) in saddles
        assert out["supinf"] == ExtReal(-5)

    def test_zero_gap_attainers_always_saddle_on_random_instances(self):
        rng = random.Random(1234)
        checked = 0
        for _ in range(30):
            P = random_problem(rng, max_x=5, max_y=5, max_dual=6)
            out = prop55_audit(P)
            assert out["minimax_ok"]
            assert out["saddle_values_ok"]
            assert out["contains_argmin_x_argmax"]
            if out["report"].total:
                checked += 1
        assert checked > 0  # the sweep really hit zero-gap instances


class TestConvexityWitness:
    def test_neg_inf_jump_is_nonconvex(self):
        rows = [
            (Fraction(-2), NEG_INF),
            (Fraction(0), ExtReal(0)),
            (Fraction(2), ExtReal(4)),
        ]
        assert find_convexity_violation(rows) is not None

    def test_affine_is_convex(self):
        rows = [(Fraction(i), ExtReal(2 * i + 1)) for i in range(-3, 4)]
        assert find_convexity_violation(rows) is None

    def test_midpoint_bump_detected(self):
        rows = [
            (Fraction(-1), ExtReal(0)),
            (Fraction(0), ExtReal(5)),
            (Fraction(1), ExtReal(0)),
        ]
        assert find_convexity_violation(rows) == (
            Fraction(-1),
            Fraction(0),
            Fraction(1),
        )

    def test_pos_inf_endpoints_never_witness(self):
        rows = [
            (Fraction(-1), POS_INF),
            (Fraction(0), ExtReal(5)),
            (Fraction(1), POS_INF),
        ]
        assert find_convexity_violation(rows) is None


class TestExample52Audit:
    def test_qualitative_claims(self, example52):
        out = example52_audit(example52)
        assert out["grid_adequate"]
        assert out["neg_inf_branch_ok"]
        assert out["finite_branch_ok"]
        assert out["nonconvexity_witness"] is not None

    def test_stated_constant_discrepancy_documented(self, example52):
        out = example52_audit(example52)
        # The grid oracle evaluates the defining infimum to 0 at x = 0;
        # the stated constant -2 is recorded for comparison, not asserted.
        assert out["oracle_at_zero"] == ExtReal(0)
        assert out["stated_constant"] == ExtReal(-2)
        assert out["matches_stated_constant"] is False

    def test_finite_branch_values_follow_the_slope_oracle(self, example52):
        # Brute-force oracle: inf over the grid of x - y over y <= -x,
        # gate y < 1; for x > -1 the gate never fires, leaving 2x.
        for x in example52.x_grid.points:
            if x[0] > -1:
                expected = min(
                    x[0] - y[0]
                    for y in example52.y_grid.points
                    if y[0] <= -x[0] and y[0] < 1
                )
                assert lagrangian_value(example52, x, w(1, 1, 1)) == ExtReal(
                    expected
                )
                assert expected == 2 * x[0]

    def test_missing_distinguished_point_rejected(self, fenchel_abs):
        with pytest.raises(ValueError):
            example52_audit(fenchel_abs)
