"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
Every numerical expectation is either enumerated exactly, verified against
a brute-force oracle written out in this module, or frozen from such an
oracle run; tolerances are stated inline (exact comparisons unless noted).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from helpers import catalog_problem, data_problem, random_problem
from oracles import prime_conjugate_value

from econvex import extreal
from econvex.conjugation import (
    DualGrid,
    DualPoint,
    biconjugate,
    c_conjugate,
    coupling_c,
    cprime_conjugate,
    tensor_dual_grid,
)
from econvex.duality import (
    EXACT_PASS,
    c5_audit,
    converse_duality_report,
    dual_value,
    dual_value_via_p,
    primal_value,
    weak_chain_audit,
)
from econvex.esets import (
    EPolyhedron,
    Halfspace,
    dot,
    in_recession_cone,
    is_functionally_representable,
    lower_envelope,
    separate,
)
from econvex.extreal import NEG_INF, POS_INF, ExtReal, fold_sum
from econvex.funcrep import Grid, SampledFn
from econvex.lagrangian import (
    dual_slice_audit,
    example52_audit,
    infsup_value,
    lagrangian_value,
    minimax_ok,
    saddle_search,
    supinf_value,
)
from econvex.subdifferential import (
    conjugate_value,
    is_c_subgradient,
    is_c_subgradient_via_conjugate,
    is_cprime_subgradient,
    prop43_audit,
    theorem43_audit,
    theorem44_audit,
    transfer_audit,
)

CATALOG_PROBLEMS = (
    "fenchel_abs",
    "example52",
    "affine_recovery",
    "two_point_nonconvex",
    "truncated_dual",
)


def record(number, label, ok, budget, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" -- {detail}" if detail else ""
    print(f"{status}  criterion {number}: {label} ({elapsed:.2f}s/{budget:g}s){extra}")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


FIVE = [NEG_INF, ExtReal(-1), ExtReal(0), ExtReal(1), POS_INF]


def oracle_add(a, b):
    """Independent restatement of the convention table."""
    if (a.is_pos_inf and b.is_neg_inf) or (a.is_neg_inf and b.is_pos_inf):
        return NEG_INF
    if a.is_pos_inf or b.is_pos_inf:
        return POS_INF
    if a.is_neg_inf or b.is_neg_inf:
        return NEG_INF
    return ExtReal(a.value + b.value)


def test_criterion_1_extended_arithmetic_conventions():
    start = time.monotonic()
    ok = True
    for a, b in itertools.product(FIVE, repeat=2):
        ok &= (a + b) == oracle_add(a, b)
        ok &= (a - b) == oracle_add(a, -b)
    ok &= (POS_INF - POS_INF) == NEG_INF and (NEG_INF - NEG_INF) == NEG_INF
    for triple in itertools.product(FIVE, repeat=3):
        expect = oracle_add(oracle_add(triple[0], triple[1]), triple[2])
        ok &= fold_sum(triple) == expect
        has_both = any(t.is_pos_inf for t in triple) and any(
            t.is_neg_inf for t in triple
        )
        if has_both:
            ok &= fold_sum(triple) == NEG_INF
    record(
        1,
        "extended-arithmetic conventions (exhaustive 2- and 3-operand)",
        ok,
        1.0,
        time.monotonic() - start,
        f"{len(FIVE) ** 2} pairs, {len(FIVE) ** 3} triples",
    )


def _random_galois_instance(rng, nx, nw, neg_inf_rate=0.03):
    xs = rng.sample(range(-60, 61), nx)
    grid = Grid(1, [(x / 4.0,) for x in xs], backend="float")
    values = []
    for _ in xs:
        u = rng.random()
        if u < 0.1:
            values.append(POS_INF)
        elif u < 0.1 + neg_inf_rate:
            values.append(NEG_INF)
        else:
            values.append(ExtReal(rng.randint(-40, 40) / 4.0))
    f = SampledFn(grid, values)
    seen = set()
    duals = []
    while len(duals) < nw:
        t = (rng.randint(-12, 12), rng.randint(-4, 4), rng.randint(-2, 8))
        if t in seen:
            continue
        seen.add(t)
        duals.append(
            DualPoint.of((t[0] / 4.0,), (t[1] / 2.0,), t[2] / 2.0, "float")
        )
    return f, DualGrid(duals)


def test_criterion_2_galois_suite():
    start = time.monotonic()
    rng = random.Random(20260810)
    ok = True
    sizes = [(rng.randint(5, 15), rng.randint(10, 60), 0.03) for _ in range(16)]
    # The largest instances stay finite-valued so the sweeps are not cut
    # short by the absorbing -inf row.
    sizes += [(101, 1000, 0.0)] * 4
    for nx, nw, neg_rate in sizes:
        f, wg = _random_galois_instance(rng, nx, nw, neg_rate)
        fc = c_conjugate(f, wg)
        hull = cprime_conjugate(fc, f.grid)
        for p in f.grid.points:
            ok &= hull.value_at(p) <= f.value_at(p)
        fccc = c_conjugate(hull, wg)
        ok &= list(fccc.values) == list(fc.values)
    record(
        2,
        "Galois suite: hull <= f and triple conjugate identity on 20 instances",
        ok,
        10.0,
        time.monotonic() - start,
        "exact, float backend, sizes up to 101 x 1000",
    )


@pytest.fixture(scope="module")
def hundred_random_problems():
    rng = random.Random(31415926)
    problems = [random_problem(rng) for _ in range(97)]
    problems += [
        random_problem(rng, max_x=41, max_y=21, max_dual=18, max_pairs=20)
        for _ in range(3)
    ]
    return problems


def test_criterion_3_weak_duality(hundred_random_problems):
    start = time.monotonic()
    ok = True
    for P in hundred_random_problems:
        v_gp, _ = primal_value(P)
        v_gdc, _ = dual_value(P)
        ok &= v_gdc <= v_gp
        ok &= dual_value_via_p(P) == v_gdc
    record(
        3,
        "weak duality and dual-route identity on 100 random problems",
        ok,
        60.0,
        time.monotonic() - start,
        "exact",
    )


def test_criterion_4_e1_chain(hundred_random_problems):
    start = time.monotonic()
    ok = all(
        weak_chain_audit(P).status == EXACT_PASS for P in hundred_random_problems
    )
    record(
        4,
        "chain of the three dual bounds on the same 100 instances",
        ok,
        60.0,
        time.monotonic() - start,
        "exact",
    )


def _membership_oracle(f, x0, w, eps):
    """Definitional membership, restated independently of the library."""
    fx0 = f.value_at(x0)
    if not fx0.is_finite:
        return False
    gate = sum(a * b for a, b in zip(x0, w.ustar)) < w.alpha
    if not gate:
        return False
    cx0 = coupling_c(x0, w)
    for x, fx in f.items():
        if not (fx - fx0) >= ((coupling_c(x, w) - cx0) - ExtReal(eps)):
            return False
    return True


def test_criterion_5_membership_equivalences():
    start = time.monotonic()
    rng = random.Random(271828)
    ok = True
    pairs = 0
    for _ in range(20):
        n = rng.randint(3, 7)
        xs = rng.sample(range(-8, 9), n)
        grid = Grid(1, [(Fraction(x),) for x in xs])
        values = [
            rng.choice(
                [POS_INF, ExtReal(Fraction(rng.randint(-8, 8), 2))]
            )
            for _ in xs
        ]
        f = SampledFn(grid, values)
        wg = tensor_dual_grid(
            [(s,) for s in (-2, 0, 1)], [(u,) for u in (-1, 0, 1)], [1, 2]
        )
        eps = rng.choice([Fraction(0), Fraction(1, 2), Fraction(2)])
        for x0 in grid.points:
            for w in wg.points:
                pairs += 1
                by_def = _membership_oracle(f, x0, w, eps)
                ok &= by_def == is_c_subgradient(f, x0, w, eps)
                ok &= by_def == is_c_subgradient_via_conjugate(
                    f, conjugate_value(f, w), x0, w, eps
                )
        # The dual-side equivalence: definitional vs conjugate-equality,
        # restated here and compared with the library's cross-checked call.
        g = c_conjugate(f, wg)
        for w0 in wg.points:
            for x in grid.points:
                pairs += 1
                gw0 = g.value_at(w0)
                gate = gw0.is_finite and coupling_c(x, w0).is_finite
                by_def = gate and all(
                    (gv - gw0) >= (coupling_c(x, w) - coupling_c(x, w0))
                    for w, gv in g.items()
                )
                by_conj = gate and (
                    gw0 + prime_conjugate_value(g, x) == coupling_c(x, w0)
                )
                ok &= by_def == by_conj == is_cprime_subgradient(g, w0, x)
    record(
        5,
        "definitional vs conjugate-form membership (plain, dual, eps forms)",
        ok,
        30.0,
        time.monotonic() - start,
        f"{pairs} (point, dual point) pairs over 20 instances, exact",
    )


def test_criterion_6_transfer_and_total_duality():
    start = time.monotonic()
    ok = True
    detail = []
    for name in CATALOG_PROBLEMS:
        P = catalog_problem(name)
        rep = transfer_audit(P.f0, P.f0_conj, P.f0_biconj)
        ok &= rep.forward_ok
        out = prop43_audit(P)
        ok &= out["equivalence_ok"] and out["certificate_consistent"]
        detail.append(f"{name}:{rep.pairs_checked}p")
    record(
        6,
        "membership transfer (forward) and total-duality equivalence on the catalog",
        ok,
        10.0,
        time.monotonic() - start,
        " ".join(detail),
    )


def test_criterion_7_eps_formulae():
    start = time.monotonic()
    rng = random.Random(1618)
    ok = True
    problems = [catalog_problem(n) for n in CATALOG_PROBLEMS]
    problems += [
        random_problem(rng, backend="rational", max_x=5, max_y=5, max_dual=6, max_pairs=6)
        for _ in range(5)
    ]
    # phi(x, 0) = -x/2000 on x in {0, 1}: its values vary by less than 1/1000.
    problems.append(data_problem("fine_resolution"))
    eps_values = (Fraction(0), Fraction(1, 2), Fraction(1))
    for P in problems:
        for probe in {P.x_grid.points[0], P.x_grid.points[len(P.x_grid) // 2]}:
            for eps in eps_values:
                t43 = theorem43_audit(P, probe, eps)
                t44 = theorem44_audit(P, probe, eps)
                ok &= t43["superset_ok"] and t44["superset_ok"]
    # Equality under the c5 surrogate, violation with witness without it.
    fen = catalog_problem("fenchel_abs")
    ok &= c5_audit(fen).status == EXACT_PASS
    for eps in eps_values:
        t43 = theorem43_audit(fen, (Fraction(0),), eps)
        t44 = theorem44_audit(fen, (Fraction(0),), eps)
        ok &= t43["equal"] and t44["equal"]
    tru = catalog_problem("truncated_dual")
    t44 = theorem44_audit(tru, (Fraction(0),), Fraction(0))
    ok &= c5_audit(tru).status != EXACT_PASS and not t44["equal"]
    ok &= DualPoint.of((2,), (0,), 1) in t44["strict_witnesses"]
    record(
        7,
        "eps-subdifferential formulae: superset directions, equality vs c5",
        ok,
        30.0,
        time.monotonic() - start,
        "11 instances x 2 points x 3 eps, witness on truncated_dual",
    )


def test_criterion_8_lagrangian_identities():
    start = time.monotonic()
    ok = True
    for name in CATALOG_PROBLEMS:
        P = catalog_problem(name)
        ok &= dual_slice_audit(P)["ok"]
        ok &= minimax_ok(P)  # Eq-18 at every w and the Eq-19 bound at every x
        v_gdc, _ = dual_value(P)
        ok &= supinf_value(P) == v_gdc
        ok &= supinf_value(P) <= infsup_value(P)
    fen = catalog_problem("fenchel_abs")
    report = converse_duality_report(fen)
    saddles = {(s.xbar, s.wbar) for s in saddle_search(fen)}
    expected = {
        (x, w) for x in report.primal_argmin for w in report.dual_argmax
    }
    ok &= saddles == expected
    ok &= bool(saddles)
    ok &= all(s.value == ExtReal(0) for s in saddle_search(fen))
    record(
        8,
        "Lagrangian identities and the zero-gap saddle set",
        ok,
        10.0,
        time.monotonic() - start,
        f"saddle value 0 at {len(saddles)} pairs",
    )


def test_criterion_9_linear_instance_slice():
    start = time.monotonic()
    P = catalog_problem("example52")
    out = example52_audit(P)
    ok = (
        out["grid_adequate"]
        and out["neg_inf_branch_ok"]
        and out["finite_branch_ok"]
        and out["nonconvexity_witness"] is not None
    )
    # The oracle value at x = 0 is recorded and compared with the stated
    # constant -2; they disagree (the defining infimum gives 2x on the
    # finite branch) and the discrepancy is documented, not asserted away.
    ok &= out["oracle_at_zero"] == ExtReal(0)
    ok &= out["stated_constant"] == ExtReal(-2)
    ok &= out["matches_stated_constant"] is False
    w111 = DualPoint.of((1,), (1,), 1)
    ok &= all(
        lagrangian_value(P, x, w111) == NEG_INF
        for x in P.x_grid.points
        if x[0] <= -1
    )
    ok &= all(
        lagrangian_value(P, x, w111).is_finite
        for x in P.x_grid.points
        if x[0] > -1
    )
    record(
        9,
        "linear catalog instance: -inf branch, finite branch, nonconvex slice",
        ok,
        1.0,
        time.monotonic() - start,
        f"oracle at 0 = {out['oracle_at_zero']}, stated constant = -2 (documented)",
    )


def _sample_members(P, rng, count):
    pts = []
    attempts = 0
    while len(pts) < count and attempts < 100 * count:
        attempts += 1
        x = tuple(Fraction(rng.randint(-60, 60), 7) for _ in range(P.dim))
        if P.contains(x):
            pts.append(x)
    return pts


def test_criterion_10_eset_certificates():
    start = time.monotonic()
    rng = random.Random(6022)
    ok = True
    quadrant = EPolyhedron(
        2,
        [
            Halfspace((Fraction(-1), Fraction(0)), Fraction(0), False),
            Halfspace((Fraction(0), Fraction(-1)), Fraction(0), True),
        ],
    )
    open_epi = EPolyhedron(
        2, [Halfspace((Fraction(1), Fraction(-1)), Fraction(0), True)]
    )
    closed_epi = EPolyhedron(
        2, [Halfspace((Fraction(1), Fraction(-1)), Fraction(0), False)]
    )
    for P, outside in (
        (quadrant, (Fraction(1), Fraction(0))),
        (open_epi, (Fraction(0), Fraction(-1))),
        (closed_epi, (Fraction(2), Fraction(0))),
    ):
        cert = separate(P, outside)
        ok &= cert is not None
        members = _sample_members(P, rng, 1000)
        ok &= len(members) == 1000
        for m in members:
            diff = tuple(a - b for a, b in zip(m, outside))
            ok &= dot(diff, cert) < 0
    rep_open, witness = is_functionally_representable(open_epi)
    ok &= not rep_open and witness is not None
    env = lower_envelope(open_epi)
    ok &= not open_epi.contains((witness, env.value(witness).value))
    rep_closed, _ = is_functionally_representable(closed_epi)
    ok &= rep_closed
    # recession: exact membership statements
    ok &= in_recession_cone(open_epi, (0, 1))
    ok &= in_recession_cone(quadrant, (2, 3))
    ok &= not in_recession_cone(quadrant, (-1, 0))
    for P in (quadrant, open_epi):
        for m in _sample_members(P, rng, 25):
            for lam in (1, 10, 1000):
                shifted = tuple(a + lam * b for a, b in zip(m, (0, 1)))
                ok &= P.contains(shifted)
    record(
        10,
        "separation certificates on 10^3 samples, representability, recession",
        ok,
        5.0,
        time.monotonic() - start,
        "exact rational checks",
    )


def test_criterion_11_refinement_trend():
    start = time.monotonic()
    fen = catalog_problem("fenchel_abs")
    f = fen.f0  # |x| + indicator(x <= 0) on the x-grid
    base = [DualPoint.of((0,), (0,), 1)]
    twice = base + [DualPoint.of((-1,), (0,), 1)]
    adapted = twice + [DualPoint.of((-1,), (1,), 1), DualPoint.of((0,), (1,), 1)]
    gaps = []
    hulls = []
    for duals in (base, twice, adapted):
        hull = biconjugate(f, DualGrid(duals))
        hulls.append(hull)
        gaps.append(
            extreal.sup(f.value_at(p) - hull.value_at(p) for p in f.grid.points)
        )
    ok = gaps[0] >= gaps[1] >= gaps[2]
    ok &= gaps[2] == ExtReal(0)
    # Pointwise the hulls are nondecreasing under grid refinement.
    for a, b in zip(hulls, hulls[1:]):
        ok &= all(a.value_at(p) <= b.value_at(p) for p in f.grid.points)
    # The adapted grid reproduces the function exactly.
    ok &= all(hulls[-1].value_at(p) == f.value_at(p) for p in f.grid.points)
    record(
        11,
        "biconjugate gap nonincreasing under x2/x4 refinement, zero when adapted",
        ok,
        10.0,
        time.monotonic() - start,
        f"gaps: {[str(g) for g in gaps]}",
    )
