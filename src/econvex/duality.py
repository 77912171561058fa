"""Perturbational primal-dual pairs and their audit suite.

A `PerturbationProblem` packages a perturbation function phi on X x Y with
the grids realizing both spaces and two dual grids: the Y-side grid of
points (y*, v*, alpha) with alpha > 0 feeding the dual problem, and a full
dual grid over the paired space feeding the conjugate of phi.  The primal
minimizes phi(., 0); the dual maximizes -phi^c((0,y*),(0,v*),alpha).

The full dual grid is always augmented with the embeddings
((0,y*),(0,v*),alpha) of the Y-side grid: the unconditional halves of the
audits (weak duality, the three-term chain, the restriction inequalities)
are finite-grid theorems only when those points are available to the
conjugation sweeps.

Audit statuses distinguish grid theorems from continuum conditions.  The
unconditional halves must hold exactly on every instance -- a violation is
a bug, not a finding.  The conditional halves surrogate closedness-type
regularity conditions that live in the continuum; they are labelled
"surrogate" and their failure is a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Optional, Tuple

from econvex import extreal
from econvex.conjugation import (
    DualGrid,
    DualPoint,
    c_conjugate,
    cprime_conjugate,
)
from econvex.extreal import ExtReal
from econvex.funcrep import (
    Grid,
    PerturbFn,
    SampledFn,
    infimum_value_function,
    product_grid,
    restrict_to_zero,
)

__all__ = [
    "PerturbationProblem",
    "AuditOutcome",
    "DualityReport",
    "primal_value",
    "dual_value",
    "dual_value_via_p",
    "converse_pair_values",
    "weak_chain_audit",
    "c5_audit",
    "c5bar_audit",
    "theorem31_audit",
    "corollary310_audit",
    "converse_duality_report",
]

EXACT_PASS = "exact-pass"
TOLERANCE_PASS = "tolerance-pass"
FAIL = "fail"
SURROGATE_UNMET = "surrogate-unmet"
GRID_TRUNCATED = "grid-truncated"


@dataclass(frozen=True)
class AuditOutcome:
    name: str
    kind: str  # "exact" or "conditional"
    status: str
    detail: str = ""
    witnesses: Tuple = ()

    @property
    def is_exact_failure(self) -> bool:
        return self.kind == "exact" and self.status == FAIL


class PerturbationProblem:
    """phi with its grids; every derived object is cached and immutable."""

    def __init__(
        self,
        phi: PerturbFn,
        x_grid: Grid,
        y_grid: Grid,
        dual_y_grid: DualGrid,
        full_dual_pairs: Optional[DualGrid] = None,
        name: str = "",
        tolerance: float = 1e-9,
    ):
        if x_grid.backend != y_grid.backend:
            raise ValueError("x and y grids must share a backend")
        if not y_grid.has_origin:
            raise ValueError("the origin is missing from the y-grid")
        if not dual_y_grid.alpha_positive:
            raise ValueError("dual feasibility requires alpha > 0 on the Y-side grid")
        for w in dual_y_grid.points:
            if w.dim != y_grid.dim:
                raise ValueError("Y-side dual points must match the y dimension")
        self.phi = phi
        self.x_grid = x_grid
        self.y_grid = y_grid
        self.dual_y_grid = dual_y_grid
        self.name = name
        self.tolerance = tolerance
        self.backend = x_grid.backend

        flats = []
        seen = set()
        if full_dual_pairs is not None:
            for p in full_dual_pairs.points:
                flat = p.flatten() if hasattr(p, "flatten") else p
                if flat not in seen:
                    seen.add(flat)
                    flats.append(flat)
        for w in dual_y_grid.points:
            flat = self.embed(w)
            if flat not in seen:
                seen.add(flat)
                flats.append(flat)
        self.full_dual_grid = DualGrid(flats, self.backend)

    # -- embeddings and projections ------------------------------------

    def embed(self, w: DualPoint) -> DualPoint:
        """((0, y*), (0, v*), alpha) as a dual point of the product space."""
        zero = self.x_grid.origin
        return DualPoint(zero + w.xstar, zero + w.ustar, w.alpha)

    def x_side(self, flat: DualPoint) -> DualPoint:
        d = self.x_grid.dim
        return DualPoint(flat.xstar[:d], flat.ustar[:d], flat.alpha)

    # -- cached derived objects ------------------------------------------

    @cached_property
    def product(self) -> Grid:
        return product_grid(self.x_grid, self.y_grid)

    @cached_property
    def phi_on_product(self) -> SampledFn:
        d = self.x_grid.dim
        return SampledFn.from_callable(
            self.product, lambda p: self.phi.value(p[:d], p[d:], self.backend)
        )

    @cached_property
    def f0(self) -> SampledFn:
        """phi(., 0) on the x-grid."""
        return restrict_to_zero(self.phi, self.x_grid, self.y_grid)

    @cached_property
    def p_fn(self) -> SampledFn:
        """The infimum value function on the y-grid."""
        return infimum_value_function(self.phi, self.x_grid, self.y_grid)

    @cached_property
    def psi(self) -> SampledFn:
        """phi^c on the full dual grid."""
        return c_conjugate(self.phi_on_product, self.full_dual_grid)

    @cached_property
    def psi_prime(self) -> SampledFn:
        """(phi^c)^{c'} back on the product grid."""
        return cprime_conjugate(self.psi, self.product)

    @cached_property
    def x_side_grid(self) -> DualGrid:
        """Projection of the full dual grid onto W = X* x X* x R."""
        seen = []
        marks = set()
        for flat in self.full_dual_grid.points:
            w = self.x_side(flat)
            if w not in marks:
                marks.add(w)
                seen.append(w)
        return DualGrid(seen, self.backend)

    @cached_property
    def f0_conj(self) -> SampledFn:
        return c_conjugate(self.f0, self.x_side_grid)

    @cached_property
    def f0_biconj(self) -> SampledFn:
        return cprime_conjugate(self.f0_conj, self.x_grid)

    @cached_property
    def phi_biconj_at_zero(self) -> SampledFn:
        origin = self.y_grid.origin
        vals = [self.psi_prime.value_at(x + origin) for x in self.x_grid.points]
        return SampledFn(self.x_grid, vals)

    @cached_property
    def g_on_dual_y(self) -> SampledFn:
        """G(y*, v*, alpha) = phi^c at the embedded point."""
        vals = [self.psi.value_at(self.embed(w)) for w in self.dual_y_grid.points]
        return SampledFn(self.dual_y_grid, vals)

    @cached_property
    def g_prime(self) -> SampledFn:
        """G^{c'} on the y-grid."""
        return cprime_conjugate(self.g_on_dual_y, self.y_grid)

    @cached_property
    def p_conj(self) -> SampledFn:
        return c_conjugate(self.p_fn, self.dual_y_grid)

    @cached_property
    def p_biconj(self) -> SampledFn:
        return cprime_conjugate(self.p_conj, self.y_grid)

    @cached_property
    def psi_prime_x_minima(self) -> Dict[Tuple, Tuple[ExtReal, Tuple]]:
        """y -> (min over the x-grid of psi^{c'}(x, y), the x attaining it)."""
        out = {}
        for y in self.y_grid.points:
            column = [(x, self.psi_prime.value_at(x + y)) for x in self.x_grid.points]
            low = extreal.inf(v for _, v in column)
            out[y] = (low, tuple(x for x, v in column if v == low))
        return out

    @cached_property
    def report(self) -> "DualityReport":
        """The duality report, built once and read by every audit."""
        return converse_duality_report(self)

    # -- misc ------------------------------------------------------------

    def close(self, a: ExtReal, b: ExtReal) -> bool:
        """Equality for conditional audits: exact on rationals, within the
        tolerance on floats; infinities must match by tag."""
        if not a.is_finite or not b.is_finite:
            return a == b
        if self.backend == "rational":
            return a == b
        return abs(a.value - b.value) <= self.tolerance

    def on_x_boundary(self, x) -> bool:
        return _on_boundary(self.x_grid, x)


def _on_boundary(grid: Grid, point) -> bool:
    for i in range(grid.dim):
        coords = [p[i] for p in grid.points]
        if point[i] in (min(coords), max(coords)):
            return True
    return False


def _argbest(fn: SampledFn, best: ExtReal) -> Tuple:
    if not best.is_finite:
        return ()
    return tuple(p for p, v in fn.items() if v == best)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def primal_value(P: PerturbationProblem) -> Tuple[ExtReal, Tuple]:
    """inf over the x-grid of phi(x, 0) with its attaining points."""
    v = extreal.inf(P.f0.values)
    return v, _argbest(P.f0, v)


def dual_value(P: PerturbationProblem) -> Tuple[ExtReal, Tuple]:
    """sup over the Y-side dual grid of -phi^c((0,y*),(0,v*),alpha)."""
    neg = SampledFn(P.dual_y_grid, [-v for v in P.g_on_dual_y.values])
    v = extreal.sup(neg.values)
    return v, _argbest(neg, v)


def dual_value_via_p(P: PerturbationProblem) -> ExtReal:
    """The same supremum routed through the infimum value function."""
    return extreal.sup(-v for v in P.p_conj.values)


def converse_pair_values(P: PerturbationProblem) -> Tuple[ExtReal, ExtReal]:
    """(v of the barred primal, v of the barred dual)."""
    v_gpbar = extreal.inf(P.g_on_dual_y.values)
    v_gdbar = extreal.sup(-v for v in P.f0.values)
    return v_gpbar, v_gdbar


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------


def weak_chain_audit(P: PerturbationProblem) -> AuditOutcome:
    """inf_w phi^c(embedded w) >= sup_x -phi^{cc'}(x,0) >= sup_x -phi(x,0)."""
    lhs = extreal.inf(P.g_on_dual_y.values)
    mid = extreal.sup(-v for v in P.phi_biconj_at_zero.values)
    rhs = extreal.sup(-v for v in P.f0.values)
    ok = lhs >= mid >= rhs
    detail = f"inf={lhs} >= sup(-biconj)={mid} >= sup(-phi0)={rhs}"
    return AuditOutcome("e1_chain", "exact", EXACT_PASS if ok else FAIL, detail)


def c5_audit(P: PerturbationProblem):
    """Surrogate for the closedness condition on the projected epigraph.

    For every (x*, u*, alpha) in the projected dual grid, compares
    phi(.,0)^c with the minimum of phi^c over the (y*, v*) block.  The <=
    direction is a grid theorem; equality everywhere is the surrogate.
    """
    groups: Dict[DualPoint, ExtReal] = {}
    for flat, v in P.psi.items():
        w = P.x_side(flat)
        cur = groups.get(w)
        if cur is None or v < cur:
            groups[w] = v
    witnesses = []
    exact_ok = True
    for w in P.x_side_grid.points:
        lhs = P.f0_conj.value_at(w)
        rhs = groups[w]
        if not lhs <= rhs:
            exact_ok = False
        if not P.close(lhs, rhs):
            witnesses.append((w, lhs, rhs))
    holds = exact_ok and not witnesses
    if not exact_ok:
        status = FAIL
        kind = "exact"
        detail = "restriction inequality violated (bug)"
    else:
        kind = "conditional"
        status = EXACT_PASS if not witnesses else FAIL
        detail = (
            "phi(.,0)^c equals the (y*,v*)-minimum of phi^c at every projected "
            "dual point (surrogate)"
            if not witnesses
            else f"{len(witnesses)} projected dual points miss the minimum"
        )
    out = AuditOutcome("c5", kind, status, detail, tuple(witnesses))
    return out


def c5bar_audit(P: PerturbationProblem):
    """Surrogate for even convexity + functional representability of the
    projected conjugate epigraph, in its min-attainment form.

    For each y, G^{c'}(y) <= inf_x psi^{c'}(x, y) is a grid theorem;
    equality with the (always attained, possibly boundary) grid minimum is
    the surrogate.  Attainment at an x-grid edge is flagged as possibly
    truncated.
    """
    witnesses = []
    truncated = []
    exact_ok = True
    for y in P.y_grid.points:
        lhs = P.g_prime.value_at(y)
        rhs, attaining = P.psi_prime_x_minima[y]
        if not lhs <= rhs:
            exact_ok = False
        if not P.close(lhs, rhs):
            witnesses.append((y, lhs, rhs))
        elif rhs.is_finite and all(P.on_x_boundary(x) for x in attaining):
            truncated.append(y)
    if not exact_ok:
        return AuditOutcome(
            "c5bar", "exact", FAIL, "lower-bound inequality violated (bug)",
            tuple(witnesses),
        )
    if witnesses:
        detail = f"{len(witnesses)} y-points miss the attained minimum"
        return AuditOutcome("c5bar", "conditional", FAIL, detail, tuple(witnesses))
    if truncated:
        detail = (
            "equality holds but the minimum is attained only at x-grid edges "
            f"for {len(truncated)} y-points"
        )
        return AuditOutcome("c5bar", "conditional", GRID_TRUNCATED, detail, tuple(truncated))
    return AuditOutcome(
        "c5bar", "conditional", EXACT_PASS,
        "G^{c'} equals the attained x-minimum of psi^{c'} at every y (surrogate)",
    )


def theorem31_audit(P: PerturbationProblem) -> AuditOutcome:
    """Restriction-vs-slice biconjugates: the >= direction is exact; under
    the c5 surrogate the two sides must agree within tolerance."""
    bad = []
    gaps = []
    for x in P.x_grid.points:
        lhs = P.f0_biconj.value_at(x)
        rhs = P.phi_biconj_at_zero.value_at(x)
        if not lhs >= rhs:
            bad.append((x, lhs, rhs))
        gaps.append((x, lhs, rhs))
    if bad:
        return AuditOutcome(
            "theorem31", "exact", FAIL, "pointwise >= violated (bug)", tuple(bad)
        )
    c5 = c5_audit(P)
    if c5.status != EXACT_PASS:
        return AuditOutcome(
            "theorem31", "conditional", SURROGATE_UNMET,
            "inequality exact; equality not required (c5 surrogate unmet)",
        )
    mism = tuple((x, a, b) for x, a, b in gaps if not P.close(a, b))
    if mism:
        return AuditOutcome(
            "theorem31", "conditional", FAIL,
            f"c5 surrogate holds but equality fails at {len(mism)} points", mism
        )
    status = EXACT_PASS if P.backend == "rational" else TOLERANCE_PASS
    return AuditOutcome(
        "theorem31", "conditional", status, "inequality exact and equality holds under c5"
    )


def corollary310_audit(P: PerturbationProblem) -> AuditOutcome:
    """(inf_x phi(x, .))^{cc'} <= inf_x phi^{cc'}(x, .) pointwise; equality
    with attained minimum under the c5bar surrogate."""
    bad = []
    rows = []
    for y in P.y_grid.points:
        lhs = P.p_biconj.value_at(y)
        rhs = P.psi_prime_x_minima[y][0]
        if not lhs <= rhs:
            bad.append((y, lhs, rhs))
        rows.append((y, lhs, rhs))
    if bad:
        return AuditOutcome(
            "corollary310", "exact", FAIL, "pointwise <= violated (bug)", tuple(bad)
        )
    c5b = c5bar_audit(P)
    if c5b.status not in (EXACT_PASS, GRID_TRUNCATED):
        return AuditOutcome(
            "corollary310", "conditional", SURROGATE_UNMET,
            "inequality exact; equality not required (c5bar surrogate unmet)",
        )
    mism = tuple((y, a, b) for y, a, b in rows if not P.close(a, b))
    if mism:
        return AuditOutcome(
            "corollary310", "conditional", FAIL,
            f"c5bar surrogate holds but equality fails at {len(mism)} points", mism
        )
    if c5b.status == GRID_TRUNCATED:
        return AuditOutcome(
            "corollary310", "conditional", GRID_TRUNCATED,
            "equality holds; minimum attained only at grid edges",
        )
    status = EXACT_PASS if P.backend == "rational" else TOLERANCE_PASS
    return AuditOutcome(
        "corollary310", "conditional", status,
        "inequality exact and min-attainment equality holds under c5bar",
    )


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class DualityReport:
    name: str
    backend: str
    v_gp: ExtReal
    v_gdc: ExtReal
    v_gpbar: ExtReal
    v_gdbar: ExtReal
    gap: ExtReal
    primal_argmin: Tuple
    dual_argmax: Tuple
    weak_ok: bool
    zero_gap: bool
    strong: bool
    converse: bool
    total: bool
    primal_truncated: bool
    audits: Dict[str, AuditOutcome] = field(default_factory=dict)

    @property
    def has_exact_failure(self) -> bool:
        return any(a.is_exact_failure for a in self.audits.values())


def converse_duality_report(P: PerturbationProblem) -> DualityReport:
    v_gp, argmin = primal_value(P)
    v_gdc, argmax = dual_value(P)
    v_gpbar, v_gdbar = converse_pair_values(P)
    gap = v_gp - v_gdc

    zero = ExtReal(Fraction(0) if P.backend == "rational" else 0.0)
    weak_ok = v_gdc <= v_gp
    # The conventions make the gap of two equal infinities -inf, so testing
    # the gap against 0 demands a finite common value, which is what the
    # solvability flags need anyway.
    zero_gap = gap == zero
    strong = zero_gap and bool(argmax)
    converse = zero_gap and bool(argmin)
    total = zero_gap and bool(argmin) and bool(argmax)
    truncated = bool(argmin) and all(P.on_x_boundary(x) for x in argmin)

    audits: Dict[str, AuditOutcome] = {}
    audits["weak_duality"] = AuditOutcome(
        "weak_duality", "exact", EXACT_PASS if weak_ok else FAIL,
        f"v(GD_c)={v_gdc} <= v(GP)={v_gp}",
    )
    via_p = dual_value_via_p(P)
    audits["dual_route_identity"] = AuditOutcome(
        "dual_route_identity", "exact",
        EXACT_PASS if via_p == v_gdc else FAIL,
        f"conjugating p gives {via_p}, direct dual gives {v_gdc}",
    )
    barred_ok = (v_gpbar == -v_gdc) and (v_gdbar == -v_gp)
    audits["barred_identities"] = AuditOutcome(
        "barred_identities", "exact", EXACT_PASS if barred_ok else FAIL,
        "barred problem values are the negated originals",
    )
    barred_chain_ok = v_gdbar <= v_gpbar
    barred_strong = (v_gpbar - v_gdbar == zero) and bool(argmin)
    audits["barred_weak"] = AuditOutcome(
        "barred_weak", "exact", EXACT_PASS if barred_chain_ok else FAIL,
        f"v(GDbar)={v_gdbar} <= v(GPbar_c)={v_gpbar}",
    )
    audits["converse_equivalence"] = AuditOutcome(
        "converse_equivalence", "exact",
        EXACT_PASS if barred_strong == converse else FAIL,
        "converse duality coincides with strong duality of the barred pair",
    )
    audits["e1_chain"] = weak_chain_audit(P)
    audits["c5"] = c5_audit(P)
    audits["c5bar"] = c5bar_audit(P)
    audits["theorem31"] = theorem31_audit(P)
    audits["corollary310"] = corollary310_audit(P)

    return DualityReport(
        name=P.name,
        backend=P.backend,
        v_gp=v_gp,
        v_gdc=v_gdc,
        v_gpbar=v_gpbar,
        v_gdbar=v_gdbar,
        gap=gap,
        primal_argmin=argmin,
        dual_argmax=argmax,
        weak_ok=weak_ok,
        zero_gap=zero_gap,
        strong=strong,
        converse=converse,
        total=total,
        primal_truncated=truncated,
        audits=audits,
    )
