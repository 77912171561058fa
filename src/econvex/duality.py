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

import operator
from dataclasses import dataclass, field
from functools import cached_property
from math import inf
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
    columns,
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

    @classmethod
    def exact(cls, name: str, ok: bool, detail: str = "") -> "AuditOutcome":
        """An exact audit checks a grid theorem: it passes or, on a bug, fails."""
        return cls(name, "exact", EXACT_PASS if ok else FAIL, detail)

    @classmethod
    def conditional(
        cls, name: str, holds: bool, surrogate: bool, detail: str = ""
    ) -> "AuditOutcome":
        """A conditional audit decided equality first: it passes when the
        equality holds, and otherwise fails only under its surrogate."""
        status = EXACT_PASS if holds else (FAIL if surrogate else SURROGATE_UNMET)
        return cls(name, "conditional", status, detail)

    @property
    def is_exact_failure(self) -> bool:
        return self.kind == "exact" and self.status == FAIL


class PerturbationProblem:
    """phi with its grids; every derived object is cached and immutable.

    ``full_dual_pairs`` holds paired dual points as dual points of X x Y,
    (x* + y*, u* + v*, alpha), as ``pair_tensor_dual_grid`` builds them.
    The full dual grid is those points, then each embedding of the Y-side
    grid that is not among them."""

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
        self._x_ends = [(min(axis), max(axis)) for axis in zip(*x_grid.points)]

        pairs = full_dual_pairs.points if full_dual_pairs is not None else ()
        embedded = [self.embed(w) for w in dual_y_grid.points]
        self.full_dual_grid = DualGrid(dict.fromkeys([*pairs, *embedded]), self.backend)
        self._embedded = [self.full_dual_grid.index_of(w) for w in embedded]

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
        """phi on X x Y, an exact table when the sampler ran on ints."""
        return SampledFn.keyed(self.product, *self.phi.sample_keys(self.product, self.backend))

    @cached_property
    def f0(self) -> SampledFn:
        """phi(., 0) on the x-grid."""
        return restrict_to_zero(self.phi, self.x_grid, self.y_grid)

    @cached_property
    def p_fn(self) -> SampledFn:
        """The infimum value function on the y-grid: the infimum of each
        column of phi_on_product, taken in x-grid order."""
        phi = self.phi_on_product
        lows = [min(column, default=inf) for column in columns(phi.keys, len(self.y_grid))]
        return SampledFn.keyed(self.y_grid, lows, phi.scale)

    @cached_property
    def psi(self) -> SampledFn:
        """phi^c on the full dual grid."""
        return c_conjugate(self.phi_on_product, self.full_dual_grid)

    @cached_property
    def psi_prime(self) -> SampledFn:
        """(phi^c)^{c'} back on the product grid."""
        return cprime_conjugate(self.psi, self.product)

    @cached_property
    def _x_sides(self) -> Tuple[DualGrid, list]:
        """(x_side_grid, per flat of the full dual grid the index of its
        projection on it), from one pass over the flats."""
        at: Dict[DualPoint, int] = {}
        index = [at.setdefault(self.x_side(flat), len(at)) for flat in self.full_dual_grid.points]
        return DualGrid(at, self.backend), index

    @cached_property
    def x_side_grid(self) -> DualGrid:
        """Projection of the full dual grid onto W = X* x X* x R."""
        return self._x_sides[0]

    @cached_property
    def psi_block_min(self) -> SampledFn:
        """At each w of x_side_grid, the least psi over the flats projecting
        to w, the first in grid order: builtin ``min`` of psi's keys."""
        grid, index = self._x_sides
        blocks = [[] for _ in grid.points]
        for i, key in zip(index, self.psi.keys):
            blocks[i].append(key)
        return SampledFn.keyed(grid, map(min, blocks), self.psi.scale)

    @cached_property
    def f0_conj(self) -> SampledFn:
        return c_conjugate(self.f0, self.x_side_grid)

    @cached_property
    def f0_biconj(self) -> SampledFn:
        return cprime_conjugate(self.f0_conj, self.x_grid)

    @cached_property
    def phi_biconj_at_zero(self) -> SampledFn:
        """x -> psi^{c'}(x, 0): the column of psi_prime at the y-origin."""
        table = self.psi_prime
        column = columns(table.keys, len(self.y_grid))[self.y_grid.index_of(self.y_grid.origin)]
        return SampledFn.keyed(self.x_grid, column, table.scale)

    @cached_property
    def g_on_dual_y(self) -> SampledFn:
        """G(y*, v*, alpha) = phi^c at the embedded point: psi's keys at
        the embeddings' indices on the full dual grid."""
        keys = self.psi.keys
        return SampledFn.keyed(self.dual_y_grid, [keys[i] for i in self._embedded], self.psi.scale)

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
    def psi_prime_x_minima(self) -> Tuple[Tuple[ExtReal, Tuple], ...]:
        """Per y, in y-grid order: (min over the x-grid of psi^{c'}(x, y),
        the x attaining it), read off the keys of column y of psi_prime."""
        xs, table = self.x_grid.points, self.psi_prime
        out = []
        for column in columns(table.keys, len(self.y_grid)):
            low = min(column, default=inf)
            out.append((table.cell(low), tuple(x for x, key in zip(xs, column) if key == low)))
        return tuple(out)

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
        """Whether some coordinate of x is the least or greatest of its
        axis on the x-grid."""
        return any(c in ends for c, ends in zip(x, self._x_ends))


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
    return AuditOutcome.exact("e1_chain", ok, detail)


def _split(P: PerturbationProblem, rows, sign: str):
    """The one pass of the four restriction audits: of the (point, lhs,
    rhs) rows, those breaking the grid inequality ``lhs <sign> rhs`` and
    those whose sides ``P.close`` does not equate."""
    holds = operator.le if sign == "<=" else operator.ge
    violations, mismatches = [], []
    for point, lhs, rhs in rows:
        if not holds(lhs, rhs):
            violations.append((point, lhs, rhs))
        if not P.close(lhs, rhs):
            mismatches.append((point, lhs, rhs))
    return tuple(violations), tuple(mismatches)


def c5_audit(P: PerturbationProblem):
    """Surrogate for the closedness condition on the projected epigraph.

    For every (x*, u*, alpha) in the projected dual grid, compares
    ``f0_conj`` with ``psi_block_min``, the minimum of phi^c over the
    (y*, v*) block, by position.  The <= direction is a grid theorem;
    equality everywhere is the surrogate.
    """
    rows = zip(P.f0_conj.grid.points, P.f0_conj.values, P.psi_block_min.values)
    violations, mismatches = _split(P, rows, "<=")
    if violations:
        detail = "restriction inequality violated (bug)"
        return AuditOutcome("c5", "exact", FAIL, detail, mismatches)
    if mismatches:
        detail = f"{len(mismatches)} projected dual points miss the minimum"
        return AuditOutcome("c5", "conditional", FAIL, detail, mismatches)
    return AuditOutcome(
        "c5", "conditional", EXACT_PASS,
        "phi(.,0)^c equals the (y*,v*)-minimum of phi^c at every projected "
        "dual point (surrogate)",
    )


def c5bar_audit(P: PerturbationProblem):
    """Surrogate for even convexity + functional representability of the
    projected conjugate epigraph, in its min-attainment form.

    For each y, G^{c'}(y) <= inf_x psi^{c'}(x, y) is a grid theorem;
    equality with the (always attained, possibly boundary) grid minimum is
    the surrogate.  Attainment at an x-grid edge is flagged as possibly
    truncated.
    """
    minima = P.psi_prime_x_minima
    rows = zip(P.g_prime.grid.points, P.g_prime.values, (low for low, _ in minima))
    violations, mismatches = _split(P, rows, "<=")
    if violations:
        detail = "lower-bound inequality violated (bug)"
        return AuditOutcome("c5bar", "exact", FAIL, detail, mismatches)
    if mismatches:
        detail = f"{len(mismatches)} y-points miss the attained minimum"
        return AuditOutcome("c5bar", "conditional", FAIL, detail, mismatches)
    truncated = tuple(
        y for y, (low, attaining) in zip(P.g_prime.grid.points, minima)
        if low.is_finite and all(P.on_x_boundary(x) for x in attaining)
    )
    if truncated:
        detail = (
            "equality holds but the minimum is attained only at x-grid edges "
            f"for {len(truncated)} y-points"
        )
        return AuditOutcome("c5bar", "conditional", GRID_TRUNCATED, detail, truncated)
    return AuditOutcome(
        "c5bar", "conditional", EXACT_PASS,
        "G^{c'} equals the attained x-minimum of psi^{c'} at every y (surrogate)",
    )


def _surrogate_gated(P, name, rows, sign, surrogate: AuditOutcome, claim) -> AuditOutcome:
    """The rule of theorem31 and corollary310: the grid inequality
    ``lhs <sign> rhs`` is exact; equality is required only when the
    surrogate outcome passed, and inherits its grid truncation."""
    violations, mismatches = _split(P, rows, sign)
    if violations:
        return AuditOutcome(name, "exact", FAIL, f"pointwise {sign} violated (bug)", violations)
    if surrogate.status not in (EXACT_PASS, GRID_TRUNCATED):
        return AuditOutcome(
            name, "conditional", SURROGATE_UNMET,
            f"inequality exact; equality not required ({surrogate.name} surrogate unmet)",
        )
    if mismatches:
        detail = f"{surrogate.name} surrogate holds but equality fails at {len(mismatches)} points"
        return AuditOutcome(name, "conditional", FAIL, detail, mismatches)
    if surrogate.status == GRID_TRUNCATED:
        return AuditOutcome(
            name, "conditional", GRID_TRUNCATED,
            "equality holds; minimum attained only at grid edges",
        )
    status = EXACT_PASS if P.backend == "rational" else TOLERANCE_PASS
    detail = f"inequality exact and {claim} holds under {surrogate.name}"
    return AuditOutcome(name, "conditional", status, detail)


def theorem31_audit(P: PerturbationProblem, c5: AuditOutcome) -> AuditOutcome:
    """Restriction-vs-slice biconjugates: the >= direction is exact; under
    the c5 surrogate the two sides must agree within tolerance.  ``c5`` is
    the outcome of :func:`c5_audit` on P."""
    rows = zip(P.f0_biconj.grid.points, P.f0_biconj.values, P.phi_biconj_at_zero.values)
    return _surrogate_gated(P, "theorem31", rows, ">=", c5, "equality")


def corollary310_audit(P: PerturbationProblem, c5bar: AuditOutcome) -> AuditOutcome:
    """(inf_x phi(x, .))^{cc'} <= inf_x phi^{cc'}(x, .) pointwise; equality
    with attained minimum under the c5bar surrogate.  ``c5bar`` is the
    outcome of :func:`c5bar_audit` on P."""
    lows = (low for low, _ in P.psi_prime_x_minima)
    rows = zip(P.p_biconj.grid.points, P.p_biconj.values, lows)
    return _surrogate_gated(P, "corollary310", rows, "<=", c5bar, "min-attainment equality")


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

    zero = ExtReal(extreal.scalar(0, P.backend))
    weak_ok = v_gdc <= v_gp
    # The conventions make the gap of two equal infinities -inf, so testing
    # the gap against 0 demands a finite common value, which is what the
    # solvability flags need anyway.
    zero_gap = gap == zero
    strong = zero_gap and bool(argmax)
    converse = zero_gap and bool(argmin)
    total = zero_gap and bool(argmin) and bool(argmax)
    truncated = bool(argmin) and all(P.on_x_boundary(x) for x in argmin)

    via_p = dual_value_via_p(P)
    barred_strong = (v_gpbar - v_gdbar == zero) and bool(argmin)
    exact = [
        AuditOutcome.exact("weak_duality", weak_ok, f"v(GD_c)={v_gdc} <= v(GP)={v_gp}"),
        AuditOutcome.exact(
            "dual_route_identity", via_p == v_gdc,
            f"conjugating p gives {via_p}, direct dual gives {v_gdc}",
        ),
        AuditOutcome.exact(
            "barred_identities", v_gpbar == -v_gdc and v_gdbar == -v_gp,
            "barred problem values are the negated originals",
        ),
        AuditOutcome.exact(
            "barred_weak", v_gdbar <= v_gpbar, f"v(GDbar)={v_gdbar} <= v(GPbar_c)={v_gpbar}"
        ),
        AuditOutcome.exact(
            "converse_equivalence", barred_strong == converse,
            "converse duality coincides with strong duality of the barred pair",
        ),
        weak_chain_audit(P),
    ]
    audits: Dict[str, AuditOutcome] = {a.name: a for a in exact}
    audits["c5"] = c5_audit(P)
    audits["c5bar"] = c5bar_audit(P)
    audits["theorem31"] = theorem31_audit(P, audits["c5"])
    audits["corollary310"] = corollary310_audit(P, audits["c5bar"])

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
