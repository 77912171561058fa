"""Lagrangian of a perturbation problem under the conditional coupling.

L(x, (y*, v*, alpha)) is the infimum over the grid realization of
Y_x = dom phi(x, .) of phi(x, y) - c(y, (y*, v*, alpha)), with alpha > 0;
the infimum over an empty Y_x is +inf.  Membership in Y_x is decided from
the evaluated slice, so table- and expression-backed problems behave
identically.

Two exact identities anchor the table: -L(x, .) is the conjugate of the
slice phi(x, .), and the infimum of L(., w) over x is the negated
conjugate of phi at the embedded dual point, which makes sup-inf equal the
dual value on every instance.  The sup over dual points of L(x, .) is
bounded by phi(x, 0) because the coupling vanishes at the origin whenever
alpha > 0; equality of inf-sup with the primal value is conditional on
the slices being recoverable from their conjugates.

On a finite grid a zero gap with attained optima always produces a saddle
point (the two defining inequalities are the exact identities above), so
the saddle set contains argmin x argmax unconditionally; the reverse
containment is reported against the per-slice recovery surrogate.

The domain restriction to Y_x is essential, not cosmetic: a Lagrangian
built with the infimum over all of Y collapses under this coupling (any
y outside dom phi(x, .) contributes phi - c = +inf - c, and any gate
failure inside a nonempty domain drags the unrestricted infimum to -inf
except when both dual blocks vanish), so the general construction over an
arbitrary coupling space is intentionally not provided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from econvex import extreal
from econvex.conjugation import DualPoint, c_conjugate, coupling_c, cprime_conjugate
from econvex.duality import PerturbationProblem
from econvex.extreal import NEG_INF, POS_INF, ExtReal
from econvex.funcrep import SampledFn, slice_x

__all__ = [
    "CLagrangian",
    "SaddleCandidate",
    "lagrangian_value",
    "dual_slice_audit",
    "supinf_value",
    "infsup_value",
    "is_saddle_point",
    "saddle_search",
    "prop55_audit",
    "example52_audit",
    "find_convexity_violation",
]


@dataclass(frozen=True)
class SaddleCandidate:
    xbar: Tuple
    wbar: DualPoint
    value: ExtReal


class CLagrangian:
    """Cached table of L over x-grid x dual-y-grid.

    The rows are built cell by cell from the coupling, not through the
    conjugation kernel: they are the other side of the slice identity
    that :func:`dual_slice_audit` checks against the kernel.
    """

    def __init__(self, problem: PerturbationProblem):
        if not problem.dual_y_grid.alpha_positive:
            raise ValueError("the Lagrangian needs alpha > 0 on every dual point")
        self.problem = problem
        self.slices: Dict[Tuple, SampledFn] = {
            x: slice_x(problem.phi, x, problem.y_grid)
            for x in problem.x_grid.points
        }
        self.table: Dict[Tuple[Tuple, DualPoint], ExtReal] = {}
        for x in problem.x_grid.points:
            for w, v in zip(problem.dual_y_grid.points, self._row(x)):
                self.table[(x, w)] = v
        self._slice_conjugates: Dict[Tuple, SampledFn] = {}

    def _row(self, x):
        sl = self.slices[x]
        dom = [(y, v) for y, v in sl.items() if v < POS_INF]
        out = []
        for w in self.problem.dual_y_grid.points:
            out.append(extreal.inf(v - coupling_c(y, w) for y, v in dom))
        return out

    def value(self, x, w: DualPoint) -> ExtReal:
        return self.table[(tuple(x), w)]

    def slice_conjugate(self, x) -> SampledFn:
        """phi(x, .)^c on the Y-side dual grid, computed once per x."""
        x = tuple(x)
        conj = self._slice_conjugates.get(x)
        if conj is None:
            conj = c_conjugate(self.slices[x], self.problem.dual_y_grid)
            self._slice_conjugates[x] = conj
        return conj


def _lagrangian(P: PerturbationProblem) -> CLagrangian:
    cached = getattr(P, "_lagrangian_cache", None)
    if cached is None:
        cached = CLagrangian(P)
        P._lagrangian_cache = cached
    return cached


def lagrangian_value(P: PerturbationProblem, x, w: DualPoint) -> ExtReal:
    """L(x, w) for any dual point with positive alpha."""
    if not w.alpha > 0:
        raise ValueError("the Lagrangian is defined for alpha > 0 only")
    if w in P.dual_y_grid:
        return _lagrangian(P).value(x, w)
    sl = slice_x(P.phi, x, P.y_grid)
    return extreal.inf(
        v - coupling_c(y, w) for y, v in sl.items() if v < POS_INF
    )


def dual_slice_audit(P: PerturbationProblem, x) -> dict:
    """-L(x, .) must equal the conjugate of the slice phi(x, .) exactly."""
    L = _lagrangian(P)
    conj = L.slice_conjugate(x)
    rows = []
    ok = True
    for w in P.dual_y_grid.points:
        lhs = -L.value(x, w)
        rhs = conj.value_at(w)
        rows.append((w, lhs, rhs))
        if lhs != rhs:
            ok = False
    return {"ok": ok, "rows": tuple(rows)}


def supinf_value(P: PerturbationProblem) -> ExtReal:
    """sup over dual points of inf over x of L; asserts the pointwise
    identity with the negated conjugate at the embedded point, so the
    result equals the dual value exactly."""
    L = _lagrangian(P)
    best = NEG_INF
    for w in P.dual_y_grid.points:
        column = extreal.inf(L.value(x, w) for x in P.x_grid.points)
        expected = -P.psi.value_at(P.embed(w))
        if column != expected:  # pragma: no cover - finite sup interchange
            raise RuntimeError(
                f"inf_x L(., {w}) = {column} disagrees with -phi^c = {expected}"
            )
        if best < column:
            best = column
    return best


def infsup_value(P: PerturbationProblem) -> ExtReal:
    """inf over x of sup over dual points of L; asserts the unconditional
    bound sup_w L(x, .) <= phi(x, 0) at every x."""
    L = _lagrangian(P)
    best = POS_INF
    for x in P.x_grid.points:
        row = extreal.sup(L.value(x, w) for w in P.dual_y_grid.points)
        phi_x0 = P.f0.value_at(x)
        if not row <= phi_x0:  # pragma: no cover - coupling vanishes at 0
            raise RuntimeError(f"sup_w L({x}, .) = {row} exceeds phi(x,0) = {phi_x0}")
        if row < best:
            best = row
    return best


def is_saddle_point(P: PerturbationProblem, xbar, wbar: DualPoint) -> bool:
    """Both inequality families over the full grids, exactly."""
    if not wbar.alpha > 0:
        raise ValueError("saddle points live on alpha > 0")
    L = _lagrangian(P)
    xbar = tuple(xbar)
    center = L.value(xbar, wbar)
    if not all(L.value(xbar, w) <= center for w in P.dual_y_grid.points):
        return False
    return all(center <= L.value(x, wbar) for x in P.x_grid.points)


def saddle_search(P: PerturbationProblem) -> Tuple[SaddleCandidate, ...]:
    """Every saddle cell of the table, in row-major order.  A cell is a
    saddle iff L(x, w) is both the maximum of its row and the minimum of
    its column, so the row maxima and column minima are read once."""
    L = _lagrangian(P)
    xs, ws = P.x_grid.points, P.dual_y_grid.points
    row_max = {x: extreal.sup(L.value(x, w) for w in ws) for x in xs}
    col_min = {w: extreal.inf(L.value(x, w) for x in xs) for w in ws}
    return tuple(
        SaddleCandidate(x, w, L.value(x, w))
        for x in xs
        for w in ws
        if row_max[x] == L.value(x, w) == col_min[w]
    )


def prop55_audit(P: PerturbationProblem) -> dict:
    """Saddle points against primal/dual attainment.

    Exact parts: every saddle value equals sup-inf = inf-sup; sup-inf is
    the dual value; argmin x argmax is contained in the saddle set when
    the gap is zero and finite.  The reverse containment is reported with
    the per-slice recovery surrogate (phi(x,.)^{cc'} = phi(x,.) for all x
    on the grid, conjugating through the Y-side dual grid).
    """
    L = _lagrangian(P)
    report = P.report
    saddles = saddle_search(P)
    lo = supinf_value(P)
    hi = infsup_value(P)
    minimax_ok = lo <= hi and lo == report.v_gdc
    saddle_values_ok = all(
        s.value == lo == hi for s in saddles
    )
    surrogate = True
    for x in P.x_grid.points:
        sl = L.slices[x]
        back = cprime_conjugate(L.slice_conjugate(x), P.y_grid)
        if any(back.value_at(y) != sl.value_at(y) for y in P.y_grid.points):
            surrogate = False
            break
    expected = set()
    if report.zero_gap:
        expected = {
            (x, w) for x in report.primal_argmin for w in report.dual_argmax
        }
    saddle_set = {(s.xbar, s.wbar) for s in saddles}
    contains_expected = expected <= saddle_set
    matches_expected = saddle_set == expected
    return {
        "saddles": saddles,
        "supinf": lo,
        "infsup": hi,
        "minimax_ok": minimax_ok,
        "saddle_values_ok": saddle_values_ok,
        "slice_surrogate": surrogate,
        "contains_argmin_x_argmax": contains_expected,
        "equals_argmin_x_argmax": matches_expected,
        "report": report,
    }


def find_convexity_violation(
    values,  # list of (scalar x, ExtReal value) with distinct x, 1-D
) -> Optional[Tuple]:
    """A triple x1 < x2 < x3 whose middle value sits above the chord.

    +inf endpoints never witness a violation; a -inf endpoint forces the
    chord to -inf, so any finite middle value violates.  Finite triples
    are tested in exact cross-multiplied form.
    """
    rows = sorted(values, key=lambda r: r[0])
    n = len(rows)
    for i in range(n):
        x1, v1 = rows[i]
        if v1.is_pos_inf:
            continue
        for k in range(i + 2, n):
            x3, v3 = rows[k]
            if v3.is_pos_inf:
                continue
            for j in range(i + 1, k):
                x2, v2 = rows[j]
                if v1.is_neg_inf or v3.is_neg_inf:
                    if not v2.is_neg_inf:
                        return (x1, x2, x3)
                    continue
                if v2.is_pos_inf:
                    continue
                if v2.is_neg_inf:
                    continue
                lhs = v2.value * (x3 - x1)
                rhs = v1.value * (x3 - x2) + v3.value * (x2 - x1)
                if lhs > rhs:
                    return (x1, x2, x3)
    return None


def example52_audit(P: PerturbationProblem) -> dict:
    """The linear-objective instance at the distinguished dual point
    (1, 1, 1): the slice is -inf left of -1, finite right of it, and not
    convex.  The grid oracle value at x = 0 is recorded next to the
    stated constant -2; the two disagree and the discrepancy is reported,
    never asserted away.
    """
    one = Fraction(1) if P.backend == "rational" else 1.0
    w = DualPoint.of((one,), (one,), one, P.backend)
    if w not in P.dual_y_grid:
        raise ValueError("the instance must carry the dual point (1, 1, 1)")
    L = _lagrangian(P)
    minus_one = -one
    # Grid adequacy for the -inf branch: each x <= -1 needs a y-grid point
    # with 1 <= y <= -x, where the coupling gate fails inside Y_x.
    adequacy = all(
        any(one <= y[0] <= -x[0] for y in P.y_grid.points)
        for x in P.x_grid.points
        if x[0] <= minus_one
    )
    neg_branch = all(
        L.value(x, w) == NEG_INF for x in P.x_grid.points if x[0] <= minus_one
    )
    fin_branch = all(
        L.value(x, w).is_finite for x in P.x_grid.points if x[0] > minus_one
    )
    rows = [(x[0], L.value(x, w)) for x in P.x_grid.points]
    witness = find_convexity_violation(rows)
    oracle_at_zero = (
        L.value(P.x_grid.origin, w) if P.x_grid.has_origin else None
    )
    stated = ExtReal(-2 * one)
    return {
        "dual_point": w,
        "grid_adequate": adequacy,
        "neg_inf_branch_ok": neg_branch,
        "finite_branch_ok": fin_branch,
        "nonconvexity_witness": witness,
        "oracle_at_zero": oracle_at_zero,
        "stated_constant": stated,
        "matches_stated_constant": oracle_at_zero == stated
        if oracle_at_zero is not None
        else None,
    }
