"""Generalized subgradients for the conditional-bilinear coupling.

A dual point w = (x*, u*, alpha) is a subgradient of f at x0 when f(x0) is
finite, the gate <x0, u*> < alpha holds, and the coupling difference
minorizes the function difference over the whole grid.  On a grid the
conjugate characterization is exact: w is an eps-subgradient of f at x0
iff f(x0) and c(x0, w) are finite and f(x0) + f^c(w) <= c(x0, w) + eps.
Every membership question is answered by that one rule, :func:`_member`,
read off a conjugate that is computed once per function and dual grid --
the problem's cached ``f0_conj`` and ``psi``, or one ``c_conjugate`` sweep
-- instead of a fresh pass over the grid per pair.  The definitional
tests :func:`is_c_subgradient` and :func:`is_cprime_subgradient` and the
single-point conjugates stay as public references; the differential tests
hold the fast routes to them.

The transfer audit moves memberships between a function and its conjugate:
the forward direction is a grid theorem, the converse requires the grid
surrogate of even convexity, namely f^{cc'} = f pointwise.  Membership
transfers at the same pair (x, w) on both sides.

The epsilon-formula audits compare the subdifferential of the restriction
phi(., 0) with projections of the subdifferential of phi at (x, 0).  The
projection formula at the same epsilon is a grid theorem; the
intersection formula's infinite intersection over eta > 0 is approximated
by a finite decreasing ladder.  Membership is monotone in eps, so the
ladder's intersection is its smallest member, the projection at
eps + eta_min, which is what the audit computes; the reported inclusion
carries that eta_min slack and the report names it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from econvex.conjugation import (
    DualGrid,
    DualPoint,
    c_conjugate,
    coupling_c,
    cprime_conjugate,
)
from econvex.conjugation import _classify, _sup_coupling_minus, _sup_prime_minus
from econvex.duality import EXACT_PASS, PerturbationProblem
from econvex.extreal import ExtReal
from econvex.funcrep import SampledFn

__all__ = [
    "SubdiffSet",
    "is_c_subgradient",
    "is_c_subgradient_via_conjugate",
    "c_subdifferential",
    "is_cprime_subgradient",
    "eps_c_subdifferential",
    "transfer_audit",
    "TransferReport",
    "total_duality_certificate",
    "prop43_audit",
    "theorem43_audit",
    "theorem44_audit",
]


@dataclass(frozen=True)
class SubdiffSet:
    """Grid section of a subdifferential: members from the queried grid."""

    base_point: Tuple
    epsilon: object
    members: Tuple[DualPoint, ...]

    def __contains__(self, w: DualPoint) -> bool:
        return w in self.members


def conjugate_value(f: SampledFn, w: DualPoint) -> ExtReal:
    """f^c at a single dual point, by the definitional sweep."""
    return _sup_coupling_minus(f.grid.points, _classify(f.values), w)


def prime_conjugate_value(g: SampledFn, x) -> ExtReal:
    """g^{c'} at a single primal point, by the definitional sweep."""
    return _sup_prime_minus(g.grid.points, _classify(g.values), x)


def _zero_eps(f: SampledFn):
    return Fraction(0) if f.grid.backend == "rational" else 0.0


def _on_grid(f: SampledFn, x0):
    """x0 as stored on f's grid (raises off-grid) and f(x0)."""
    x0 = f.grid.points[f.grid.index_of(x0)]
    return x0, f.value_at(x0)


def _member(fx0: ExtReal, conj_w: ExtReal, cx0: ExtReal, eps) -> bool:
    """w in the eps-subdifferential of f at x0, from f(x0), f^c(w) and
    c(x0, w): both finite, and f(x0) + f^c(w) <= c(x0, w) + eps."""
    return fx0.is_finite and cx0.is_finite and fx0 + conj_w <= cx0 + ExtReal(eps)


def is_c_subgradient(f: SampledFn, x0, w: DualPoint, eps=None) -> bool:
    """Definitional membership over the grid, with the eps relaxation."""
    if eps is None:
        eps = _zero_eps(f)
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    x0, fx0 = _on_grid(f, x0)
    if not fx0.is_finite:
        return False
    cx0 = coupling_c(x0, w)
    if not cx0.is_finite:
        return False  # the gate <x0, u*> < alpha failed
    eps_e = ExtReal(eps)
    for x, fx in f.items():
        lhs = fx - fx0
        rhs = (coupling_c(x, w) - cx0) - eps_e
        if not lhs >= rhs:
            return False
    return True


def is_c_subgradient_via_conjugate(
    f: SampledFn, f_conj_at_w: ExtReal, x0, w: DualPoint, eps=None
) -> bool:
    """Conjugate-form membership: f(x0) + f^c(w) <= c(x0, w) + eps."""
    if eps is None:
        eps = _zero_eps(f)
    x0, fx0 = _on_grid(f, x0)
    return _member(fx0, f_conj_at_w, coupling_c(x0, w), eps)


def _members(f: SampledFn, x0, eps, f_conj: SampledFn) -> Tuple[DualPoint, ...]:
    """The dual points of f_conj's grid in the eps-subdifferential at x0."""
    x0, fx0 = _on_grid(f, x0)
    return tuple(
        w for w, conj in f_conj.items() if _member(fx0, conj, coupling_c(x0, w), eps)
    )


def c_subdifferential(f: SampledFn, x0, w_grid: DualGrid) -> SubdiffSet:
    return eps_c_subdifferential(f, x0, _zero_eps(f), w_grid)


def eps_c_subdifferential(f: SampledFn, x0, eps, w_grid: DualGrid) -> SubdiffSet:
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    return SubdiffSet(tuple(x0), eps, _members(f, x0, eps, c_conjugate(f, w_grid)))


def is_cprime_subgradient(g: SampledFn, w0: DualPoint, x) -> bool:
    """Definitional membership of a primal point in the subdifferential of
    g at w0: the inequality runs over the dual grid carrying g."""
    g.grid.index_of(w0)  # raises off-grid
    gw0 = g.value_at(w0)
    cw0 = coupling_c(x, w0)
    if not (gw0.is_finite and cw0.is_finite):
        return False
    return all((gw - gw0) >= (coupling_c(x, w) - cw0) for w, gw in g.items())


# ---------------------------------------------------------------------------
# Transfer between a function and its conjugate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferReport:
    forward_ok: bool
    econvex_surrogate: bool  # f^{cc'} = f on the grid
    converse_ok: bool
    counterexamples: Tuple  # (x, w) where the converse fails
    pairs_checked: int


def transfer_audit(f: SampledFn, w_grid: DualGrid) -> TransferReport:
    """Forward: membership in the subdifferential of f pushes to the
    conjugate.  Converse: holds under the grid surrogate of even
    convexity; counterexample pairs are listed when it does not.

    Both sides read the one conjugate pair: w is in the subdifferential
    of f at x by the conjugate rule, and x in that of f^c at w iff c(x, w)
    is finite and f^c(w) + f^{cc'}(x) = c(x, w), which forces f^c(w)
    finite too.
    """
    f_conj = c_conjugate(f, w_grid)
    f_biconj = cprime_conjugate(f_conj, f.grid)
    surrogate = f_biconj.values == f.values
    zero = _zero_eps(f)
    forward_ok = True
    counterexamples = []
    for x, fx, hull_x in zip(f.grid.points, f.values, f_biconj.values):
        for w, conj in f_conj.items():
            cxw = coupling_c(x, w)
            primal = _member(fx, conj, cxw, zero)
            dual = cxw.is_finite and conj + hull_x == cxw
            if primal and not dual:
                forward_ok = False
            if dual and not primal:
                counterexamples.append((x, w))
    return TransferReport(
        forward_ok=forward_ok,
        econvex_surrogate=surrogate,
        converse_ok=not counterexamples,
        counterexamples=tuple(counterexamples),
        pairs_checked=len(f.grid) * len(w_grid),
    )


# ---------------------------------------------------------------------------
# Total duality
# ---------------------------------------------------------------------------


def _embedded_memberships(P: PerturbationProblem) -> Iterator[Tuple[Tuple, DualPoint, bool]]:
    """(x, w, member) over x-grid x Y-side dual grid: whether the embedded
    dual point is a subgradient of phi at (x, 0), read off psi at the
    embedded points (the cached G = g_on_dual_y)."""
    origin = P.y_grid.origin
    zero = _zero_eps(P.phi_on_product)
    for x in P.x_grid.points:
        base, fx0 = _on_grid(P.phi_on_product, x + origin)
        for w, conj in P.g_on_dual_y.items():
            yield x, w, _member(fx0, conj, coupling_c(base, P.embed(w)), zero)


def total_duality_certificate(
    P: PerturbationProblem,
) -> Optional[Tuple[Tuple, DualPoint]]:
    """First (x, (y*, v*, alpha)) with the embedded dual point in the
    subdifferential of phi at (x, 0); None when no total duality on the
    grid."""
    return next(((x, w) for x, w, member in _embedded_memberships(P) if member), None)


def prop43_audit(P: PerturbationProblem) -> dict:
    """Exhaustive equivalence: the embedded dual point is a subgradient of
    phi at (x, 0) iff x solves the primal, (y*, v*, alpha) solves the
    dual, and the two values agree and are finite."""
    report = P.report
    mismatches = []
    for x, w, member in _embedded_memberships(P):
        optimal = (
            report.zero_gap and x in report.primal_argmin and w in report.dual_argmax
        )
        if member != optimal:
            mismatches.append((x, w, member, optimal))
    cert = total_duality_certificate(P)
    return {
        "equivalence_ok": not mismatches,
        "mismatches": tuple(mismatches),
        "certificate": cert,
        "certificate_consistent": (cert is not None) == report.total,
    }


# ---------------------------------------------------------------------------
# Epsilon-formula audits
# ---------------------------------------------------------------------------


def _default_ladder(backend: str):
    if backend == "rational":
        return (Fraction(1), Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))
    return (1.0, 0.1, 0.01, 0.001)


def _restriction_subdiff(P: PerturbationProblem, x, eps) -> Tuple[DualPoint, ...]:
    return _members(P.f0, x, eps, P.f0_conj)


def _projected_full_subdiff(P: PerturbationProblem, x, eps) -> Tuple[DualPoint, ...]:
    """x-side projections, in first-appearance order, of the dual points
    of the full grid in the eps-subdifferential of phi at (x, 0)."""
    members = _members(P.phi_on_product, x + P.y_grid.origin, eps, P.psi)
    return tuple(dict.fromkeys(P.x_side(flat) for flat in members))


def theorem43_audit(P: PerturbationProblem, x, eps, eta_ladder=None) -> dict:
    """Intersection formula for the eps-subdifferential of phi(., 0).

    The ladder intersection equals the projection at eta_min (membership
    is monotone in eps), so the unconditional inclusion is exact whenever
    eta_min sits below the instance's value resolution; the report names
    the ladder and eta_min.  Set equality is the conditional direction,
    surrogated by the c5 audit.
    """
    if eta_ladder is None:
        eta_ladder = _default_ladder(P.backend)
    eta_ladder = tuple(eta_ladder)
    if not eta_ladder or any(e <= 0 for e in eta_ladder):
        raise ValueError("the eta ladder must be a nonempty list of positive steps")
    if list(eta_ladder) != sorted(eta_ladder, reverse=True):
        raise ValueError("the eta ladder must be decreasing")
    lhs = _restriction_subdiff(P, x, eps)
    intersection = frozenset(_projected_full_subdiff(P, x, eps + eta_ladder[-1]))
    return {
        "superset_ok": intersection <= frozenset(lhs),
        "equal": intersection == frozenset(lhs),
        "lhs": tuple(lhs),
        "intersection": tuple(sorted(intersection, key=str)),
        "eta_ladder": eta_ladder,
        "eta_min": eta_ladder[-1],
        "c5_surrogate": P.report.audits["c5"].status == EXACT_PASS,
    }


def theorem44_audit(P: PerturbationProblem, x, eps) -> dict:
    """Projection formula at the same eps: the projection is always inside
    the restriction's subdifferential; equality tracks the c5 surrogate,
    and strict-inclusion witnesses are listed."""
    lhs = frozenset(_restriction_subdiff(P, x, eps))
    rhs = frozenset(_projected_full_subdiff(P, x, eps))
    witnesses = tuple(sorted(lhs - rhs, key=str))
    return {
        "superset_ok": rhs <= lhs,
        "equal": lhs == rhs,
        "lhs": tuple(sorted(lhs, key=str)),
        "projection": tuple(sorted(rhs, key=str)),
        "strict_witnesses": witnesses,
        "c5_surrogate": P.report.audits["c5"].status == EXACT_PASS,
    }
