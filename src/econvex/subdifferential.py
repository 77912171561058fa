"""Generalized subgradients for the conditional-bilinear coupling.

A dual point w = (x*, u*, alpha) is a subgradient of f at x0 when f(x0) is
finite, the gate <x0, u*> < alpha holds, and the coupling difference
minorizes the function difference over the whole grid.  On a grid the
conjugate characterization is exact: w is an eps-subgradient of f at x0
iff f(x0) and c(x0, w) are finite and f(x0) + f^c(w) <= c(x0, w) + eps.
Every membership question is answered by that one rule, :func:`_member`,
on the tagged payloads (``SampledFn.tagged``) of a conjugate computed once
-- the problem's ``f0_conj``, ``psi_block_min`` or ``g_on_dual_y``, or one
``c_conjugate`` sweep for :func:`eps_c_subdifferential` -- and a raw
coupling (``conjugation._coupling``, None for +inf): no pass and no
ExtReal per pair.  Every check that takes couplings reads one form,
``_Form``, from one ``conjugation._check_ints`` call, which scales the
values itself when every coordinate, slope, alpha and finite payload is
exact (points and slopes times d, the rest times d²), never with the
kernel's ``funcrep._prepared``, so one fault cannot reach both a
conjugate and the check reading it; an exact eps = p/q enters only the
comparison.  Otherwise the check takes the values it reads as given:
IEEE ``+`` and ``<=`` are those of ExtReal, a coupling that overflows is
not finite, and finite values of two backends raise
BackendMismatchError.  A negative eps raises ValueError on every route.
The definitional :func:`is_c_subgradient`, :func:`is_cprime_subgradient`
and :func:`conjugate_value` stay as references the tests hold the fast
routes to.

The transfer audit moves memberships between a function and the
conjugate pair f^c, f^{cc'} it is given, such as the problem's cached
``f0_conj`` and ``f0_biconj``: the forward direction is a grid theorem,
the converse requires the grid surrogate of even convexity, namely
f^{cc'} = f pointwise.  Membership transfers at the same pair (x, w) on
both sides.

The epsilon-formula audit compares the subdifferential of the restriction
phi(., 0) with projections of the subdifferential of phi at (x, 0).  The
coupling at (x, 0) reads only a dual point's x-side w, so the projection
is the restriction's rule read off ``psi_block_min``, the table c5 reads.
The projection formula at the same epsilon is a grid theorem.  So is the
intersection formula's limit eta -> 0: w lies in the projection at
eps + eta iff f0(x) + psi_min(w) <= c(x, w) + eps + eta, psi_min(w) being
the least value over w's finitely many flats, which the minimum attains.
That holds for every eta > 0 iff it holds at eta = 0, so the
intersection over eta > 0 is the projection at eps itself, exactly, and
one audit, :func:`theorem44_audit`, checks both formulae: one sweep for
the restriction's members and one for the projection per (x, eps), both
on the problem's one x-side form (``_x_side``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import inf
from typing import Iterator, Optional, Tuple

from econvex import conjugation
from econvex.conjugation import DualGrid, DualPoint, c_conjugate, coupling_c
from econvex.conjugation import _check_ints, _classify, _sup_minus
from econvex.duality import PerturbationProblem
from econvex.extreal import BackendMismatchError, ExtReal, NaNError, scalar
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
    return _sup_minus((conjugation._coupling(p, w) for p in f.grid.points), _classify(f.values))


def _zero_eps(f: SampledFn):
    return scalar(0, f.grid.backend)


def _on_grid(f: SampledFn, x0):
    """x0 as stored on f's grid (raises off-grid) and f(x0)."""
    x0 = f.grid.points[f.grid.index_of(x0)]
    return x0, f.value_at(x0)


def _nonnegative(eps):
    """eps, or a ValueError when it is negative: the one guard of every
    route, taken before any sweep."""
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    return eps


def _member(fx, conj, c, eps) -> bool:
    """w in the eps-subdifferential of f at x0, from the tagged rows of
    f(x0) and f^c(w), the raw coupling c = c(x0, w) (None for +inf) and
    eps, all of one scale or all as given: f(x0) and c finite, and
    f(x0) + f^c(w) <= c + eps with the +-inf conventions."""
    (ftag, fv), (gtag, gv) = fx, conj
    return ftag == "f" and c is not None and (
        gtag == "-" or (fv + gv if gtag == "f" else inf) <= c + eps)


def _given(values) -> None:
    """As ExtReal arithmetic does, NaN among the values raises NaNError,
    and values that mix floats with Fractions or ints raise
    BackendMismatchError."""
    if any(v != v for v in values):
        raise NaNError("NaN has no extended-real meaning")
    if len({v.__class__ is float for v in values}) > 1:
        raise BackendMismatchError("cannot compare rational-backed and float-backed values")


class _Form:
    """Points, dual points and tables of tagged rows (table 0 a function f
    on the points, the others tables on the dual points) as a membership
    check reads them, from one ``_check_ints`` call: scaled by d when every
    value is exact, as given when d is None.  Per point i the raw coupling
    row c(x_i, .) over the dual points is taken at its first use; on values
    as given one that overflowed to +-inf is not finite (None), as
    ``coupling_c`` reads it."""

    def __init__(self, points, duals, tables):
        self.d, self.xs, self.ws, self.tables, _ = _check_ints(points, duals, tables)
        self.rows = {}

    def row(self, i) -> list:
        if i not in self.rows:
            cs = [conjugation._coupling(self.xs[i], w) for w in self.ws]
            if self.d is None:
                cs = [None if c.__class__ is float and abs(c) == inf else c for c in cs]
            self.rows[i] = cs
        return self.rows[i]

    def members(self, i, k, eps) -> list:
        """Per dual point, whether it is in the eps-subdifferential of f at
        point i by the rows of table k (``_member``).  On the form's ints
        an exact eps = p/q meets the terms only in the comparison: the
        terms times q against p·d².  Otherwise eps, the coupling row and
        the rows of f(x_i) and of table k are taken as given (``_given``)."""
        _nonnegative(eps)
        fx, conjs, cs = self.tables[0][i], self.tables[k], self.row(i)
        if self.d is not None and eps.__class__ in (Fraction, int):
            e, q = eps.numerator * self.d * self.d, eps.denominator
            if q != 1:
                fx, *conjs = [(tag, None if p is None else q * p) for tag, p in [fx, *conjs]]
                cs = [None if c is None else q * c for c in cs]
        else:
            _given([c for c in cs if c is not None] + [p for t, p in (fx, *conjs) if t == "f"] + [eps])
            e = eps
        return [_member(fx, g, c, e) for g, c in zip(conjs, cs)]


def is_c_subgradient(f: SampledFn, x0, w: DualPoint, eps=None) -> bool:
    """Definitional membership over the grid, with the eps relaxation."""
    eps = _zero_eps(f) if eps is None else _nonnegative(eps)
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
    return _Form([x0], [w], [_classify([fx0]), _classify([f_conj_at_w])]).members(0, 1, eps)[0]


def _x_side(P: PerturbationProblem, *tables) -> Tuple[tuple, _Form]:
    """P's tables and x-side form over x_grid, x_side_grid, f0 and them,
    kept on P and built again when it lacks one of the tables given, so
    the restriction alone never builds psi."""
    have, form = getattr(P, "_x_side_cache", ((), None))
    every = {id(t): t for t in (*have, *tables)}
    if len(every) > len(have):
        have = tuple(every.values())
        form = _Form(P.x_grid.points, P.x_side_grid.points, [t.tagged() for t in (P.f0, *have)])
        P._x_side_cache = have, form
    return have, form


def _members(P: PerturbationProblem, x, eps, table: SampledFn) -> Tuple[DualPoint, ...]:
    """The dual points of x_side_grid in the eps-subdifferential of
    phi(., 0) at x by table's rows (f0_conj's or psi_block_min's)."""
    have, form = _x_side(P, table)
    k = 1 + [id(t) for t in have].index(id(table))
    return tuple(compress(table.grid.points, form.members(P.f0.grid.index_of(x), k, eps)))


def c_subdifferential(f: SampledFn, x0, w_grid: DualGrid) -> SubdiffSet:
    return eps_c_subdifferential(f, x0, _zero_eps(f), w_grid)


def eps_c_subdifferential(f: SampledFn, x0, eps, w_grid: DualGrid) -> SubdiffSet:
    point, fx0 = _on_grid(f, x0)
    _nonnegative(eps)  # before the sweep
    form = _Form([point], w_grid.points, [_classify([fx0]), c_conjugate(f, w_grid).tagged()])
    flags = form.members(0, 1, eps)
    return SubdiffSet(tuple(x0), eps, tuple(compress(w_grid.points, flags)))


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


def transfer_audit(f: SampledFn, f_conj: SampledFn, f_biconj: SampledFn) -> TransferReport:
    """Forward: membership in the subdifferential of f pushes to the
    conjugate.  Converse: holds under the grid surrogate of even
    convexity; counterexample pairs are listed when it does not.

    The audit checks the conjugate pair it is given, f_conj = f^c on a
    dual grid and f_biconj = (f_conj)^{c'} on f's grid, and sweeps
    neither again: w is in the subdifferential of f at x by the conjugate
    rule, and x in that of f^c at w iff c(x, w) is finite and
    f^c(w) + f^{cc'}(x) = c(x, w), which forces f^c(w) finite too.  Every
    (x, w) is its own coupling and its own two tests, grouped by no
    slope, on one form (``_Form``) over f's grid and f_conj's: its ints
    when the inputs are exact, and otherwise the values as given, checked
    once over every coupling, every table's row and zero.  The tables are
    read as tagged rows (``SampledFn.tagged``), and the surrogate compares
    the rows of f and f^{cc'} on the same footing.
    """
    if len(f_biconj.keys) != len(f.keys):
        raise ValueError("f_biconj must lie on the grid of f")
    form = _Form(f.grid.points, f_conj.grid.points, [g.tagged() for g in (f, f_conj, f_biconj)])
    rows = [form.row(i) for i in range(len(f.grid))]
    zero = _zero_eps(f)
    if form.d is None:
        _given([c for cs in rows for c in cs if c is not None]
               + [p for t in form.tables for tag, p in t if tag == "f"] + [zero])
    fs, conjs, hulls = form.tables
    surrogate = hulls == fs
    forward_ok = True
    counterexamples = []
    for i, (x, (htag, hv), cs) in enumerate(zip(f.grid.points, hulls, rows)):
        for w, conj, c, primal in zip(f_conj.grid.points, conjs, cs, form.members(i, 1, zero)):
            dual = c is not None and conj[0] == htag == "f" and conj[1] + hv == c
            if primal and not dual:
                forward_ok = False
            if dual and not primal:
                counterexamples.append((x, w))
    return TransferReport(
        forward_ok=forward_ok,
        econvex_surrogate=surrogate,
        converse_ok=not counterexamples,
        counterexamples=tuple(counterexamples),
        pairs_checked=len(f.grid) * len(f_conj.grid),
    )


# ---------------------------------------------------------------------------
# Total duality
# ---------------------------------------------------------------------------


def _embedded_memberships(P: PerturbationProblem) -> Iterator[Tuple[Tuple, DualPoint, bool]]:
    """(x, w, member) over x-grid x Y-side dual grid: whether the embedded
    dual point ((0, y*), (0, v*), alpha) is a subgradient of phi at (x, 0).
    Its coupling there is <x, 0> + <0, y*> = 0 behind the gate
    <x, 0> + <0, v*> = 0 < alpha, which alpha > 0 keeps open, so membership
    reads only phi(x, 0) = f0(x) and psi at the embedded point, the cached
    G = g_on_dual_y.  Grid points are finite, so a float dot is +-0.0,
    which compares as 0."""
    zero = _zero_eps(P.f0)
    duals = list(zip(P.g_on_dual_y.grid.points, P.g_on_dual_y.tagged()))
    for x, fx0 in zip(P.f0.grid.points, P.f0.tagged()):
        for w, conj in duals:
            yield x, w, _member(fx0, conj, zero, zero)


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
    dual, and the two values agree and are finite.  The certificate is
    the first member of the same pass."""
    report = P.report
    mismatches = []
    cert = None
    for x, w, member in _embedded_memberships(P):
        if member and cert is None:
            cert = (x, w)
        optimal = (
            report.zero_gap and x in report.primal_argmin and w in report.dual_argmax
        )
        if member != optimal:
            mismatches.append((x, w, member, optimal))
    return {
        "equivalence_ok": not mismatches,
        "mismatches": tuple(mismatches),
        "certificate": cert,
        "certificate_consistent": (cert is not None) == report.total,
    }


# ---------------------------------------------------------------------------
# Epsilon-formula audits
# ---------------------------------------------------------------------------


def _restriction_subdiff(P: PerturbationProblem, x, eps) -> Tuple[DualPoint, ...]:
    """The eps-subdifferential of phi(., 0) at x, in x_side_grid order."""
    return _members(P, x, eps, P.f0_conj)


def _projected_full_subdiff(P: PerturbationProblem, x, eps) -> Tuple[DualPoint, ...]:
    """x-side projections, in x_side_grid order, of the dual points of the
    full grid in the eps-subdifferential of phi at (x, 0)."""
    return _members(P, x, eps, P.psi_block_min)


def theorem43_audit(P: PerturbationProblem, x, eps) -> dict:
    """Intersection formula: on a grid it is the projection formula's audit."""
    return theorem44_audit(P, x, eps)


def theorem44_audit(P: PerturbationProblem, x, eps) -> dict:
    """The eps-formula audit at x: the projection of the full
    subdifferential at (x, 0) is always inside the restriction's
    subdifferential; equality tracks the c5 surrogate, and the
    strict-inclusion witnesses are listed.  On a grid the intersection
    formula's limit is this projection (module docs), so the audit serves
    both formulae.  ``lhs``, ``projection`` and ``strict_witnesses`` are
    in x_side_grid order, the order of both tables, so equal sets are
    equal tuples."""
    _x_side(P, P.f0_conj, P.psi_block_min)  # one scaling for both sweeps
    lhs = _restriction_subdiff(P, x, eps)
    projection = _projected_full_subdiff(P, x, eps)
    kept = frozenset(projection)
    return {
        "superset_ok": kept <= frozenset(lhs),
        "equal": projection == lhs,
        "lhs": lhs,
        "projection": projection,
        "strict_witnesses": tuple(w for w in lhs if w not in kept),
    }
