"""Command-line workbench.

Commands: catalog, eset, conjugate, biconjugate, duality, subdiff,
lagrangian, audit.  A PROBLEM argument is a path to a problem file or the
name of a catalog entry.  Exit codes: 0 when every exact invariant passes,
2 when an exact invariant fails (a bug, not a finding), 3 on input errors.
Conditional-audit findings never change the exit code.

Reports are deterministic: timings are attached only under --timings so
default output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from fractions import Fraction

from econvex import catalog, problemio
from econvex.conjugation import DualPoint
from econvex.duality import (
    EXACT_PASS,
    FAIL,
    AuditOutcome,
    converse_duality_report,
)
from econvex.esets import (
    in_recession_cone,
    is_functionally_representable,
    lower_envelope,
    separate,
)
from econvex.extreal import ExtReal, fmt
from econvex.lagrangian import (
    dual_slice_audit,
    example52_audit,
    infsup_value,
    lagrangian_value,
    prop55_audit,
    supinf_value,
)
from econvex.problemio import _dual, _point, _scalar
from econvex.subdifferential import (
    eps_c_subdifferential,
    prop43_audit,
    theorem43_audit,
    theorem44_audit,
    transfer_audit,
)

EXIT_OK = 0
EXIT_EXACT_FAILURE = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code 2 collides
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _emit(lines):
    for line in lines:
        print(line)


def _resolve(problem: str):
    if os.path.exists(problem):
        return problemio.load(problem)
    if problem in catalog.PROBLEMS:
        return catalog.load(problem)
    raise problemio.InputError(
        f"{problem!r} is neither a file nor a catalog entry (try 'catalog --list')"
    )


def _build(problem: str, quiet: bool = False):
    pf = _resolve(problem)
    if isinstance(pf, problemio.EsetFile):
        raise problemio.InputError(
            f"{pf.name!r} is a set definition; use the 'eset' command"
        )
    P = pf.build()
    if not quiet:
        warnings = problemio.boundary_warnings(P)
        for warning in warnings[:8]:
            print(f"warning: {warning}", file=sys.stderr)
        if len(warnings) > 8:
            print(
                f"warning: ... and {len(warnings) - 8} more coupling-boundary "
                "coincidences",
                file=sys.stderr,
            )
    return P


def _print_csv(header, rows):
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(header)
    out.writerows(rows)


def _audit_lines(audits):
    lines = []
    for a in audits:
        lines.append(f"audit.{a.name}.kind = {a.kind}")
        lines.append(f"audit.{a.name}.status = {a.status}")
        if a.detail:
            lines.append(f"audit.{a.name}.detail = {a.detail}")
        for wtn in a.witnesses[:5]:
            lines.append(f"audit.{a.name}.witness = {wtn}")
    return lines


def _audit_table(audits):
    rows = [(a.name, a.kind, a.status, a.detail) for a in audits]
    widths = [
        max(len(str(r[i])) for r in rows + [("name", "kind", "status", "detail")])
        for i in range(4)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(("name", "kind", "status", "detail"), widths))
    sep = "  ".join("-" * w for w in widths)
    body = ["  ".join(str(c).ljust(w) for c, w in zip(r, widths)) for r in rows]
    return [line, sep] + body


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> int:
    if args.list or args.name is None:
        _emit(catalog.names())
        return EXIT_OK
    text = problemio.save_text(catalog.entry(args.name))
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.write}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_point(text: str):
    return tuple(Fraction(part) for part in text.split(","))


def cmd_eset(args) -> int:
    pf = _resolve(args.problem)
    if not isinstance(pf, problemio.EsetFile):
        raise problemio.InputError(f"{args.problem!r} is not a set definition")
    P = pf.polyhedron
    lines = [f"# eset report: {pf.name}", f"dim = {P.dim}"]
    empty = P.is_empty() if P.dim <= 2 else None
    lines.append(f"constraints = {len(P.constraints)}")
    if empty is not None:
        lines.append(f"empty = {str(empty).lower()}")
    lines.append(f"constant_false_constraints = {str(P.has_constant_false).lower()}")
    if args.contains:
        x = _parse_point(args.contains)
        lines.append(f"contains{_point(x)} = {str(P.contains(x)).lower()}")
    if args.separate:
        x = _parse_point(args.separate)
        cert = separate(P, x)
        lines.append(
            f"separate{_point(x)} = "
            + (_point(cert) if cert is not None else "inconclusive")
        )
    if args.recession:
        y = _parse_point(args.recession)
        lines.append(
            f"in_recession_cone{_point(y)} = {str(in_recession_cone(P, y)).lower()}"
        )
    if P.dim == 2 and empty is False and in_recession_cone(P, (0, 1)):
        ok, witness = is_functionally_representable(P)
        lines.append(f"functionally_representable = {str(ok).lower()}")
        env = lower_envelope(P)
        if not ok:
            lines.append(
                f"representability_witness = x={_scalar(witness)}, "
                f"h(x)={fmt(env.value(witness))}"
            )
        # The epigraph comparison is reported separately from the defining
        # graph-containment check: epi h = C sampled fiber by fiber.
        epi_eq = True
        for xi in range(-3, 4):
            x = Fraction(xi)
            hx = env.value(x)
            for ai in range(-3, 4):
                in_epi = hx <= ExtReal(Fraction(ai))
                if in_epi != P.contains((x, Fraction(ai))):
                    epi_eq = False
        lines.append(f"epigraph_equals_set_on_sampled_fibers = {str(epi_eq).lower()}")
        if args.envelope_at is not None:
            v = env.value(Fraction(args.envelope_at))
            lines.append(f"envelope({args.envelope_at}) = {fmt(v)}")
    _emit(lines)
    return EXIT_OK


def cmd_conjugate(args) -> int:
    P = _build(args.problem)
    if args.output == "csv":
        header = (
            [f"xstar{i}" for i in range(P.x_grid.dim)]
            + [f"ustar{i}" for i in range(P.x_grid.dim)]
            + ["alpha", "value"]
        )
        rows = [
            [_scalar(c) for c in w.xstar]
            + [_scalar(c) for c in w.ustar]
            + [_scalar(w.alpha), fmt(v)]
            for w, v in P.f0_conj.items()
        ]
        _print_csv(header, rows)
    else:
        _emit([f"# conjugate of phi(., 0): {P.name}"])
        _emit(
            f"{_dual(w)} -> {fmt(v)}" for w, v in P.f0_conj.items()
        )
    return EXIT_OK


def cmd_biconjugate(args) -> int:
    P = _build(args.problem)
    hull = P.f0_biconj
    if args.output == "csv":
        header = [f"x{i}" for i in range(P.x_grid.dim)] + ["value"]
        _print_csv(
            header,
            [[_scalar(c) for c in p] + [fmt(v)] for p, v in hull.items()],
        )
        return EXIT_OK
    lines = [f"# biconjugate of phi(., 0): {P.name}"]
    worst = None
    for p, v in hull.items():
        f = P.f0.value_at(p)
        gapv = f - v
        lines.append(f"x={_point(p)}  f={fmt(f)}  hull={fmt(v)}")
        if f.is_finite and v.is_finite:
            d = f.value - v.value
            worst = d if worst is None or d > worst else worst
    lines.append(
        "max finite gap = " + (_scalar(worst) if worst is not None else "none")
    )
    _emit(lines)
    return EXIT_OK


def cmd_duality(args) -> int:
    report = converse_duality_report(_build(args.problem))
    audits = list(report.audits.values())
    if args.output == "csv":
        _print_csv(
            ["audit", "kind", "status", "detail"],
            [(a.name, a.kind, a.status, a.detail) for a in audits],
        )
    else:
        lines = [
            f"# duality report: {report.name}",
            f"backend = {report.backend}",
            f"v_gp = {fmt(report.v_gp)}",
            f"v_gdc = {fmt(report.v_gdc)}",
            f"v_gpbar = {fmt(report.v_gpbar)}",
            f"v_gdbar = {fmt(report.v_gdbar)}",
            f"gap = {fmt(report.gap)}",
            f"weak_ok = {str(report.weak_ok).lower()}",
            f"zero_gap = {str(report.zero_gap).lower()}",
            f"strong = {str(report.strong).lower()}",
            f"converse = {str(report.converse).lower()}",
            f"total = {str(report.total).lower()}",
            f"primal_truncated = {str(report.primal_truncated).lower()}",
            "primal_argmin = "
            + ("; ".join(_point(p) for p in report.primal_argmin) or "none"),
            "dual_argmax = "
            + ("; ".join(_dual(w) for w in report.dual_argmax) or "none"),
        ]
        lines += _audit_lines(audits)
        lines.append("")
        lines += _audit_table(audits)
        _emit(lines)
    return EXIT_EXACT_FAILURE if report.has_exact_failure else EXIT_OK


def cmd_subdiff(args) -> int:
    P = _build(args.problem)
    at = _parse_point(args.at)
    if P.backend == "float":
        at = tuple(float(c) for c in at)
    eps = Fraction(args.eps) if P.backend == "rational" else float(Fraction(args.eps))
    s = eps_c_subdifferential(P.f0, at, eps, P.x_side_grid)
    if args.output == "csv":
        header = (
            [f"xstar{i}" for i in range(P.x_grid.dim)]
            + [f"ustar{i}" for i in range(P.x_grid.dim)]
            + ["alpha"]
        )
        _print_csv(
            header,
            [
                [_scalar(c) for c in w.xstar]
                + [_scalar(c) for c in w.ustar]
                + [_scalar(w.alpha)]
                for w in s.members
            ],
        )
        return EXIT_OK
    lines = [
        f"# subdifferential report: {P.name}",
        f"at = {_point(at)}",
        f"eps = {_scalar(eps)}",
        f"members = {len(s.members)}",
    ]
    lines += [f"member = {_dual(w)}" for w in s.members]
    t43 = theorem43_audit(P, at, eps)
    t44 = theorem44_audit(P, at, eps)
    lines += [
        f"intersection_formula.superset_ok = {str(t43['superset_ok']).lower()}",
        f"intersection_formula.equal = {str(t43['equal']).lower()}",
        f"intersection_formula.eta_min = {_scalar(t43['eta_min'])}",
        f"projection_formula.superset_ok = {str(t44['superset_ok']).lower()}",
        f"projection_formula.equal = {str(t44['equal']).lower()}",
        f"c5_surrogate = {str(t44['c5_surrogate']).lower()}",
    ]
    _emit(lines)
    return (
        EXIT_OK
        if t43["superset_ok"] and t44["superset_ok"]
        else EXIT_EXACT_FAILURE
    )


def cmd_lagrangian(args) -> int:
    P = _build(args.problem)
    if args.output == "csv":
        header = (
            [f"x{i}" for i in range(P.x_grid.dim)]
            + [f"ystar{i}" for i in range(P.y_grid.dim)]
            + [f"vstar{i}" for i in range(P.y_grid.dim)]
            + ["alpha", "value"]
        )
        rows = []
        for x in P.x_grid.points:
            for w in P.dual_y_grid.points:
                rows.append(
                    [_scalar(c) for c in x]
                    + [_scalar(c) for c in w.xstar]
                    + [_scalar(c) for c in w.ustar]
                    + [_scalar(w.alpha), fmt(lagrangian_value(P, x, w))]
                )
        _print_csv(header, rows)
        return EXIT_OK
    out = prop55_audit(P)
    lines = [
        f"# lagrangian report: {P.name}",
        f"supinf = {fmt(out['supinf'])}",
        f"infsup = {fmt(out['infsup'])}",
        f"supinf_equals_dual_value = {str(out['minimax_ok']).lower()}",
        f"slice_surrogate = {str(out['slice_surrogate']).lower()}",
        f"saddle_count = {len(out['saddles'])}",
    ]
    lines += [
        f"saddle = x={_point(s.xbar)} w={_dual(s.wbar)} value={fmt(s.value)}"
        for s in out["saddles"]
    ]
    lines += [
        "saddles_contain_attainers = "
        + str(out["contains_argmin_x_argmax"]).lower(),
        "saddles_equal_attainers = " + str(out["equals_argmin_x_argmax"]).lower(),
    ]
    slice_ok = all(dual_slice_audit(P, x)["ok"] for x in P.x_grid.points)
    lines.append(f"dual_slice_identity = {str(slice_ok).lower()}")
    one = Fraction(1) if P.backend == "rational" else 1.0
    distinguished = DualPoint.of((one,), (one,), one, P.backend)
    if P.y_grid.dim == 1 and distinguished in P.dual_y_grid:
        ex = example52_audit(P)
        lines += [
            f"slice_at_111.grid_adequate = {str(ex['grid_adequate']).lower()}",
            f"slice_at_111.neg_inf_branch = {str(ex['neg_inf_branch_ok']).lower()}",
            f"slice_at_111.finite_branch = {str(ex['finite_branch_ok']).lower()}",
            f"slice_at_111.nonconvexity_witness = {ex['nonconvexity_witness']}",
            "slice_at_111.oracle_at_zero = "
            + (fmt(ex["oracle_at_zero"]) if ex["oracle_at_zero"] is not None else "n/a"),
            f"slice_at_111.stated_constant = {fmt(ex['stated_constant'])}",
            "slice_at_111.matches_stated_constant = "
            + str(ex["matches_stated_constant"]).lower(),
        ]
    _emit(lines)
    ok = out["minimax_ok"] and out["saddle_values_ok"] and slice_ok
    return EXIT_OK if ok and out["contains_argmin_x_argmax"] else EXIT_EXACT_FAILURE


def _run_exact_suite(P) -> list:
    audits = []
    report = P.report
    audits += [a for a in report.audits.values() if a.kind == "exact"]
    # Unconditional halves of the conditional audits are validated inside
    # them; surface their kind="conditional" outcomes in the conditional
    # suite and any exact breakage here.
    for name in ("c5", "c5bar", "theorem31", "corollary310"):
        a = report.audits[name]
        if a.is_exact_failure:
            audits.append(a)
    lo, hi = supinf_value(P), infsup_value(P)
    audits.append(
        AuditOutcome(
            "minimax",
            "exact",
            EXACT_PASS if lo <= hi and lo == report.v_gdc else FAIL,
            f"supinf={fmt(lo)} <= infsup={fmt(hi)}, supinf = v(GD_c)",
        )
    )
    slice_ok = all(dual_slice_audit(P, x)["ok"] for x in P.x_grid.points)
    audits.append(
        AuditOutcome(
            "dual_slice_identity",
            "exact",
            EXACT_PASS if slice_ok else FAIL,
            "-L(x, .) equals the slice conjugate at every x",
        )
    )
    p43 = prop43_audit(P)
    audits.append(
        AuditOutcome(
            "total_duality_equivalence",
            "exact",
            EXACT_PASS
            if p43["equivalence_ok"] and p43["certificate_consistent"]
            else FAIL,
            "subgradient certificates match primal/dual attainment",
        )
    )
    tr = transfer_audit(P.f0, P.x_side_grid)
    audits.append(
        AuditOutcome(
            "transfer_forward",
            "exact",
            EXACT_PASS if tr.forward_ok else FAIL,
            f"checked {tr.pairs_checked} pairs",
        )
    )
    probe_points = [P.x_grid.points[0], P.x_grid.points[len(P.x_grid) // 2]]
    return audits, report, tr, probe_points


def _eps_values(P):
    if P.backend == "rational":
        return (Fraction(0), Fraction(1, 2), Fraction(1))
    return (0.0, 0.5, 1.0)


def cmd_audit(args) -> int:
    pf = _resolve(args.problem)
    if isinstance(pf, problemio.EsetFile):
        return _audit_eset(pf, args)
    P = pf.build()
    started = time.monotonic()
    audits, report, tr, probes = _run_exact_suite(P)
    for x in probes:
        for eps in _eps_values(P):
            t43 = theorem43_audit(P, x, eps)
            t44 = theorem44_audit(P, x, eps)
            status = EXACT_PASS if t43["superset_ok"] and t44["superset_ok"] else FAIL
            audits.append(
                AuditOutcome(
                    f"eps_formulae_superset[x={_point(x)},eps={_scalar(eps)}]",
                    "exact",
                    status,
                    "intersection and projection superset directions",
                )
            )
    if args.suite in ("conditional", "all"):
        for name in ("c5", "c5bar", "theorem31", "corollary310"):
            if not report.audits[name].is_exact_failure:
                audits.append(report.audits[name])
        p55 = prop55_audit(P)
        status = (
            EXACT_PASS
            if p55["equals_argmin_x_argmax"]
            else ("surrogate-unmet" if not p55["slice_surrogate"] else FAIL)
        )
        audits.append(
            AuditOutcome(
                "saddle_equivalence",
                "conditional",
                status,
                f"slice surrogate {'holds' if p55['slice_surrogate'] else 'unmet'}",
            )
        )
        audits.append(
            AuditOutcome(
                "transfer_converse",
                "conditional",
                EXACT_PASS
                if tr.converse_ok
                else ("surrogate-unmet" if not tr.econvex_surrogate else FAIL),
                f"{len(tr.counterexamples)} counterexample pairs",
            )
        )
    elapsed = time.monotonic() - started
    lines = [f"# audit report: {P.name}", f"suite = {args.suite}"]
    lines += _audit_lines(audits)
    lines.append("")
    lines += _audit_table(audits)
    exact_fail = any(a.is_exact_failure for a in audits)
    lines.append("")
    lines.append(f"exact_failures = {sum(a.is_exact_failure for a in audits)}")
    if args.timings:
        lines.append(f"elapsed_seconds = {elapsed:.3f}")
    _emit(lines)
    return EXIT_EXACT_FAILURE if exact_fail else EXIT_OK


def _audit_eset(pf: problemio.EsetFile, args) -> int:
    import random

    P = pf.polyhedron
    audits = []
    empty = P.is_empty()
    audits.append(
        AuditOutcome("emptiness_decided", "exact", EXACT_PASS, f"empty = {empty}")
    )
    if not empty:
        rng = random.Random(0)
        # Validate a separation certificate on sampled exterior points.
        checked = 0
        ok = True
        attempts = 0
        while checked < 20 and attempts < 4000:
            attempts += 1
            x = tuple(Fraction(rng.randint(-40, 40), 7) for _ in range(P.dim))
            if P.contains(x):
                continue
            cert = separate(P, x)
            if cert is None:
                continue
            inner = 0
            tested = 0
            while tested < 50 and inner < 4000:
                inner += 1
                p = tuple(Fraction(rng.randint(-40, 40), 7) for _ in range(P.dim))
                if not P.contains(p):
                    continue
                tested += 1
                gap = sum((a - b) * c for a, b, c in zip(p, x, cert))
                if not gap < 0:
                    ok = False
            checked += 1
        audits.append(
            AuditOutcome(
                "separation_certificates",
                "exact",
                EXACT_PASS if ok else FAIL,
                f"validated on {checked} exterior points",
            )
        )
        if P.dim == 2 and in_recession_cone(P, (0, 1)):
            rep, witness = is_functionally_representable(P)
            audits.append(
                AuditOutcome(
                    "functional_representability",
                    "conditional",
                    EXACT_PASS if rep else FAIL,
                    "graph of the lower envelope inside the set"
                    if rep
                    else f"witness x = {witness}",
                )
            )
    lines = [f"# audit report: {pf.name}", f"suite = {args.suite}"]
    lines += _audit_lines(audits)
    lines.append("")
    lines += _audit_table(audits)
    _emit(lines)
    return (
        EXIT_EXACT_FAILURE
        if any(a.is_exact_failure for a in audits)
        else EXIT_OK
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="econvex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list or emit built-in problems")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true")
    p.add_argument("--write", metavar="PATH")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("eset", help="inspect a set definition")
    p.add_argument("problem")
    p.add_argument("--contains", metavar="POINT")
    p.add_argument("--separate", metavar="POINT")
    p.add_argument("--recession", metavar="DIRECTION")
    p.add_argument("--envelope-at", metavar="X")
    p.set_defaults(func=cmd_eset)

    for name, fn in (
        ("conjugate", cmd_conjugate),
        ("biconjugate", cmd_biconjugate),
        ("duality", cmd_duality),
        ("lagrangian", cmd_lagrangian),
    ):
        p = sub.add_parser(name)
        p.add_argument("problem")
        p.add_argument("--output", choices=("csv", "report"), default="report")
        p.set_defaults(func=fn)

    p = sub.add_parser("subdiff", help="eps-subdifferential of phi(., 0)")
    p.add_argument("problem")
    p.add_argument("--at", required=True, metavar="POINT")
    p.add_argument("--eps", default="0")
    p.add_argument("--output", choices=("csv", "report"), default="report")
    p.set_defaults(func=cmd_subdiff)

    p = sub.add_parser("audit", help="run the invariant suites")
    p.add_argument("problem")
    p.add_argument("--suite", choices=("exact", "conditional", "all"), default="all")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except problemio.InputError as exc:
        print(f"econvex: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
