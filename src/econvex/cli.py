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

from econvex import catalog, funcrep, problemio
from econvex.conjugation import DualPoint
from econvex.duality import EXACT_PASS, AuditOutcome
from econvex.duality import c5_audit, converse_duality_report
from econvex.esets import (
    EPolyhedron,
    GeometryError,
    Halfspace,
    dot,
    in_recession_cone,
    is_functionally_representable,
    lower_envelope,
    separate,
)
from econvex.extreal import ExtReal, NaNError, scalar
from econvex.lagrangian import (
    dual_slice_audit,
    example52_audit,
    infsup_value,
    lagrangian_table,
    minimax_ok,
    prop55_audit,
    supinf_value,
)
from econvex.problemio import _text
from econvex.subdifferential import (
    _restriction_subdiff,
    prop43_audit,
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


def _lines(rows):
    """A report's (key, value) rows as ``key = value`` lines."""
    return [f"{key} = {_text(value)}" for key, value in rows]


def _resolve(problem: str):
    if os.path.exists(problem):
        return problemio.load(problem)
    if problem in catalog.PROBLEMS:
        return catalog.load(problem)
    raise problemio.InputError(
        f"{problem!r} is neither a file nor a catalog entry (try 'catalog --list')"
    )


def _build(problem: str):
    pf = _resolve(problem)
    if isinstance(pf, problemio.EsetFile):
        raise problemio.InputError(
            f"{pf.name!r} is a set definition; use the 'eset' command"
        )
    P = pf.build()
    for warning in problemio.boundary_warnings(P):
        print(f"warning: {warning}", file=sys.stderr)
    return P


def _print_csv(header, rows):
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(header)
    out.writerows(rows)


def _dual_header(dim: int, names=("xstar", "ustar")):
    """CSV columns of a dual point: each coordinate of both blocks, then alpha."""
    return [f"{name}{i}" for name in names for i in range(dim)] + ["alpha"]


def _cells(values):
    """CSV cells, one per value."""
    return [_text(v) for v in values]


def _dual_cells(w):
    return _cells((*w.xstar, *w.ustar, w.alpha))


def _key_texts(cell):
    """key -> ``_text(cell(key))``, each distinct (type, key) rendered
    once.  A zero key is rendered each time: 0.0 and -0.0 are one dict
    key, and they render apart."""
    texts = {}

    def text(key):
        if key == 0:
            return _text(cell(key))
        memo = key.__class__, key
        if memo not in texts:
            texts[memo] = _text(cell(key))
        return texts[memo]
    return text


def _audit_body(audits, rows=()):
    """The lines of a report's rows followed by one block of rows per
    audit, then a blank line and the name/kind/status/detail table."""
    rows = list(rows)
    for a in audits:
        rows += [(f"audit.{a.name}.kind", a.kind), (f"audit.{a.name}.status", a.status)]
        if a.detail:
            rows.append((f"audit.{a.name}.detail", a.detail))
        # ROADMAP item 7: a witness prints its Python str, reprs included.
        rows += [(f"audit.{a.name}.witness", str(wtn)) for wtn in a.witnesses[:5]]
    cells = [("name", "kind", "status", "detail")]
    cells += [(a.name, a.kind, a.status, a.detail) for a in audits]
    widths = [max(len(r[i]) for r in cells) for i in range(4)]
    table = ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in cells]
    table.insert(1, "  ".join("-" * w for w in widths))
    return _lines(rows) + [""] + table


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> int:
    if args.list or args.name is None:
        _emit(catalog.names())
        return EXIT_OK
    text = problemio.save_text(catalog.entry(args.name))
    if args.write:
        try:
            with open(args.write, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise problemio.InputError(f"--write: cannot write {args.write}: {exc}") from None
        print(f"wrote {args.write}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _option_number(option: str, text: str, backend: str = "rational"):
    """The number given to ``option``, in ``backend``; an input error names
    the option when it is unreadable."""
    try:
        return scalar(problemio._fraction(text), backend)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise problemio.InputError(f"{option}: {text!r} is not a number") from None


def _option_point(option: str, text: str, dim: int, space: str, backend: str = "rational"):
    """The comma-separated point given to ``option``, in ``backend``; an
    input error names the option when it is unreadable or its dimension
    is not that of ``space``."""
    try:
        p = tuple(scalar(problemio._fraction(c), backend) for c in text.split(","))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise problemio.InputError(f"{option}: {text!r} is not a list of numbers") from None
    if len(p) != dim:
        raise problemio.InputError(
            f"{option}: {text!r} has {len(p)} coordinates; the {space} has {dim}"
        )
    return p


def _why_no_envelope(P: EPolyhedron, empty) -> str:
    """Why the eset report has no lower envelope of P; "" when it has one."""
    if P.dim != 2:
        return f"the set has dimension {P.dim}, not 2"
    if empty:
        return "the set is empty"
    if not in_recession_cone(P, (0, 1)):
        return "(0, 1) is not in the recession cone of the set"
    return ""


def cmd_eset(args) -> int:
    pf = _resolve(args.problem)
    if not isinstance(pf, problemio.EsetFile):
        raise problemio.InputError(f"{args.problem!r} is not a set definition")
    P = pf.polyhedron
    rows = [("dim", P.dim)]
    empty = P.is_empty() if P.dim <= 2 else None
    no_envelope = _why_no_envelope(P, empty)
    if args.envelope_at is not None:
        envelope_at = _option_number("--envelope-at", args.envelope_at)
        if no_envelope:
            raise problemio.InputError(f"--envelope-at: no envelope, since {no_envelope}")
    rows.append(("constraints", len(P.constraints)))
    if empty is not None:
        rows.append(("empty", empty))
    rows.append(("constant_false_constraints", P.has_constant_false))
    if args.contains:
        x = _option_point("--contains", args.contains, P.dim, "set")
        rows.append((f"contains{_text(x)}", P.contains(x)))
    if args.separate:
        x = _option_point("--separate", args.separate, P.dim, "set")
        try:
            cert = separate(P, x)
        except GeometryError as exc:  # a point of the set, or no set to separate from
            raise problemio.InputError(f"--separate: {args.separate!r}: {exc}") from None
        rows.append((f"separate{_text(x)}", "inconclusive" if cert is None else cert))
    if args.recession:
        y = _option_point("--recession", args.recession, P.dim, "set")
        rows.append((f"in_recession_cone{_text(y)}", in_recession_cone(P, y)))
    if not no_envelope:
        ok, witness = is_functionally_representable(P)
        rows.append(("functionally_representable", ok))
        env = lower_envelope(P)
        if not ok:
            rows.append((
                "representability_witness",
                f"x={_text(witness)}, h(x)={_text(env.value(witness))}",
            ))
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
        rows.append(("epigraph_equals_set_on_sampled_fibers", epi_eq))
        if args.envelope_at is not None:
            rows.append((f"envelope({args.envelope_at})", env.value(envelope_at)))
    _emit([f"# eset report: {pf.name}"] + _lines(rows))
    return EXIT_OK


def cmd_conjugate(args) -> int:
    P = _build(args.problem)
    if args.output == "csv":
        _print_csv(
            _dual_header(P.x_grid.dim) + ["value"],
            [_dual_cells(w) + [_text(v)] for w, v in P.f0_conj.items()],
        )
    else:
        _emit([f"# conjugate of phi(., 0): {P.name}"])
        _emit(f"{_text(w)} -> {_text(v)}" for w, v in P.f0_conj.items())
    return EXIT_OK


def cmd_biconjugate(args) -> int:
    P = _build(args.problem)
    hull = P.f0_biconj
    if args.output == "csv":
        header = [f"x{i}" for i in range(P.x_grid.dim)] + ["value"]
        _print_csv(header, [_cells((*p, v)) for p, v in hull.items()])
        return EXIT_OK
    lines = [f"# biconjugate of phi(., 0): {P.name}"]
    worst = None
    for p, v in hull.items():
        f = P.f0.value_at(p)
        lines.append(f"x={_text(p)}  f={_text(f)}  hull={_text(v)}")
        if f.is_finite and v.is_finite:
            d = f.value - v.value
            worst = d if worst is None or d > worst else worst
    _emit(lines + _lines([("max finite gap", worst)]))
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
        fields = ("backend", "v_gp", "v_gdc", "v_gpbar", "v_gdbar", "gap", "weak_ok",
                  "zero_gap", "strong", "converse", "total", "primal_truncated")
        rows = [(key, getattr(report, key)) for key in fields]
        rows += [
            (key, "; ".join(map(_text, getattr(report, key))) or None)
            for key in ("primal_argmin", "dual_argmax")
        ]
        _emit([f"# duality report: {report.name}"] + _audit_body(audits, rows))
    return EXIT_EXACT_FAILURE if report.has_exact_failure else EXIT_OK


def _subdiff_inputs(P, args):
    """(--at, --eps) in P's backend; an unreadable value, a point of the
    wrong dimension or off the x-grid, or a negative eps is an input error."""
    at = _option_point("--at", args.at, P.x_grid.dim, "x-grid", P.backend)
    if at not in P.x_grid:
        raise problemio.InputError(f"--at: {args.at!r} is not a point of the x-grid")
    eps = _option_number("--eps", args.eps, P.backend)
    if eps < 0:
        raise problemio.InputError(f"--eps: {args.eps!r} is negative")
    return at, eps


def cmd_subdiff(args) -> int:
    P = _build(args.problem)
    at, eps = _subdiff_inputs(P, args)
    if args.output == "csv":
        members = _restriction_subdiff(P, at, eps)
        _print_csv(_dual_header(P.x_grid.dim), [_dual_cells(w) for w in members])
        return EXIT_OK
    audit = theorem44_audit(P, at, eps)
    members = audit["lhs"]
    rows = [("at", at), ("eps", eps), ("members", len(members))]
    rows += [("member", w) for w in members]
    rows += [
        ("projection_formula.superset_ok", audit["superset_ok"]),
        ("projection_formula.equal", audit["equal"]),
        ("c5_surrogate", c5_audit(P).status == EXACT_PASS),
    ]
    _emit([f"# subdifferential report: {P.name}"] + _lines(rows))
    return EXIT_OK if audit["superset_ok"] else EXIT_EXACT_FAILURE


def cmd_lagrangian(args) -> int:
    P = _build(args.problem)
    if args.output == "csv":
        header = (
            [f"x{i}" for i in range(P.x_grid.dim)]
            + _dual_header(P.y_grid.dim, ("ystar", "vstar"))
            + ["value"]
        )
        # Each point's cells, and each distinct key's, are rendered once.
        x_cells = [_cells(x) for x in P.x_grid.points]
        w_cells = [_dual_cells(w) for w in P.dual_y_grid.points]
        L = lagrangian_table(P)
        text = _key_texts(L.cell)
        rows = [
            xs + ws + [text(key)]
            for xs, keys in zip(x_cells, funcrep.rows(L.keys, len(x_cells)))
            for ws, key in zip(w_cells, keys)
        ]
        _print_csv(header, rows)
        return EXIT_OK
    out = prop55_audit(P)
    rows = [
        ("supinf", out["supinf"]),
        ("infsup", out["infsup"]),
        ("supinf_equals_dual_value", out["minimax_ok"]),
        ("slice_surrogate", out["slice_surrogate"]),
        ("saddle_count", len(out["saddles"])),
    ]
    rows += [
        ("saddle", f"x={_text(s.xbar)} w={_text(s.wbar)} value={_text(s.value)}")
        for s in out["saddles"]
    ]
    slice_ok = dual_slice_audit(P)["ok"]
    rows += [
        ("saddles_contain_attainers", out["contains_argmin_x_argmax"]),
        ("saddles_equal_attainers", out["equals_argmin_x_argmax"]),
        ("dual_slice_identity", slice_ok),
    ]
    distinguished = DualPoint.of((1,), (1,), 1, P.backend)
    if P.y_grid.dim == 1 and distinguished in P.dual_y_grid:
        ex = example52_audit(P)
        oracle = ex["oracle_at_zero"]
        rows += [
            ("slice_at_111.grid_adequate", ex["grid_adequate"]),
            ("slice_at_111.neg_inf_branch", ex["neg_inf_branch_ok"]),
            ("slice_at_111.finite_branch", ex["finite_branch_ok"]),
            # ROADMAP item 7: the witness prints its Python str, Fraction reprs included.
            ("slice_at_111.nonconvexity_witness", str(ex["nonconvexity_witness"])),
            ("slice_at_111.oracle_at_zero", "n/a" if oracle is None else oracle),
            ("slice_at_111.stated_constant", ex["stated_constant"]),
            ("slice_at_111.matches_stated_constant", ex["matches_stated_constant"]),
        ]
    _emit([f"# lagrangian report: {P.name}"] + _lines(rows))
    ok = out["minimax_ok"] and out["saddle_values_ok"] and slice_ok
    return EXIT_OK if ok and out["contains_argmin_x_argmax"] else EXIT_EXACT_FAILURE


def _eps_values(P):
    return tuple(scalar(e, P.backend) for e in (0, Fraction(1, 2), 1))


def cmd_audit(args) -> int:
    pf = _resolve(args.problem)
    if isinstance(pf, problemio.EsetFile):
        return _audit_eset(pf, args)
    P = pf.build()
    started = time.monotonic()
    # The report's exact outcomes include any exact breakage inside the
    # conditional audits (c5, c5bar, theorem31, corollary310); their
    # conditional outcomes belong to the conditional suite.
    report = P.report
    audits = [a for a in report.audits.values() if a.kind == "exact"]
    lo, hi = supinf_value(P), infsup_value(P)
    p43 = prop43_audit(P)
    tr = transfer_audit(P.f0, P.f0_conj, P.f0_biconj)
    audits += [
        AuditOutcome.exact(
            "minimax", minimax_ok(P),
            f"supinf={_text(lo)} <= infsup={_text(hi)}, supinf = v(GD_c)",
        ),
        AuditOutcome.exact(
            "dual_slice_identity", dual_slice_audit(P)["ok"],
            "-L(x, .) equals the slice conjugate at every x",
        ),
        AuditOutcome.exact(
            "total_duality_equivalence",
            p43["equivalence_ok"] and p43["certificate_consistent"],
            "subgradient certificates match primal/dual attainment",
        ),
        AuditOutcome.exact(
            "transfer_forward", tr.forward_ok, f"checked {tr.pairs_checked} pairs"
        ),
    ]
    for x in dict.fromkeys((P.x_grid.points[0], P.x_grid.points[len(P.x_grid) // 2])):
        for eps in _eps_values(P):
            audits.append(
                AuditOutcome.exact(
                    f"eps_formulae_superset[x={_text(x)},eps={_text(eps)}]",
                    theorem44_audit(P, x, eps)["superset_ok"],
                    "intersection and projection superset directions",
                )
            )
    if args.suite in ("conditional", "all"):
        for name in ("c5", "c5bar", "theorem31", "corollary310"):
            if not report.audits[name].is_exact_failure:
                audits.append(report.audits[name])
        p55 = prop55_audit(P)
        audits.append(
            AuditOutcome.conditional(
                "saddle_equivalence", p55["equals_argmin_x_argmax"], p55["slice_surrogate"],
                f"slice surrogate {'holds' if p55['slice_surrogate'] else 'unmet'}",
            )
        )
        audits.append(
            AuditOutcome.conditional(
                "transfer_converse", tr.converse_ok, tr.econvex_surrogate,
                f"{len(tr.counterexamples)} counterexample pairs",
            )
        )
    elapsed = time.monotonic() - started
    failures = sum(a.is_exact_failure for a in audits)
    rows = [("exact_failures", failures)]
    if args.timings:
        rows.append(("elapsed_seconds", f"{elapsed:.3f}"))
    head = _audit_body(audits, [("suite", args.suite)])
    _emit([f"# audit report: {P.name}"] + head + [""] + _lines(rows))
    return EXIT_EXACT_FAILURE if failures else EXIT_OK


def _separates(P, x, cert) -> bool:
    """Whether cert strictly separates the exterior point x from the set P,
    decided exactly: no point p of P has <p - x, cert> >= 0."""
    if cert is None:
        return False
    beyond = Halfspace(tuple(-c for c in cert), -dot(x, cert), False)
    return EPolyhedron(P.dim, P.constraints + (beyond,)).is_empty()


def _audit_eset(pf: problemio.EsetFile, args) -> int:
    import random

    P = pf.polyhedron
    if P.dim > 2:
        raise problemio.InputError(
            f"set.dim: the audit decides sets of dimension at most 2, got {P.dim}"
        )
    audits = []
    empty = P.is_empty()
    # ROADMAP item 7: the detail prints Python's True/False.
    audits.append(AuditOutcome.exact("emptiness_decided", True, "empty = " + str(empty)))
    if not empty:
        rng = random.Random(0)
        # Decide the separation certificate of sampled exterior points.
        checked = 0
        ok = True
        attempts = 0
        while checked < 20 and attempts < 4000:
            attempts += 1
            x = tuple(Fraction(rng.randint(-40, 40), 7) for _ in range(P.dim))
            if P.contains(x):
                continue
            ok &= _separates(P, x, separate(P, x))
            checked += 1
        audits.append(
            AuditOutcome.exact(
                "separation_certificates", ok, f"validated on {checked} exterior points"
            )
        )
        if args.suite != "exact" and not _why_no_envelope(P, empty):
            rep, witness = is_functionally_representable(P)
            audits.append(
                AuditOutcome.conditional(
                    "functional_representability", rep, True,
                    "graph of the lower envelope inside the set"
                    if rep
                    else f"witness x = {_text(witness)}",
                )
            )
    _emit([f"# audit report: {pf.name}"] + _audit_body(audits, [("suite", args.suite)]))
    return EXIT_EXACT_FAILURE if any(a.is_exact_failure for a in audits) else EXIT_OK


_PROBLEM = ("problem", {})
_OUTPUT = ("--output", {"choices": ("csv", "report"), "default": "report"})
_FLAG = {"action": "store_true"}

# (name, help, handler, arguments as (name, add_argument keywords)), in the
# order of the top-level help, which lists only the commands given a help.
_COMMANDS = (
    ("catalog", "list or emit built-in problems", cmd_catalog,
     [("name", {"nargs": "?"}), ("--list", _FLAG), ("--write", {"metavar": "PATH"})]),
    ("eset", "inspect a set definition", cmd_eset, [
        _PROBLEM, ("--contains", {"metavar": "POINT"}), ("--separate", {"metavar": "POINT"}),
        ("--recession", {"metavar": "DIRECTION"}), ("--envelope-at", {"metavar": "X"})]),
    *((name, None, handler, [_PROBLEM, _OUTPUT]) for name, handler in (
        ("conjugate", cmd_conjugate), ("biconjugate", cmd_biconjugate),
        ("duality", cmd_duality), ("lagrangian", cmd_lagrangian))),
    ("subdiff", "eps-subdifferential of phi(., 0)", cmd_subdiff, [
        _PROBLEM, ("--at", {"required": True, "metavar": "POINT"}),
        ("--eps", {"default": "0"}), _OUTPUT]),
    ("audit", "run the invariant suites", cmd_audit, [
        _PROBLEM, ("--suite", {"choices": ("exact", "conditional", "all"), "default": "all"}),
        ("--timings", _FLAG)]),
)


def _build_parser(argv) -> _Parser:
    """The top-level parser with the subparser that argv[0] names, or with
    all of them for help, no command or an unknown one: only the full
    parser's text lists every command."""
    parser = _Parser(prog="econvex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    named = [c for c in _COMMANDS if argv[:1] == [c[0]]] or _COMMANDS
    for name, text, handler, arguments in named:
        p = sub.add_parser(name, **({} if text is None else {"help": text}))
        for argument, keywords in arguments:
            p.add_argument(argument, **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (problemio.InputError, NaNError) as exc:
        print(f"econvex: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
