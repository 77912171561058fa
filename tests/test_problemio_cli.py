import argparse
import copy
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from econvex import catalog, cli, conjugation, funcrep, problemio, subdifferential
from econvex.cli import main
from econvex.conjugation import DualGrid, DualPoint
from econvex.duality import PerturbationProblem, converse_duality_report
from econvex.extreal import NEG_INF, POS_INF, ExtReal, fmt, scalar
from econvex.funcrep import Grid, PerturbFn

import oracles

from helpers import (
    CATALOG_PROBLEMS,
    WIDE_FRACTIONS,
    catalog_problem,
    certified,
    coincidence_rows,
    fenchel_abs_duality_grid,
    random_problem,
    scaling_log,
    with_plain_scalar,
)


COMMANDS = ("catalog", "eset", "conjugate", "biconjugate", "duality", "subdiff",
            "lagrangian", "audit")


def entry(name):
    return copy.deepcopy(catalog.entry(name))


class TestSchema:
    def test_catalog_entries_load_and_build(self):
        for name in catalog.names():
            pf = catalog.load(name)
            if isinstance(pf, problemio.EsetFile):
                assert pf.polyhedron.dim >= 1
            else:
                P = pf.build()
                assert P.y_grid.has_origin

    def test_unknown_top_level_key_rejected(self):
        doc = entry("fenchel_abs")
        doc["surprise"] = 1
        with pytest.raises(problemio.InputError, match="surprise"):
            problemio.loads(json.dumps(doc))

    def test_unknown_grid_key_rejected(self):
        doc = entry("fenchel_abs")
        doc["grids"]["znork"] = []
        with pytest.raises(problemio.InputError, match="znork"):
            problemio.loads(json.dumps(doc))

    def test_missing_origin_rejected(self):
        doc = entry("fenchel_abs")
        doc["grids"]["y"] = {"lo": "1", "hi": "5", "count": 5}
        with pytest.raises(problemio.InputError, match="origin"):
            problemio.loads(json.dumps(doc))

    def test_nonpositive_alpha_rejected(self):
        doc = entry("fenchel_abs")
        doc["grids"]["alpha"] = ["0"]
        with pytest.raises(problemio.InputError, match="alpha"):
            problemio.loads(json.dumps(doc))

    def test_float_literal_rejected_in_rational_backend(self):
        doc = entry("fenchel_abs")
        doc["grids"]["alpha"] = [0.5]
        with pytest.raises(problemio.InputError, match="rational"):
            problemio.loads(json.dumps(doc))

    def test_bad_rational_named(self):
        doc = entry("fenchel_abs")
        doc["grids"]["ystar"] = ["1/0"]
        with pytest.raises(problemio.InputError, match="ystar"):
            problemio.loads(json.dumps(doc))

    def test_dimension_mismatch_in_phi_rows(self):
        doc = entry("fenchel_abs")
        doc["phi"]["terms"][1]["rows"] = []
        with pytest.raises(problemio.InputError, match="rows"):
            problemio.loads(json.dumps(doc))

    def test_unknown_op_rejected(self):
        doc = entry("fenchel_abs")
        doc["phi"] = {"op": "sqrt", "arg": {}}
        with pytest.raises(problemio.InputError, match="sqrt"):
            problemio.loads(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(problemio.InputError, match="JSON"):
            problemio.loads("{nope")

    def test_float_backend_accepts_numbers(self):
        doc = entry("fenchel_abs")
        doc["backend"] = "float"
        pf = problemio.loads(json.dumps(doc))
        assert pf.build().backend == "float"

    def test_eset_schema(self):
        pf = catalog.load("open_epigraph_eset")
        assert isinstance(pf, problemio.EsetFile)
        assert pf.polyhedron.constraints[0].strict


class TestRoundTrip:
    def test_serialized_reload_reproduces_grids_and_audits(self, tmp_path):
        doc = catalog.entry("fenchel_abs")
        text = problemio.save_text(doc)
        path = tmp_path / "fenchel_abs.json"
        path.write_text(text, encoding="utf-8")
        a = catalog.load("fenchel_abs").build()
        b = problemio.load(str(path)).build()
        assert a.x_grid.points == b.x_grid.points
        assert a.y_grid.points == b.y_grid.points
        assert a.dual_y_grid.points == b.dual_y_grid.points
        assert a.full_dual_grid.points == b.full_dual_grid.points
        ra, rb = converse_duality_report(a), converse_duality_report(b)
        assert ra.v_gp == rb.v_gp and ra.v_gdc == rb.v_gdc
        assert {k: v.status for k, v in ra.audits.items()} == {
            k: v.status for k, v in rb.audits.items()
        }


# The expressions the CLI wrote each kind of value with before
# ``problemio._text`` took them over; ``_text`` must give the same strings.
def expected_scalar(v):
    return fmt(ExtReal(v))


def expected_point(p):
    return "(" + ", ".join(expected_scalar(c) for c in p) + ")"


def expected_dual(w):
    return (
        "(x*=" + expected_point(w.xstar) + ", u*=" + expected_point(w.ustar)
        + ", alpha=" + expected_scalar(w.alpha) + ")"
    )


# Floats of every kind: -0.0, the ends of the range, subnormals, infinities.
FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [-0.0, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308 / 3]
)
# A numerator past Python's limit on int-to-str digits takes fmt's Decimal
# route.  Built by a map, since its repr raises.
RATIONALS = WIDE_FRACTIONS | st.just(4400).map(lambda k: Fraction(10**k + 1, 3))
POINTS = st.lists(RATIONALS, max_size=3).map(tuple) | st.lists(FLOATS, max_size=3).map(tuple)


def dual_points(numbers):
    """DualPoints of one backend: x* and u* of one dimension, then alpha."""
    def of_dim(n):
        block = st.lists(numbers, min_size=n, max_size=n).map(tuple)
        return st.builds(DualPoint, block, block, numbers)
    return st.integers(0, 2).flatmap(of_dim)


DUAL_POINTS = dual_points(RATIONALS) | dual_points(FLOATS)
EXT_REALS = st.builds(ExtReal, RATIONALS | FLOATS) | st.sampled_from([POS_INF, NEG_INF])

# (value, its expected text), one branch per kind of report value.
TEXT_CASES = st.one_of(
    st.booleans().map(lambda b: (b, str(b).lower())),
    st.none().map(lambda v: (v, str(v).lower())),
    st.text().map(lambda t: (t, t)),
    EXT_REALS.map(lambda x: (x, fmt(x))),
    (RATIONALS | st.integers() | FLOATS).map(lambda v: (v, expected_scalar(v))),
    POINTS.map(lambda p: (p, expected_point(p))),
    DUAL_POINTS.map(lambda w: (w, expected_dual(w))),
)
NOT_NUMBERS = st.one_of(EXT_REALS, st.booleans(), st.none(), st.text(), POINTS)


class TestText:
    @given(TEXT_CASES)
    @settings(max_examples=400, deadline=None)
    def test_text_matches_the_expression_of_each_kind(self, case):
        value, expected = case
        assert problemio._text(value) == expected

    @given(st.lists(RATIONALS | FLOATS, max_size=3), NOT_NUMBERS, st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_a_tuple_holding_anything_but_numbers_raises(self, numbers, other, at):
        with pytest.raises(TypeError):
            problemio._text(tuple(numbers[:at] + [other] + numbers[at:]))


class TestCli:
    def test_catalog_list(self, capsys):
        assert main(["catalog", "--list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "fenchel_abs" in out and "open_epigraph_eset" in out

    def test_catalog_write_and_run_file(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        assert main(["catalog", "fenchel_abs", "--write", str(path)]) == 0
        capsys.readouterr()
        assert main(["duality", str(path)]) == 0
        out = capsys.readouterr().out
        assert "gap = 0" in out

    def test_duality_report_contains_flags(self, capsys):
        assert main(["duality", "fenchel_abs"]) == 0
        out = capsys.readouterr().out
        assert "total = true" in out
        assert "audit.c5.status = exact-pass" in out

    def test_truncated_dual_reports_gap_and_exit_zero(self, capsys):
        # A conditional failure is a finding, not a bug: exit stays 0.
        assert main(["duality", "truncated_dual"]) == 0
        out = capsys.readouterr().out
        assert "gap = 5" in out
        assert "audit.c5.status = fail" in out

    def test_audit_exact_suite_on_catalog(self, capsys):
        for name in catalog.names():
            assert main(["audit", name, "--suite", "exact"]) == 0, name
            capsys.readouterr()

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_a_one_point_x_grid_audits_each_eps_formula_once(self, backend, capsys, tmp_path):
        # |X| = 1: the first x and the middle one are the same point.
        doc = entry("fenchel_abs")
        doc.update(backend=backend, grids=dict(doc["grids"], x={"points": [["0"]]}))
        path = tmp_path / "one_point.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["audit", str(path)]) == 0
        names = [line.split(".status = ")[0] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("audit.eps_formulae_superset[") and ".status = " in line]
        assert len(names) == len(set(names)) == 3  # one per eps

    def test_subdiff_csv(self, capsys):
        assert main(["subdiff", "fenchel_abs", "--at", "0", "--output", "csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "xstar0,ustar0,alpha"
        assert "0,0,1" in rows[1:]

    def test_subdiff_report_mentions_formulae(self, capsys):
        assert main(["subdiff", "fenchel_abs", "--at", "0", "--eps", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "intersection_formula" not in out  # the projection formula's lines say it
        assert "projection_formula.superset_ok = true" in out

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_values_finer_than_a_thousandth_pass_the_eps_formulae(self, backend, capsys,
                                                                  tmp_path):
        # phi(x, 0) = -x/2000 on x in {0, 1}: the slope-0 point is in the
        # projection at every eps >= 1/2000 but not at eps = 0.
        doc = json.loads((Path(__file__).parent / "data" / "fine_resolution.json").read_text())
        path = tmp_path / "fine_resolution.json"
        path.write_text(json.dumps(dict(doc, backend=backend)))
        assert main(["audit", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "exact_failures = 0"
        assert main(["subdiff", str(path), "--at", "0"]) == 0
        out = capsys.readouterr().out
        assert "intersection_formula" not in out  # the projection formula's lines say it
        assert "projection_formula.superset_ok = true" in out

    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    def test_the_eps_formulae_sweep_once_per_table(self, name, capsys, monkeypatch):
        """Counts only: the eps-formula audits read one restriction and one
        projection per (x, eps), so audit's two points and three eps make
        12 membership sweeps and subdiff's one (x, eps) makes 2."""
        calls, real = [], subdifferential._members
        monkeypatch.setattr(subdifferential, "_members", lambda *a: calls.append(a) or real(*a))
        main(["audit", name, "--suite", "all"])
        assert len(calls) == 12
        calls.clear()
        main(["subdiff", name, "--at", "0", "--eps", "1/2"])
        assert len(calls) == 2

    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    def test_the_csv_reads_the_form_without_the_projection_table(self, name, capsys, monkeypatch):
        """Counts only: subdiff's CSV, the restriction alone, reads the same
        x-side form as the report, scaled once, and never builds psi."""
        counts = Counter()

        def refuse(problem):
            raise AssertionError("the CSV built psi")

        monkeypatch.setattr(PerturbationProblem, "psi", property(refuse))
        monkeypatch.setattr(subdifferential, "_check_ints",
                            lambda *a, real=subdifferential._check_ints: counts.update(["s"]) or real(*a))
        assert main(["subdiff", name, "--at", "0", "--eps", "1/2", "--output", "csv"]) == 0
        assert counts["s"] == 1

    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_the_eps_formulae_scale_once_per_problem(self, name, backend, capsys, monkeypatch,
                                                     tmp_path):
        """Counts only: inside audit's eps-formula audits (two points times
        three eps, 12 membership sweeps) the checks scale once in all, and
        each coupling row c(x, .) over x_side_grid is taken once per x, for
        the restriction and the projection both, in either backend."""
        from econvex import cli as cli_mod
        counts, active = Counter(), []

        def within(real):
            def run(*args):
                active.append(True)
                try:
                    return real(*args)
                finally:
                    active.pop()
            return run

        def counted(key, real):
            return lambda *args: counts.update({key: bool(active)}) or real(*args)

        monkeypatch.setattr(cli_mod, "theorem44_audit", within(cli_mod.theorem44_audit))
        monkeypatch.setattr(subdifferential, "_check_ints",
                            counted("scalings", subdifferential._check_ints))
        monkeypatch.setattr(conjugation, "_coupling", counted("couplings", conjugation._coupling))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(entry(name), backend=backend)))
        assert main(["audit", str(path), "--suite", "all"]) == 0
        P = catalog_problem(name)
        xs = P.x_grid.points
        assert counts["scalings"] == 1
        assert counts["couplings"] == len({xs[0], xs[len(xs) // 2]}) * len(P.x_side_grid)

    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_the_subdiff_report_lists_the_csv_members(self, name, backend, capsys, tmp_path):
        # The report reads its members off the eps-formula audit and the
        # CSV off the restriction alone: the two agree row for row.
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(entry(name), backend=backend)))
        x_grid = problemio.load(str(path)).build().x_grid
        d, middle = x_grid.dim, x_grid.points[len(x_grid) // 2]
        for at in ("0", ",".join(map(problemio._text, middle))):
            for eps in ("0", "1/2"):
                args = ["subdiff", str(path), "--at", at, "--eps", eps]
                assert main(args) == 0
                report = capsys.readouterr().out.splitlines()
                assert main(args + ["--output", "csv"]) == 0
                csv = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
                assert [line for line in report if line.startswith("member = ")] == [
                    f"member = (x*=({', '.join(r[:d])}), u*=({', '.join(r[d:2 * d])}),"
                    f" alpha={r[-1]})" for r in csv
                ]

    def test_lagrangian_csv_shape(self, capsys):
        assert main(["lagrangian", "fenchel_abs", "--output", "csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "x0,ystar0,vstar0,alpha,value"
        P = catalog.load("fenchel_abs").build()
        assert len(rows) == 1 + len(P.x_grid) * len(P.dual_y_grid)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_the_csv_renders_each_key_once_and_each_signed_zero_apart(self, zero):
        """A lagrangian CSV renders each distinct (type, key) once; 0.0 and
        -0.0, one dict key, each render as ``_text`` renders them, in
        either order, every time."""
        cell, calls = funcrep._cell_rule(1, "float"), []
        text = cli._key_texts(lambda key: calls.append(key) or cell(key))
        keys = [zero, -zero, 1.5, -zero, 1.5, zero, math.inf, 2, 2.0, Fraction(2)]
        assert [text(key) for key in keys] == [problemio._text(cell(key)) for key in keys]
        assert [repr(key) for key in calls] == [repr(key) for key in keys[:4] + keys[5:]]

    def test_eset_command(self, capsys):
        assert (
            main(
                [
                    "eset",
                    "open_epigraph_eset",
                    "--contains",
                    "0,1",
                    "--separate",
                    "0,-1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "functionally_representable = false" in out
        assert "contains(0, 1) = true" in out

    def test_conjugate_csv_header(self, capsys):
        assert main(["conjugate", "fenchel_abs", "--output", "csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "xstar0,ustar0,alpha,value"

    def test_missing_problem_is_input_error(self, capsys):
        assert main(["duality", "no_such_problem"]) == 3

    def test_eset_through_duality_command_is_input_error(self, capsys):
        assert main(["duality", "open_epigraph_eset"]) == 3

    def test_malformed_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "problem"}', encoding="utf-8")
        assert main(["duality", str(path)]) == 3

    @pytest.mark.parametrize("nested, field", [(False, "phi.terms"), (True, "phi.terms[0].terms")])
    def test_a_fold_with_no_terms_exits_3(self, nested, field, capsys, tmp_path):
        doc = entry("fenchel_abs")
        doc["phi"] = {"op": "sum", "terms": [{"op": "max", "terms": []}]} if nested else {"op": "min", "terms": []}
        path = tmp_path / "empty_fold.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["duality", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"{field}: must not be empty" in err, err

    def test_a_file_that_is_not_utf8_exits_3(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(entry("fenchel_abs")).encode("utf-16-le"))
        assert main(["duality", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"econvex: input error: cannot read {path}: "), err

    @pytest.mark.parametrize("target", ["missing/p.json", "."], ids=["missing-directory", "directory"])
    def test_catalog_write_to_an_unwritable_path_exits_3(self, target, capsys, tmp_path):
        path = tmp_path / target
        assert main(["catalog", "fenchel_abs", "--write", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"econvex: input error: --write: cannot write {path}: "), err

    @pytest.mark.parametrize("argv, built", [
        *(([command, "-h"], [command]) for command in COMMANDS),
        *((argv, COMMANDS) for argv in (["--help"], [], ["bogus"])),
    ])
    def test_a_command_builds_only_its_subparser(self, argv, built, capsys, monkeypatch):
        """Counts only: a named command adds its one subparser; help, no
        command and an unknown one add all eight, whose names the text
        lists."""
        added, real = [], argparse._SubParsersAction.add_parser
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                            lambda self, name, **kw: added.append(name) or real(self, name, **kw))
        with pytest.raises(SystemExit):
            main(argv)
        assert sorted(added) == sorted(built)

    def test_unknown_flag_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["duality", "fenchel_abs", "--frobnicate"])
        assert exc.value.code == 3

    def test_exact_failure_exits_2(self, capsys, monkeypatch):
        from econvex import cli as cli_mod
        from econvex.duality import AuditOutcome

        real = cli_mod.converse_duality_report

        def broken(P):
            report = real(P)
            report.audits["weak_duality"] = AuditOutcome(
                "weak_duality", "exact", "fail", "forced for the exit-code test"
            )
            return report

        monkeypatch.setattr(cli_mod, "converse_duality_report", broken)
        assert main(["duality", "fenchel_abs"]) == 2

    @staticmethod
    def corrupt_a_key(monkeypatch, corrupted):
        """Every CLagrangian built gets corrupted(keys, L) as its keys, the
        exact form its reductions and the slice check read."""
        from econvex import lagrangian

        real = lagrangian.CLagrangian.__init__

        def init(L, P):
            real(L, P)
            L.keys = tuple(corrupted(list(L.keys), L))

        monkeypatch.setattr(lagrangian.CLagrangian, "__init__", init)

    @pytest.mark.parametrize("command", ["lagrangian", "audit"])
    @pytest.mark.parametrize("value", [-100, 100])
    def test_a_corrupted_lagrangian_cell_exits_2(self, command, value, capsys, monkeypatch):
        def corrupted(keys, L):
            keys[len(keys) // 2] = value * L.scale  # the key of the rational cell `value`
            return keys

        self.corrupt_a_key(monkeypatch, corrupted)
        assert main([command, "fenchel_abs"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lagrangian", "audit"])
    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_the_smallest_corruption_of_a_cell_exits_2(self, command, backend, tmp_path,
                                                        capsys, monkeypatch):
        """One unit at the table's scale on a rational key, one ulp on a
        float key, of the middle finite cell."""
        def corrupted(keys, L):
            finite = [k for k, key in enumerate(keys) if abs(key) != math.inf]
            k = finite[len(finite) // 2]
            keys[k] = keys[k] + 1 if backend == "rational" else math.nextafter(keys[k], math.inf)
            return keys

        path = tmp_path / "fenchel_abs.json"
        path.write_text(json.dumps(dict(catalog.entry("fenchel_abs"), backend=backend)))
        self.corrupt_a_key(monkeypatch, corrupted)
        assert main([command, str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_exact_failure_inside_a_conditional_audit_counted_once(self, capsys, monkeypatch):
        from econvex import duality
        from econvex.duality import AuditOutcome

        def broken(P):
            return AuditOutcome("c5", "exact", "fail", "forced for the count test")

        monkeypatch.setattr(duality, "c5_audit", broken)
        assert main(["audit", "fenchel_abs", "--suite", "exact"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out.count("audit.c5.status = fail") == 1
        assert out[-1] == "exact_failures = 1"

    def test_eps_values_per_backend(self):
        from types import SimpleNamespace

        from econvex.cli import _eps_values

        rational = _eps_values(SimpleNamespace(backend="rational"))
        assert rational == (Fraction(0), Fraction(1, 2), Fraction(1))
        assert all(type(e) is Fraction for e in rational)
        floats = _eps_values(SimpleNamespace(backend="float"))
        assert floats == (0.0, 0.5, 1.0)
        assert all(type(e) is float for e in floats)

    def test_reports_byte_identical_across_runs(self, capsys):
        assert main(["audit", "fenchel_abs", "--suite", "all"]) == 0
        first = capsys.readouterr().out
        assert main(["audit", "fenchel_abs", "--suite", "all"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "elapsed_seconds" not in first

    def test_timings_flag_adds_timing_line(self, capsys):
        assert main(["audit", "fenchel_abs", "--suite", "exact", "--timings"]) == 0
        assert "elapsed_seconds" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["fenchel_abs", "truncated_dual", "example52"])
    def test_audit_builds_the_duality_report_once(self, name, capsys, monkeypatch):
        from econvex import duality

        real = duality.converse_duality_report
        calls = []

        def counted(P):
            calls.append(P.name)
            return real(P)

        monkeypatch.setattr(duality, "converse_duality_report", counted)
        assert main(["audit", name, "--suite", "all"]) == 0
        assert calls == [name]

    @pytest.mark.parametrize("name", ["fenchel_abs", "example52", "truncated_dual"])
    def test_lagrangian_reads_the_product_table_once(self, name, capsys, monkeypatch):
        # Counts only, no clock: the table is read off the kernel (no
        # coupling evaluation) and phi is sampled once per product cell,
        # plus once per x for phi(., 0) in the report.  Every sample of
        # phi, the exact table of phi_on_product too, reads its keys.
        from econvex import funcrep, lagrangian

        calls = Counter()
        real_coupling, real_sample = lagrangian.coupling_c, funcrep.PerturbFn.sample_keys

        def coupling(*args):
            calls["c"] += 1
            return real_coupling(*args)

        def sample(phi, points, *args):
            calls["phi"] += len(points)
            return real_sample(phi, points, *args)

        P = catalog.load(name).build()
        cells, xs = len(P.x_grid) * len(P.y_grid), len(P.x_grid)
        monkeypatch.setattr(lagrangian, "coupling_c", coupling)
        monkeypatch.setattr(funcrep.PerturbFn, "sample_keys", sample)
        assert main(["lagrangian", name]) == 0
        assert (calls["c"], calls["phi"]) == (0, cells + xs)
        calls.clear()
        assert main(["lagrangian", name, "--output", "csv"]) == 0
        assert (calls["c"], calls["phi"]) == (0, cells)

    def test_a_wrong_separation_certificate_exits_2(self, capsys, monkeypatch):
        # The normal of x1 - x2 < 0 tilted by (0, 1/100) fails only far out
        # along the set's recession direction (1, 1).
        from econvex import cli as cli_mod

        real = cli_mod.separate

        def tilted(P, x):
            a1, a2 = real(P, x)
            return a1, a2 + Fraction(1, 100)

        monkeypatch.setattr(cli_mod, "separate", tilted)
        assert main(["audit", "open_epigraph_eset", "--suite", "all"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert "audit.separation_certificates.status = fail" in out

    def test_separation_is_decided_exactly(self):
        from econvex.cli import _separates

        P = catalog.load("open_epigraph_eset").polyhedron  # x1 - x2 < 0
        on_boundary = (Fraction(1), Fraction(1))
        assert _separates(P, on_boundary, (Fraction(1), Fraction(-1)))
        assert not _separates(P, on_boundary, (Fraction(1), Fraction(-99, 100)))
        assert not _separates(P, on_boundary, (Fraction(0), Fraction(0)))
        assert not _separates(P, on_boundary, None)

    def test_exact_suite_on_a_set_runs_only_exact_audits(self, capsys):
        assert main(["audit", "open_epigraph_eset", "--suite", "exact"]) == 0
        out = capsys.readouterr().out
        assert "functional_representability" not in out
        assert main(["audit", "open_epigraph_eset", "--suite", "conditional"]) == 0
        assert "audit.functional_representability.kind = conditional" in capsys.readouterr().out

    def test_boundary_warning_summarized(self, capsys):
        assert main(["lagrangian", "example52"]) == 0
        err = capsys.readouterr().err
        assert "coupling" in err and "boundary" in err
        assert len(err.splitlines()) <= 9


def dot(a, b):
    total = 0
    for u, v in zip(a, b):
        total += u * v
    return total


def definitional_coincidences(P):
    """Every dual point against every grid point, in the scan's row order."""
    out = []
    for w in P.dual_y_grid.points:
        for y in P.y_grid.points:
            if dot(y, w.ustar) == w.alpha:
                out.append(("y", y, w))
    for flat in P.full_dual_grid.points:
        for p in P.product.points:
            if dot(p, flat.ustar) == flat.alpha:
                out.append(("(x,y)", p, flat))
    return out


# Small values put points on the boundary <p, u*> = alpha now and then;
# wide fractions make the lcm of the scan's denominators large.
SCAN_VALUES = st.sampled_from([0, 1, -1, 2, Fraction(1, 3), Fraction(-2, 7)]) | WIDE_FRACTIONS
POSITIVE = SCAN_VALUES.filter(lambda a: a > 0)


@st.composite
def scan_case(draw, plain=False, backend="rational"):
    """A table problem with 1-D or 2-D x- and y-grids, and dual grids whose
    entries mix small values and wide fractions.  Now and then a pair's v*
    has 0 and 1 coordinates only, so that several y share one <y, v*> and
    one gate level holds several hits.  With ``plain``, one u* coordinate
    or alpha of the Y-side dual grid is an int or a float instead; with
    ``backend="float"``, every coordinate is a float."""
    x_dim, dim = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    x_vec, vec = (st.tuples(*[SCAN_VALUES] * k) for k in (x_dim, dim))
    shared = vec | st.tuples(*[st.sampled_from([0, 1])] * dim)

    def as_given(v):  # what the grids keep of v, to draw distinct entries
        return tuple(map(as_given, v)) if isinstance(v, tuple) else scalar(v, backend)

    xs = draw(st.lists(x_vec, min_size=1, max_size=4, unique_by=as_given))
    ys = [(0,) * dim] + draw(st.lists(vec.filter(any), max_size=4, unique_by=as_given))
    x_grid, y_grid = Grid(x_dim, xs, backend), Grid(dim, ys, backend)
    table = {(x, y): ExtReal(scalar(0, backend)) for x in x_grid.points for y in y_grid.points}
    duals = draw(st.lists(st.tuples(vec, vec, POSITIVE), min_size=1, max_size=5, unique_by=as_given))
    slopes = draw(st.lists(st.tuples(x_vec, vec, x_vec, shared), max_size=5, unique_by=as_given))
    # alpha drawn, or the gate's value at a grid point, which then lies on it
    at_a_point = st.tuples(st.sampled_from(x_grid.points), st.sampled_from(y_grid.points))
    pairs = [(*p, draw(SCAN_VALUES | at_a_point.map(lambda q, u=as_given(p[2] + p[3]): dot(q[0] + q[1], u))))
             for p in slopes]
    dual_y = [DualPoint.of(*d, backend) for d in duals]
    if plain:
        k = draw(st.integers(0, len(dual_y) - 1))
        dual_y[k] = with_plain_scalar(draw, dual_y[k], ("ustar", "alpha"))
        assume(dual_y[k].alpha > 0 and dual_y[k] not in dual_y[:k] + dual_y[k + 1:])
    return PerturbationProblem(
        PerturbFn(x_dim, dim, table=table), x_grid, y_grid, DualGrid(dual_y),
        DualGrid([DualPoint.of(xs + ys, us + vs, a, backend) for xs, ys, us, vs, a in pairs]),
    )


def has_plain_gate(w_points):
    """Some u* coordinate or alpha is not exactly a Fraction."""
    return any(c.__class__ is not Fraction for w in w_points for c in (*w.ustar, w.alpha))


@st.composite
def scan_doc(draw, backend=None, step=None, embedded=None):
    """A loader document on 1-D or 2-D grids with many coupling-boundary
    hits: points, slopes and gates are small multiples of one step and
    alphas of its square.  Rational steps are 1, 1/2 and 1/3; in floats
    1 and 1/2 lift onto ints, 1/10 and 1/3 do not and are scanned flat.
    With ``embedded``, 0 is kept out of x* (or u*), so the full dual grid
    gains a block of embedded Y-side points."""
    backend = backend or draw(st.sampled_from(["rational", "float"]))
    steps = [1, Fraction(1, 2), Fraction(1, 3)] + ([Fraction(1, 10)] if backend == "float" else [])
    step = Fraction(step if step is not None else draw(st.sampled_from(steps)))
    x_dim, y_dim = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    embedded = draw(st.booleans()) if embedded is None else embedded

    def vectors(dim, low, high, zero):
        vec = st.tuples(*[st.integers(-2, 2)] * dim).filter(lambda v: any(v) or zero)
        drawn = draw(st.lists(vec, min_size=low, max_size=high, unique=True))
        return [[str(step * k) for k in v] for v in drawn]

    origin = [["0"] * y_dim]
    grids = {
        "x": {"points": vectors(x_dim, 2, 4, True)},
        "y": {"points": origin + vectors(y_dim, 1, 4, False)},
        "xstar": vectors(x_dim, 1, 3, not embedded),
        "ustar": vectors(x_dim, 1, 3, True),
        "ystar": vectors(y_dim, 1, 3, True),
        "vstar": vectors(y_dim, 2, 3, True),
        "alpha": [str(step * step * k) for k in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))],
    }
    return {"kind": "problem", "name": "scan", "x_dim": x_dim, "y_dim": y_dim, "backend": backend,
            "phi": {"op": "affine"}, "grids": grids}


def scan_runs(rows):
    """The number of dual points with a hit in each space."""
    return [sum(1 for space, *_ in rows if space == s) for s in ("y", "(x,y)")]


class TestBoundaryScan:
    @given(scan_doc())
    @settings(max_examples=150, deadline=None)
    def test_warnings_match_the_row_by_row_scan(self, doc):
        """The per-gate scan, expanded, and the warnings it prints against
        the row-by-row scan and its warnings, line for line."""
        P = problemio.loads(json.dumps(doc)).build()
        assert coincidence_rows(problemio.boundary_coincidences(P)) == oracles.boundary_coincidences(P)
        assert problemio.boundary_warnings(P) == oracles.boundary_warnings(P)

    @pytest.mark.parametrize("backend, step, lifts", [
        ("rational", Fraction(1, 3), True), ("float", Fraction(1, 2), True), ("float", Fraction(1, 3), False)])
    def test_many_runs_in_both_spaces_and_an_embedded_block(self, backend, step, lifts):
        """More than 8 runs in each space (15 and 48) and a block of
        embedded points, since 0 is not an x*, on ints and on floats
        scanned flat: the warnings are the row-by-row ones."""
        t = lambda k: str(step * k)
        doc = {"kind": "problem", "name": "scan", "x_dim": 1, "y_dim": 1, "backend": backend,
               "phi": {"op": "affine"}, "grids": {
                   "x": {"points": [[t(k)] for k in (-2, -1, 0, 1, 2)]},
                   "y": {"points": [[t(k)] for k in (0, 1, 2, -1, -2)]},
                   "xstar": [t(1)], "ustar": [t(0), t(1)], "ystar": [t(0), t(1), t(-1)],
                   "vstar": [t(1), t(2), t(-1)], "alpha": [t(step), t(2 * step)]}}
        P = problemio.loads(json.dumps(doc)).build()
        with scaling_log() as log:
            rows = problemio.boundary_coincidences(P)
        assert log == [lifts, lifts] and scan_runs(rows) == [15, 48]
        assert len(P.full_dual_grid.blocks) == 2
        assert coincidence_rows(rows) == oracles.boundary_coincidences(P)
        assert problemio.boundary_warnings(P) == oracles.boundary_warnings(P)
        assert len(problemio.boundary_warnings(P)) == 9

    def test_the_scan_builds_no_row_per_hit(self, monkeypatch):
        """Counts only, on the duality benchmark's layout at n = 41: one row
        per dual point with a hit, no DualPoint, and one hits list per
        distinct gate, shared by the dual points behind it."""
        P = problemio.loads(json.dumps(fenchel_abs_duality_grid(41))).build()
        built, init = [], DualPoint.__post_init__
        monkeypatch.setattr(DualPoint, "__post_init__", lambda self: built.append(self) or init(self))
        rows = problemio.boundary_coincidences(P)
        monkeypatch.undo()
        hits = sum(len(h) for *_, h in rows)
        assert built == [] and (len(rows), hits) == (54, 2214)
        # u* = -1 and 1 meet the grid at alpha = 1; u* = 0 never does
        gates = {(w.ustar, w.alpha) for w in (P.full_dual_grid[i] for _, _, i, _ in rows)}
        assert len({id(h) for *_, h in rows}) == len(gates) == 2
        assert coincidence_rows(rows) == oracles.boundary_coincidences(P)

    @given(scan_case())
    @settings(max_examples=200, deadline=None)
    def test_scan_matches_definition_on_wide_fractions(self, P):
        assert coincidence_rows(problemio.boundary_coincidences(P)) == definitional_coincidences(P)

    @given(scan_case(plain=True))
    @settings(max_examples=100, deadline=None)
    def test_plain_scalar_falls_back(self, P):
        """The Y-side scan falls back; so does the full scan, unless a
        pair with the same value but Fraction entries took the embedded
        point's place in the full dual grid."""
        with scaling_log() as log:
            rows = coincidence_rows(problemio.boundary_coincidences(P))
        assert has_plain_gate(P.dual_y_grid.points)
        plain_full = has_plain_gate(P.full_dual_grid.points)
        # one False per scan that ran unscaled; the full scan comes last
        assert (log.count(False), log[-1]) == (1 + plain_full, not plain_full)
        assert rows == definitional_coincidences(P)

    @given(scan_case(backend="float"))
    @settings(max_examples=100, deadline=None)
    def test_float_product_matches_definition(self, P):
        with scaling_log() as log:
            rows = coincidence_rows(problemio.boundary_coincidences(P))
        # each scan runs on ints exactly when no float operation can round
        assert log == [certified(grid.points, ([w.ustar for w in ws],), ([w.alpha for w in ws],))
                       for grid, ws in ((P.y_grid, P.dual_y_grid), (P.product, P.full_dual_grid))]
        assert rows == definitional_coincidences(P)

    def test_a_float_product_point_is_tested_as_a_sum(self):
        # 0.1 + 0.2 rounds to the float above 0.3, and that float minus 0.2
        # is not 0.1: a float scan that looked up alpha - <y, v*> per x
        # would miss the point that the definition puts on the boundary.
        alpha = 0.1 + 0.2
        assert alpha - 0.2 != 0.1
        x_grid, y_grid = Grid(1, [(0.1,)], "float"), Grid(1, [(0.0,), (0.2,)], "float")
        table = {(x, y): ExtReal(0.0) for x in x_grid.points for y in y_grid.points}
        P = PerturbationProblem(
            PerturbFn(1, 1, table=table), x_grid, y_grid,
            DualGrid([DualPoint.of(0.0, 1.0, 5.0, "float")]),
            DualGrid([DualPoint.of((0.0, 0.0), (1.0, 1.0), alpha, "float")]),
        )
        rows = coincidence_rows(problemio.boundary_coincidences(P))
        assert [(space, p) for space, p, _ in rows] == [("(x,y)", (0.1, 0.2))]
        assert rows == definitional_coincidences(P)

    def test_fractional_level_has_no_points(self):
        # <y, v*> = 1/2 has no solution on the integer y-grid, although
        # the origin sits on the rounded-down level 0.
        doc = fenchel_abs_duality_grid(11)
        doc["grids"].update(vstar=["1"], alpha=["1/2", "1"])
        P = problemio.loads(json.dumps(doc)).build()
        rows = coincidence_rows(problemio.boundary_coincidences(P))
        assert rows == definitional_coincidences(P)
        assert {w.alpha for _, _, w in rows} == {1}

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_grouped_scan_matches_definition_on_random_problems(self, backend):
        rng = random.Random(20190424)
        hits = 0
        for _ in range(60):
            P = random_problem(rng, backend)
            rows = coincidence_rows(problemio.boundary_coincidences(P))
            assert rows == definitional_coincidences(P)
            hits += len(rows)
        assert hits > 0  # the comparison is not vacuous

    def test_grouped_scan_matches_definition_on_shared_gates(self):
        P = problemio.loads(json.dumps(fenchel_abs_duality_grid(11))).build()
        rows = coincidence_rows(problemio.boundary_coincidences(P))
        assert rows and rows == definitional_coincidences(P)


# HUGE_INT stands for a JSON integer literal of more digits than Python
# converts; json.dumps cannot write one, so the test puts it in the text.
HUGE_INT = "<huge integer literal>"
FUZZ_VALUES = [None, [], {}, "x", "1/0", "nan", True, -1, 1.5, 10**9, "1e10000000", HUGE_INT]


def with_huge_int(text: str) -> str:
    return text.replace(json.dumps(HUGE_INT), "9" * 4301)


def json_paths(node, prefix=()):
    """The path of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


@st.composite
def mutated_catalog_file(draw):
    """A catalog file after one to three mutations, each of which drops a
    key or puts a value of FUZZ_VALUES anywhere, grid counts of 10**9
    included: the loader's size budget refuses them before allocating."""
    doc = entry(draw(st.sampled_from(catalog.names())))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(json_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    return doc


def file_with(tmp_path, edit):
    doc = entry("fenchel_abs")
    edit(doc)
    path = tmp_path / "problem.json"
    path.write_text(with_huge_int(json.dumps(doc)), encoding="utf-8")
    return str(path)


def refuse_to_build(monkeypatch):
    """Make building a range grid or the paired dual grid an error, so a
    test can show that the size budget refused a file before either."""
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built before the budget check")

    monkeypatch.setattr(Grid, "uniform", refuse)
    monkeypatch.setattr(problemio, "pair_tensor_dual_grid", refuse)


class TestInputContract:
    """Malformed grids exit 3 with a message naming the field."""

    @given(mutated_catalog_file())
    @settings(max_examples=400, deadline=None)
    def test_only_input_errors_escape_the_loader(self, doc):
        try:
            loaded = problemio.loads(with_huge_int(json.dumps(doc)))
            if hasattr(loaded, "build"):
                loaded.build()
        except problemio.InputError:
            pass

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d["grids"].update(alpha="12"), "grids.alpha"),
            (lambda d: d["grids"].update(ystar="0"), "grids.ystar"),
            (lambda d: d["grids"].update(x={"points": "12"}), "grids.x.points"),
            (lambda d: d["grids"].update(x={"points": [["1"], ["1"]]}), "grids.x.points[1]"),
            (lambda d: d["grids"].update(ystar=["0", "0"]), "grids.ystar[1]"),
            (lambda d: d["grids"].update(xstar=["1", "2", "2/2"]), "grids.xstar[2]"),
            (lambda d: d["grids"].update(alpha=["1", "1"]), "grids.alpha[1]"),
            (lambda d: d["grids"].update(y={"lo": "0", "hi": "0", "count": 3}), "grids.y"),
            (lambda d: d["grids"].update(y={"lo": "0", "hi": "1/0", "count": 3}), "grids.y.hi"),
            (lambda d: d.update(backend="float") or d["grids"].update(alpha=[1e400]),
             "grids.alpha[0]"),
            (lambda d: d["phi"].update(terms=5), "phi.terms"),
            (lambda d: d["phi"]["terms"][1]["set"].update(constraints=5),
             "phi.terms[1].set.constraints"),
            (lambda d: d["phi"]["terms"][1]["set"].update(constraints={"a": 1}),
             "phi.terms[1].set.constraints"),
            (lambda d: d["phi"]["terms"][1].update(rows=5), "phi.terms[1].rows"),
            (lambda d: d.update(phi={"op": "precompose", "arg": d["phi"],
                                     "x_rows": 5, "y_rows": []}), "phi.x_rows"),
            (lambda d: d.update(phi={"op": "precompose", "arg": d["phi"],
                                     "x_rows": [{"x": ["1"]}], "y_rows": {"y": ["1"]}}),
             "phi.y_rows"),
            (lambda d: d["grids"].update(alpha=["1e10000000"]), "grids.alpha[0]"),
            (lambda d: d.update(backend="float") or d["grids"].update(alpha=["1e-10000000"]),
             "grids.alpha[0]"),
            (lambda d: d["grids"].update(ystar=[HUGE_INT]), "grids.ystar[0]"),
            (lambda d: d["grids"]["y"].update(count=HUGE_INT), "grids.y.count"),
            (lambda d: d["grids"].update(alpha=["1e4300"]), "grids.alpha[0]"),
            (lambda d: d["grids"].update(ystar=["1e-4300"]), "grids.ystar[0]"),
            (lambda d: d["phi"]["terms"][0]["arg"].update(x=["123.456e4299"]),
             "phi.terms[0].arg.x"),
            (lambda d: d["grids"].update(x={"points": []}), "grids.x.points"),
            (lambda d: d.update(tolerance=float("nan")), "tolerance"),
            (lambda d: d.update(tolerance=float("inf")), "tolerance"),
            (lambda d: d.update(tolerance=10**400), "tolerance"),
            (lambda d: d.update(x_dim=True), "x_dim"),
            (lambda d: d["grids"]["y"].update(count=True), "grids.y.count"),
            (lambda d: d["phi"]["terms"][1]["set"].update(dim=True), "phi.terms[1].set.dim"),
        ],
        ids=["alpha-string", "ystar-string", "points-string", "duplicate-grid-point",
             "duplicate-ystar", "duplicate-xstar", "duplicate-alpha", "degenerate-range",
             "bad-range-end", "infinite-float", "terms-number", "constraints-number",
             "constraints-object", "rows-number", "x-rows-number", "y-rows-object",
             "huge-exponent", "huge-negative-exponent-float", "huge-integer-literal",
             "huge-integer-count", "digits-past-the-limit", "denominator-past-the-limit",
             "mantissa-past-the-limit", "empty-points", "nan-tolerance", "infinite-tolerance",
             "huge-tolerance", "boolean-dimension", "boolean-count", "boolean-set-dimension"],
    )
    def test_exit_3_naming_the_field(self, edit, field, capsys, tmp_path):
        assert main(["duality", file_with(tmp_path, edit)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("econvex: input error: " + field + ":"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d["phi"]["terms"][0]["arg"].update(x=["1e400"]), "phi.terms[0].arg.x"),
            (lambda d: d["phi"]["terms"][1]["set"]["constraints"][0].update(b="1e400"),
             "phi.terms[1].set.constraints[0].b"),
        ],
        ids=["affine-coefficient", "indicator-offset"],
    )
    @pytest.mark.parametrize("backend", ["float", "rational"])
    def test_coefficient_beyond_the_float_range(self, edit, field, backend, capsys, tmp_path):
        # A float file samples phi in floats, so it refuses a coefficient
        # whose float is not finite; a rational file keeps it exact.
        path = file_with(tmp_path, lambda d: edit(d) or d.update(backend=backend))
        code = main(["duality", path])
        err = capsys.readouterr().err
        if backend == "float":
            assert code == 3
            assert err.startswith("econvex: input error: " + field + ":"), err
        else:
            assert code == 0, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("backend", ["float", "rational"])
    def test_a_float_coefficient_names_the_rule_of_both_backends(self, backend, capsys,
                                                                 tmp_path):
        # Coefficients of phi are exact in either backend, so a float file's
        # error does not cite the rational backend.
        path = file_with(tmp_path, lambda d: d["phi"]["terms"][0]["arg"].update(x=[0.5])
                         or d.update(backend=backend))
        assert main(["duality", path]) == 3
        assert capsys.readouterr().err == (
            "econvex: input error: phi.terms[0].arg.x: coefficients are exact in both "
            "backends: integers or 'p/q' strings, got 0.5\n"
        )

    def test_a_float_coefficient_of_a_set_names_the_same_rule(self, capsys, tmp_path):
        doc = entry("open_epigraph_eset")
        doc["set"]["constraints"][0]["a"] = [0.5, "-1"]
        path = tmp_path / "set.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["eset", str(path)]) == 3
        assert capsys.readouterr().err == (
            "econvex: input error: set.constraints[0].a: coefficients are exact in both "
            "backends: integers or 'p/q' strings, got 0.5\n"
        )

    @pytest.mark.parametrize("command", ["duality", "lagrangian", "audit"])
    def test_a_float_fold_reaching_nan_exits_3_naming_phi(self, command, capsys, tmp_path):
        # 1e308·x - 1e308·y overflows to inf - inf at x = 2, y = 2.
        phi = {"op": "affine", "x": ["1e308"], "y": ["-1e308"]}
        path = file_with(tmp_path, lambda d: d.update(backend="float", phi=phi))
        assert main([command, path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("econvex: input error: phi:"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["duality", "lagrangian", "audit"])
    def test_a_sweep_reaching_nan_exits_3_naming_the_slopes(self, command, capsys, tmp_path):
        # On the product grid, <(1e300, 1e300), (1e300, -1e300)> is
        # inf + -inf: psi^{c'} meets it at that point.  The lagrangian
        # report never takes psi^{c'}, and its slice sweeps are 1-D, so it
        # meets no NaN on this file.
        def edit(d):
            d["backend"] = "float"
            d["grids"].update(x={"points": [["0"], ["1e300"]]}, y={"points": [["0"], ["1e300"]]},
                              xstar=["1e300"], ystar=["-1e300"])

        code = main([command, file_with(tmp_path, edit)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if command == "lagrangian":
            assert code == 0, err
        else:
            assert code == 3
            assert err.startswith("econvex: input error: grids.xstar/grids.ystar:"), err

    @pytest.mark.parametrize("command", ["duality", "lagrangian", "audit"])
    def test_a_slice_sweep_reaching_nan_exits_3_naming_the_slopes(self, command, capsys, tmp_path):
        # With a 2-D y, the NaN <(1e300, 1e300), (1e300, -1e300)> is met by
        # the Lagrangian's slice sweeps as well as by the product sweeps.
        doc = {
            "kind": "problem", "name": "flat", "x_dim": 1, "y_dim": 2, "backend": "float",
            "phi": {"op": "affine", "x": ["0"], "y": ["0", "0"]},
            "grids": {"x": {"points": [["0"]]}, "y": {"points": [["0", "0"], ["1e300", "1e300"]]},
                      "ystar": [["1e300", "-1e300"]], "vstar": [["0", "0"]], "alpha": ["1"]},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("econvex: input error: grids.xstar/grids.ystar:"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["duality", "conjugate", "lagrangian", "audit"])
    def test_values_past_the_int_digit_limit_print(self, command, capsys, tmp_path):
        # phi(1e3000, 0) = 1e6000, whose 6001 digits str() of an int refuses.
        def edit(d):
            d["phi"] = {"op": "affine", "x": ["1e3000"]}
            d["grids"]["x"] = {"points": [["1e3000"]]}

        assert main([command, file_with(tmp_path, edit)]) == 0
        assert "0" * 6000 in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--at", "1/3"], "--at"),
            (["--at", "1,2"], "--at"),
            (["--at", "abc"], "--at"),
            (["--at", "0", "--eps", "-1"], "--eps"),
            (["--at", "0", "--eps", "1e10000000"], "--eps"),
        ],
        ids=["off-grid-at", "wrong-dimension-at", "unparsable-at", "negative-eps",
             "huge-exponent-eps"],
    )
    def test_subdiff_option_exits_3_naming_it(self, argv, option):
        assert_input_error_naming(["subdiff", "fenchel_abs", *argv], option)

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--contains", "abc"], "--contains"),
            (["--contains", "1/0"], "--contains"),
            (["--contains", "1"], "--contains"),
            (["--separate", "0,1"], "--separate"),
            (["--recession", "1,2,3"], "--recession"),
            (["--envelope-at", "x"], "--envelope-at"),
        ],
        ids=["unparsable-contains", "zero-denominator-contains", "wrong-dimension-contains",
             "separate-inside-point", "wrong-dimension-recession", "unparsable-envelope-at"],
    )
    def test_eset_option_exits_3_naming_it(self, argv, option):
        assert_input_error_naming(["eset", "open_epigraph_eset", *argv], option)

    @pytest.mark.parametrize(
        "dim, constraints, reason",
        [
            (1, [{"a": ["1"], "b": "0", "strict": False}], "dimension 1"),
            (2, [{"a": ["0", "1"], "b": "1", "strict": False}], "recession cone"),
            (2, [{"a": ["0", "1"], "b": "0", "strict": True},
                 {"a": ["0", "-1"], "b": "0", "strict": False}], "empty"),
            (3, [{"a": ["1", "-1", "0"], "b": "0", "strict": True}], "dimension 3"),
        ],
        ids=["1d-set", "b-at-most-1", "empty-set", "3d-set"],
    )
    def test_envelope_at_without_an_envelope_exits_3(self, dim, constraints, reason,
                                                     tmp_path, capsys):
        doc = dict(entry("open_epigraph_eset"), set={"dim": dim, "constraints": constraints})
        path = tmp_path / "set.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["eset", str(path)]) == 0
        capsys.readouterr()
        for value, why in (("zz", "is not a number"), ("1/2", reason)):
            assert main(["eset", str(path), "--envelope-at", value]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("econvex: input error: --envelope-at: ")
            assert why in err, err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d["grids"]["x"].update(count=10**9), "grids.x.count"),
            (lambda d: d["grids"].update(x={"lo": "0", "hi": "1", "count": 10**4},
                                         y={"lo": "-1", "hi": "1", "count": 101}), "grids"),
            (lambda d: d["grids"].update({k: [str(i + 1) for i in range(16)] for k in
                                          ("xstar", "ystar", "ustar", "vstar", "alpha")}),
             "grids"),
        ],
        ids=["range-count", "product-grid", "paired-dual-grid"],
    )
    def test_size_budget_refuses_before_building(self, edit, field, capsys, tmp_path,
                                                 monkeypatch):
        refuse_to_build(monkeypatch)
        assert main(["duality", file_with(tmp_path, edit)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("econvex: input error: " + field + ":"), err
        assert "exceeds the budget" in err

    def test_size_budget_admits_its_bounds(self, monkeypatch):
        # The paired dual grid, a million points here, is asked for but
        # not built.
        monkeypatch.setattr(problemio, "pair_tensor_dual_grid", lambda *lists: lists)
        doc = entry("fenchel_abs")
        doc["grids"].update(x={"lo": "0", "hi": "1", "count": problemio.MAX_RANGE_COUNT},
                            y={"points": [str(i) for i in range(-50, 50)]})
        doc["grids"].update({k: [str(i + 1) for i in range(10)] for k in
                             ("xstar", "ystar", "ustar", "vstar")})
        doc["grids"]["alpha"] = [str(i + 1) for i in range(100)]
        loaded = problemio.loads(json.dumps(doc))
        assert len(loaded.x_grid) * len(loaded.y_grid) == problemio.MAX_PRODUCT
        lists = loaded.full_dual_pairs[:5]
        assert math.prod(len(v) for v in lists) == problemio.MAX_DUAL_PAIRS

    def test_audit_of_a_3d_set_exits_3_naming_the_dimension(self, tmp_path):
        doc = dict(entry("open_epigraph_eset"), set={
            "dim": 3, "constraints": [{"a": ["1", "-1", "0"], "b": "0", "strict": True}],
        })
        path = tmp_path / "set3.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert_input_error_naming(["audit", str(path)], "set.dim")

    def test_a_file_nested_past_the_decoder_limit_exits_3(self, tmp_path):
        # phi wrapped in 100,000 abs nodes: the JSON decoder gives up with a
        # RecursionError, which is an input error like any malformed file.
        path = tmp_path / "deep.json"
        path.write_text(nested_phi_file("abs", 100_000), encoding="utf-8")
        assert_input_error_naming(["duality", str(path)], "not valid JSON")

    @pytest.mark.parametrize("op, depth", [("abs", 975), ("sum", 488)])
    def test_a_phi_nested_under_the_decoder_limit_exits_3_naming_phi(self, op, depth,
                                                                     tmp_path):
        # The decoder reads these, but parsing or sampling phi would exhaust
        # Python's recursion limit.
        path = tmp_path / "deep.json"
        path.write_text(nested_phi_file(op, depth), encoding="utf-8")
        assert_input_error_naming(["duality", str(path)], "phi")
        assert_input_error_naming(["audit", str(path)], "phi")

    @pytest.mark.parametrize("op", ["abs", "sum"])
    def test_a_phi_at_the_depth_budget_runs(self, op, tmp_path):
        # fenchel_abs's phi is 8 levels deep; an abs adds one level, a sum
        # two (its object and its list of terms).
        depth = (problemio.MAX_PHI_DEPTH - 8) // (1 if op == "abs" else 2)
        path = tmp_path / "deep.json"
        path.write_text(nested_phi_file(op, depth), encoding="utf-8")
        assert problemio._nesting(json.loads(path.read_text())["phi"]) == problemio.MAX_PHI_DEPTH
        for command in (["audit", "--suite", "all"], ["lagrangian"]):
            run = run_cli([*command, str(path)])
            assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr

    @pytest.mark.parametrize("kind", ["fenchel_abs", "open_epigraph_eset"])
    @pytest.mark.parametrize("name", [5, {"a": [1, 2]}, "x\ny", "x\r", "\u2028"],
                             ids=["int", "object", "newline", "carriage-return",
                                  "line-separator"])
    def test_a_name_that_is_no_single_line_string_exits_3(self, kind, name, tmp_path):
        path = tmp_path / "named.json"
        path.write_text(json.dumps(dict(entry(kind), name=name)), encoding="utf-8")
        command = "duality" if kind == "fenchel_abs" else "eset"
        assert_input_error_naming([command, str(path)], "name")
        with pytest.raises(problemio.InputError, match="^name: must be a string without line breaks$"):
            problemio.load(str(path))


def nested_phi_file(op, depth):
    """fenchel_abs with its phi wrapped in depth abs or sum nodes."""
    doc = entry("fenchel_abs")
    head = {"abs": '{"op": "abs", "arg": ', "sum": '{"op": "sum", "terms": ['}[op]
    tail = {"abs": "}", "sum": "]}"}[op]
    phi = head * depth + json.dumps(doc["phi"]) + tail * depth
    return json.dumps(dict(doc, phi=None)).replace("null", phi)


def run_cli(argv):
    """The CLI in a fresh process, with the repository's src first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "econvex.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def assert_input_error_naming(argv, field):
    """Run the CLI in a fresh process: exit 3, nothing on stdout, and one
    input-error message that starts with the field, never a traceback."""
    run = run_cli(argv)
    assert run.returncode == 3, run.stderr
    assert run.stderr.startswith("econvex: input error: " + field + ":"), run.stderr
    assert "Traceback" not in run.stderr and run.stdout == ""


def sweep_log(monkeypatch):
    """A Counter of (sweep, calling module) per call of c_conjugate or
    cprime_conjugate, patched wherever an econvex module binds them."""
    log = Counter()

    def counted(name, real):
        def sweep(*args, **kwargs):
            log[name, sys._getframe(1).f_globals["__name__"]] += 1
            return real(*args, **kwargs)
        return sweep

    for name in ("c_conjugate", "cprime_conjugate"):
        real = getattr(conjugation, name)
        for key, module in list(sys.modules.items()):
            if key.startswith("econvex") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))
    return log


def totals(log):
    return tuple(sum(n for (name, _), n in log.items() if name == sweep)
                 for sweep in ("c_conjugate", "cprime_conjugate"))


@pytest.mark.parametrize("name", CATALOG_PROBLEMS)
@pytest.mark.parametrize("backend", ["rational", "float"])
def test_audits_read_the_cached_conjugates(name, backend, capsys, monkeypatch, tmp_path):
    """audit and subdiff read the problem's cached f0_conj and f0_biconj:
    subdifferential sweeps no conjugate again, subdiff builds no duality
    report (on fenchel_abs its only sweeps are psi and f0_conj), and the
    report reads f0_conj by position, with no lookup into the x-side dual
    grid."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(entry(name), backend=backend)), encoding="utf-8")
    log = sweep_log(monkeypatch)
    assert main(["audit", str(path), "--suite", "all"]) == 0
    audit_sweeps = totals(log)
    assert not [key for key in log if key[1] == "econvex.subdifferential"]
    log.clear()
    assert main(["subdiff", str(path), "--at", "0"]) == 0
    assert not [key for key in log if key[1] == "econvex.subdifferential"]
    if name == "fenchel_abs":
        assert (audit_sweeps, totals(log)) == ((3, 6), (2, 0))

    P = problemio.load(str(path)).build()
    x_side_grid, index_of, lookups = P.x_side_grid, DualGrid.index_of, []

    def spy(grid, point):
        if grid is x_side_grid:
            lookups.append(point)
        return index_of(grid, point)

    monkeypatch.setattr(DualGrid, "index_of", spy)
    P.report
    assert lookups == []
    x_side_grid.index_of(x_side_grid.points[0])  # the spy is live
    assert len(lookups) == 1


class TestFlatDualGrids:
    """Counts only: the loader keeps both dual grids as the file's axes,
    building no DualPoint, and ``build`` adds only the embeddings of the
    Y-side grid."""

    DOC = fenchel_abs_duality_grid(11)  # |W| = 9·3·3·1·1 = 81, |W_y| = 3·1·1 = 3

    @staticmethod
    def counting(monkeypatch):
        """(the DualPoints built, the scalar calls of the dual-grid builders)."""
        points, scalars = [], []
        init, coerce = DualPoint.__post_init__, conjugation.scalar

        def post_init(self):
            points.append(self)
            init(self)

        def counted(v, backend):
            scalars.append(v)
            return coerce(v, backend)

        monkeypatch.setattr(DualPoint, "__post_init__", post_init)
        monkeypatch.setattr(conjugation, "scalar", counted)
        return points, scalars

    def test_loads_coerces_each_axis_entry_once(self, monkeypatch):
        points, scalars = self.counting(monkeypatch)
        loaded = problemio.loads(json.dumps(self.DOC))
        grids = self.DOC["grids"]
        axis_entries = [len(grids[k]) for k in ("ystar", "vstar", "alpha")]
        axis_entries += [len(grids[k]) for k in ("xstar", "ystar", "ustar", "vstar", "alpha")]
        assert len(loaded.full_dual_pairs) == 81 and len(loaded.dual_y_grid) == 3
        assert len(points) == 0  # the grids keep their axes
        assert len(scalars) == sum(axis_entries) == 5 + 17

    def test_build_adds_only_the_embeddings(self, monkeypatch):
        loaded = problemio.loads(json.dumps(self.DOC))
        points, scalars = self.counting(monkeypatch)
        P = loaded.build()
        built, called = list(points), list(scalars)
        monkeypatch.undo()
        assert built == [oracles.embed(P, w) for w in P.dual_y_grid] and called == []
        assert P.full_dual_grid.points[:81] == loaded.full_dual_pairs.points

    @pytest.mark.parametrize("ystars", [["-1", "0", "1"], ["-1", "0", "1", "-2", "2", "3"]])
    def test_duality_builds_no_dual_point_per_point_of_w(self, ystars, monkeypatch, tmp_path, capsys):
        """Counts only, on the duality benchmark's layout at n = 41 and with
        its y* axis doubled: ``duality`` builds the x-side grid's points,
        the Y-side grid's and their embeddings, and the 8 dual points its
        warnings print, none per point of the full dual grid."""
        doc = fenchel_abs_duality_grid(41)
        doc["grids"]["ystar"] = ystars
        path = tmp_path / "ds41.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        points, _ = self.counting(monkeypatch)
        assert main(["duality", str(path)]) == 0
        built = len(points)
        monkeypatch.undo()
        capsys.readouterr()
        P = problemio.loads(json.dumps(doc)).build()
        assert len(P.full_dual_grid) == 27 * len(ystars) and len(P.x_side_grid) == 27
        assert built == len(P.x_side_grid) + 2 * len(P.dual_y_grid) + 8
