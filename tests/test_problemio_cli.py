import copy
import json
import random

import pytest

from econvex import catalog, problemio
from econvex.cli import main
from econvex.duality import converse_duality_report

from helpers import fenchel_abs_duality_grid, random_problem


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

    def test_subdiff_csv(self, capsys):
        assert main(["subdiff", "fenchel_abs", "--at", "0", "--output", "csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "xstar0,ustar0,alpha"
        assert "0,0,1" in rows[1:]

    def test_subdiff_report_mentions_formulae(self, capsys):
        assert main(["subdiff", "fenchel_abs", "--at", "0", "--eps", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "intersection_formula.superset_ok = true" in out
        assert "projection_formula.superset_ok = true" in out

    def test_lagrangian_csv_shape(self, capsys):
        assert main(["lagrangian", "fenchel_abs", "--output", "csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "x0,ystar0,vstar0,alpha,value"
        P = catalog.load("fenchel_abs").build()
        assert len(rows) == 1 + len(P.x_grid) * len(P.dual_y_grid)

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


class TestBoundaryScan:
    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_grouped_scan_matches_definition_on_random_problems(self, backend):
        rng = random.Random(20190424)
        hits = 0
        for _ in range(60):
            P = random_problem(rng, backend)
            rows = problemio.boundary_coincidences(P)
            assert rows == definitional_coincidences(P)
            hits += len(rows)
        assert hits > 0  # the comparison is not vacuous

    def test_grouped_scan_matches_definition_on_shared_gates(self):
        P = problemio.loads(json.dumps(fenchel_abs_duality_grid(11))).build()
        rows = problemio.boundary_coincidences(P)
        assert rows and rows == definitional_coincidences(P)


def file_with(tmp_path, edit):
    doc = entry("fenchel_abs")
    edit(doc)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestInputContract:
    """Malformed grids exit 3 with a message naming the field."""

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
        ],
        ids=["alpha-string", "ystar-string", "points-string", "duplicate-grid-point",
             "duplicate-ystar", "duplicate-xstar", "duplicate-alpha", "degenerate-range",
             "bad-range-end", "infinite-float"],
    )
    def test_exit_3_naming_the_field(self, edit, field, capsys, tmp_path):
        assert main(["duality", file_with(tmp_path, edit)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("econvex: input error: " + field + ":"), err
        assert "Traceback" not in err
