"""``tests/unrun.py`` runs every golden case and reports what none enters."""

import unrun


def test_the_report_marks_tracer_bound_code_and_leaves_out_what_runs():
    lines = unrun.report()
    *rows, total = lines
    marked = {row.split()[0]: row.endswith("  [tracer]") for row in rows}
    assert marked["conjugation.biconjugate"] is True
    assert "conjugation.c_conjugate" not in marked
    assert total.startswith(f"{len(rows)} functions (")


def test_every_untraced_function_no_case_enters_is_allowed_and_exists():
    *rows, _ = unrun.report()
    untraced = {row.split()[0] for row in rows if not row.endswith("  [tracer]")}
    names = {f"{module}.{name}" for module, name, *_ in unrun.functions()}
    assert sorted(untraced - unrun.ALLOWED.keys()) == []
    assert sorted(unrun.ALLOWED.keys() - names) == []
