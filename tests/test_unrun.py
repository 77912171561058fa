"""``tests/unrun.py`` runs every golden case and reports what none enters."""

import pytest

import unrun


@pytest.fixture(scope="module")
def lines():
    """The report, run once for the module: it runs every golden case."""
    return unrun.report()


def untraced(lines):
    *rows, _ = lines
    return {row.split()[0] for row in rows if not row.endswith("  [tracer]")}


def test_the_report_marks_tracer_bound_code_and_leaves_out_what_runs(lines):
    *rows, total = lines
    marked = {row.split()[0]: row.endswith("  [tracer]") for row in rows}
    assert marked["conjugation.biconjugate"] is True
    assert "conjugation.c_conjugate" not in marked
    assert total.startswith(f"{len(rows)} functions (")


def test_every_untraced_function_no_case_enters_is_allowed_and_exists(lines):
    names = {f"{module}.{name}" for module, name, *_ in unrun.functions()}
    assert sorted(untraced(lines) - unrun.ALLOWED.keys()) == []
    assert sorted(unrun.ALLOWED.keys() - names) == []


def test_every_allowed_name_is_still_listed_untraced(lines):
    """An ``ALLOWED`` entry goes stale when a golden case enters its
    function, when the tracer binds it or when it is gone."""
    assert sorted(unrun.ALLOWED.keys() - untraced(lines)) == []
