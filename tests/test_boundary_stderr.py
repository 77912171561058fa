"""The loader's boundary warnings, pinned line for line.

Benchmarks compare stdout only, so the stderr lines that ``duality``
writes for boundary coincidences are pinned here: any change to the
boundary scan that reorders, drops or rewords a warning shows up.  The
expected text lives in ``data/boundary_stderr.json``, keyed by case.
"""

import json
from pathlib import Path

import pytest

from econvex.cli import main

from helpers import fenchel_abs_duality_grid

PINNED = json.loads(
    (Path(__file__).parent / "data" / "boundary_stderr.json").read_text(encoding="utf-8")
)
CASES = ("affine_recovery", "example52", "open_epigraph_eset", "fenchel_abs_n21_duality_grid")


def problem_arg(case, tmp_path):
    if case == "fenchel_abs_n21_duality_grid":
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(fenchel_abs_duality_grid(21)), encoding="utf-8")
        return str(path)
    return case


@pytest.mark.parametrize("case", CASES)
def test_duality_stderr_pinned(case, capsys, tmp_path):
    code = main(["duality", problem_arg(case, tmp_path)])
    err = capsys.readouterr().err
    assert code == PINNED[case]["exit"]
    assert err.splitlines() == PINNED[case]["stderr"]

