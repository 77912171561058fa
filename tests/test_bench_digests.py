"""The benchmark's pinned output digests still match, in tier-1.

``perfbench/digests.json`` holds the SHA-256 of the stdout of every fixed
(unseeded) benchmark command, for each workload size.  A change that
moves one would count as a failed operation in the benchmark; this test
shows it in the main suite first.  It reads ``perfbench/`` and writes
nothing there: ``workloads.py`` is executed from a fresh module object and
the problem files go to a temporary directory.
"""

import contextlib
import hashlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

from econvex import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    # dataclasses look the defining module up by name.
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


WORKLOADS = load_workloads()
PINNED = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("size", sorted(WORKLOADS.SIZES))
@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_fixed_commands_print_their_pinned_digest(name, size, tmp_path):
    workload = WORKLOADS.build(name, 1, size)
    workload.write(tmp_path)
    fixed = [cmd for cmd in workload.commands if not cmd.seeded]
    assert fixed
    for cmd in fixed:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(cmd.resolved(tmp_path))
        assert code == 0, cmd.key
        got = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        assert got == PINNED[size][cmd.key], cmd.key
