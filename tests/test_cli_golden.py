"""Default CLI output, pinned command by command.

Each case runs ``econvex.cli.main`` in-process and compares the SHA-256
of its stdout and of its stderr, and its exit code, with
``data/cli_golden.json``.  The cases cover every catalog problem and
every problem file of DATA_PROBLEMS, each with its float twin (the same
entry with ``"backend": "float"``, written to a temporary file), under
every report command, plus the commands of the set entry.  The argv
cases pin what takes no problem argument: the catalog listing and one
entry's file text, and argparse's own text, the top-level help, each
command's help and the usage errors, run at a terminal width of 80
columns and keyed by the command line; argparse's exit is recorded as
the exit code.  A
refactor that is meant to keep the output must leave this test passing
unchanged.

Run as a script, it checks the fixture: it prints ``added: <key>`` for
each case the fixture lacks, ``dropped: <key>`` for each pinned case no
longer run and ``moved: <key>`` for each case whose digests changed, and
exits 1 if any did.  It never rewrites the fixture unless given ``--write``; when a
change is meant to alter the output, rewrite it and review the cases the
script printed:

    PYTHONPATH=src python tests/test_cli_golden.py            # check
    PYTHONPATH=src python tests/test_cli_golden.py --write    # re-pin
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from econvex import catalog
from econvex.cli import main

FIXTURE = Path(__file__).parent / "data" / "cli_golden.json"

# Problem files beside the fixture.  mixed_ops uses the operations no
# catalog entry does: max, precompose (one with empty y_rows) and a
# strict indicator constraint that grid points meet with equality.
# empty_domain's phi is the indicator of an empty set, so the reports
# print the values no finite problem reaches: no attainers, no finite
# gap, no nonconvexity witness, no oracle value; its x-grid lacks the
# origin, so ``subdiff --at 0`` is an input error.  thirds steps its
# grids, slopes and alphas by 1/3, which no double holds exactly, so its
# float twin is the one case whose sweeps and scan run on the floats as
# given rather than on scaled ints.  fine_resolution's phi(x, 0) = -x/2000
# varies by less than 1/1000 between its two x, so the eps-formula audits
# meet values finer than any fixed eta step.
DATA_PROBLEMS = {
    name: Path(__file__).parent / "data" / f"{name}.json"
    for name in ("mixed_ops", "empty_domain", "thirds", "fine_resolution")
}

PROBLEM_COMMANDS = (
    ("audit", "--suite", "all"),
    ("duality",),
    ("duality", "--output", "csv"),
    ("conjugate",),
    ("conjugate", "--output", "csv"),
    ("biconjugate",),
    ("biconjugate", "--output", "csv"),
    ("lagrangian",),
    ("lagrangian", "--output", "csv"),
    ("subdiff", "--at", "0"),
    ("subdiff", "--at", "0", "--eps", "1/2"),
    ("subdiff", "--at", "1", "--output", "csv"),
)

ESET_COMMANDS = (
    ("eset",),
    ("eset", "--contains", "0,1", "--separate", "1,0", "--recession", "0,1", "--envelope-at", "1/2"),
    ("eset", "--contains", "1,1", "--envelope-at", "-2"),
    ("audit", "--suite", "all"),
    ("audit", "--suite", "exact"),
)

COMMANDS = ("catalog", "eset", "conjugate", "biconjugate", "duality", "subdiff",
            "lagrangian", "audit")

ARGV_CASES = (
    (), ("-h",), ("--help",), ("-h", "audit"), ("bogus",), ("--bogus",),
    ("catalog",), ("catalog", "--list"), ("catalog", "fenchel_abs"),
    *((command, "-h") for command in COMMANDS),
    ("audit", "fenchel_abs", "--suite", "nope"),
    ("lagrangian", "fenchel_abs", "--output", "xml"),
    ("subdiff", "fenchel_abs"),
    ("audit", "fenchel_abs", "extra"),
)


def _problems():
    names = [n for n in catalog.names() if catalog.entry(n)["kind"] == "problem"]
    return names + list(DATA_PROBLEMS)


def _entry(name):
    if name in DATA_PROBLEMS:
        return json.loads(DATA_PROBLEMS[name].read_text(encoding="utf-8"))
    return catalog.entry(name)


def _cases():
    cases = []
    for name in _problems():
        for backend in ("rational", "float"):
            for command in PROBLEM_COMMANDS:
                cases.append((name, backend, command))
    for command in ESET_COMMANDS:
        cases.append(("open_epigraph_eset", "rational", command))
    return cases


def _key(name, backend, command):
    return f"{name}[{backend}]: {' '.join(command)}"


def _problem_arg(name, backend, tmp_path):
    if backend == "rational":
        return str(DATA_PROBLEMS.get(name, name))
    path = tmp_path / f"{name}_float.json"
    path.write_text(json.dumps(dict(_entry(name), backend="float")), encoding="utf-8")
    return str(path)


def _argv_key(argv):
    return " ".join(("econvex",) + argv)


def _digests(argv):
    """The exit code and the digests of stdout and stderr of one run; help
    is wrapped at 80 columns whatever the terminal."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's exit after help or a usage error
            code = exc.code
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    }


def _run(name, backend, command, tmp_path):
    return _digests([command[0], _problem_arg(name, backend, tmp_path), *command[1:]])


CASES = _cases()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_exactly_the_cases(pinned):
    keys = [_key(*case) for case in CASES] + [_argv_key(argv) for argv in ARGV_CASES]
    assert sorted(pinned) == sorted(keys)


@pytest.mark.parametrize("case", CASES, ids=[_key(*c) for c in CASES])
def test_output_matches_fixture(case, pinned, tmp_path):
    assert _run(*case, tmp_path) == pinned[_key(*case)]


@pytest.mark.parametrize("argv", ARGV_CASES, ids=[_argv_key(a) for a in ARGV_CASES])
def test_argparse_text_matches_fixture(argv, pinned):
    assert _digests(argv) == pinned[_argv_key(argv)]


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Check or re-pin the CLI golden fixture.")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the fixture from the checked-out code")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        digests = {_key(*c): _run(*c, Path(tmp)) for c in CASES}
    digests.update((_argv_key(argv), _digests(argv)) for argv in ARGV_CASES)
    old = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    moved = [key for key in sorted(digests.keys() | old.keys())
             if digests.get(key) != old.get(key)]
    for key in moved:
        change = "added" if key not in old else "dropped" if key not in digests else "moved"
        print(f"{change}: {key}")
    if args.write:
        FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
        print(f"wrote {len(digests)} cases to {FIXTURE}")
    else:
        print(f"{len(moved)} of {len(digests.keys() | old.keys())} cases changed")
        raise SystemExit(1 if moved else 0)
