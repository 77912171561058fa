"""Tests of the benchmark itself, on the tiny workload sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _traced_pass(name: str, seed: int, tmp_path: Path):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cli, wl = run.set_up(name, seed, "tiny", tmp_path)
    checker = workloads.Checker(wl, workloads.load_digests()["tiny"])
    runner = run.Runner(cli, wl, tmp_path, checker, run.SpeedSampler())
    tr = tracing.Tracer()
    tr.install()
    try:
        runner.run_pass("traced")
    finally:
        tr.remove()
    assert not any(r["error"] for r in runner.records), runner.records
    return tr


def _counts(tr: tracing.Tracer):
    return {k: v for k, v in tracing.per_layer_metrics(tr).items() if not run.is_time(k)}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_two_traced_runs_give_identical_counts(name, tmp_path):
    first = _counts(_traced_pass(name, 5, tmp_path / "a"))
    second = _counts(_traced_pass(name, 5, tmp_path / "b"))
    assert first == second
    # Each workload loads the layers it was chosen for and skips the others.
    if name == "audit_suite":
        assert first["subdifferential.is_c_subgradient.calls"] > 0
        assert first["problemio.boundary_scan.pairs"] == 0
    else:
        assert first["subdifferential.is_c_subgradient.calls"] == 0
        assert first["problemio.boundary_scan.pairs"] > 0
    if name == "duality_sweep":
        assert first["lagrangian.table.cells"] == 0
        assert first["lagrangian.saddle_tests"] == 0
    if name == "lagrangian_wide":
        assert first["lagrangian.table.cells"] > 0


def test_remove_restores_every_patched_attribute(tmp_path):
    tr = _traced_pass("duality_sweep", 1, tmp_path / "a")
    patched = tr.patched
    assert len(patched) > 80
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
    # The cached properties are patched through their func, and restored.
    problem_cls = tracing.econvex_modules()["duality"].PerturbationProblem
    funcs = {id(o) for o, attr, _ in patched if attr == "func"}
    for prop in tracing.PROBLEM_PROPERTIES:
        descriptor = problem_cls.__dict__[prop]
        assert isinstance(descriptor, cached_property)
        assert id(descriptor) in funcs


def test_install_wraps_every_binding():
    run.import_econvex()
    mods = tracing.econvex_modules()
    original = mods["conjugation"].c_conjugate
    holders = [m for m in mods.values() if getattr(m, "c_conjugate", None) is original]
    tr = tracing.Tracer()
    tr.install()
    try:
        assert len(holders) >= 4  # conjugation, duality, subdifferential, lagrangian, package
        for m in holders:
            assert m.c_conjugate is not original
    finally:
        tr.remove()
    for m in holders:
        assert m.c_conjugate is original


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.spans = [
        ("cli.main", -1, 0.0, 10.0),
        ("duality.psi", 0, 1.0, 5.0),
        ("conjugation.c_conjugate", 1, 2.0, 4.0),
        ("duality.psi", 0, 6.0, 7.0),
    ]
    table = tr.span_table()
    assert table["cli.main"]["self_s"] == 5.0
    assert table["duality.psi"]["self_s"] == 3.0
    assert table["duality.psi"]["s"] == 5.0
    assert tr.layer_self() == {**{l: 0.0 for l in tracing.LAYERS},
                               "cli": 5.0, "duality": 3.0, "conjugation": 2.0}


def test_checker_rejects_wrong_outputs():
    wl = workloads.build("duality_sweep", 7, "tiny")
    checker = workloads.Checker(wl, workloads.load_digests()["tiny"])
    fixed = next(c for c in wl.commands if not c.seeded)
    seeded = next(c for c in wl.commands if c.seeded)
    assert checker.check(fixed, 0, "not the report\n") == "stdout differs from the pinned digest"
    assert checker.check(fixed, 2, "") == "exit code 2"
    good = f"v_gp = {checker.oracle}\n"
    assert checker.check(seeded, 0, good) is None
    assert checker.check(seeded, 0, good + "x\n") == "stdout differs from the first pass"
    other = workloads.Checker(wl, {})
    assert "expected" in other.check(seeded, 0, f"v_gp = {checker.oracle + 1}\n")


def _run_bench(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_passes_its_output_checks(name, trace):
    proc = _run_bench(run.ROOT, "--workload", name, "--seed", "3", "--seconds", "0",
                      "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run_bench(tmp_path, "--workload", "duality_sweep", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
