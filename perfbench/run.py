#!/usr/bin/env python3
"""The econvex benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's problem files are generated
from the seed into a scratch directory beside this script, and every command
calls ``econvex.cli.main(argv)`` in-process with stdout and stderr captured:
a closed loop of one caller, each command starting when the previous one
returns.  Each CLI call pays its own load, build and boundary scan.  Passes
over the workload's command list repeat until ``--seconds`` have elapsed.

Times are reported in reference-scaled seconds.  The shared machines this
runs on drift in speed by up to 2x for seconds at a time, so a SIGALRM
handler times a tiny stdlib-only ``Fraction`` loop (``reference_work``)
every ``SAMPLE_INTERVAL`` seconds, and twice before and once after every
command and set-up.
A command's scaled time is its wall time, less the sampler's own time,
multiplied by ``REFERENCE_S`` times the mean reference speed (1 / loop time)
sampled while it ran: the seconds it would take on a machine where the loop
takes ``REFERENCE_S``.  No change to econvex can move the reference.  Raw
wall times are kept in the ``--out`` record.

``setup_s`` is timed in fresh child processes: each starts Python, imports
``econvex.cli`` and writes the workload's files; the median over
``SETUP_REPEATS`` children is reported.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
untraced passes, then one pass with the tracer installed and one pass with
only ``cli.main`` under cProfile, and reports the per-layer metrics.  Every
output is checked; the last line of stdout is one JSON object with the
result.  ``--out PATH`` also writes the full record (environment,
per-command times, span table).
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import importlib
import io
import json
import os
import pstats
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
SAMPLE_INTERVAL = 0.05
# Time of reference_work() on the 2-vCPU Xeon sandbox where the baseline was
# taken, in its faster phase.  Scaled times are converted to a machine on
# which the reference loop takes this long.
REFERENCE_S = 0.0014

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def environment() -> Dict[str, object]:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


_REFERENCE_XS = [Fraction(i, 7) for i in range(-20, 21)]


def reference_work() -> Fraction:
    """Fixed Fraction arithmetic in the style of a grid sweep; never changes."""
    best = None
    for a in _REFERENCE_XS[::4]:
        for x in _REFERENCE_XS:
            v = a * x - x
            if best is None or v > best:
                best = v
    return best


class SpeedSampler:
    """Samples machine speed with reference_work() on SIGALRM and on demand."""

    def __init__(self):
        self.samples: List[float] = []  # reference_work() times, in order
        self.spent = 0.0  # time spent sampling
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> None:
        if self._busy:  # an alarm landed inside a sample
            return
        self._busy = True
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.resume()
        return self

    def __exit__(self, *exc) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def clock(self) -> float:
        """perf_counter() less the time spent sampling so far."""
        return time.perf_counter() - self.spent

    def factor(self, first: int) -> float:
        """REFERENCE_S times the mean reference speed over samples[first:]."""
        return REFERENCE_S * statistics.fmean(1.0 / d for d in self.samples[first:])

    def timed(self, fn):
        """(fn(), scaled seconds, wall seconds, samples used)."""
        self.sample()
        self.sample()
        first, spent = len(self.samples) - 2, self.spent
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        net = wall - (self.spent - spent)
        self.sample()
        return result, net * self.factor(first), wall, len(self.samples) - first


def is_time(name: str) -> bool:
    return name.endswith(("_s", ".s"))


def import_econvex():
    """A fresh import of econvex.cli from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "econvex" or n.startswith("econvex.")]:
        del sys.modules[name]
    cli = importlib.import_module("econvex.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"econvex imported from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    """Runs the workload's commands and checks every output."""

    def __init__(self, cli, workload: workloads.Workload, work: Path,
                 checker: workloads.Checker, sampler: SpeedSampler):
        self.cli = cli
        self.sampler = sampler
        self.workload = workload
        self.work = work
        self.checker = checker
        self.records: List[dict] = []  # every command run, in order
        self.profiler = None  # when set, each cli.main call runs under it

    def _call(self, argv):
        try:
            if self.profiler is not None:
                return self.profiler.runcall(self.cli.main, argv), None
            return self.cli.main(argv), None
        except SystemExit as exc:
            return exc.code, None
        except Exception as exc:  # a crash is a failed command, not a crashed run
            return None, f"raised {type(exc).__name__}: {exc}"

    def run_command(self, cmd: workloads.Command, phase: str) -> dict:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        argv = cmd.resolved(self.work)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            (code, raised), seconds, wall, samples = self.sampler.timed(lambda: self._call(argv))
        stdout = out.getvalue()
        rec = {
            "phase": phase,
            "key": cmd.key,
            "kind": cmd.kind,
            "seeded": cmd.seeded,
            "seconds": seconds,
            "wall_s": wall,
            "speed_samples": samples,
            "stdout_bytes": len(stdout.encode("utf-8")),
            "error": raised or self.checker.check(cmd, code, stdout),
        }
        self.records.append(rec)
        return rec

    def run_pass(self, phase: str) -> dict:
        """One pass in seeded order; its time is the sum of its commands' times."""
        recs = [self.run_command(cmd, phase) for cmd in self.workload.pass_order()]
        return {"seconds": sum(r["seconds"] for r in recs), "commands": recs}

    def timed_passes(self, seconds: float) -> List[dict]:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass("timed"))
        return passes


def kind_seconds(passes: List[dict]) -> Dict[str, float]:
    """Median over passes of the time one pass spends in each command kind."""
    return {
        f"{kind}_s": statistics.median(
            sum(r["seconds"] for r in p["commands"] if r["kind"] == kind) for p in passes
        )
        for kind in workloads.KINDS
    }


def end_to_end(passes: List[dict]) -> Dict[str, float]:
    """pass_s, cmd_geomean_s and peak_rss_mb.

    cmd_geomean_s is the geometric mean, over the fixed commands, of each
    command's median time: the typical single-command time, to which every
    command contributes in proportion to its own change.  The seeded command
    is left out so the draw cannot move it.
    """
    per_command: Dict[str, List[float]] = {}
    for p in passes:
        for r in p["commands"]:
            if not r["seeded"]:
                per_command.setdefault(r["key"], []).append(r["seconds"])
    return {
        "pass_s": statistics.median(p["seconds"] for p in passes),
        "cmd_geomean_s": statistics.geometric_mean(
            statistics.median(v) for v in per_command.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def profile_shares(profiler: cProfile.Profile) -> Dict[str, float]:
    """Share of profiled self time spent in econvex.extreal and in fractions."""
    total = extreal = fractions = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profiler).stats.items():
        total += tottime
        path = Path(filename)
        if path.name == "extreal.py" and path.parent.name == "econvex":
            extreal += tottime
        elif path.name == "fractions.py":
            fractions += tottime
    return {
        "extreal.self_share": extreal / total if total else 0.0,
        "fractions.self_share": fractions / total if total else 0.0,
    }


def traced_metrics(runner: Runner, untraced_pass_s: float):
    """Per-layer metrics from one traced pass and one profiled pass.

    The traced pass runs with the alarm sampler on, as the timed passes do,
    so trace.overhead_s compares like with like; spans are timed on a clock
    that leaves out the sampler's time, and scaled by the samples of the
    pass.  For the profiled pass the alarm is paused and the profiler runs
    only inside cli.main, so neither the sampler nor the checks are in the
    profile.
    """
    sampler = runner.sampler
    first = len(sampler.samples)
    tr = tracing.Tracer(clock=sampler.clock)
    tr.install()
    try:
        traced = runner.run_pass("traced")
    finally:
        tr.remove()
    factor = sampler.factor(first)
    metrics = {k: v * factor if is_time(k) else v
               for k, v in tracing.per_layer_metrics(tr).items()}
    metrics["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in traced["commands"])
    metrics["trace.overhead_s"] = traced["seconds"] - untraced_pass_s

    sampler.pause()
    profiler = cProfile.Profile()
    runner.profiler = profiler
    try:
        runner.run_pass("profiled")
    finally:
        runner.profiler = None
    sampler.resume()
    metrics.update(profile_shares(profiler))
    return metrics, tr.span_table()


def set_up(name: str, seed: int, size: str, work: Path):
    """Import econvex and write the workload's inputs in this process."""
    cli = import_econvex()
    wl = workloads.build(name, seed, size)
    wl.write(work)
    return cli, wl


# A fresh interpreter that does what set_up does: argv is
# SRC, HERE, workload, seed, size, work directory.
_SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import pathlib, econvex.cli, workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
    ".write(pathlib.Path(sys.argv[6]))"
)


def setup_seconds(name: str, seed: int, size: str, work: Path,
                  sampler: SpeedSampler) -> List[dict]:
    """Process start to inputs written, timed over SETUP_REPEATS children.

    The alarm is paused meanwhile: a sample taken in this process would run
    beside the child on another CPU rather than delay it.
    """
    argv = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE), name, str(seed), size,
            str(work)]
    sampler.pause()
    setups = []
    for _ in range(SETUP_REPEATS):
        _, scaled, wall, _ = sampler.timed(
            lambda: subprocess.run(argv, check=True, capture_output=True, timeout=60))
        setups.append({"seconds": scaled, "wall_s": wall})
    sampler.resume()
    return setups


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the full record."""
    os.environ.pop("ECONVEX_THREADS", None)  # measure the default, single-threaded path
    work_parent = HERE / ".work"
    work_parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_parent))
    span_table = None
    try:
        cli, wl = set_up(name, seed, size, work)
        with SpeedSampler() as sampler:
            setups = setup_seconds(name, seed, size, work, sampler)
            checker = workloads.Checker(wl, workloads.load_digests()[size])
            runner = Runner(cli, wl, work, checker, sampler)
            passes = runner.timed_passes(seconds)
            if trace:
                metrics, span_table = traced_metrics(
                    runner, statistics.median(p["seconds"] for p in passes))
                metrics.update(kind_seconds(passes))
            else:
                metrics = end_to_end(passes)
                metrics["setup_s"] = statistics.median(s["seconds"] for s in setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_parent.rmdir()  # only when no other run is using it
    failures = [r for r in runner.records if r["error"]]
    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "instance": {**vars(wl.instance), "n": wl.instance_n, "v_gp": str(checker.oracle)},
        "work_per_pass": [c.key for c in wl.commands],
        "passes": len(passes),
        "reference_s_median": statistics.median(sampler.samples),
        "speed_samples": len(sampler.samples),
        "attempted": len(runner.records),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "setups": setups,
        "span_table": span_table,
        "records": runner.records,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--out", type=Path, help="also write the full record as JSON")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    rec = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    env = rec["environment"]
    print(f"# workload={rec['workload']} seed={rec['seed']} size={rec['size']} trace={args.trace}")
    print(f"# python={env['python']} nproc={env['nproc']} cpu={env['cpu']}")
    print(f"# seeded instance {rec['instance']}")
    print(f"# {rec['passes']} passes of {len(rec['work_per_pass'])} commands: "
          + "; ".join(rec["work_per_pass"]))
    print(f"# times in reference-scaled seconds: reference loop median "
          f"{rec['reference_s_median']:.6f} s over {rec['speed_samples']} samples, "
          f"nominal {REFERENCE_S} s")
    print(f"# fail_ratio = {rec['failed']}/{rec['attempted']}")
    for f in rec["failures"]:
        print(f"# FAILED [{f['phase']}] {f['key']}: {f['error']}")
    metrics = {}
    for m in declared:
        value = rec["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value} {m['unit']}")
    if args.out:
        args.out.write_text(json.dumps(rec, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
