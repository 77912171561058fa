"""Workload definitions: generated problem files, command lists, output checks.

Every problem lives on the 1-D ``fenchel_abs`` family layout: x and y grids
on [-5, 5] with ``n`` points each, one perturbation function phi and two dual
grids.  The seed orders the commands inside each pass and draws one extra
instance per workload,

    phi(x, y) = |a*x + b*y + c| + max(d*x, e*y) + indicator{f*x + g*y <= h},

with small integer coefficients and h >= 1, so the origin is feasible and
the primal value is finite.  The program only ever sees the JSON files.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("duality_sweep", "lagrangian_wide", "audit_suite")

# Grid sizes per axis.  "full" is the benchmark; "tiny" keeps the same
# command lists on small grids for the benchmark's own tests.
SIZES = {
    "full": {"large": 41, "mid": 21, "small": 11},
    "tiny": {"large": 9, "mid": 7, "small": 5},
}

# Dual grids, as (xstar, ustar, ystar, vstar, alpha) lists.
# duality_sweep: |W| = 9 * 3 * 3 = 81 paired points, |W_y| = 3.
DUALITY_GRID = (range(-4, 5), (-1, 0, 1), (-1, 0, 1), (0,), (1,))
# The catalog's fenchel_abs grid, |W| = 5 * 3 = 15 paired points, |W_y| = 3.
CATALOG_GRID = (range(-2, 3), (0,), (-1, 0, 1), (0,), (1,))
# lagrangian_wide: x* = u* = 0 and a wide Y side, |W_y| = |W| = 9 * 3 * 2 = 54.
WIDE_GRID = ((0,), (0,), range(-4, 5), (-1, 0, 1), (1, 2))

KIND_OF_VERB = {
    "duality": "duality",
    "conjugate": "conjugate",
    "biconjugate": "conjugate",
    "lagrangian": "lagrangian",
    "audit": "audit",
}
KINDS = ("duality", "conjugate", "lagrangian", "audit")

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def _affine(x=0, y=0, const=0) -> dict:
    return {"op": "affine", "x": [str(x)], "y": [str(y)], "const": str(const)}


def _leq(bound) -> dict:
    return {"dim": 1, "constraints": [{"a": ["1"], "b": str(bound), "strict": False}]}


FENCHEL_ABS_PHI = {
    "op": "sum",
    "terms": [
        {"op": "abs", "arg": _affine(x=1)},
        {"op": "indicator", "set": _leq(0), "rows": [{"x": ["1"], "y": ["1"]}]},
    ],
}


def problem_json(name: str, phi: dict, n: int, backend: str, dual_grid) -> str:
    xstar, ustar, ystar, vstar, alpha = dual_grid
    doc = {
        "kind": "problem",
        "name": name,
        "x_dim": 1,
        "y_dim": 1,
        "backend": backend,
        "phi": phi,
        "grids": {
            "x": {"lo": "-5", "hi": "5", "count": n},
            "y": {"lo": "-5", "hi": "5", "count": n},
            "xstar": [str(v) for v in xstar],
            "ustar": [str(v) for v in ustar],
            "ystar": [str(v) for v in ystar],
            "vstar": [str(v) for v in vstar],
            "alpha": [str(v) for v in alpha],
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class Instance:
    """The seeded problem phi = |ax+by+c| + max(dx, ey) + ind{fx+gy <= h}."""

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int
    g: int
    h: int

    @staticmethod
    def draw(rng: random.Random) -> "Instance":
        a, b, c, d, e, f, g = (rng.randint(-3, 3) for _ in range(7))
        return Instance(a, b, c, d, e, f, g, rng.randint(1, 4))

    def phi(self) -> dict:
        return {
            "op": "sum",
            "terms": [
                {"op": "abs", "arg": _affine(self.a, self.b, self.c)},
                {"op": "max", "terms": [_affine(x=self.d), _affine(y=self.e)]},
                {
                    "op": "indicator",
                    "set": _leq(self.h),
                    "rows": [{"x": [str(self.f)], "y": [str(self.g)]}],
                },
            ],
        }

    def primal_value(self, n: int) -> Fraction:
        """min over the x-grid of phi(x, 0), in Fraction arithmetic."""
        step = Fraction(10, n - 1)
        best = None
        for i in range(n):
            x = -5 + i * step
            if self.f * x > self.h:
                continue
            v = abs(self.a * x + self.c) + max(self.d * x, 0)
            best = v if best is None else min(best, v)
        return best  # x = 0 is always feasible since h >= 1


@dataclass(frozen=True)
class Command:
    argv: Tuple[str, ...]  # argv[1] is a file name inside the work directory
    seeded: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def kind(self) -> str:
        return KIND_OF_VERB[self.argv[0]]

    def resolved(self, directory: Path) -> List[str]:
        return [self.argv[0], str(directory / self.argv[1]), *self.argv[2:]]


@dataclass
class Workload:
    name: str
    files: Dict[str, str]
    commands: List[Command]
    instance: Instance
    instance_n: int
    rng: random.Random  # continues after the draw; orders the passes

    def write(self, directory: Path) -> None:
        for fname, text in self.files.items():
            (directory / fname).write_text(text, encoding="utf-8")

    def pass_order(self) -> List[Command]:
        order = list(self.commands)
        self.rng.shuffle(order)
        return order


def build(name: str, seed: int, size: str = "full") -> Workload:
    """Files and commands of one workload; the same seed gives the same inputs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    n = SIZES[size]
    rng = random.Random(f"{name}:{seed}")
    inst = Instance.draw(rng)
    files: Dict[str, str] = {}
    commands: List[Command] = []

    def add(fname, text):
        files[fname] = text
        return fname

    if name == "duality_sweep":
        big = add(f"ds{n['large']}.json",
                  problem_json("fenchel_abs", FENCHEL_ABS_PHI, n["large"], "rational", DUALITY_GRID))
        flt = add(f"ds{n['large']}f.json",
                  problem_json("fenchel_abs", FENCHEL_ABS_PHI, n["large"], "float", DUALITY_GRID))
        seeded_n = n["mid"]
        sd = add("seeded.json", problem_json("seeded", inst.phi(), seeded_n, "rational", DUALITY_GRID))
        commands = [
            Command(("duality", big)),
            Command(("conjugate", big)),
            Command(("biconjugate", big)),
            Command(("duality", flt)),
            Command(("duality", sd), seeded=True),
        ]
    elif name == "lagrangian_wide":
        big = add(f"lw{n['large']}.json",
                  problem_json("fenchel_abs", FENCHEL_ABS_PHI, n["large"], "rational", WIDE_GRID))
        flt = add(f"lw{n['large']}f.json",
                  problem_json("fenchel_abs", FENCHEL_ABS_PHI, n["large"], "float", WIDE_GRID))
        seeded_n = n["mid"]
        sd = add("seeded.json", problem_json("seeded", inst.phi(), seeded_n, "rational", WIDE_GRID))
        commands = [
            Command(("lagrangian", big)),
            Command(("lagrangian", big, "--output", "csv")),
            Command(("lagrangian", flt)),
            Command(("lagrangian", flt, "--output", "csv")),
            Command(("lagrangian", sd), seeded=True),
        ]
    else:
        from econvex import catalog

        for entry in catalog.names():
            fname = add(f"{entry}.json", json.dumps(catalog.entry(entry), indent=2, sort_keys=True) + "\n")
            commands.append(Command(("audit", fname, "--suite", "all")))
        fa = dict(catalog.entry("fenchel_abs"), backend="float")
        fname = add("fenchel_abs_float.json", json.dumps(fa, indent=2, sort_keys=True) + "\n")
        commands.append(Command(("audit", fname, "--suite", "all")))
        mid = add(f"ds{n['mid']}.json",
                  problem_json("fenchel_abs", FENCHEL_ABS_PHI, n["mid"], "rational", DUALITY_GRID))
        commands.append(Command(("audit", mid, "--suite", "all")))
        seeded_n = n["small"]
        sd = add("seeded.json", problem_json("seeded", inst.phi(), seeded_n, "rational", CATALOG_GRID))
        commands.append(Command(("audit", sd, "--suite", "all"), seeded=True))
    return Workload(name, files, commands, inst, seeded_n, rng)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def _field(stdout: str, pattern: str) -> Optional[Fraction]:
    m = re.search(pattern, stdout, re.MULTILINE)
    try:
        return Fraction(m.group(1)) if m else None
    except ValueError:  # "inf" or "-inf"
        return None


class Checker:
    """Checks each command's output; remembers seeded outputs across passes."""

    def __init__(self, workload: Workload, pinned: Dict[str, str]):
        self.workload = workload
        self.pinned = pinned
        self.oracle = workload.instance.primal_value(workload.instance_n)
        self.seen: Dict[str, str] = {}

    def check(self, cmd: Command, code, stdout: str) -> Optional[str]:
        """None when the output is correct, else the reason it is not."""
        if code != 0:
            return f"exit code {code}"
        got = digest(stdout)
        if not cmd.seeded:
            want = self.pinned.get(cmd.key)
            if want is None:
                return "no pinned digest"
            return None if got == want else "stdout differs from the pinned digest"
        first = self.seen.setdefault(cmd.key, got)
        if first != got:
            return "stdout differs from the first pass"
        return self._check_seeded(cmd.argv[0], stdout)

    def _check_seeded(self, verb: str, stdout: str) -> Optional[str]:
        if verb == "duality":
            v_gp = _field(stdout, r"^v_gp = (\S+)$")
        elif verb == "audit":
            v_gp = _field(stdout, r"^audit\.weak_duality\.detail = .*v\(GP\)=(\S+)$")
        else:
            # The lagrangian report prints no primal value; check the exact
            # chain sup-inf <= inf-sup <= v(GP) against the oracle instead.
            lo = _field(stdout, r"^supinf = (\S+)$")
            hi = _field(stdout, r"^infsup = (\S+)$")
            if lo is None or hi is None:
                return "supinf/infsup missing or not finite"
            if not lo <= hi <= self.oracle:
                return f"supinf={lo} <= infsup={hi} <= v_gp={self.oracle} fails"
            return None
        if v_gp is None:
            return "v_gp missing or not finite"
        if v_gp != self.oracle:
            return f"v_gp = {v_gp}, expected {self.oracle}"
        return None
