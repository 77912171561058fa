"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` wraps the layer boundaries of ``econvex`` -- the public
functions, the cached properties of ``PerturbationProblem`` and a few
methods -- and patches each wrapped name in every ``econvex`` module that
bound it.  Spans are kept in memory as ``(name, parent, start, end)``
rows; a span's self time is its duration minus the durations of its
direct children.  ``Tracer.remove`` puts every original object back.

Per-operation helpers such as the coupling are only counted, never timed:
a span per arithmetic step would cost more than the step.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property
from typing import Dict, List, Optional, Tuple

LAYERS = ("cli", "problemio", "funcrep", "conjugation", "duality",
          "subdifferential", "lagrangian", "esets")

PROBLEM_PROPERTIES = (
    "product", "phi_on_product", "f0", "p_fn", "psi", "psi_prime",
    "x_side_grid", "f0_conj", "f0_biconj", "phi_biconj_at_zero",
    "g_on_dual_y", "g_prime", "p_conj", "p_biconj",
)

# (module, attribute, span name).  "Class.attr" names a method; the
# PerturbationProblem cached properties are added in _boundaries().
_FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("problemio", "loads", "problemio.loads"),
    ("problemio", "load", "problemio.load"),
    ("problemio", "ProblemFile.build", "problemio.build"),
    ("problemio", "boundary_coincidences", "problemio.boundary_scan"),
    ("problemio", "boundary_warnings", "problemio.boundary_warnings"),
    ("funcrep", "PerturbFn.value", "funcrep.phi"),
    ("funcrep", "product_grid", "funcrep.product_grid"),
    ("funcrep", "restrict_to_zero", "funcrep.restrict_to_zero"),
    ("funcrep", "infimum_value_function", "funcrep.infimum_value_function"),
    ("funcrep", "slice_x", "funcrep.slice_x"),
    ("conjugation", "c_conjugate", "conjugation.c_conjugate"),
    ("conjugation", "cprime_conjugate", "conjugation.cprime_conjugate"),
    ("conjugation", "biconjugate", "conjugation.biconjugate"),
    ("conjugation", "tensor_dual_grid", "conjugation.tensor_dual_grid"),
    ("conjugation", "pair_tensor_dual_grid", "conjugation.pair_tensor_dual_grid"),
    ("duality", "primal_value", "duality.primal_value"),
    ("duality", "dual_value", "duality.dual_value"),
    ("duality", "dual_value_via_p", "duality.dual_value_via_p"),
    ("duality", "converse_pair_values", "duality.converse_pair_values"),
    ("duality", "weak_chain_audit", "duality.weak_chain_audit"),
    ("duality", "c5_audit", "duality.c5_audit"),
    ("duality", "c5bar_audit", "duality.c5bar_audit"),
    ("duality", "theorem31_audit", "duality.theorem31_audit"),
    ("duality", "corollary310_audit", "duality.corollary310_audit"),
    ("duality", "converse_duality_report", "duality.report"),
    ("subdifferential", "is_c_subgradient", "subdifferential.is_c_subgradient"),
    ("subdifferential", "is_c_subgradient_via_conjugate",
     "subdifferential.is_c_subgradient_via_conjugate"),
    ("subdifferential", "conjugate_value", "subdifferential.conjugate_value"),
    ("subdifferential", "c_subdifferential", "subdifferential.c_subdifferential"),
    ("subdifferential", "eps_c_subdifferential", "subdifferential.eps_c_subdifferential"),
    ("subdifferential", "is_cprime_subgradient", "subdifferential.is_cprime_subgradient"),
    ("subdifferential", "transfer_audit", "subdifferential.transfer_audit"),
    ("subdifferential", "total_duality_certificate",
     "subdifferential.total_duality_certificate"),
    ("subdifferential", "prop43_audit", "subdifferential.prop43_audit"),
    ("subdifferential", "theorem43_audit", "subdifferential.theorem43_audit"),
    ("subdifferential", "theorem44_audit", "subdifferential.theorem44_audit"),
    ("lagrangian", "CLagrangian.__init__", "lagrangian.table"),
    ("lagrangian", "lagrangian_value", "lagrangian.lagrangian_value"),
    ("lagrangian", "dual_slice_audit", "lagrangian.dual_slice_audit"),
    ("lagrangian", "supinf_value", "lagrangian.supinf_value"),
    ("lagrangian", "infsup_value", "lagrangian.infsup_value"),
    ("lagrangian", "is_saddle_point", "lagrangian.is_saddle_point"),
    ("lagrangian", "saddle_search", "lagrangian.saddle_search"),
    ("lagrangian", "prop55_audit", "lagrangian.prop55_audit"),
    ("lagrangian", "example52_audit", "lagrangian.example52_audit"),
    ("esets", "EPolyhedron.contains", "esets.contains"),
    ("esets", "EPolyhedron.is_empty", "esets.is_empty"),
    ("esets", "separate", "esets.separate"),
    ("esets", "in_recession_cone", "esets.in_recession_cone"),
    ("esets", "lower_envelope", "esets.lower_envelope"),
    ("esets", "is_functionally_representable", "esets.is_functionally_representable"),
)

# Count-only wrappers: (module whose global name is replaced, name, counter).
_COUNTED = (
    ("subdifferential", "coupling_c", "subdifferential.coupling_evals"),
    ("lagrangian", "coupling_c", "lagrangian.coupling_evals"),
)

_VISITS = "subdifferential.is_c_subgradient.visits"


def _boundaries() -> List[Tuple[str, str, str]]:
    props = [("duality", f"PerturbationProblem.{p}", f"duality.{p}") for p in PROBLEM_PROPERTIES]
    return list(_FUNCTIONS) + props


def econvex_modules() -> Dict[str, object]:
    """Loaded econvex modules by short name ('' for the package itself)."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "econvex" or name.startswith("econvex.")):
            out[name.partition(".")[2]] = mod
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # the time source of every span
        self.spans: List[Optional[Tuple]] = []
        self.counts: Counter = Counter()
        self._stack: List[Tuple[int, str]] = []
        # (owner, attribute, original) for every patch install() made; kept
        # after remove() so callers can check that each original is back.
        self.patched: List[Tuple[object, str, object]] = []
        self._installed = False

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts, stack = self.counts, self._stack
        visits_in = "subdifferential.is_c_subgradient"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if stack and stack[-1][1] == visits_in:
                counts[_VISITS] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / remove ------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        self.patched = []
        mods = econvex_modules()
        for layer, attr, name in _boundaries():
            owner_name, _, member = attr.rpartition(".")
            module = mods[layer]
            if owner_name:
                cls = getattr(module, owner_name)
                original = cls.__dict__[member]
                if isinstance(original, cached_property):
                    self._patch(original, "func", self._span(name, original.func, HOOKS.get(name)))
                else:
                    self._patch(cls, member, self._span(name, original, HOOKS.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self._span(name, original, HOOKS.get(name))
            self._rebind(mods, original, wrapper)
        for layer, attr, key in _COUNTED:
            module = mods[layer]
            self._patch(module, attr, self._counted(key, getattr(module, attr)))

    def _rebind(self, mods, original, wrapper) -> None:
        """Patch every econvex module attribute bound to ``original``."""
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self._installed = False

    # -- summaries -------------------------------------------------------

    def span_table(self) -> Dict[str, Dict[str, float]]:
        """calls, inclusive seconds (outermost spans of a name) and self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        table: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, parent, start, end) in enumerate(spans):
            row = table[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                row["s"] += end - start
        return dict(table)

    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, row in self.span_table().items():
            out[name.partition(".")[0]] += row["self_s"]
        return out


# ---------------------------------------------------------------------------
# Counts derived from a span's arguments and result
# ---------------------------------------------------------------------------


def _scan_hook(counts, args, result):
    P = args[0]
    counts["problemio.boundary_scan.pairs"] += (
        len(P.dual_y_grid) * len(P.y_grid)
        + len(P.full_dual_grid) * len(P.x_grid) * len(P.y_grid)
    )
    counts["problemio.boundary_scan.hits"] += len(result)


def _conj_hook(prefix):
    def hook(counts, args, result):
        counts[prefix + ".pairs"] += len(args[0].grid) * len(args[1])
        counts["conjugation.outputs"] += len(result.values)
        counts["conjugation.finite_outputs"] += sum(1 for v in result.values if v.is_finite)
    return hook


def _member_hook(counts, args, result):
    if result:
        counts["subdifferential.is_c_subgradient.members"] += 1


def _table_hook(counts, args, result):
    counts["lagrangian.table.cells"] += len(args[0].table)


HOOKS = {
    "problemio.boundary_scan": _scan_hook,
    "conjugation.c_conjugate": _conj_hook("conjugation.c_conjugate"),
    "conjugation.cprime_conjugate": _conj_hook("conjugation.cprime_conjugate"),
    "subdifferential.is_c_subgradient": _member_hook,
    "lagrangian.table": _table_hook,
}


def per_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by BENCHMARK.json name."""
    table = tracer.span_table()
    counts = tracer.counts

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def secs(name):
        return table.get(name, {}).get("s", 0.0)

    def share(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    m: Dict[str, float] = {}
    for layer, s in tracer.layer_self().items():
        # esets calls no other layer, so its self time is all its time.
        m["esets.s" if layer == "esets" else f"{layer}.self_s"] = s
    m["problemio.loads.calls"] = calls("problemio.loads")
    m["problemio.loads.s"] = secs("problemio.loads")
    m["problemio.build.s"] = secs("problemio.build")
    m["problemio.boundary_scan.s"] = secs("problemio.boundary_scan")
    m["problemio.boundary_scan.pairs"] = counts["problemio.boundary_scan.pairs"]
    m["problemio.boundary_scan.hits"] = counts["problemio.boundary_scan.hits"]
    m["funcrep.phi_evals"] = calls("funcrep.phi")
    m["funcrep.phi.s"] = secs("funcrep.phi")
    for kind in ("c_conjugate", "cprime_conjugate"):
        m[f"conjugation.{kind}.calls"] = calls(f"conjugation.{kind}")
        m[f"conjugation.{kind}.s"] = secs(f"conjugation.{kind}")
        m[f"conjugation.{kind}.pairs"] = counts[f"conjugation.{kind}.pairs"]
    m["conjugation.finite_share"] = share("conjugation.finite_outputs", "conjugation.outputs")
    for prop in PROBLEM_PROPERTIES:
        if prop not in ("product", "x_side_grid"):
            m[f"duality.{prop}.s"] = secs(f"duality.{prop}")
    m["duality.report.calls"] = calls("duality.report")
    m["duality.report.s"] = secs("duality.report")
    m["duality.c5_audit.calls"] = calls("duality.c5_audit")
    m["duality.c5bar_audit.calls"] = calls("duality.c5bar_audit")
    sub = "subdifferential.is_c_subgradient"
    m[f"{sub}.calls"] = calls(sub)
    m[f"{sub}.s"] = secs(sub)
    m[f"{sub}.visits"] = counts[_VISITS]
    m["subdifferential.member_share"] = (
        counts[f"{sub}.members"] / calls(sub) if calls(sub) else 0.0
    )
    m["subdifferential.is_cprime_subgradient.calls"] = calls("subdifferential.is_cprime_subgradient")
    m["subdifferential.conjugate_value.calls"] = calls("subdifferential.conjugate_value")
    m["subdifferential.coupling_evals"] = counts["subdifferential.coupling_evals"]
    for audit in ("theorem43_audit", "theorem44_audit", "prop43_audit", "transfer_audit"):
        m[f"subdifferential.{audit}.s"] = secs(f"subdifferential.{audit}")
    m["lagrangian.table.s"] = secs("lagrangian.table")
    m["lagrangian.table.cells"] = counts["lagrangian.table.cells"]
    m["lagrangian.coupling_evals"] = counts["lagrangian.coupling_evals"]
    m["lagrangian.saddle_search.s"] = secs("lagrangian.saddle_search")
    m["lagrangian.saddle_tests"] = calls("lagrangian.is_saddle_point")
    m["lagrangian.dual_slice_audit.calls"] = calls("lagrangian.dual_slice_audit")
    m["lagrangian.dual_slice_audit.s"] = secs("lagrangian.dual_slice_audit")
    m["lagrangian.prop55_audit.s"] = secs("lagrangian.prop55_audit")
    esets = [name for name in table if name.startswith("esets.")]
    m["esets.calls"] = sum(calls(name) for name in esets)
    return m
