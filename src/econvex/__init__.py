"""Workbench for evenly convex analysis at desk scale.

Exact rational models of evenly convex sets, the conditional-bilinear
coupling and its conjugation operators, perturbational primal/dual problem
pairs with their audit suite, generalized subdifferentials, and the
associated Lagrangian saddle-point machinery.
"""

from econvex.conjugation import (
    DualGrid,
    DualPoint,
    biconjugate,
    c_conjugate,
    coupling_c,
    cprime_conjugate,
)
from econvex.duality import DualityReport, PerturbationProblem, converse_duality_report
from econvex.esets import EPolyhedron, Halfspace
from econvex.extreal import NEG_INF, POS_INF, ExtReal
from econvex.funcrep import Grid, PerturbFn, SampledFn

__version__ = "0.1.0"

__all__ = [
    "ExtReal",
    "NEG_INF",
    "POS_INF",
    "Halfspace",
    "EPolyhedron",
    "Grid",
    "SampledFn",
    "PerturbFn",
    "DualPoint",
    "DualGrid",
    "coupling_c",
    "c_conjugate",
    "cprime_conjugate",
    "biconjugate",
    "PerturbationProblem",
    "DualityReport",
    "converse_duality_report",
    "__version__",
]
