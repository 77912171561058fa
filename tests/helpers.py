"""Shared builders for duality/subdifferential/lagrangian tests."""

import copy
import random
from fractions import Fraction

from hypothesis import strategies as st

from econvex.conjugation import DualGrid, DualPairPoint, DualPoint
from econvex.duality import PerturbationProblem
from econvex.extreal import NEG_INF, POS_INF, ExtReal
from econvex.funcrep import Grid, PerturbFn

from econvex import catalog


def scalar(v, backend):
    return Fraction(v) if backend == "rational" else float(v)


@st.composite
def ext_values(draw, n, backend):
    """n extended reals: finite quarters, +inf and -inf; one draw in
    five makes every value +inf (an empty domain).  Quarters are dyadic,
    so float sums and differences of a few of them are exact."""
    if draw(st.integers(0, 4)) == 4:
        return [POS_INF] * n
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(["finite"] * 6 + ["+inf", "+inf", "-inf"]))
        if kind == "finite":
            out.append(ExtReal(scalar(Fraction(draw(st.integers(-12, 12)), 4), backend)))
        else:
            out.append(POS_INF if kind == "+inf" else NEG_INF)
    return out


def catalog_problem(name):
    return catalog.load(name).build()


def fenchel_abs_duality_grid(n):
    """fenchel_abs on n-point x and y grids with x* in -4..4, u* in
    {-1, 0, 1}, y* in {-1, 0, 1}, v* = 0 and alpha = 1: 81 paired dual
    points that share 3 gates."""
    doc = copy.deepcopy(catalog.entry("fenchel_abs"))
    doc["grids"].update(
        x={"lo": "-5", "hi": "5", "count": n},
        y={"lo": "-5", "hi": "5", "count": n},
        xstar=[str(v) for v in range(-4, 5)],
        ustar=["-1", "0", "1"],
        ystar=["-1", "0", "1"],
        vstar=["0"],
        alpha=["1"],
    )
    return doc


def abs_pair_problem() -> PerturbationProblem:
    """phi(x, y) = |x| + |x + y|: every slice is finite piecewise-affine
    with slopes in {-1, 0, 1}, so the Y-side dual grid below recovers all
    slices exactly and the saddle-point equivalence has its hypothesis."""
    from econvex.funcrep import Abs, Affine, Sum
    from econvex.conjugation import pair_tensor_dual_grid, tensor_dual_grid

    expr = Sum((Abs(Affine.of((1,), (0,))), Abs(Affine.of((1,), (1,)))))
    phi = PerturbFn(1, 1, expr=expr)
    x_grid = Grid.uniform(-4, 4, 9)
    y_grid = Grid.uniform(-4, 4, 9)
    dual_y = tensor_dual_grid([(-1,), (0,), (1,)], [(0,)], [1])
    pairs = pair_tensor_dual_grid(
        [(-1,), (0,), (1,)], [(-1,), (0,), (1,)], [(0,)], [(0,)], [1]
    )
    return PerturbationProblem(phi, x_grid, y_grid, dual_y, pairs, name="abs_pair")


def random_problem(
    rng: random.Random,
    backend: str = "float",
    max_x: int = 9,
    max_y: int = 9,
    max_dual: int = 12,
    max_pairs: int = 12,
    neg_inf_rate: float = 0.02,
) -> PerturbationProblem:
    """Random table-backed instance; grids are small, values include
    infinities so the convention arithmetic is exercised end to end."""

    def scalar(v):
        return float(v) if backend == "float" else Fraction(v)

    nx = rng.randint(2, max_x)
    ny = rng.randint(2, max_y)
    xs = rng.sample(range(-50, 51), nx)
    ys = [0] + rng.sample([v for v in range(-50, 51) if v != 0], ny - 1)
    x_grid = Grid(1, [(scalar(v),) for v in xs], backend)
    y_grid = Grid(1, [(scalar(v),) for v in ys], backend)

    def cell():
        u = rng.random()
        if u < 0.12:
            return POS_INF
        if u < 0.12 + neg_inf_rate:
            return NEG_INF
        return ExtReal(scalar(Fraction(rng.randint(-20, 20), 4)))

    table = {
        (x, y): cell() for x in x_grid.points for y in y_grid.points
    }
    phi = PerturbFn(1, 1, table=table)

    seen = set()
    duals = []
    while len(duals) < rng.randint(1, max_dual):
        w = (rng.randint(-3, 3), rng.randint(-2, 2), rng.choice([1, 2, 3]))
        if w not in seen:
            seen.add(w)
            duals.append(DualPoint.of((w[0],), (w[1],), w[2], backend))
    dual_y = DualGrid(duals, backend)

    seen = set()
    pairs = []
    while len(pairs) < rng.randint(0, max_pairs):
        p = (
            rng.randint(-3, 3),
            rng.randint(-3, 3),
            rng.randint(-2, 2),
            rng.randint(-2, 2),
            rng.choice([-1, 1, 2, 3]),
        )
        if p not in seen:
            seen.add(p)
            pairs.append(
                DualPairPoint.of((p[0],), (p[1],), (p[2],), (p[3],), p[4], backend)
            )
    full = DualGrid(pairs, backend)
    return PerturbationProblem(phi, x_grid, y_grid, dual_y, full, name="random")
