import inspect
import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    CATALOG_PROBLEMS,
    LIFT_PROBLEMS,
    abs_pair_problem,
    built_extreals,
    catalog_problem,
    drawn_from,
    fenchel_abs_wide_grid,
    float_twin,
    lifted,
    random_problem,
    reference_c_conjugate,
    scalar,
    scaling_log,
    route_log,
    twin,
    with_plain_scalar,
)

from econvex import catalog, cli, conjugation, extreal, funcrep, lagrangian, problemio
from econvex.conjugation import (
    DualGrid,
    DualPoint,
    _coupling,
    _split_dom,
    coupling_c,
    cprime_conjugate,
    tensor_dual_grid,
)
from econvex.duality import (
    PerturbationProblem,
    converse_duality_report,
    dual_value,
    primal_value,
)
from econvex.esets import dot
from econvex.extreal import NEG_INF, POS_INF, ExtReal
from econvex.funcrep import Grid, PerturbFn, SampledFn
from econvex.lagrangian import (
    CLagrangian,
    dual_slice_audit,
    example52_audit,
    find_convexity_violation,
    infsup_value,
    is_saddle_point,
    lagrangian_table,
    lagrangian_value,
    minimax_ok,
    prop55_audit,
    saddle_search,
    supinf_value,
)
from econvex.subdifferential import conjugate_value, prop43_audit
from oracles import prime_conjugate_value, slice_audit_all_pairs, sup_minus


def w(ys, vs, a):
    return DualPoint.of((ys,), (vs,), a)


@pytest.fixture(scope="module")
def fenchel_abs():
    return catalog_problem("fenchel_abs")


@pytest.fixture(scope="module")
def example52():
    return catalog_problem("example52")


@pytest.fixture(scope="module")
def truncated():
    return catalog_problem("truncated_dual")


class TestLagrangianValue:
    def test_example52_neg_inf_branch(self, example52):
        assert lagrangian_value(example52, (-2,), w(1, 1, 1)) == NEG_INF

    def test_example52_oracle_value_at_zero(self, example52):
        # Direct evaluation of the defining infimum: over y <= 0 the
        # coupling is the identity, so the infimum of -y on the grid is 0.
        assert lagrangian_value(example52, (0,), w(1, 1, 1)) == ExtReal(0)

    def test_fenchel_abs_flat_point_gives_abs(self, fenchel_abs):
        for x in fenchel_abs.x_grid.points:
            assert lagrangian_value(fenchel_abs, x, w(0, 0, 1)) == ExtReal(
                abs(x[0])
            )

    def test_nonpositive_alpha_rejected(self, fenchel_abs):
        with pytest.raises(ValueError):
            lagrangian_value(fenchel_abs, (0,), w(0, 0, 0))

    def test_off_grid_dual_point_computed_directly(self, fenchel_abs):
        # (0, 0, 7) is not on the dual grid but alpha > 0: L = |x| again.
        assert lagrangian_value(fenchel_abs, (2,), w(0, 0, 7)) == ExtReal(2)

    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_an_on_grid_point_is_the_definition_not_the_table(self, name, backend, monkeypatch):
        """At (x, w) on the grids, L(x, w) is the defining infimum: no
        table is built and no slice is conjugated."""
        P = catalog_problem(name) if backend == "rational" else float_twin(name)

        def refuse(*args):
            raise AssertionError("the query swept the slices")

        monkeypatch.setattr(conjugation, "_c_conjugate_rows", refuse)
        monkeypatch.setattr(lagrangian, "_c_conjugate_rows", refuse)
        x, ww = P.x_grid.points[-1], P.dual_y_grid.points[-1]
        value = lagrangian_value(P, x, ww)
        assert not hasattr(P, "_lagrangian_cache")
        monkeypatch.undo()
        assert tagged(value) == tagged(definitional_cell(P, x, ww))

    def test_empty_Yx_gives_pos_inf(self):
        P = catalog_problem("affine_recovery")
        # phi(x, y) = x + ind(x + y >= 0); at x = -5 the slice dom is
        # {y >= 5}, so Y_x = {5} and L is finite; build emptiness via a
        # random table instead.
        rng = random.Random(0)
        while True:
            Q = random_problem(rng, max_x=4, max_y=4)
            empty = [
                x
                for x in Q.x_grid.points
                if all(
                    Q.phi.value(x, y, Q.backend) == POS_INF
                    for y in Q.y_grid.points
                )
            ]
            if empty and len(Q.dual_y_grid) > 0:
                assert (
                    lagrangian_value(Q, empty[0], Q.dual_y_grid.points[0])
                    == POS_INF
                )
                break


class TestDualSliceAudit:
    def test_catalog_instances(self, fenchel_abs, example52, truncated):
        for P in (fenchel_abs, example52, truncated):
            assert dual_slice_audit(P)["ok"]

    def test_random_instances(self):
        rng = random.Random(13)
        for _ in range(10):
            P = random_problem(rng, max_x=5, max_y=5, max_dual=8)
            assert dual_slice_audit(P)["ok"]

    def test_empty_slice_row(self):
        # Slice identically +inf: L = +inf and the conjugate is -inf.
        rng = random.Random(0)
        while True:
            Q = random_problem(rng, max_x=4, max_y=4)
            empty = [
                i
                for i, x in enumerate(Q.x_grid.points)
                if all(
                    Q.phi.value(x, y, Q.backend) == POS_INF
                    for y in Q.y_grid.points
                )
            ]
            if empty and len(Q.dual_y_grid) > 0:
                audit = dual_slice_audit(Q)
                assert audit["ok"]
                assert set(audit["rows"][empty[0]].values) == {NEG_INF}
                rows = funcrep.rows(lagrangian_table(Q).table, len(Q.x_grid))
                assert set(rows[empty[0]]) == {POS_INF}
                break


# ---------------------------------------------------------------------------
# The table read off the kernel against the per-cell definition
# ---------------------------------------------------------------------------

# Small integer coordinates and slopes put grid points on gate boundaries
# <y, v*> = alpha often; payloads from a narrow range make v == <y, y*>
# and ties between rows common.  Each list starts with the value
# hypothesis shrinks toward.
COORDS = (0, 1, -1, 2, -2)
SLOPES = (0, 1, -1, 2)
PAYLOADS = (0, 1, -1, 2, Fraction(1, 4), Fraction(-3, 4))


def definitional_cell(P, x, ww):
    """L(x, w) as the defining infimum over Y_x, one coupling per y."""
    values = ((y, P.phi.value(x, y, P.backend)) for y in P.y_grid.points)
    return extreal.inf(v - coupling_c(y, ww) for y, v in values if v < POS_INF)


def tagged(v):
    """The rendering and the payload type: 0.0 and -0.0 differ here."""
    return repr(v), type(v.value) if v.is_finite else None


def exact_payloads(fn):
    """fn's keys (``SampledFn.keys``) as exact numbers: an int key over
    the scale as a Fraction, any other key as its type and rendering (a
    float +-inf, or a payload as given with the sign of its zero)."""
    return [Fraction(p, fn.scale) if p.__class__ is int else (type(p), repr(p)) for p in fn.keys]


def assert_table_matches_definition(P):
    """Cell i·|W_y| + j of the flat x-major table, and lagrangian_value,
    is the defining infimum at (x_i, w_j); each slice conjugate is the table
    ``c_conjugate`` gives its slice, payload for payload, signed zeros
    included: int keys where it has int keys, over the scale of the one
    sweep of all slices, which may be a multiple of the slice's own."""
    L = CLagrangian(P)
    m = len(P.dual_y_grid)
    assert len(L.table) == len(P.x_grid) * m
    for i, x in enumerate(P.x_grid.points):
        for j, ww in enumerate(P.dual_y_grid.points):
            cell = L.table[i * m + j]
            assert tagged(cell) == tagged(definitional_cell(P, x, ww)), (x, ww)
            assert tagged(lagrangian_value(P, x, ww)) == tagged(cell), (x, ww)
        conjugate = conjugation.c_conjugate(L.slices[i], P.dual_y_grid)
        table = L.slice_conjugates[i]
        assert exact_payloads(table) == exact_payloads(conjugate), x
        assert [tagged(v) for v in table.values] == [
            tagged(v) for v in conjugate.values], x


@st.composite
def slice_values(draw, n, backend):
    """One slice: finite, +inf or -inf values; one draw in five leaves
    Y_x empty.  In the float backend a zero payload may carry either sign."""
    if draw(st.integers(0, 4)) == 4:
        return [POS_INF] * n
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(["finite"] * 6 + ["+inf", "+inf", "-inf"]))
        if kind != "finite":
            out.append(POS_INF if kind == "+inf" else NEG_INF)
            continue
        v = scalar(draw(drawn_from(PAYLOADS, backend)), backend)
        if backend == "float" and v == 0 and draw(st.booleans()):
            v = -0.0
        out.append(ExtReal(v))
    return out


@st.composite
def lagrangian_case(draw, backends=("float", "rational")):
    """A table-backed problem with a 1-D x-grid and a 1-D or 2-D y-grid."""
    backend = draw(st.sampled_from(backends))
    dim = draw(st.integers(1, 2))
    xs = draw(st.lists(drawn_from(COORDS, backend), min_size=1, max_size=3, unique=True))
    vec = st.tuples(*[drawn_from(COORDS, backend)] * dim)
    ys = [(0,) * dim] + draw(st.lists(vec.filter(any), max_size=4, unique=True))
    x_grid = Grid(1, [(scalar(v, backend),) for v in xs], backend)
    y_grid = Grid(dim, [tuple(scalar(c, backend) for c in y) for y in ys], backend)
    table = {}
    for x in x_grid.points:
        table.update(zip(((x, y) for y in y_grid.points),
                         draw(slice_values(len(y_grid), backend))))
    slopes = st.tuples(*[drawn_from(SLOPES, backend)] * dim)
    alphas = drawn_from((1, 2, 3), backend).filter(lambda a: a > 0)
    duals = draw(st.lists(st.tuples(slopes, slopes, alphas),
                          min_size=1, max_size=8, unique=True))
    dual_y = DualGrid([DualPoint.of(ys_, vs, a, backend) for ys_, vs, a in duals])
    return PerturbationProblem(PerturbFn(1, dim, table=table), x_grid, y_grid, dual_y)


@st.composite
def plain_lagrangian_case(draw):
    """A rational case whose Y-side dual grid has one int slope, or one
    int or float coordinate of v* or alpha: every slice sweep must fall
    back.  A float slope is left out: its finite cells would subtract a
    float coupling from a rational value, which both routes refuse."""
    P = draw(lagrangian_case(backends=("rational",)))
    points = list(P.dual_y_grid.points)
    k = draw(st.integers(0, len(points) - 1))
    points[k] = with_plain_scalar(draw, points[k])
    assume(points[k].alpha > 0 and points[k] not in points[:k] + points[k + 1:])
    assume(not any(isinstance(c, float) for c in points[k].xstar))
    return PerturbationProblem(P.phi, P.x_grid, P.y_grid, DualGrid(points))


@pytest.mark.parametrize("name", CATALOG_PROBLEMS)
@pytest.mark.parametrize("backend", ["rational", "float"])
def test_product_tables_are_read_by_rows_and_columns(name, backend, monkeypatch):
    """The report, the audits and the Lagrangian queries read every table
    over a product grid by rows and columns: no point lookup into the
    product grid."""
    P = catalog_problem(name) if backend == "rational" else float_twin(name)
    product, index_of, lookups = P.product, Grid.index_of, []

    def spy(grid, point):
        if grid is product:
            lookups.append(point)
        return index_of(grid, point)

    monkeypatch.setattr(Grid, "index_of", spy)
    P.report
    prop55_audit(P)
    prop43_audit(P)
    supinf_value(P), infsup_value(P), minimax_ok(P)
    dual_slice_audit(P)
    lagrangian_value(P, P.x_grid.points[-1], P.dual_y_grid.points[-1])
    assert lookups == []
    product.index_of(product.points[0])  # the spy is live
    assert len(lookups) == 1


def nan_gate_case():
    """A float y-grid point with an inf coordinate: at v* = 0 its gate dot
    is inf·0, NaN, which shuts the gate as in the definition, so the
    conjugate is +inf although the other point's gate is open; at v* = 1
    the dot is inf, which shuts the gate too."""
    x_grid = Grid(1, [(0.0,), (1.0,)], "float")
    y_grid = Grid(1, [(0.0,), (math.inf,)], "float")
    table = {(x, y): ExtReal(1.0) for x in x_grid.points for y in y_grid.points}
    dual_y = DualGrid(
        [DualPoint.of((0,), (0,), 1, "float"), DualPoint.of((0,), (1,), 2, "float")]
    )
    return PerturbationProblem(PerturbFn(1, 1, table=table), x_grid, y_grid, dual_y)


class TestDualSliceSweep:
    """The check's rows are the definitional conjugate of every slice.
    On ints over a 1-D Y it reads one hull per slice, O(|Y| + #y*) steps;
    elsewhere it takes one dots column per distinct v* and y*."""

    @given(lagrangian_case())
    @example(nan_gate_case())
    @settings(max_examples=300, deadline=None)
    def test_rows_are_the_reference_slice_conjugates(self, P):
        audit = dual_slice_audit(P)
        assert len(audit["rows"]) == len(P.x_grid)
        for x, row in zip(P.x_grid.points, audit["rows"]):
            values = [P.phi.value(x, y, P.backend) for y in P.y_grid.points]
            reference = reference_c_conjugate(SampledFn(P.y_grid, values), P.dual_y_grid)
            assert [tagged(v) for v in row.values] == [tagged(v) for v in reference.values], x
        assert audit["ok"]

    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    def test_the_rational_check_reads_one_hull_per_slice(self, name, monkeypatch):
        """Counts only: on ints over a 1-D Y the check makes no coupling
        and no all-pairs term; per slice with a finite Y_x it builds one
        hull with at most 2·|Y_x| pushes, pops and pointer steps, and
        reads each distinct y* once."""
        P = catalog_problem(name)
        L = lagrangian_table(P)
        calls = no_couplings(monkeypatch)
        monkeypatch.setattr(lagrangian, "_sups", refused)
        runs = hull_steps(lambda: dual_slice_audit(P))
        assert calls == []
        assert_hull_bounds(P, L, runs)

    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    def test_the_float_check_takes_one_dots_column_per_distinct_vstar_and_ystar(self, name, monkeypatch):
        """Counts only: on the values as given the check takes one
        ``esets.dots`` column of <y, v*> per distinct v* and one of
        <y, y*> per distinct y*, a vector that is both taken once, and
        makes no coupling."""
        P = float_twin(name)
        lagrangian_table(P)
        calls = no_couplings(monkeypatch)
        columns, real = [], conjugation.dots
        monkeypatch.setattr(conjugation, "dots", lambda *args: columns.append(args[1]) or real(*args))
        runs = hull_steps(lambda: dual_slice_audit(P))
        assert calls == [] and runs == []
        slopes, gates, _ = P.dual_y_grid.parts
        assert len(columns) == len(set(map(conjugation._key, [*gates, *slopes])))

    def test_the_check_on_lw41_takes_hull_steps_not_terms(self, monkeypatch):
        """Counts only: on the 41 x 41 wide grid the rational check makes
        no coupling, where the all-pairs route makes |W_y|·|Y| = 2,214
        and |X|·|Y|·|W_y| = 90,774 terms, and at most
        |X|·(2·|Y| + #y*) = 3,731 hull steps."""
        P = wide_problem(41, 41, "rational")
        L = lagrangian_table(P)
        calls = no_couplings(monkeypatch)
        runs = hull_steps(lambda: dual_slice_audit(P))
        assert calls == [] and len(runs) == 41
        assert_hull_bounds(P, L, runs)
        assert sum(sum(run.values()) - run["points"] - run["slopes"] for run in runs) <= 41 * (2 * 41 + 9)

    def test_doubling_the_ystars_adds_one_read_per_ystar(self):
        """Counts only: with y* in -4..4 by halves, not by ones, each slice
        makes the same pushes, pops and pointer steps and 17 reads, not 9:
        the added y* cost 8 steps per slice, not 8·|Y|."""
        def steps(ystars):
            doc = dict(fenchel_abs_wide_grid(21, 21), backend="rational")
            doc["grids"]["ystar"] = ystars
            P = problemio.loads(json.dumps(doc)).build()
            lagrangian_table(P)
            return hull_steps(lambda: dual_slice_audit(P))

        ones = steps([str(v) for v in range(-4, 5)])
        halves = steps([str(Fraction(v, 2)) for v in range(-8, 9)])
        assert len(ones) == len(halves) == 21
        for one, half in zip(ones, halves):
            assert [half[k] - one[k] for k in ("push", "pop", "step", "read")] == [0, 0, 0, 8]


def refused(*args):
    raise AssertionError("the check took the all-pairs route")


def no_couplings(monkeypatch) -> list:
    """A list of the raw couplings made from here on."""
    calls, real = [], conjugation._coupling
    monkeypatch.setattr(conjugation, "_coupling", lambda *args: calls.append(args) or real(*args))
    return calls


HULL_LINES = {"hull.append(": "push", "hull.pop()": "pop", "i += 1": "step", "out.append(": "read"}


def hull_steps(call) -> list:
    """Per ``lagrangian._hull_sups`` call that call() makes, a Counter of
    its points and slopes and of the times it ran its push, pop, pointer
    step and read lines, from the line events of that function alone."""
    code = lagrangian._hull_sups.__code__
    source, first = inspect.getsourcelines(lagrangian._hull_sups)
    marks = {first + k: name for k, text in enumerate(source) for mark, name in HULL_LINES.items() if mark in text}
    assert sorted(marks.values()) == sorted(HULL_LINES.values())
    runs, previous = [], sys.gettrace()

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in marks:
            runs[-1][marks[frame.f_lineno]] += 1
        return local

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        runs.append(Counter(points=len(frame.f_locals["points"]), slopes=len(frame.f_locals["slopes"])))
        return local

    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return runs


def assert_hull_bounds(P, L, runs):
    """One hull per slice with a finite nonempty Y_x, over Y_x, with at
    most 2·|Y_x| pushes, pops and pointer steps and one read per distinct
    y*: O(|X|·(|Y| + #y*)) steps in all."""
    swept = [sl for sl in L.slices if _split_dom(sl)[0] is not None]
    slopes = {ww.xstar for ww in P.dual_y_grid.points}
    assert [run["points"] for run in runs] == [len(_split_dom(sl)[0]) for sl in swept]
    assert all(run["slopes"] == run["read"] == len(slopes) for run in runs)
    assert all(run["push"] + run["pop"] + run["step"] <= 2 * run["points"] for run in runs)


@st.composite
def gate_boundary_case(draw):
    """A drawn case plus one dual point whose gate passes exactly through
    a grid point y: <y, v*> = alpha > 0, so y shuts the gate."""
    P = draw(lagrangian_case())
    y = draw(st.sampled_from(P.y_grid.points))
    vstar = tuple(scalar(draw(drawn_from(SLOPES, P.backend)), P.backend) for _ in y)
    ystar = tuple(scalar(draw(drawn_from(SLOPES, P.backend)), P.backend) for _ in y)
    alpha = dot(y, vstar)
    assume(alpha > 0)
    ww = DualPoint.of(ystar, vstar, alpha, P.backend)
    assume(ww not in P.dual_y_grid)
    dual_y = DualGrid([*P.dual_y_grid.points, ww])
    return PerturbationProblem(P.phi, P.x_grid, P.y_grid, dual_y)


@st.composite
def one_point_case(draw):
    """A drawn case whose every slice is finite at one drawn y and +inf
    elsewhere: each domain is a single point."""
    P = draw(lagrangian_case())
    table = {}
    for x in P.x_grid.points:
        k = draw(st.integers(0, len(P.y_grid) - 1))
        for i, y in enumerate(P.y_grid.points):
            v = scalar(draw(drawn_from(PAYLOADS, P.backend)), P.backend)
            table[x, y] = ExtReal(v) if i == k else POS_INF
    return PerturbationProblem(PerturbFn(1, P.y_grid.dim, table=table), P.x_grid, P.y_grid,
                               P.dual_y_grid)


@st.composite
def affine_case(draw, backends=("float", "rational")):
    """A drawn case whose every slice is affine, <y, a> + b, on a drawn
    part of Y (all of it, one time in two) and +inf off it: many
    collinear points for the hull."""
    P = draw(lagrangian_case(backends))
    table = {}
    for x in P.x_grid.points:
        a = [scalar(draw(drawn_from(SLOPES, P.backend)), P.backend) for _ in range(P.y_grid.dim)]
        b = scalar(draw(drawn_from(PAYLOADS, P.backend)), P.backend)
        whole = draw(st.booleans())
        for y in P.y_grid.points:
            on = whole or draw(st.booleans())
            table[x, y] = ExtReal(dot(y, a) + b) if on else POS_INF
    return PerturbationProblem(PerturbFn(1, P.y_grid.dim, table=table), P.x_grid, P.y_grid,
                               P.dual_y_grid)


@st.composite
def keyed_case(draw):
    """A rational drawn case whose phi on X x Y is an exact table, its
    keys over the lcm of its finite values' denominators times a drawn
    factor, as the sampler gives: the check reads the slices' int keys."""
    P = draw(lagrangian_case(backends=("rational",)) | affine_case(backends=("rational",)))
    values = P.phi_on_product.values
    scale = math.lcm(*(v.value.denominator for v in values if v.is_finite)) * draw(st.sampled_from([1, 2, 6]))
    keys = [v.value.numerator * (scale // v.value.denominator) if v.is_finite else v._v for v in values]
    twin = PerturbationProblem(P.phi, P.x_grid, P.y_grid, P.dual_y_grid)
    twin.phi_on_product = SampledFn.keyed(twin.product, keys, scale, "rational")  # the cached property's slot
    return twin


SLICE_CASES = lagrangian_case() | gate_boundary_case() | affine_case() | keyed_case()


class TestHullAgainstAllPairs:
    """The check against ``oracles.slice_audit_all_pairs``, one coupling
    and one term per (x, y, w), on the verdict and on every row, by
    rendering and payload type: on ints over a 1-D Y the check reads
    hulls, elsewhere it takes dots columns."""

    @given(SLICE_CASES)
    @example(nan_gate_case())
    @settings(max_examples=400, deadline=None)
    def test_the_check_is_the_all_pairs_oracle(self, P):
        got, want = dual_slice_audit(P), slice_audit_all_pairs(P)
        assert got["ok"] is want["ok"] is True
        assert [[tagged(v) for v in row.values] for row in got["rows"]] == [
            [tagged(v) for v in row] for row in want["rows"]]

    @given(SLICE_CASES, st.data())
    @settings(max_examples=300, deadline=None)
    def test_both_routes_catch_a_planted_fault(self, P, data):
        """A finite key one unit of its scale off, two unequal keys
        swapped, or a +-inf cell made finite: both routes fail."""
        L = lagrangian_table(P)
        keys = list(L.keys)
        finite = [k for k, key in enumerate(keys) if -math.inf < key < math.inf]
        infinite = [k for k, key in enumerate(keys) if key in (-math.inf, math.inf)]
        unequal = [(i, j) for i, j in itertools.combinations(range(len(keys)), 2) if keys[i] != keys[j]]
        faults = [name for name, at in (("moved", finite), ("swapped", unequal), ("made finite", infinite)) if at]
        assume(faults)
        fault = data.draw(st.sampled_from(faults))
        if fault == "moved":
            k = data.draw(st.sampled_from(finite))
            keys[k] = one_step_off(keys[k])
        elif fault == "swapped":
            i, j = data.draw(st.sampled_from(unequal))
            keys[i], keys[j] = keys[j], keys[i]
        else:
            keys[data.draw(st.sampled_from(infinite))] = 0
        L.keys = tuple(keys)
        assert dual_slice_audit(P)["ok"] is slice_audit_all_pairs(P)["ok"] is False


def one_step_off(key):
    """The key one step away: one unit at the table's scale on an exact
    key, one ulp on a finite float, the other sign on an infinity."""
    if key.__class__ is not float:
        return key + 1
    return -key if math.isinf(key) else math.nextafter(key, math.inf)


# The slice check and its terms, for ``route_log``.
SLICE_CHECK = ("lagrangian.dual_slice_audit", "lagrangian._sups", "lagrangian._hull_sups")


class TestIntegerSliceCheck:
    """The check's int terms against the term-by-term ``oracles.sup_minus``
    on the values as given, one (x, w) at a time, and the path each
    problem takes.  The check
    takes the ints when every y coordinate, y*, v*, alpha and finite
    payload is exact, a Fraction or an int: a plain int slope or alpha
    sends the kernel's sweeps off the ints but not the check, which
    scales on its own; a float v* or alpha sends both off."""

    @given(lagrangian_case() | gate_boundary_case() | plain_lagrangian_case() | one_point_case()
           | keyed_case())
    @example(nan_gate_case())
    @settings(max_examples=400, deadline=None)
    def test_rows_are_sup_minus_per_cell(self, P):
        with route_log(*SLICE_CHECK) as paths:
            rows = lagrangian.dual_slice_audit(P)["rows"]
        columns = [[_coupling(y, ww) for y in P.y_grid.points] for ww in P.dual_y_grid.points]
        inputs = [c for y in P.y_grid.points for c in y]
        inputs += [c for ww in P.dual_y_grid.points for c in (*ww.xstar, *ww.ustar, ww.alpha)]
        for x, row in zip(P.x_grid.points, rows):
            sl = [P.phi.value(x, y, P.backend)._v for y in P.y_grid.points]
            inputs += [p for p in sl if -math.inf < p < math.inf]
            for ww, column, cell in zip(P.dual_y_grid.points, columns, row.values):
                assert tagged(cell) == tagged(sup_minus(column, sl)), (x, ww)
        assert paths == [all(c.__class__ in (Fraction, int) for c in inputs)]

    @given(lagrangian_case() | gate_boundary_case() | plain_lagrangian_case() | one_point_case(),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_the_check_holds_every_key_to_its_cell(self, P, data):
        """The check's compare is cell by cell and exact: it passes on the
        table as built and fails with any one key a step off.  A plain
        int slope or alpha puts the table on the values as given and the
        check on its own ints, so the two scales differ."""
        L = lagrangian_table(P)
        assert dual_slice_audit(P)["ok"]
        k = data.draw(st.integers(0, len(L.keys) - 1))
        L.keys = L.keys[:k] + (one_step_off(L.keys[k]),) + L.keys[k + 1:]
        assert not dual_slice_audit(P)["ok"]

    def test_keys_and_sups_of_different_scales_meet(self):
        """An int slope puts the table on the values as given (Fraction
        keys over 1) and the check on its own ints over d² = 36."""
        grid = Grid(1, [(Fraction(0),), (Fraction(1, 2),)])
        phi = PerturbFn(1, 1, table={((Fraction(0),), (Fraction(0),)): ExtReal(Fraction(0)),
                                     ((Fraction(0),), (Fraction(1, 2),)): ExtReal(Fraction(1, 3))})
        dual_y = DualGrid([DualPoint((1,), (Fraction(0),), Fraction(1))])
        P = PerturbationProblem(phi, Grid(1, [(Fraction(0),)]), grid, dual_y)
        L = lagrangian_table(P)
        assert L.scale == 1 and L.keys == (Fraction(-1, 6),)
        assert dual_slice_audit(P)["ok"]
        assert dual_slice_audit(P)["rows"][0].values == (ExtReal(Fraction(1, 6)),)
        L.keys = (Fraction(-1, 6) * 36,)
        assert not dual_slice_audit(P)["ok"]

    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    def test_rational_problems_take_the_ints_and_float_twins_do_not(self, name, monkeypatch):
        """Neither the check nor the single-point conjugates, which share
        its sup, reach the kernel's scaling; the single-point values are
        the kernel's f0^c and f0^{cc'}."""
        problems = catalog_problem(name), float_twin(name)
        for P in problems:
            lagrangian_table(P), P.f0_conj, P.f0_biconj

        def refuse(*args):
            raise AssertionError("the check reached the kernel's scaling")

        monkeypatch.setattr(funcrep, "_prepared", refuse)
        with scaling_log() as scaled, route_log(*SLICE_CHECK) as paths:
            for P in problems:
                assert lagrangian.dual_slice_audit(P)["ok"]
                conj = [conjugate_value(P.f0, ww) for ww in P.x_side_grid.points]
                biconj = [prime_conjugate_value(P.f0_conj, x) for x in P.x_grid.points]
                assert [tagged(v) for v in conj] == [tagged(v) for v in P.f0_conj.values]
                assert [tagged(v) for v in biconj] == [tagged(v) for v in P.f0_biconj.values]
        assert paths == [True, False]
        assert scaled == []


def wide_problem(nx, ny, backend):
    doc = dict(fenchel_abs_wide_grid(nx, ny), backend=backend)
    return problemio.loads(json.dumps(doc)).build()


class TestYSideWorkOncePerProblem:
    """Counts only: the table and the check do their Y-side work once per
    problem, not once per x."""

    @pytest.mark.parametrize("name", LIFT_PROBLEMS)
    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_the_table_asks_for_one_scale(self, name, backend):
        """One sweep of all slices, on ints unless the float twin is thirds'."""
        P = twin(name, backend)
        P.phi_on_product
        with scaling_log() as log:
            L = CLagrangian(P)
        swept = any(_split_dom(sl)[0] is not None for sl in L.slices)
        assert log == [lifted(name, backend)] * swept

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_doubling_the_x_grid_takes_no_more_columns(self, backend, monkeypatch):
        columns, real = [], conjugation.dots

        def counted(*args):
            columns.append(args[1])
            return real(*args)

        monkeypatch.setattr(conjugation, "dots", counted)
        per_size = []
        for nx in (11, 22):
            P = wide_problem(nx, 11, backend)
            P.phi_on_product
            before = len(columns)
            CLagrangian(P)
            per_size.append(len(columns) - before)
        # one column per distinct v*, and per y* that some open gate needs
        assert per_size == [3 + 9] * 2

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_the_surrogate_stops_at_the_first_failing_slice(self, backend, monkeypatch):
        P = wide_problem(41, 41, backend)
        L = lagrangian_table(P)
        recovered = [cprime_conjugate(conj, P.y_grid).values == sl.values
                     for sl, conj in zip(L.slices, L.slice_conjugates)]
        calls, real = [], lagrangian.cprime_conjugate

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lagrangian, "cprime_conjugate", counted)
        assert prop55_audit(P)["slice_surrogate"] is False
        assert len(calls) == recovered.index(False) + 1 < len(P.x_grid)


class TestTableMatchesDefinition:
    """Every cell of CLagrangian has the rendering and payload type of the
    defining infimum: the kernel's attaining row, the strict tie rule, the
    +-inf cells and the sign of a zero."""

    @given(lagrangian_case())
    @settings(max_examples=300, deadline=None)
    def test_drawn_problems(self, P):
        assert_table_matches_definition(P)

    @given(plain_lagrangian_case())
    @settings(max_examples=100, deadline=None)
    def test_plain_scalar_falls_back(self, P):
        with scaling_log() as log:
            L = CLagrangian(P)
        # the table's one sweep ran unscaled, and only if some slice has a
        # nonempty finite domain
        swept = any(_split_dom(sl)[0] is not None for sl in L.slices)
        assert log == [False] * swept
        assert_table_matches_definition(P)

    @given(st.integers(0, 10**6), st.sampled_from(["float", "rational"]))
    @settings(max_examples=40, deadline=None)
    def test_random_problems(self, seed, backend):
        P = random_problem(random.Random(seed), backend, max_x=5, max_y=6, max_dual=8)
        assert_table_matches_definition(P)

    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    def test_catalog_and_float_twin(self, name):
        assert_table_matches_definition(catalog_problem(name))
        assert_table_matches_definition(float_twin(name))

    def test_float_cell_with_v_equal_to_c_is_positive_zero(self):
        # phi(0, 1) = 1 = <1, y*> at y* = 1: v - c is 0.0, while the
        # negated conjugate -(c - v) would print -0.0.
        grid = Grid(1, [(0.0,), (1.0,)], "float")
        phi = PerturbFn(1, 1, table={((0.0,), (0.0,)): POS_INF, ((0.0,), (1.0,)): ExtReal(1.0)})
        dual_y = DualGrid([DualPoint.of((1,), (0,), 1, "float")])
        P = PerturbationProblem(phi, Grid(1, [(0.0,)], "float"), grid, dual_y)
        L, ww = CLagrangian(P), dual_y.points[0]
        assert repr(-L.slice_conjugates[0].value_at(ww)) == "ExtReal(-0.0)"
        assert repr(L.table[0]) == "ExtReal(0.0)"
        assert_table_matches_definition(P)


def signed_zero_case():
    """A float table whose first row holds -0.0 then 0.0 and whose first
    column holds -0.0 then 0.0: ties that compare equal and print apart.
    At y* = 0 the first row attains at y = 0, where phi is -0.0; at y* = 1
    it attains at y = 1, where phi(x, y) = <y, y*> = 1.0."""
    X, Y = [(0.0,), (1.0,)], [(1.0,), (0.0,)]
    values = {((0.0,), (1.0,)): 1.0, ((0.0,), (0.0,)): -0.0,
              ((1.0,), (1.0,)): 1.0, ((1.0,), (0.0,)): 0.0}
    table = {k: ExtReal(v) for k, v in values.items()}
    dual_y = DualGrid([DualPoint.of((0,), (0,), 1, "float"), DualPoint.of((1,), (0,), 1, "float")])
    return PerturbationProblem(PerturbFn(1, 1, table=table), Grid(1, X, "float"),
                               Grid(1, Y, "float"), dual_y)


@st.composite
def reduction_case(draw):
    """A drawn case, one time in five with an empty Y-side dual grid."""
    P = draw(lagrangian_case() | one_point_case())
    if draw(st.integers(0, 4)) == 4:
        return PerturbationProblem(P.phi, P.x_grid, P.y_grid, DualGrid([]))
    return P


class TestKeyReductions:
    """Row maxima, column minima and saddles of the keys against
    ``extreal.sup``/``inf`` over the table's ExtReals, by rendering and
    payload type: the first maximiser and minimiser are kept."""

    @given(reduction_case())
    @example(signed_zero_case())
    @settings(max_examples=300, deadline=None)
    def test_reductions_match_extreal_sup_and_inf(self, P):
        L = lagrangian_table(P)
        rows = funcrep.rows(L.table, len(P.x_grid))
        sups = [extreal.sup(row) for row in rows]
        infs = [extreal.inf(column) for column in funcrep.columns(L.table, len(P.dual_y_grid))]
        assert [tagged(v) for v in L.row_sup] == [tagged(v) for v in sups]
        assert [tagged(v) for v in L.col_inf] == [tagged(v) for v in infs]
        saddles = [
            (x, ww, tagged(cell))
            for x, row, top in zip(P.x_grid.points, rows, sups)
            for ww, cell, low in zip(P.dual_y_grid.points, row, infs)
            if top == cell == low
        ]
        assert [(s.xbar, s.wbar, tagged(s.value)) for s in saddle_search(P)] == saddles
        assert tagged(supinf_value(P)) == tagged(extreal.sup(infs))
        assert tagged(infsup_value(P)) == tagged(extreal.inf(sups))

    def test_the_signed_zero_ties_keep_the_first(self):
        L = lagrangian_table(signed_zero_case())
        assert [repr(v) for v in funcrep.rows(L.table, 2)[0]] == ["ExtReal(-0.0)", "ExtReal(0.0)"]
        assert [repr(v) for v in funcrep.columns(L.table, 2)[0]] == ["ExtReal(-0.0)", "ExtReal(0.0)"]
        assert repr(L.row_sup[0]) == repr(L.col_inf[0]) == "ExtReal(-0.0)"


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_a_report_builds_extreals_per_point_not_per_cell(backend):
    """Counts only: past the kernel, the table, its reductions, the saddle
    search, the minimax identities, the slice check's verdict and the
    Example 5.2 column build O(|X| + |W_y|) ExtReals, not one per cell.
    The surrogate's slice conjugates are left out."""
    P = wide_problem(21, 11, backend)
    P.phi_on_product, P.g_on_dual_y, P.f0
    nx, m = len(P.x_grid), len(P.dual_y_grid)
    with built_extreals() as built:
        lagrangian_table(P)
        saddles = saddle_search(P)
        supinf_value(P), infsup_value(P), minimax_ok(P)
        assert dual_slice_audit(P)["ok"]
        example52_audit(P)
    assert len(saddles) <= nx + m
    assert len(built) <= 3 * (nx + m) < nx * m // 4


@pytest.mark.parametrize("name,backend", [
    (name, backend) for name in LIFT_PROBLEMS for backend in ("rational", "float") if lifted(name, backend)])
def test_the_slice_conjugates_are_the_sweeps_int_tables(name, backend):
    """Counts only: where the table's one sweep runs on ints (rational, or
    lifted floats), each slice conjugate is that sweep's exact table, and
    reading the tables and their keys builds no ExtReal."""
    P = twin(name, backend)
    P.phi_on_product
    with scaling_log() as log:
        L = CLagrangian(P)
    with built_extreals() as built:
        tables = L.slice_conjugates
        payloads = [fn.keys for fn in tables]
    assert log == [True] and built == []
    assert len(tables) == len(P.x_grid) and all(fn.scale is not None for fn in tables)
    assert all(p.__class__ is int or p in (-math.inf, math.inf) for ps in payloads for p in ps)


def test_a_flat_float_slice_conjugate_is_built_at_its_first_read():
    """Counts only: on thirds' float twin the sweep runs on the floats as
    given; reading the slice conjugates builds no ExtReal, and reading one
    table's values builds that slice's 16, not all |X|·|W_y| = 112."""
    P = twin("thirds", "float")
    L = CLagrangian(P)
    assert len(P.x_grid) * len(P.dual_y_grid) == 112
    with built_extreals() as built:
        first = L.slice_conjugates[0]
    assert built == [] and first.scale is None
    with built_extreals() as built:
        first.values
    assert len(built) == len(P.dual_y_grid) == 16
    with built_extreals() as built:
        assert L.slice_conjugates[0] is first and L.slice_conjugates[-len(P.x_grid)] is first
        first.values
    assert built == []


class TestMinimax:
    def test_supinf_equals_dual_value_catalog(
        self, fenchel_abs, example52, truncated
    ):
        for P in (fenchel_abs, example52, truncated):
            v, _ = dual_value(P)
            assert supinf_value(P) == v

    def test_supinf_equals_dual_value_random(self):
        rng = random.Random(99)
        for _ in range(12):
            P = random_problem(rng, max_x=6, max_y=6, max_dual=8)
            v, _ = dual_value(P)
            assert supinf_value(P) == v

    def test_minimax_inequality(self, fenchel_abs, example52, truncated):
        rng = random.Random(3)
        problems = [fenchel_abs, example52, truncated] + [
            random_problem(rng, max_x=5, max_y=5, max_dual=6) for _ in range(8)
        ]
        for P in problems:
            assert supinf_value(P) <= infsup_value(P)

    def test_fenchel_abs_zero_minimax(self, fenchel_abs):
        assert supinf_value(fenchel_abs) == ExtReal(0)
        assert infsup_value(fenchel_abs) == ExtReal(0)


class TestSaddlePoints:
    def test_fenchel_abs_origin_saddle(self, fenchel_abs):
        assert is_saddle_point(fenchel_abs, (0,), w(0, 0, 1))

    def test_wrong_primal_point_fails(self, fenchel_abs):
        assert not is_saddle_point(fenchel_abs, (1,), w(0, 0, 1))

    def test_truncated_dual_saddle_certifies_minimax_not_total_duality(
        self, truncated
    ):
        # The truncated Y-side grid leaves a saddle at value -5 = supinf =
        # infsup, strictly below v(GP) = 0: a saddle pins the minimax
        # value, and only the slice surrogate would lift it to the
        # primal-dual pair.
        saddles = saddle_search(truncated)
        assert saddles != ()
        lo, hi = supinf_value(truncated), infsup_value(truncated)
        assert lo == hi == ExtReal(-5)
        for s in saddles:
            assert s.value == lo
        v_gp, _ = primal_value(truncated)
        assert v_gp == ExtReal(0)

    def test_minimax_gap_means_no_saddle(self):
        # Exact finite-table content: a saddle forces supinf = infsup.
        rng = random.Random(42)
        found_gap = 0
        for _ in range(40):
            P = random_problem(rng, max_x=5, max_y=5, max_dual=6)
            if supinf_value(P) < infsup_value(P):
                found_gap += 1
                assert saddle_search(P) == ()
        assert found_gap > 0

    def test_saddle_set_matches_attainers_on_fenchel_abs(self, fenchel_abs):
        report = converse_duality_report(fenchel_abs)
        saddles = {(s.xbar, s.wbar) for s in saddle_search(fenchel_abs)}
        expected = {
            (x, ww)
            for x in report.primal_argmin
            for ww in report.dual_argmax
        }
        assert saddles == expected
        assert ((Fraction(0),), w(0, 0, 1)) in saddles

    def test_saddle_values_equal_minimax(self, fenchel_abs):
        lo, hi = supinf_value(fenchel_abs), infsup_value(fenchel_abs)
        for s in saddle_search(fenchel_abs):
            assert s.value == lo == hi

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_search_matches_brute_force_scan(self, backend):
        problems = [catalog_problem(name) for name in catalog.names()
                    if catalog.entry(name)["kind"] == "problem"]
        if backend == "float":
            problems = [float_twin(p.name) for p in problems]
        problems.append(abs_pair_problem())
        rng = random.Random(55)
        problems += [random_problem(rng, backend, max_x=6, max_y=6, max_dual=8) for _ in range(30)]
        found = 0
        for P in problems:
            scan = tuple(
                (x, ww) for x in P.x_grid.points for ww in P.dual_y_grid.points
                if is_saddle_point(P, x, ww)
            )
            saddles = saddle_search(P)
            assert tuple((s.xbar, s.wbar) for s in saddles) == scan
            assert all(s.value == lagrangian_value(P, s.xbar, s.wbar) for s in saddles)
            found += len(scan)
        assert found > 0


class TestProp55:
    @given(SLICE_CASES)
    @settings(max_examples=150, deadline=None)
    def test_the_surrogate_is_the_values_comparison(self, P):
        """The recovery surrogate, which compares two exact tables by their
        keys, gives the verdict of comparing the values."""
        L = lagrangian_table(P)
        recovered = all(cprime_conjugate(conj, P.y_grid).values == sl.values
                        for sl, conj in zip(L.slices, L.slice_conjugates))
        assert prop55_audit(P)["slice_surrogate"] is recovered

    @pytest.mark.parametrize("backend", ["rational", "float"])
    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    def test_reads_the_values_not_the_report(self, name, backend):
        # The zero gap and the attainers come from primal_value and
        # dual_value, so neither the duality report nor the biconjugate
        # of phi is built.
        P = catalog_problem(name) if backend == "rational" else float_twin(name)
        prop55_audit(P)
        assert "report" not in P.__dict__
        assert "psi_prime" not in P.__dict__

    @pytest.mark.parametrize("name", CATALOG_PROBLEMS)
    def test_the_command_builds_only_what_it_reads(self, name, monkeypatch):
        built = []

        def build(problem, _real=cli._build):
            built.append(_real(problem))
            return built[-1]

        monkeypatch.setattr(cli, "_build", build)
        assert cli.main(["lagrangian", name]) == 0
        unread = {"report", "psi_prime", "p_fn", "p_conj", "p_biconj", "f0_conj",
                  "f0_biconj", "g_prime", "psi_block_min", "psi_prime_x_minima"}
        assert not unread & set(vars(built[0]))

    def test_fenchel_abs_saddles_match_attainers(self, fenchel_abs):
        out = prop55_audit(fenchel_abs)
        assert out["minimax_ok"]
        assert out["saddle_values_ok"]
        assert out["contains_argmin_x_argmax"]
        assert out["equals_argmin_x_argmax"]
        # The surrogate is only sufficient: it fails here (slices with
        # empty value at y=0 cannot be recovered through alpha > 0) while
        # the equivalence still holds.
        assert not out["slice_surrogate"]

    def test_abs_pair_equivalence_with_surrogate(self):
        P = abs_pair_problem()
        out = prop55_audit(P)
        assert out["slice_surrogate"]
        assert out["minimax_ok"] and out["saddle_values_ok"]
        assert out["contains_argmin_x_argmax"]
        assert out["equals_argmin_x_argmax"]
        assert P.report.total
        assert out["saddles"] != ()

    def test_truncated_equivalence_breaks_only_with_surrogate(self, truncated):
        out = prop55_audit(truncated)
        assert out["minimax_ok"]
        assert out["saddle_values_ok"]
        assert out["contains_argmin_x_argmax"]  # vacuous: gap is positive
        # A saddle without total duality is possible precisely because the
        # surrogate is unmet.
        assert not out["equals_argmin_x_argmax"]
        assert not out["slice_surrogate"]

    def test_example52_grid_saddle_is_truncation_artifact(self, example52):
        # Over the reals the primal is unbounded below; the grid clamps it
        # at the edge, where a saddle appears and is flagged as truncated.
        out = prop55_audit(example52)
        assert out["minimax_ok"] and out["saddle_values_ok"]
        assert example52.report.primal_truncated
        saddles = {(s.xbar, s.wbar) for s in out["saddles"]}
        assert ((Fraction(-5),), w(0, 0, 1)) in saddles
        assert out["supinf"] == ExtReal(-5)

    def test_zero_gap_attainers_always_saddle_on_random_instances(self):
        rng = random.Random(1234)
        checked = 0
        for _ in range(30):
            P = random_problem(rng, max_x=5, max_y=5, max_dual=6)
            out = prop55_audit(P)
            assert out["minimax_ok"]
            assert out["saddle_values_ok"]
            assert out["contains_argmin_x_argmax"]
            if P.report.total:
                checked += 1
        assert checked > 0  # the sweep really hit zero-gap instances


class TestConvexityWitness:
    def test_neg_inf_jump_is_nonconvex(self):
        rows = [
            (Fraction(-2), NEG_INF),
            (Fraction(0), ExtReal(0)),
            (Fraction(2), ExtReal(4)),
        ]
        assert find_convexity_violation(rows) is not None

    def test_affine_is_convex(self):
        rows = [(Fraction(i), ExtReal(2 * i + 1)) for i in range(-3, 4)]
        assert find_convexity_violation(rows) is None

    def test_midpoint_bump_detected(self):
        rows = [
            (Fraction(-1), ExtReal(0)),
            (Fraction(0), ExtReal(5)),
            (Fraction(1), ExtReal(0)),
        ]
        assert find_convexity_violation(rows) == (
            Fraction(-1),
            Fraction(0),
            Fraction(1),
        )

    def test_pos_inf_endpoints_never_witness(self):
        rows = [
            (Fraction(-1), POS_INF),
            (Fraction(0), ExtReal(5)),
            (Fraction(1), POS_INF),
        ]
        assert find_convexity_violation(rows) is None


def cubic_convexity_violation(values):
    """The witness search as the cubic loop on the ExtReal values
    themselves, without scaling: the oracle of the integer search."""
    rows = sorted(values, key=lambda r: r[0])
    n = len(rows)
    for i in range(n):
        x1, v1 = rows[i]
        if v1.is_pos_inf:
            continue
        for k in range(i + 2, n):
            x3, v3 = rows[k]
            if v3.is_pos_inf:
                continue
            for j in range(i + 1, k):
                x2, v2 = rows[j]
                if v1.is_neg_inf or v3.is_neg_inf:
                    if not v2.is_neg_inf:
                        return (x1, x2, x3)
                    continue
                if v2.is_pos_inf or v2.is_neg_inf:
                    continue
                if v2.value * (x3 - x1) > v1.value * (x3 - x2) + v3.value * (x2 - x1):
                    return (x1, x2, x3)
    return None


@st.composite
def convexity_rows(draw):
    """Rows on one line a·x + b, most of them exactly on it (a point on
    the chord never witnesses), some nudged above or below, some +-inf; in
    the rational backend one x may be a plain int, which leaves the ints."""
    backend = draw(st.sampled_from(["rational", "float"]))
    xs = draw(st.lists(drawn_from(COORDS + (3, -3, Fraction(1, 2)), backend),
                       max_size=7, unique=True))
    a, b = draw(drawn_from(PAYLOADS, backend)), draw(drawn_from(PAYLOADS, backend))
    rows, seen = [], set()
    for x in xs:
        x = scalar(x, backend)
        if x in seen:
            continue  # distinct fractions may round to one float
        seen.add(x)
        kind = draw(st.sampled_from(["line"] * 6 + ["above", "below", "+inf", "-inf"]))
        if kind in ("+inf", "-inf"):
            rows.append((x, POS_INF if kind == "+inf" else NEG_INF))
            continue
        nudge = {"line": 0, "above": Fraction(1, 4), "below": Fraction(-1, 4)}[kind]
        rows.append((x, ExtReal(scalar(a, backend) * x + scalar(b + nudge, backend))))
    if backend == "rational" and rows and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(rows) - 1))
        x, v = rows[k]
        if x.denominator == 1:
            rows[k] = (int(x), v)
    return draw(st.permutations(rows))


class TestConvexityWitnessAgainstCubicLoop:
    @given(convexity_rows())
    @example([(Fraction(-1), ExtReal(Fraction(0))), (Fraction(0), ExtReal(Fraction(1))),
              (Fraction(1), ExtReal(Fraction(2)))])
    @example([(-1.0, NEG_INF), (0.0, POS_INF), (1.0, ExtReal(0.0))])
    @example([(Fraction(-1), ExtReal(Fraction(1))), (Fraction(0), NEG_INF),
              (Fraction(1), ExtReal(Fraction(1)))])
    @settings(max_examples=500, deadline=None)
    def test_same_triple_and_same_objects(self, rows):
        got, want = find_convexity_violation(rows), cubic_convexity_violation(rows)
        assert (got is None) == (want is None)
        if want is not None:
            assert all(g is w_ for g, w_ in zip(got, want))


class TestExample52Audit:
    def test_qualitative_claims(self, example52):
        out = example52_audit(example52)
        assert out["grid_adequate"]
        assert out["neg_inf_branch_ok"]
        assert out["finite_branch_ok"]
        assert out["nonconvexity_witness"] is not None

    def test_stated_constant_discrepancy_documented(self, example52):
        out = example52_audit(example52)
        # The grid oracle evaluates the defining infimum to 0 at x = 0;
        # the stated constant -2 is recorded for comparison, not asserted.
        assert out["oracle_at_zero"] == ExtReal(0)
        assert out["stated_constant"] == ExtReal(-2)
        assert out["matches_stated_constant"] is False

    def test_finite_branch_values_follow_the_slope_oracle(self, example52):
        # Brute-force oracle: inf over the grid of x - y over y <= -x,
        # gate y < 1; for x > -1 the gate never fires, leaving 2x.
        for x in example52.x_grid.points:
            if x[0] > -1:
                expected = min(
                    x[0] - y[0]
                    for y in example52.y_grid.points
                    if y[0] <= -x[0] and y[0] < 1
                )
                assert lagrangian_value(example52, x, w(1, 1, 1)) == ExtReal(
                    expected
                )
                assert expected == 2 * x[0]

    def test_missing_distinguished_point_rejected(self, fenchel_abs):
        with pytest.raises(ValueError):
            example52_audit(fenchel_abs)


@pytest.mark.parametrize("name", CATALOG_PROBLEMS)
def test_a_float_table_builds_one_extreal_per_finite_cell(name, monkeypatch):
    """Counts, not clocks: past the kernel, a float CLagrangian builds at
    most one ExtReal per finite cell (its key is phi(x, y) - <y, y*> in
    one subtraction, and it builds none) and none for a +-inf cell."""
    P = float_twin(name)
    P.phi_on_product
    kernel, real = [], lagrangian._c_conjugate_rows
    with built_extreals() as built:

        def rows(fs, w_grid):
            start = len(built)
            out = real(fs, w_grid)
            kernel.append(len(built) - start)
            return out

        monkeypatch.setattr(lagrangian, "_c_conjugate_rows", rows)
        L = CLagrangian(P)
    finite = [cell for cell in L.table if cell.is_finite]
    assert len(kernel) == 1 and all(cell.backend == "float" for cell in finite)
    assert len(built) - kernel[0] <= len(finite)


def test_a_float_problem_on_a_y_side_grid_given_point_by_point():
    """A float problem whose Y-side grid is given point by point computes
    p^c, G and the slice conjugates in floats, so the report and prop55
    run, and agree with the same grid built as a float tensor."""
    T = float_twin("fenchel_abs")
    points = [DualPoint((1.0,), (0.0,), 1.0), DualPoint((-1.0,), (0.0,), 1.0)]
    P, Q = (PerturbationProblem(T.phi, T.x_grid, T.y_grid, grid)
            for grid in (DualGrid(points), tensor_dual_grid([(1,), (-1,)], [(0,)], [1], "float")))
    tables = [P.p_conj, P.g_on_dual_y, *CLagrangian(P).slice_conjugates]
    assert {v._v.__class__ for f in tables for v in f.values if v.is_finite} == {float}
    assert converse_duality_report(P) == converse_duality_report(Q)
    assert prop55_audit(P) == prop55_audit(Q)
