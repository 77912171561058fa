"""Problem-file schema: UTF-8 JSON with exact rationals as "p/q" strings.

Two kinds of file: ``"problem"`` (a perturbation function with its grids)
and ``"eset"`` (a halfspace-intersection set definition).  Unknown keys
are rejected so that typos fail loudly; rational-backend files must not
contain JSON floats, which keeps exactness alive across serialization.
The dual grids are kept as the file's axes (``conjugation.DualGrid``):
loading builds no dual point, and the boundary scan reads each distinct
gate once and returns one row per dual point with a hit.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from econvex import funcrep
from econvex.conjugation import (
    DualGrid,
    DualPoint,
    _key,
    pair_tensor_dual_grid,
    tensor_dual_grid,
)
from econvex.duality import PerturbationProblem
from econvex.esets import EPolyhedron, Halfspace, dots
from econvex.extreal import ExtReal, fmt
from econvex.funcrep import (
    Abs,
    Affine,
    Expr,
    Grid,
    Indicator,
    Max,
    Min,
    PerturbFn,
    Precompose,
    Sum,
    _form,
)

__all__ = ["InputError", "ProblemFile", "EsetFile", "load", "loads", "save_text", "boundary_warnings"]


class InputError(ValueError):
    """Schema violation, named field included in the message."""


# The size budget, checked from counts and list lengths before any grid is
# built, so that no input file decides how much memory loading takes.
MAX_RANGE_COUNT = 10**4  # points of one {lo, hi, count} range
MAX_PRODUCT = 10**6  # |x|·|y|, the points of the product grid
MAX_DUAL_PAIRS = 10**6  # |xstar|·|ystar|·|ustar|·|vstar|·|alpha|
# Fraction("1e<k>") builds the int 10**|k|, so a number string's exponent
# is bounded like the digits of an integer literal.
MAX_EXPONENT = 4300
# Parsing and sampling phi recurse about once per level of JSON nesting.
MAX_PHI_DEPTH = 500  # well under Python's recursion limit of 1000
# Reports print input numbers, and Python prints an int of at most 4300
# digits.  2**14284 < 10**4300, so a numerator or denominator of at most
# MAX_BITS bits prints.
MAX_BITS = 14284


def _fraction(text: str) -> Fraction:
    """Fraction(text); a ValueError for an exponent beyond MAX_EXPONENT or
    a numerator or denominator beyond MAX_BITS.  In a string Fraction
    reads, whatever follows the last "e" is the exponent, so anything else
    there is an error either way."""
    _, e, exponent = text.lower().rpartition("e")
    if e and abs(int(exponent)) > MAX_EXPONENT:
        raise ValueError(f"exponent beyond {MAX_EXPONENT}")
    c = Fraction(text)
    if max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_BITS:
        raise ValueError(f"more than {MAX_BITS} bits")
    return c


def _nesting(obj) -> int:
    """The levels of JSON nesting in obj, counted without recursion."""
    depth, level = 0, [obj]
    while level:
        depth, level = depth + 1, [c for o in level if isinstance(o, (dict, list))
                                   for c in (o.values() if isinstance(o, dict) else o)]
    return depth


def _json_int(digits: str):
    """A JSON integer literal; past Python's limit on the digits of an int,
    a string the schema checks reject by field."""
    try:
        return int(digits)
    except ValueError:
        return f"<{len(digits)}-digit integer>"


def _text(v) -> str:
    """The text of one value of a report, a CSV cell or a warning: a bool
    as true/false, None as none, a str as given, an `ExtReal` or a number
    through `fmt`, a `DualPoint` as (x*=..., u*=..., alpha=...) and a tuple
    of numbers as a point.  Anything else, a tuple holding anything but
    numbers included, raises TypeError."""
    if isinstance(v, ExtReal):  # first: most table cells are ExtReals
        return fmt(v)
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return v
    if isinstance(v, DualPoint):
        return f"(x*={_text(v.xstar)}, u*={_text(v.ustar)}, alpha={_text(v.alpha)})"
    if isinstance(v, tuple):
        return "(" + ", ".join(fmt(ExtReal(c)) for c in v) + ")"
    return fmt(ExtReal(v))


def _require_keys(obj: dict, required, optional=(), where: str = "object"):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise InputError(f"{where}: missing field(s) {', '.join(missing)}")
    unknown = [k for k in obj if k not in set(required) | set(optional)]
    if unknown:
        raise InputError(f"{where}: unknown field(s) {', '.join(unknown)}")


def _num(v, backend: str, where: str):
    if backend == "rational":
        if isinstance(v, bool) or isinstance(v, float):
            raise InputError(
                f"{where}: rational backend requires integers or 'p/q' strings, got {v!r}"
            )
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str):
            try:
                return _fraction(v)
            except (ValueError, ZeroDivisionError):
                raise InputError(f"{where}: cannot parse rational {v!r}") from None
        raise InputError(f"{where}: bad number {v!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise InputError(f"{where}: bad number {v!r}")
    try:
        x = float(_fraction(v)) if isinstance(v, str) else float(v)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise InputError(f"{where}: cannot parse number {v!r}") from None
    if not math.isfinite(x):
        raise InputError(f"{where}: numbers must be finite, got {v!r}")
    return x


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise InputError(f"{where}: expected a list, got {v!r}")
    return v


def _distinct(items: list, where: str) -> list:
    """items, or an InputError naming the first entry that repeats one."""
    first = {}
    for i, item in enumerate(items):
        j = first.setdefault(item, i)
        if j != i:
            raise InputError(f"{where}[{i}]: repeats {where}[{j}]")
    return items


def _coefficient(v, backend: str, where: str) -> Fraction:
    """A coefficient of phi or of a set, exact in either backend.  In a
    float file its float must be finite, since sampling phi converts it."""
    if isinstance(v, (bool, float)):
        raise InputError(f"{where}: coefficients are exact in both backends: "
                         f"integers or 'p/q' strings, got {v!r}")
    c = _num(v, "rational", where)
    if backend == "float":
        try:
            float(c)
        except OverflowError:
            raise InputError(f"{where}: beyond the float range, got {v!r}") from None
    return c


def _vec(v, dim: int, backend: str, where: str, num=_num) -> Tuple:
    if not isinstance(v, list):
        v = [v]
    if len(v) != dim:
        raise InputError(f"{where}: expected {dim} coordinate(s), got {len(v)}")
    return tuple(num(c, backend, where) for c in v)


def _parse_eset(obj: dict, backend: str, where: str) -> EPolyhedron:
    _require_keys(obj, ["dim", "constraints"], (), where)
    dim = obj["dim"]
    if type(dim) is not int or dim < 1:
        raise InputError(f"{where}.dim: must be a positive integer")
    constraints = []
    for i, c in enumerate(_list(obj["constraints"], f"{where}.constraints")):
        cw = f"{where}.constraints[{i}]"
        _require_keys(c, ["a", "b", "strict"], (), cw)
        if not isinstance(c["strict"], bool):
            raise InputError(f"{cw}.strict: must be a boolean")
        constraints.append(
            Halfspace(
                _vec(c["a"], dim, backend, f"{cw}.a", _coefficient),
                _coefficient(c["b"], backend, f"{cw}.b"),
                c["strict"],
            )
        )
    return EPolyhedron(dim, constraints)


def _parse_form(obj: dict, x_dim: int, y_dim: int, backend: str, where: str):
    _require_keys(obj, [], ("x", "y", "const"), where)
    cx = _vec(obj.get("x", [0] * x_dim), x_dim, backend, f"{where}.x", _coefficient)
    cy = _vec(obj.get("y", [0] * y_dim), y_dim, backend, f"{where}.y", _coefficient)
    const = _coefficient(obj.get("const", 0), backend, f"{where}.const")
    return _form(cx, cy, const)


def _forms(obj: dict, key: str, x_dim: int, y_dim: int, backend: str, where: str) -> Tuple:
    """The list of affine forms under ``obj[key]``."""
    where = f"{where}.{key}"
    return tuple(
        _parse_form(r, x_dim, y_dim, backend, f"{where}[{i}]")
        for i, r in enumerate(_list(obj[key], where))
    )


def _parse_expr(obj: dict, x_dim: int, y_dim: int, backend: str, where: str) -> Expr:
    if not isinstance(obj, dict) or "op" not in obj:
        raise InputError(f"{where}: expected an expression object with 'op'")
    op = obj["op"]
    if op == "affine":
        _require_keys(obj, ["op"], ("x", "y", "const"), where)
        form = {k: v for k, v in obj.items() if k != "op"}
        return Affine(_parse_form(form, x_dim, y_dim, backend, where))
    if op == "abs":
        _require_keys(obj, ["op", "arg"], (), where)
        return Abs(_parse_expr(obj["arg"], x_dim, y_dim, backend, f"{where}.arg"))
    if op in ("sum", "max", "min"):
        _require_keys(obj, ["op", "terms"], (), where)
        terms = tuple(
            _parse_expr(t, x_dim, y_dim, backend, f"{where}.terms[{i}]")
            for i, t in enumerate(_list(obj["terms"], f"{where}.terms"))
        )
        if not terms:
            raise InputError(f"{where}.terms: must not be empty")
        return {"sum": Sum, "max": Max, "min": Min}[op](terms)
    if op == "indicator":
        _require_keys(obj, ["op", "set", "rows"], (), where)
        poly = _parse_eset(obj["set"], backend, f"{where}.set")
        rows = _forms(obj, "rows", x_dim, y_dim, backend, where)
        if len(rows) != poly.dim:
            raise InputError(f"{where}.rows: need one row per set coordinate")
        return Indicator(poly, rows)
    if op == "precompose":
        _require_keys(obj, ["op", "arg", "x_rows", "y_rows"], (), where)
        x_rows = _forms(obj, "x_rows", x_dim, y_dim, backend, where)
        y_rows = _forms(obj, "y_rows", x_dim, y_dim, backend, where)
        inner = _parse_expr(obj["arg"], len(x_rows), len(y_rows), backend, f"{where}.arg")
        return Precompose(inner, x_rows, y_rows)
    raise InputError(f"{where}.op: unknown operation {op!r}")


def _parse_grid(obj, dim: int, backend: str, where: str) -> Grid:
    if isinstance(obj, dict) and "points" in obj:
        _require_keys(obj, ["points"], (), where)
        pts = [
            _vec(p, dim, backend, f"{where}.points[{i}]")
            for i, p in enumerate(_list(obj["points"], f"{where}.points"))
        ]
        if not pts:
            raise InputError(f"{where}.points: must not be empty")
        return Grid(dim, _distinct(pts, f"{where}.points"), backend)
    if isinstance(obj, dict) and {"lo", "hi", "count"} <= set(obj):
        _require_keys(obj, ["lo", "hi", "count"], (), where)
        if dim != 1:
            raise InputError(f"{where}: lo/hi/count ranges are 1-D; use explicit points")
        if type(obj["count"]) is not int or obj["count"] < 1:
            raise InputError(f"{where}.count: must be a positive integer")
        lo = _num(obj["lo"], backend, f"{where}.lo")
        hi = _num(obj["hi"], backend, f"{where}.hi")
        try:
            return Grid.uniform(lo, hi, obj["count"], backend)
        except ValueError:  # the only one left: a repeated point
            raise InputError(f"{where}: lo, hi and count give repeated points") from None
    raise InputError(f"{where}: expected {{points}} or {{lo, hi, count}}")


def _grid_size(obj, where: str) -> int:
    """The number of points a grid entry asks for; 1 for an entry that
    ``_parse_grid`` will reject anyway."""
    if isinstance(obj, dict) and "points" in obj:
        return len(obj["points"]) if isinstance(obj["points"], list) else 1
    count = obj.get("count") if isinstance(obj, dict) else None
    if type(count) is not int or count < 1:
        return 1
    if count > MAX_RANGE_COUNT:
        raise InputError(f"{where}.count: {count} exceeds the budget of {MAX_RANGE_COUNT}")
    return count


def _check_budget(grids: dict) -> None:
    """Refuse grids beyond the size budget before any of them is built."""
    cells = _grid_size(grids["x"], "grids.x") * _grid_size(grids["y"], "grids.y")
    if cells > MAX_PRODUCT:
        raise InputError(f"grids: |x|*|y| = {cells} exceeds the budget of {MAX_PRODUCT}")
    pairs = math.prod(
        len(grids[k]) if isinstance(grids.get(k), list) else 1
        for k in ("xstar", "ystar", "ustar", "vstar", "alpha")
    )
    if pairs > MAX_DUAL_PAIRS:
        raise InputError(
            f"grids: |xstar|*|ystar|*|ustar|*|vstar|*|alpha| = {pairs}"
            f" exceeds the budget of {MAX_DUAL_PAIRS}"
        )


@dataclass
class ProblemFile:
    """Validated problem file; ``build()`` assembles the grid problem."""

    name: str
    tolerance: float
    phi: PerturbFn
    x_grid: Grid
    y_grid: Grid
    dual_y_grid: DualGrid
    full_dual_pairs: DualGrid  # dual points of X x Y (``pair_tensor_dual_grid``)

    def build(self) -> PerturbationProblem:
        return PerturbationProblem(
            self.phi,
            self.x_grid,
            self.y_grid,
            self.dual_y_grid,
            self.full_dual_pairs,
            name=self.name,
            tolerance=self.tolerance,
        )


@dataclass
class EsetFile:
    name: str
    polyhedron: EPolyhedron


def loads(text: str):
    try:
        obj = json.loads(text, parse_int=_json_int)
    except (json.JSONDecodeError, RecursionError) as exc:  # nested past the decoder's limit
        raise InputError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("top level: expected an object with a 'kind' field")
    name = obj.get("name", "")  # reports print it on a line of its own
    if not isinstance(name, str) or "".join(name.splitlines()) != name:
        raise InputError("name: must be a string without line breaks")
    if obj["kind"] == "eset":
        _require_keys(obj, ["kind", "name", "set"], (), "top level")
        return EsetFile(name, _parse_eset(obj["set"], "rational", "set"))
    if obj["kind"] != "problem":
        raise InputError(f"kind: unknown kind {obj['kind']!r}")

    _require_keys(
        obj,
        ["kind", "name", "x_dim", "y_dim", "backend", "phi", "grids"],
        ("tolerance",),
        "top level",
    )
    x_dim, y_dim = obj["x_dim"], obj["y_dim"]
    for label, d in (("x_dim", x_dim), ("y_dim", y_dim)):
        if type(d) is not int or d < 1:
            raise InputError(f"{label}: must be a positive integer")
    backend = obj["backend"]
    if backend not in ("rational", "float"):
        raise InputError("backend: must be 'rational' or 'float'")
    tolerance = obj.get("tolerance", 1e-9)
    if type(tolerance) not in (int, float) or not 0 <= tolerance <= sys.float_info.max:
        raise InputError("tolerance: must be a finite nonnegative number")

    grids = obj["grids"]
    _require_keys(
        grids,
        ["x", "y", "ystar", "vstar", "alpha"],
        ("xstar", "ustar"),
        "grids",
    )
    _check_budget(grids)
    x_grid = _parse_grid(grids["x"], x_dim, backend, "grids.x")
    y_grid = _parse_grid(grids["y"], y_dim, backend, "grids.y")
    if not y_grid.has_origin:
        raise InputError("grids.y: the origin must be a member (0 in the y-grid)")

    def veclist(key, dim, default=None):
        if key not in grids:
            return [tuple(_num(0, backend, key) for _ in range(dim))] if default else None
        where = f"grids.{key}"
        vecs = [
            _vec(v, dim, backend, f"{where}[{i}]")
            for i, v in enumerate(_list(grids[key], where))
        ]
        return _distinct(vecs, where)

    ystars = veclist("ystar", y_dim)
    vstars = veclist("vstar", y_dim)
    alphas = _distinct(
        [
            _num(a, backend, f"grids.alpha[{i}]")
            for i, a in enumerate(_list(grids["alpha"], "grids.alpha"))
        ],
        "grids.alpha",
    )
    if any(a <= 0 for a in alphas):
        raise InputError("grids.alpha: duality requires every alpha > 0")
    xstars = veclist("xstar", x_dim, default=True)
    ustars = veclist("ustar", x_dim, default=True)

    dual_y = tensor_dual_grid(ystars, vstars, alphas, backend)
    pairs = pair_tensor_dual_grid(xstars, ystars, ustars, vstars, alphas, backend)

    if _nesting(obj["phi"]) > MAX_PHI_DEPTH:
        raise InputError(f"phi: nested deeper than the budget of {MAX_PHI_DEPTH} levels")
    phi = PerturbFn(x_dim, y_dim, expr=_parse_expr(obj["phi"], x_dim, y_dim, backend, "phi"))
    return ProblemFile(
        name=name,
        tolerance=float(tolerance),
        phi=phi,
        x_grid=x_grid,
        y_grid=y_grid,
        dual_y_grid=dual_y,
        full_dual_pairs=pairs,
    )


def load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return loads(text)


def save_text(raw: dict) -> str:
    """Canonical serialization; reloading reproduces identical grids."""
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def boundary_coincidences(P: PerturbationProblem) -> List[Tuple[str, DualGrid, int, list]]:
    """Grid points landing exactly on a coupling boundary <., u*> = alpha.

    A boundary coincidence flips which branch of the coupling fires under
    the smallest perturbation of the data, so the loader surfaces them.
    Returns one (space, dual grid, index, hits) row per dual point with a
    hit, dual point by dual point: hits are the grid points on the
    boundary of the point at that index, in grid order, one list shared
    by every dual point of the gate.  Each distinct gate (u*, alpha) is
    scanned once, over the lists ``funcrep._prepared`` returns for the
    dual grid's entries (``DualGrid.parts``), cut into X x Y, points and
    gates times its one scale D and alphas times D².  On a product X x Y
    on ints (rational, or floats that ``_prepared`` certified no float
    operation of the flat scan could round), (x, y) is on the boundary
    iff <x, u*> = alpha - <y, v*>: one dict from that int to its y, one
    lookup per x, so O(|X| + |Y| + hits) per gate, and D scales the
    dx·|X| + dy·|Y| coordinates of the factors.  Any other grid, or
    values as given, is scanned flat, q on the boundary iff
    <q, u*> == alpha, since a + b == c and a == c - b round differently.
    """
    out = []
    for space, w_grid, grid in (("y", P.dual_y_grid, P.y_grid), ("(x,y)", P.full_dual_grid, P.product)):
        _, gates, alphas = w_grid.parts
        _, ((X, ux), (Y, uy)), (alphas,) = funcrep._prepared(grid, (gates,), (alphas,))
        x_columns, y_columns, n = list(zip(*X)), list(zip(*Y)), len(Y)
        on_boundary, at = {}, {}  # gate key -> its hits; (gate, alpha) entries -> the same
        for i, (_, g, a) in enumerate(w_grid.codes()):
            hits = at.get((g, a))
            if hits is None:
                gate, b, alpha = _key((*ux[g], *uy[g], alphas[a])), uy[g], alphas[a]
                hits = on_boundary.get(gate)
                if hits is None:
                    ys = {}  # alpha - <y, v*> -> the y giving it
                    for j, t in enumerate(dots(y_columns, [-c for c in b], n, alpha) if b else [alpha]):
                        ys.setdefault(t, []).append(j)
                    x_col = dots(x_columns, ux[g], len(X))
                    if len(ys) == 1:  # one level, compared directly: hashing a float costs more
                        (level,) = ys
                        on_it = [k for k, t in enumerate(x_col) if t == level]
                    else:
                        on_it = [k for k, t in enumerate(x_col) if t in ys]
                    hits = on_boundary[gate] = [grid.points[k * n + j] for k in on_it for j in ys[x_col[k]]]
                at[g, a] = hits
            if hits:
                out.append((space, w_grid, i, hits))
    return out


def boundary_warnings(P: PerturbationProblem) -> List[str]:
    """The coincidence warnings a command prints: one line per dual point
    with a hit for the first 8, then one line counting the rest.  Only
    the printed lines build their dual point."""
    rows = boundary_coincidences(P)
    lines = [
        f"{len(hits)} {space}-grid point(s) lie exactly on the coupling "
        f"boundary of {_text(w_grid[i])} (first: {_text(hits[0])})"
        for space, w_grid, i, hits in rows[:8]
    ]
    if len(rows) > 8:
        lines.append(f"... and {len(rows) - 8} more coupling-boundary coincidences")
    return lines
