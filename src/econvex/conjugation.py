"""Coupling functions and the associated conjugation operators.

The dual space is W = X* x X* x R.  The coupling of a point x with
w = (x*, u*, alpha) is <x, x*> when <x, u*> < alpha and +inf otherwise;
its partner couples the same pair in the opposite order with the same
value.  Conjugates are suprema of coupling-minus-function and, on grids,
are taken over the grid as the space: no interpolation, no extrapolation,
and the strict gate is evaluated with an exact rational comparison or a
raw IEEE one -- never a tolerance.

Functions of two blocks of variables are conjugated with the paired
coupling on (X x Y) x ((X* x Y*) x (X* x Y*) x R).  Inner products split
over concatenation, so the paired point ((x*, y*), (u*, v*), alpha) is
the dual point (x* + y*, u* + v*, alpha) of the product space, and
``pair_tensor_dual_grid`` builds it as one.

The coupling splits into a gate that depends only on (u*, alpha) and a
value that depends only on x*, and the grid conjugates follow the split.
With dom the grid points where f is below +inf, f^c(w) is -inf when dom
is empty, +inf when f takes -inf on dom, +inf when some point of dom
fails the gate <p, u*> < alpha, and otherwise the grid Fenchel value
max over dom of <p, x*> - f(p).  max over dom of <p, u*> is taken once
per distinct u*, so each alpha costs one comparison, and the Fenchel
value once per distinct x*.  The c'-conjugate splits the same way: per
distinct u* only the least alpha over dom g can close the gate, and per
distinct x* only the least value of g can attain the sup.  The
c-conjugate also keeps, per distinct x*, the first row of dom attaining
the Fenchel value; the Lagrangian table is read off those rows, from one
c-sweep of all its slices, which share each column of inner products.

On a product grid X x Y both parts of the coupling split over the two
blocks, so the sups nest.  A gate's top is max over x of <x, u*> plus
the max over dom row x of <y, v*>; the Fenchel value is max over x of
<x, x*> minus the least over dom row x of f(x, y) - <y, y*>, and its
first maximiser, then the first minimiser in that row, is the first
attaining row in x-major order.  The row tables are taken once per
distinct v* and y*, so psi costs |X|·|Y|·#y* + |X|·#(x*, y*) instead of
|X|·|Y|·#(x*, y*).  Onto a product the c'-value at (x, y) is the max over
the distinct x-parts of x* of <x, x-part> minus the least, over the
slopes with that x-part, of g - <y, y-part>: one table over Y per slope,
so psi^{c'} costs |X|·|Y|·#x* + |Y|·#slopes instead of |X|·|Y|·#slopes.
Any other grid is itself times the one point of R^0, whose y-parts add
nothing, and there the nested sweep is the flat one, term for term.

A dual grid keeps its blocks (``DualGrid``), each three entry lists
read zipped or as their product, and a sweep reads it as its entries,
the blocks' slopes, gates and alphas one after another
(``DualGrid.parts``), and per point the indices of its three
(``DualGrid.codes``): keys and scaled lists are taken per entry, and
only the comparisons that build the output rows are taken per point.
Each sweep reads the lists ``funcrep._prepared`` returns, cut into X x Y,
points and slopes times its one scale D and alphas and payloads times D²
(D None for lists as given, which are cut flat), through ``esets.dots``:
<p, v> at every point, one coordinate column at a time, which is the
left fold of ``esets.dot`` at each point, so both backends run one
kernel.  The c'-sweep is slope-major: a shut mask per distinct u*, then
a running max per distinct x-part at the open points, which keeps
builtin ``max``'s first maximiser and NaN.  With P, U, X, A and V the
lists a sweep reads, a gate is shut iff not <P, U> < A and a Fenchel
term is <P, X> - V.  On ints a sweep returns an exact table
(``SampledFn.keyed``) of the raw values over D·D: ``Fraction(best, D·D)``
in the rational backend, ``best / (D·D)`` in the float one, whose ints
``_prepared`` certified no float operation of the flat sweep could
round; on lists as given, a table of the raw values ``best`` as its
keys, after one check that none is NaN.  A sweep reads an exact table's
int keys as its payloads, with no Fraction.  So gates, maxima, the first
attaining row, the value, its type and its rendering are those of the
``Fraction`` sweep, or of the flat float sweep; on lists as given the
arithmetic is that of the definition, NaN and -0.0 included.

``_coupling`` (the gate, written once) and ``_sups`` (per column of raw
couplings, the sup of coupling minus a function's raw value, term by
term with the +-inf conventions only) are the one definitional
reference.  Every check reads a table as its raw values, each value's
payload with +-inf as floats (``SampledFn.raw``), the one encoding of
the tables' keys, and tests finiteness as -inf < p < inf.
``lagrangian.dual_slice_audit`` reads ``_sups`` of one column per dual
point against every slice where it reads no hull, on the values as
given or on a Y of dimension 2 or more; ``_sup_minus``, its one-column
form, serves ``subdifferential.conjugate_value``.
``_check_ints`` is the checks' own scaling, apart from ``_prepared``: the
slice audit, the subdifferential memberships, the transfer audit and
the convexity witness read their exact inputs as ints through it, an
exact table's int keys with no Fraction: each is handed the
``SampledFn`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product, starmap
from math import gcd, inf, lcm, nan, prod
from operator import add, itemgetter, sub
from typing import Iterable, Optional, Sequence, Tuple

from econvex.esets import dot, dots
from econvex.extreal import NEG_INF, POS_INF, ExtReal, NaNError, scalar
from econvex import funcrep
from econvex.funcrep import Grid, SampledFn

__all__ = [
    "DualPoint",
    "DualGrid",
    "coupling_c",
    "c_conjugate",
    "cprime_conjugate",
    "biconjugate",
    "tensor_dual_grid",
    "pair_tensor_dual_grid",
]


def _coerce_vec(v, backend: str) -> Tuple:
    if not isinstance(v, (tuple, list)):
        v = (v,)
    return tuple(scalar(c, backend) for c in v)


@dataclass(frozen=True)
class DualPoint:
    """An element (x*, u*, alpha) of W = X* x X* x R."""

    xstar: Tuple
    ustar: Tuple
    alpha: object

    def __hash__(self) -> int:
        """The hash of the fields, taken at the first use and kept on the
        point: grids and tables hash each point many times."""
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.xstar, self.ustar, self.alpha))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def of(xstar, ustar, alpha, backend: str = "rational") -> "DualPoint":
        return DualPoint(
            _coerce_vec(xstar, backend),
            _coerce_vec(ustar, backend),
            scalar(alpha, backend),
        )

    def __post_init__(self):
        if len(self.xstar) != len(self.ustar):
            raise ValueError("xstar and ustar must share the primal dimension")


class DualGrid:
    """Finite list of pairwise-distinct dual points, usable as a grid.

    The points are kept as blocks, one after another, as ``Grid.factors``
    keeps a product's two factors.  A block is three entry lists, its
    slopes x*, gates u* and alphas, and the given points of a zipped block
    (None for a product): a zipped block's points pair the lists position
    by position, a product's are the dual points over their product,
    slopes outermost.  A grid given point by point is one zipped block,
    and so is each block ``extended`` appends; a tensor
    (``tensor_dual_grid``, ``pair_tensor_dual_grid``) is one product.
    Points are built only on a read of ``points``, or one by ``grid[i]``;
    ``index_of`` reads a zipped block's dict of its given points, which
    keep their hash, and a product's one dict per list, by mixed radix.
    The sweeps read the blocks through ``parts`` and ``codes``, and a
    problem grows and projects them through ``extended`` and
    ``projected``."""

    def __init__(self, points: Iterable):
        self._set([_zipped(tuple(points))])

    @classmethod
    def _of(cls, blocks) -> "DualGrid":
        grid = cls.__new__(cls)
        grid._set(blocks)
        return grid

    def _set(self, blocks) -> None:
        """Keep the blocks that hold a point, with their sizes and lookup
        dicts, a zipped block's points and each list of a product
        distinct: a repeated entry would repeat a point."""
        self.blocks = tuple(block for block in blocks if all(block[:3]))
        self._sizes = [prod(map(len, lists)) if given is None else len(given) for *lists, given in self.blocks]
        self._dicts = [[*map(_distinct, lists)] if given is None else [_distinct(given)]
                       for *lists, given in self.blocks]

    @cached_property
    def points(self) -> Tuple[DualPoint, ...]:
        return tuple(_points(self.blocks))

    def __getitem__(self, i: int) -> DualPoint:
        """The point ``points[i]``, built alone."""
        n = len(self)
        if not -n <= i < n:
            raise IndexError("dual grid index out of range")
        i %= n
        for (slopes, gates, alphas, given), size in zip(self.blocks, self._sizes):
            if i < size:
                if given is not None:
                    return given[i]
                i, a = divmod(i, len(alphas))
                s, g = divmod(i, len(gates))
                return DualPoint(slopes[s], gates[g], alphas[a])
            i -= size

    @cached_property
    def parts(self) -> Tuple[list, list, list]:
        """(slopes, gates, alphas): the blocks' lists one after another;
        ``codes`` indexes them."""
        return tuple([entry for block in self.blocks for entry in block[k]] for k in range(3))

    def codes(self):
        """Per point, in order, the (slope, gate, alpha) indices of its
        entries in ``parts``: a block's ranges zipped, or their product."""
        runs, starts = [], (0, 0, 0)
        for *lists, given in self.blocks:
            ranges = [range(start, start + len(entries)) for start, entries in zip(starts, lists)]
            runs.append(product(*ranges) if given is None else zip(*ranges))
            starts = [r.stop for r in ranges]
        return chain.from_iterable(runs)

    @property
    def alpha_positive(self) -> bool:
        return all(a > 0 for a in self.parts[2])

    def _find(self, point) -> Optional[int]:
        """The index of point, None off the grid."""
        offset = 0
        for (_, gates, alphas, given), dicts, size in zip(self.blocks, self._dicts, self._sizes):
            if given is not None:
                k = dicts[0].get(point)
            elif point.__class__ is DualPoint:
                s, g, a = (at.get(e) for at, e in zip(dicts, (point.xstar, point.ustar, point.alpha)))
                k = None if None in (s, g, a) else (s * len(gates) + g) * len(alphas) + a
            else:
                k = None
            if k is not None:
                return offset + k
            offset += size
        return None

    def extended(self, points) -> "DualGrid":
        """This grid, then a zipped block of the points that are not on it,
        in the given order."""
        return DualGrid._of([*self.blocks, _zipped(tuple(w for w in points if w not in self))])

    def projected(self, d: int) -> Tuple["DualGrid", list]:
        """(the grid of the points' projections (x*[:d], u*[:d], alpha),
        each at its first appearance; per point, the index of its
        projection on it).  A first product block projects to the product
        of its projected slopes and gates, each entry projected once and
        kept at its first appearance, and its alphas, and its points are
        indexed by their entries' places there; the points of the other
        blocks are projected one by one."""
        head, index, rest = DualGrid._of(()), [], self.blocks
        if rest and rest[0][3] is None:
            (slopes, gates, alphas, _), *rest = rest
            firsts = {}, {}
            at_s = [firsts[0].setdefault(x[:d], len(firsts[0])) for x in slopes]
            at_g = [firsts[1].setdefault(u[:d], len(firsts[1])) for u in gates]
            head = DualGrid._of([(tuple(firsts[0]), tuple(firsts[1]), alphas, None)])
            ng, na = len(firsts[1]), len(alphas)
            index = [(s * ng + g) * na + a for s, g, a in product(at_s, at_g, range(na))]
        new = {}
        for w in _points(rest):
            w = DualPoint(w.xstar[:d], w.ustar[:d], w.alpha)
            i = head._find(w)
            index.append(len(head) + new.setdefault(w, len(new)) if i is None else i)
        return DualGrid._of([*head.blocks, _zipped(tuple(new))]), index

    def index_of(self, point) -> int:
        i = self._find(point)
        if i is None:
            raise KeyError(f"dual point {point!r} is not on the grid")
        return i

    def __contains__(self, point) -> bool:
        return self._find(point) is not None

    def __len__(self) -> int:
        return sum(self._sizes)

    def __iter__(self):
        return iter(self.points)


def _distinct(entries) -> dict:
    """entry -> its index; a repeated entry raises."""
    at = {}
    for i, entry in enumerate(entries):
        if at.setdefault(entry, i) != i:
            raise ValueError(f"duplicate dual point {entry!r}")
    return at


def _points(blocks):
    """The dual points of the blocks, in order."""
    return chain.from_iterable(
        starmap(DualPoint, product(*lists)) if given is None else given for *lists, given in blocks)


def _zipped(points) -> tuple:
    """The zipped block of the given points."""
    return tuple(w.xstar for w in points), tuple(w.ustar for w in points), tuple(w.alpha for w in points), points


def _tensor(slopes, gates, alphas, backend: str) -> DualGrid:
    """The product block of the slopes x* + y* over the slope axes (x*,
    y*), the gates u* + v* over the gate axes (u*, v*) paired with them
    and the alphas.  Each axis entry is coerced once, and each slope axis
    must share one length with its gate axis."""
    slopes = [[_coerce_vec(v, backend) for v in axis] for axis in slopes]
    gates = [[_coerce_vec(v, backend) for v in axis] for axis in gates]
    if any(len({len(v) for v in s + g}) > 1 for s, g in zip(slopes, gates)):
        raise ValueError("paired dual point blocks must match dimensions")
    slopes, gates = (tuple(sum(vs, ()) for vs in product(*axes)) for axes in (slopes, gates))
    return DualGrid._of([(slopes, gates, tuple(scalar(a, backend) for a in alphas), None)])


def tensor_dual_grid(
    xstars, ustars, alphas, backend: str = "rational"
) -> DualGrid:
    """Tensor product of slope lists and an alpha list."""
    return _tensor([xstars], [ustars], alphas, backend)


def pair_tensor_dual_grid(
    xstars, ystars, ustars, vstars, alphas, backend: str = "rational"
) -> DualGrid:
    """The paired tensor product, as dual points of the product space."""
    return _tensor([xstars, ystars], [ustars, vstars], alphas, backend)


# ---------------------------------------------------------------------------
# Couplings
# ---------------------------------------------------------------------------


def _coupling(x, w: DualPoint):
    """The raw coupling: <x, x*> if <x, u*> < alpha, None (+inf)
    otherwise.  A NaN gate shuts."""
    if dot(x, w.ustar) < w.alpha:
        return dot(x, w.xstar)
    return None


def coupling_c(x, w: DualPoint) -> ExtReal:
    """<x, x*> if <x, u*> < alpha, +inf otherwise."""
    c = _coupling(x, w)
    return POS_INF if c is None else ExtReal(c)


def _sups(raw, columns, shut) -> list:
    """Per coupling column, the sup over the points of its raw coupling
    (None for +inf, whose indices ``shut`` holds per column) minus the
    function's raw value (``SampledFn.raw``, +-inf as floats): -inf when
    the function is +inf everywhere, +inf when it is -inf somewhere or
    the column shuts a point of its domain, and otherwise builtin ``max``
    of coupling minus value over the domain, which keeps the first
    maximiser and a NaN that comes first.  Infinities are floats and a
    finite sup is its raw value."""
    dom = [k for k, p in enumerate(raw) if p < inf]
    if not dom:
        return [-inf] * len(columns)
    payloads = [raw[k] for k in dom]
    if -inf in payloads:
        return [inf] * len(columns)
    at = itemgetter(*dom) if len(dom) > 1 else itemgetter(slice(dom[0], dom[0] + 1))
    members = frozenset(dom)
    return [inf if shut_y and not shut_y.isdisjoint(members) else max(map(sub, at(column), payloads))
            for column, shut_y in zip(columns, shut)]


# ---------------------------------------------------------------------------
# Grid conjugates
# ---------------------------------------------------------------------------


def _key(v: Sequence) -> Tuple:
    """Grouping key of a scalar tuple.  Equal keys give bit-identical
    arithmetic, so the payload type is part of the key: 1, 1.0 and
    Fraction(1) compare equal but do not multiply alike."""
    return tuple((c.__class__, c) for c in v)


def _split_dom(f: SampledFn):
    """(the indices of dom f on f's grid, f's keys there), or (None, the
    constant conjugate); one pass over f's keys, so the payloads of an
    exact table are its int keys.

    An empty domain conjugates to -inf and a -inf value on the domain to
    +inf, whatever the dual point; the cells are returned only when every
    value on the domain is finite.
    """
    raw = f.keys
    cells = [k for k, v in enumerate(raw) if v != inf]
    if not cells:
        return None, NEG_INF
    if -inf in raw:
        return None, POS_INF
    return cells, [raw[k] for k in cells]


def _payloads(f: SampledFn, values) -> list:
    """dom f's payloads as ``funcrep._prepared`` reads them: an exact
    table's int keys over its scale, other values as given."""
    return values if f.scale is None else funcrep._Scaled(values, f.scale, f.backend)


def _columns(cols, n: int):
    """v -> <p, v> at the n points whose coordinate columns are cols, one
    ``esets.dots`` fold per distinct key of v (the same list each time);
    None for the empty vector of R^0, which adds nothing."""
    memo = {}

    def column(v):
        if not v:
            return None
        key = _key(v)
        if key not in memo:
            memo[key] = dots(cols, v, n)
        return memo[key]
    return column


def _at(column, positions):
    """The column at the positions; None stands for all of them."""
    return column if positions is None else [column[a] for a in positions]


def _per_row(values, starts, best):
    """best (max or min) of each row's run of values; runs start at starts."""
    if len(starts) == len(values):
        return values
    ends = [*starts[1:], len(values)]
    return [best(values[s:e]) for s, e in zip(starts, ends)]


class _Rows:
    """One function's domain on X x Y, row by row: the run of its cells in
    each row of X it meets, each read against a y column once.

    ``cells`` are the x-major indices of dom's cells, ``n`` is |Y|, ``at``
    numbers the rows that some swept function meets (``rows`` is None when
    this one meets all of them), and ``values`` are the cells' payloads
    as the sweep reads them."""

    def __init__(self, cells, n, at, values):
        if n == 1:  # one cell per row
            self.starts, rows, self.ys = range(len(cells)), cells, [0] * len(cells)
        else:
            xs, self.ys = [k // n for k in cells], [k % n for k in cells]
            self.starts = [t for t, i in enumerate(xs) if not t or i != xs[t - 1]]
            rows = [xs[t] for t in self.starts]
        self.rows = None if len(rows) == len(at) else [at[i] for i in rows]
        self.values, self.highs, self.lows = values, {}, {}  # by id of a y column

    def gate_terms(self, x_col, y_col):
        """Per row, <x, u*> plus the max over its cells of <y, v*>."""
        x_col = _at(x_col, self.rows)
        if y_col is None:
            return x_col
        if id(y_col) not in self.highs:  # ``_columns`` gives one list per key
            self.highs[id(y_col)] = _per_row([y_col[j] for j in self.ys], self.starts, max)
        return list(map(add, x_col, self.highs[id(y_col)]))

    def fenchel_terms(self, x_col, y_col):
        """(per row, <x, x*> minus the least f - <y, y*> over its cells;
        per row, the index in dom of the first cell attaining that least)."""
        x_col = _at(x_col, self.rows)
        if y_col is None:
            return list(map(sub, x_col, self.values)), self.starts
        if id(y_col) not in self.lows:
            costs = list(map(sub, self.values, [y_col[j] for j in self.ys]))
            least = _per_row(costs, self.starts, min)
            firsts = self.starts if least is costs else [
                costs.index(m, s) for m, s in zip(least, self.starts)]
            self.lows[id(y_col)] = least, firsts
        least, firsts = self.lows[id(y_col)]
        return list(map(sub, x_col, least)), firsts


# A term <p, x*> - f(p) is NaN only where <p, x*> adds opposite
# infinities, so the error names the slopes.
_OVERFLOW = "grids.xstar/grids.ystar: <grid point, slope> overflows to NaN"


def _c_conjugate_rows(fs, w_grid: DualGrid):
    """(D, per function of fs, all on one grid, (best, attaining row) per
    dual point, in the order of the dual grid).

    On a finite cell best is the sweep's raw Fenchel value, an int over
    D·D when D is not None, and the row is the first (point, payload) of
    dom f (``_split_dom``), in grid order, attaining it;
    on a +-inf cell best is the float +-inf and the row None.  A NaN
    value raises here.  The sweep nests over the grid as X x Y
    (``_prepared``), X cut to the rows that some function's domain meets,
    and reads each function by rows (``_Rows``).  A gate's top is the max
    over rows of <x, u*> plus the row's max of <y, v*> (NaN if some term
    is: inf·0 fails every gate, as in the definition), and the Fenchel
    value the first max over rows of <x, x*> minus the row's least
    f - <y, y*>.  The dual grid is read as its entries (``DualGrid.parts``)
    and each point's indices into them (``DualGrid.codes``), and each
    dots column is taken once per distinct part of u* and of each x* some
    open gate needs, and read by every function."""
    splits = [_split_dom(f) for f in fs]
    out = [[(-inf if c is NEG_INF else inf, None)] * len(w_grid) if cells is None else None
           for cells, c in splits]
    swept = [(r, cells, raw) for r, (cells, raw) in enumerate(splits) if cells is not None]
    if not swept:
        return None, out
    slopes, gates, alphas = w_grid.parts
    D, ((X, ux, xx), (Y, uy, xy)), (alphas, *payloads) = funcrep._prepared(
        fs[0].grid, (gates, slopes), [alphas] + [_payloads(fs[r], raw) for r, _, raw in swept])
    n = len(Y)
    used = sorted({k // n for _, cells, _ in swept for k in cells})
    at = dict(zip(used, range(len(used))))
    tables = [_Rows(cells, n, at, vs) for (_, cells, _), vs in zip(swept, payloads)]
    columns, m = list(zip(*[X[i] for i in used])), len(used)
    gate_x, column_y = _columns(columns, m), _columns(list(zip(*Y)), n)

    firsts = {}, {}  # u* and x* key -> its first entry
    gate_of = [firsts[0].setdefault(_key(a + b), g) for g, (a, b) in enumerate(zip(ux, uy))]
    slope_of = [firsts[1].setdefault(_key(a + b), s) for s, (a, b) in enumerate(zip(xx, xy))]
    gate_columns = [(g, gate_x(ux[g]), column_y(uy[g])) for g in firsts[0].values()]
    codes = [(slope_of[s], gate_of[g], alphas[a]) for s, g, a in w_grid.codes()]
    opens = []
    for table in tables:
        tops = {}
        for g, x_col, y_col in gate_columns:
            t = table.gate_terms(x_col, y_col)
            tops[g] = max(t) if D is not None or all(c == c for c in t) else nan  # ints: no NaN
        opens.append([tops[g] < alpha for _, g, alpha in codes])
    needs = [{s for is_open, (s, _, _) in zip(row, codes) if is_open} for row in opens]
    by_x = {}  # x-part key -> the distinct x* with it that some open gate needs
    for s in sorted(set().union(*needs)):
        by_x.setdefault(_key(xx[s]), []).append(s)
    found = [{} for _ in swept]  # per function: x* entry -> (Fenchel value, attaining row)
    points = fs[0].grid.points
    for group in by_x.values():
        x_col = dots(columns, xx[group[0]], m)
        for s in group:
            y_col = column_y(xy[s])
            for table, need, cell, (_, cells, raw) in zip(tables, needs, found, swept):
                if s in need:
                    terms, first = table.fenchel_terms(x_col, y_col)
                    best = max(terms)
                    if best != best:
                        raise NaNError(_OVERFLOW)
                    k = first[terms.index(best)]
                    cell[s] = best, (points[cells[k]], raw[k])
    shut = (inf, None)
    for (r, _, _), row, cell in zip(swept, opens, found):
        out[r] = [cell[s] if is_open else shut for is_open, (s, _, _) in zip(row, codes)]
    return D, out


def c_conjugate(f: SampledFn, w_grid: DualGrid) -> SampledFn:
    """f^c(w) = sup over the grid of { c(x, w) - f(x) }; a scaled sweep's
    values are of f's backend, the one type of every entry it scaled."""
    D, (cells,) = _c_conjugate_rows([f], w_grid)
    return SampledFn.keyed(w_grid, [best for best, _ in cells], None if D is None else D * D, f.backend)


def cprime_conjugate(g: SampledFn, x_grid: Grid) -> SampledFn:
    """g^{c'}(x) = sup over the dual grid of { c'(w, x) - g(w) }.

    Per distinct u* only the least alpha over dom g decides the gate (a
    NaN alpha sticks and shuts it at every x), and per distinct x* only
    the least value of g can attain the sup.  Both tables keep the order
    in which the dual grid first meets a key, so ties and NaN terms
    resolve as in the definitional sweep.  The sweep nests over the grid
    as X x Y (``_prepared``): a gate shuts where <x, u*> + <y, v*> reaches
    alpha, and the value at an open (x, y) is the running max, over
    the distinct x-parts of x*, of <x, x-part> minus the least over the
    slopes with that x-part of g - <y, y-part>.
    """
    cells, raw = _split_dom(g)
    if cells is None:
        return SampledFn(x_grid, [raw] * len(x_grid))
    slopes, gates, alphas = g.grid.parts
    codes = list(g.grid.codes())
    dom = [codes[k] for k in cells]  # the (slope, gate, alpha) entries of dom g's points
    # per part, each entry dom meets -> its place among them, in first-appearance order
    on_s, on_g, on_a = ({e: j for j, e in enumerate(dict.fromkeys(code[i] for code in dom))} for i in range(3))
    D, ((X, ux, xx), (Y, uy, xy)), (alphas, values) = funcrep._prepared(
        x_grid, ([gates[i] for i in on_g], [slopes[i] for i in on_s]),
        ([alphas[i] for i in on_a], _payloads(g, raw)),
    )
    gates = {}  # u* key -> [x-part, y-part, least alpha over dom g]
    slopes = {}  # x* key -> [x-part, y-part, least value of g]
    gate_of = [gates.setdefault(_key(a + b), [a, b, None]) for a, b in zip(ux, uy)]
    slope_of = [slopes.setdefault(_key(c + e), [c, e, None]) for c, e in zip(xx, xy)]
    for (s, i, a), v in zip(dom, values):
        gate, alpha = gate_of[on_g[i]], alphas[on_a[a]]
        if gate[2] is None or alpha < gate[2] or alpha != alpha:
            gate[2] = alpha
        slope = slope_of[on_s[s]]
        if slope[2] is None or v < slope[2]:
            slope[2] = v
    m, n = len(X), len(Y)
    gate_x, column_y = _columns(list(zip(*X)), m), _columns(list(zip(*Y)), n)
    shut = [False] * (m * n)  # y-major, (x_i, y_j) at j·m + i: one run when Y is R^0
    for a, b, alpha in gates.values():
        column, y_col = gate_x(a), column_y(b)
        sums = column if y_col is None else [p + q for q in y_col for p in column]
        shut = [s or not (t < alpha) for s, t in zip(shut, sums)]
    opened = [[i for i, s in enumerate(shut[j * m:(j + 1) * m]) if not s] for j in range(n)]
    used = sorted(set().union(*opened))  # the x with an open cell
    at = dict(zip(used, range(len(used))))
    opened = [None if len(xs) == len(used) else [at[i] for i in xs] for xs in opened]
    groups = {}  # x-part key -> [x-part, per y the least g - <y, y-part> of its slopes]
    for c, e, v in slopes.values():
        y_col = column_y(e)
        costs = [v] if y_col is None else [v - t for t in y_col]
        group = groups.setdefault(_key(c), [c, costs])
        if group[1] is not costs:
            group[1] = [p if p < q else q for p, q in zip(costs, group[1])]
    columns = list(zip(*[X[i] for i in used]))
    best = None
    for c, costs in groups.values():
        column = dots(columns, c, len(used))
        terms = [t - d for xs, d in zip(opened, costs) for t in _at(column, xs)]
        best = terms if best is None else [t if t > b else b for t, b in zip(terms, best)]
    if D is None and any(b != b for b in best):
        raise NaNError(_OVERFLOW)
    best = iter(best)
    keys = [inf if s else next(best) for s in shut]  # y-major
    keys = chain.from_iterable(zip(*(keys[j * m:(j + 1) * m] for j in range(n))))
    return SampledFn.keyed(x_grid, keys, None if D is None else D * D, g.backend)


def biconjugate(f: SampledFn, w_grid: DualGrid) -> SampledFn:
    """f^{cc'} back on f's own grid: a minorant of f that tightens as the
    dual grid is refined."""
    return cprime_conjugate(c_conjugate(f, w_grid), f.grid)


# ---------------------------------------------------------------------------
# Definitional sweeps: single-point values, the oracle of the
# differential tests and the other side of the dual-slice audit
# ---------------------------------------------------------------------------


def _sup_minus(couplings, raw) -> ExtReal:
    """The one-column form of ``_sups``: the sup of each raw coupling (None
    for +inf) minus its raw value, f^c(w) pairing w with every grid
    point, g^{c'}(x) x with every dual point.  A NaN sup raises."""
    column = list(couplings)
    (best,) = _sups(raw, [column], [{k for k, c in enumerate(column) if c is None}])
    try:
        return ExtReal(best)
    except NaNError:
        raise NaNError(_OVERFLOW) from None


def _check_ints(points, duals=(), tables=(), scalars=()):
    """(d, points, duals, tables, scalars) as a definitional check reads
    them, scaled by the check itself and never by ``funcrep._prepared``.

    A table is a list of raw values (``SampledFn.raw``, +-inf as floats)
    or a ``SampledFn``, and comes back as such a list.  When every
    coordinate of the points, every x*, u* and alpha of the dual points,
    every finite value of the tables and every scalar is a Fraction or an
    int, d is the lcm of their denominators: points and slopes come back
    times d, alphas, finite values and scalars times d², all ints, so
    ``_coupling`` of a scaled pair is d² times the coupling behind the
    same gate.  An exact rational table counts as its int keys over its
    scale, with no Fraction: the lcm of their denominators is
    scale / gcd(scale, *keys).  Otherwise d is None and all come back as
    given."""
    duals = list(duals)
    keyed = [t.__class__ is SampledFn and bool(t.scale) and t.backend == "rational" for t in tables]
    tables = [t.raw() if t.__class__ is SampledFn and not by_keys else t for t, by_keys in zip(tables, keyed)]
    values = [c for p in points for c in p]
    values += [c for w in duals for c in (*w.xstar, *w.ustar, w.alpha)]
    values += [p for t, by_keys in zip(tables, keyed) if not by_keys for p in t if -inf < p < inf]
    values += scalars
    if not all(c.__class__ is Fraction or c.__class__ is int for c in values):
        return None, points, duals, [t.raw() if by_keys else t for t, by_keys in zip(tables, keyed)], scalars
    ints = [[k for k in t.keys if k.__class__ is int] if by_keys else [] for t, by_keys in zip(tables, keyed)]
    d = lcm(*{c.denominator for c in values}, *{t.scale // gcd(t.scale, *ks) for t, ks in zip(tables, ints) if ks})
    dd = d * d

    def times(c, k):
        return c.numerator * (k // c.denominator)

    def vec(v):
        return tuple(times(c, d) for c in v)

    def rows(t, by_keys):
        if not by_keys:
            return [times(p, dd) if -inf < p < inf else p for p in t]
        q, r = divmod(dd, t.scale)
        return [(k * dd // t.scale if r else k * q) if k.__class__ is int else k for k in t.keys]
    return (
        d,
        [vec(p) for p in points],
        [DualPoint(vec(w.xstar), vec(w.ustar), times(w.alpha, dd)) for w in duals],
        [rows(t, by_keys) for t, by_keys in zip(tables, keyed)],
        [times(s, dd) for s in scalars],
    )
