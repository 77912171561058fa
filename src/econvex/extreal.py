"""Extended-real scalars with asymmetric infinity arithmetic.

Every value taken by the functions in this package lives in the extended
line, and the conjugation machinery only stays total because sums and
differences of opposite infinities are pinned down: any sum pairing +inf
with -inf is -inf, and (+inf) - (+inf) = (-inf) - (-inf) = -inf.  Suprema
over empty collections are -inf, infima +inf.

Finite payloads come in two backends: exact `fractions.Fraction`
("rational", used by the exact geometry and the 1-D exact engine) and IEEE
doubles ("float", used by grid sweeps).  Infinities are backend-neutral;
arithmetic or comparison between finite values of different backends
raises :class:`BackendMismatchError` instead of silently coercing.

Operations dispatch on the class of the payloads (``v.__class__ is
Fraction``, or ``isinstance(v, float)``, cheap under float's plain
metaclass), never on ``isinstance(v, Fraction)``, which runs
``ABCMeta.__instancecheck__`` on a float; payloads of two classes take
the backend check.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Union

__all__ = [
    "BackendMismatchError",
    "NaNError",
    "ExtReal",
    "POS_INF",
    "NEG_INF",
    "fold_sum",
    "sup",
    "inf",
    "fmt",
    "scalar",
]

Scalar = Union[int, float, Fraction]
_EXACT = (Fraction, float)


class BackendMismatchError(TypeError):
    """Raised when rational-backed and float-backed finite values meet."""


class NaNError(ValueError):
    """Raised when float arithmetic reaches NaN, which has no extended-real
    meaning."""


class ExtReal:
    """An element of the extended real line.

    Immutable.  ``_v`` is a `Fraction` or `float` for finite values and
    ``math.inf`` / ``-math.inf`` for the two infinities; a finite value
    never stores a non-finite payload.
    """

    __slots__ = ("_v",)

    def __init__(self, value: Scalar):
        if value.__class__ is Fraction or value.__class__ is float and value == value:
            pass
        elif isinstance(value, bool):
            raise TypeError("bool is not a scalar payload")
        elif isinstance(value, int):
            value = Fraction(value)
        elif isinstance(value, float):
            if math.isnan(value):
                raise NaNError("NaN has no extended-real meaning")
        elif not isinstance(value, Fraction):
            raise TypeError(f"unsupported payload type {type(value).__name__}")
        _SET(self, value)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExtReal is immutable")

    # -- classification -------------------------------------------------

    @property
    def is_pos_inf(self) -> bool:
        return isinstance(self._v, float) and self._v == math.inf

    @property
    def is_neg_inf(self) -> bool:
        return isinstance(self._v, float) and self._v == -math.inf

    @property
    def is_finite(self) -> bool:
        return self._v.__class__ is Fraction or not (isinstance(self._v, float) and math.isinf(self._v))

    @property
    def backend(self) -> str | None:
        """``"rational"`` or ``"float"`` for finite values, None for infinities."""
        if not self.is_finite:
            return None
        return "float" if isinstance(self._v, float) else "rational"

    @property
    def value(self) -> Scalar:
        """The finite payload; raises on infinities."""
        if not self.is_finite:
            raise ValueError("infinite ExtReal has no finite payload")
        return self._v

    # -- order -----------------------------------------------------------

    def _check_comparable(self, other: "ExtReal") -> None:
        if (
            self.is_finite
            and other.is_finite
            and isinstance(self._v, Fraction) != isinstance(other._v, Fraction)
        ):
            raise BackendMismatchError(
                "cannot compare rational-backed and float-backed values"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self._v.__class__ is not other._v.__class__:
            self._check_comparable(other)
        # an infinity equals no finite payload of either backend.
        return self._v == other._v

    def __lt__(self, other: "ExtReal") -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self._v.__class__ is not other._v.__class__:
            self._check_comparable(other)
        # float infinities compare correctly against Fraction payloads.
        return self._v < other._v

    def __le__(self, other: "ExtReal") -> bool:
        return self == other or self < other

    def __gt__(self, other: "ExtReal") -> bool:
        return not self <= other

    def __ge__(self, other: "ExtReal") -> bool:
        return not self < other

    def __hash__(self) -> int:
        return hash(self._v)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "ExtReal":
        if isinstance(self._v, float) and math.isinf(self._v):
            return NEG_INF if self._v > 0 else POS_INF
        return ExtReal(-self._v)

    def __add__(self, other: "ExtReal") -> "ExtReal":
        if other.__class__ is ExtReal and self._v.__class__ is other._v.__class__ in _EXACT:
            s = self._v + other._v  # finite only if both are
            if s.__class__ is Fraction or math.isfinite(s):
                return ExtReal(s)
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self.is_finite and other.is_finite:
            self._check_comparable(other)
            return ExtReal(self._v + other._v)
        # At least one infinity: opposite signs collapse to -inf.
        if self.is_pos_inf:
            return NEG_INF if other.is_neg_inf else POS_INF
        if self.is_neg_inf:
            return NEG_INF
        return other + self

    def __sub__(self, other: "ExtReal") -> "ExtReal":
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self + (-other)

    # -- rendering ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"ExtReal({fmt(self)})"

    def __str__(self) -> str:
        return fmt(self)


_SET = ExtReal._v.__set__  # the slot's own setter, past __setattr__
POS_INF, NEG_INF = ExtReal(math.inf), ExtReal(-math.inf)


def fold_sum(values: Iterable[ExtReal]) -> ExtReal:
    """Left-to-right fold of the pairwise sum.

    Any multiset containing both +inf and -inf folds to -inf regardless of
    order: an absorbed -inf never leaves (-inf + +inf = -inf), and a +inf
    run flips to -inf at the first -inf.  The empty sum is 0 (rational).
    """
    total = ExtReal(0)
    first = True
    for v in values:
        total = v if first else total + v
        first = False
    return total


def sup(values: Iterable[ExtReal]) -> ExtReal:
    """Supremum of a finite collection; -inf for the empty one."""
    best = NEG_INF
    for v in values:
        if best < v:
            best = v
    return best


def inf(values: Iterable[ExtReal]) -> ExtReal:
    """Infimum of a finite collection; +inf for the empty one."""
    best = POS_INF
    for v in values:
        if v < best:
            best = v
    return best


def _digits(n: int) -> str:
    """n in decimal.  Past the interpreter's limit on int-to-str digits,
    which the loader relies on and so stays in force, through `Decimal`,
    which prints any number of digits."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def fmt(x: ExtReal) -> str:
    """Render as ``inf``, ``-inf``, ``p/q``/``p`` (rational) or repr (float)."""
    v = x._v
    if isinstance(v, float):
        return repr(v) if math.isfinite(v) else "inf" if v > 0 else "-inf"
    p = _digits(v.numerator)
    return p if v.denominator == 1 else f"{p}/{_digits(v.denominator)}"


def scalar(v, backend: str) -> Scalar:
    """``v`` as a finite payload of ``backend``: a `Fraction` for
    ``"rational"``, a float for ``"float"``.  The one place a backend name
    chooses a payload type.  A `Fraction` is returned as it is, so
    coercing a coerced point again is a type check."""
    if backend == "rational":
        return v if v.__class__ is Fraction else Fraction(v)
    if backend == "float":
        return float(v)
    raise ValueError(f"unknown backend {backend!r}")
