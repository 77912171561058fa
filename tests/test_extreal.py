import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from econvex import extreal
from econvex.extreal import (
    NEG_INF,
    POS_INF,
    BackendMismatchError,
    ExtReal,
    NaNError,
    fold_sum,
    fmt,
    scalar,
)

from helpers import (
    REFERENCE_NEG_INF,
    REFERENCE_POS_INF,
    WIDE_FRACTIONS,
    ReferenceExtReal,
    parse,
    reference_fmt,
)

FIVE = [NEG_INF, ExtReal(-1), ExtReal(0), ExtReal(1), POS_INF]


def ext(v):
    if v == "inf":
        return POS_INF
    if v == "-inf":
        return NEG_INF
    return ExtReal(v)


class TestConventions:
    def test_opposite_infinities_sum_to_neg_inf(self):
        assert POS_INF + NEG_INF == NEG_INF
        assert NEG_INF + POS_INF == NEG_INF

    def test_finite_sum(self):
        assert ExtReal(3) + ExtReal(4) == ExtReal(7)

    def test_absorbing_infinity(self):
        assert NEG_INF + ExtReal(5) == NEG_INF
        assert POS_INF + ExtReal(5) == POS_INF

    def test_same_sign_difference_is_neg_inf(self):
        assert POS_INF - POS_INF == NEG_INF
        assert NEG_INF - NEG_INF == NEG_INF

    def test_finite_difference(self):
        assert ExtReal(0) - ExtReal(0) == ExtReal(0)

    def test_finite_minus_neg_inf(self):
        assert ExtReal(5) - NEG_INF == POS_INF

    def test_two_operand_table(self):
        # Exhaustive 2-operand enumeration over {-inf, -1, 0, 1, +inf}.
        for a, b in itertools.product(FIVE, repeat=2):
            s = a + b
            if (a.is_pos_inf and b.is_neg_inf) or (a.is_neg_inf and b.is_pos_inf):
                assert s == NEG_INF
            elif a.is_pos_inf or b.is_pos_inf:
                assert s == POS_INF
            elif a.is_neg_inf or b.is_neg_inf:
                assert s == NEG_INF
            else:
                assert s == ExtReal(a.value + b.value)

    def test_three_operand_fold_mixed_infinities(self):
        # Any 3-element multiset containing both infinities folds to -inf,
        # in every order.
        for triple in itertools.product(FIVE, repeat=3):
            tags = {fmt(t) for t in triple}
            if "inf" in tags and "-inf" in tags:
                assert fold_sum(triple) == NEG_INF

    def test_sub_equals_add_neg_over_all_tag_combinations(self):
        for a, b in itertools.product(FIVE, repeat=2):
            assert a - b == a + (-b)


class TestSupInf:
    def test_empty_sup_is_neg_inf(self):
        assert extreal.sup([]) == NEG_INF

    def test_empty_inf_is_pos_inf(self):
        assert extreal.inf([]) == POS_INF

    def test_inf_with_neg_inf_member(self):
        assert extreal.inf([ExtReal(3), NEG_INF, ExtReal(7)]) == NEG_INF

    def test_sup_with_pos_inf_member(self):
        assert extreal.sup([ExtReal(1), ExtReal(2), POS_INF]) == POS_INF

    @given(
        st.lists(st.integers(-5, 5).map(ExtReal)),
        st.lists(st.integers(-5, 5).map(ExtReal)),
    )
    def test_sup_monotone_under_extension(self, left, right):
        assert extreal.sup(left) <= extreal.sup(left + right)
        assert extreal.inf(left) >= extreal.inf(left + right)


@st.composite
def extreals(draw):
    kind = draw(st.sampled_from(["finite", "pos", "neg"]))
    if kind == "pos":
        return POS_INF
    if kind == "neg":
        return NEG_INF
    return ExtReal(Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 10))))


class TestAlgebra:
    @given(extreals(), extreals())
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @given(extreals())
    def test_neg_involutive(self, a):
        assert -(-a) == a

    @given(extreals(), extreals())
    def test_order_total(self, a, b):
        assert (a < b) or (b < a) or (a == b)

    def test_total_order_tags(self):
        assert NEG_INF < ExtReal(Fraction(-10**9)) < ExtReal(0) < POS_INF


class TestBackends:
    def test_int_payload_normalizes_to_fraction(self):
        assert ExtReal(3).backend == "rational"
        assert isinstance(ExtReal(3).value, Fraction)

    def test_float_payload(self):
        assert ExtReal(1.5).backend == "float"

    def test_infinite_float_becomes_tagged_infinity(self):
        assert ExtReal(float("inf")) == POS_INF
        assert ExtReal(float("-inf")) == NEG_INF
        assert not ExtReal(float("inf")).is_finite

    def test_nan_rejected(self):
        with pytest.raises(NaNError):
            ExtReal(float("nan"))

    def test_cross_backend_comparison_forbidden(self):
        with pytest.raises(BackendMismatchError):
            ExtReal(Fraction(1, 2)) < ExtReal(0.5)
        with pytest.raises(BackendMismatchError):
            ExtReal(Fraction(1, 2)) == ExtReal(0.5)

    def test_cross_backend_arithmetic_forbidden(self):
        with pytest.raises(BackendMismatchError):
            ExtReal(Fraction(1, 2)) + ExtReal(0.5)

    def test_infinities_mix_with_both_backends(self):
        assert ExtReal(0.5) < POS_INF
        assert NEG_INF < ExtReal(Fraction(1, 2))
        assert ExtReal(0.5) + POS_INF == POS_INF


class TestScalar:
    """scalar() is the one map from a backend name to its payload type."""

    @pytest.mark.parametrize("v", [0, 3, -2, Fraction(-7, 4), "1/3"])
    def test_rational_payload(self, v):
        out = scalar(v, "rational")
        assert type(out) is Fraction and out == Fraction(v)

    def test_a_fraction_is_returned_as_it_is(self):
        # Re-coercing a coerced grid point is then a type check.
        q = Fraction(-7, 4)
        assert scalar(q, "rational") is q

        class Sub(Fraction):
            pass

        assert type(scalar(Sub(1, 3), "rational")) is Fraction

    @pytest.mark.parametrize("v", [0, 3, -2, Fraction(-7, 4), 0.25])
    def test_float_payload(self, v):
        out = scalar(v, "float")
        assert type(out) is float and out == float(v)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend 'decimal'"):
            scalar(1, "decimal")

    def test_parse_uses_the_same_map(self):
        assert type(parse("1/2").value) is Fraction
        assert type(parse("0.5", "float").value) is float
        with pytest.raises(ValueError, match="unknown backend"):
            parse("1", "decimal")


class TestRendering:
    @pytest.mark.parametrize(
        "value,text",
        [
            (POS_INF, "inf"),
            (NEG_INF, "-inf"),
            (ExtReal(Fraction(3, 4)), "3/4"),
            (ExtReal(Fraction(-7)), "-7"),
            # Past the interpreter's 4300-digit limit on int-to-str.
            (ExtReal(Fraction(10**5000)), "1" + "0" * 5000),
            (ExtReal(Fraction(-1, 10**5000)), "-1/1" + "0" * 5000),
        ],
    )
    def test_fmt(self, value, text):
        assert fmt(value) == text

    def test_float_fmt_round_trips(self):
        x = ExtReal(0.1)
        assert parse(fmt(x), backend="float") == x

    @pytest.mark.parametrize("text", ["inf", "-inf", "3/4", "-7", "0"])
    def test_parse_round_trip_rational(self, text):
        assert fmt(parse(text)) == text

    def test_parse_float_backend(self):
        assert parse("1.5", backend="float") == ExtReal(1.5)
        assert parse("inf", backend="float") == POS_INF

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            ExtReal(True)


class _Third(Fraction):
    """A Fraction subclass: a payload that the exact-class dispatch leaves
    to the checks."""


# Payloads of every kind the constructor takes: wide fractions, ints,
# floats (signed zeros, near the overflow threshold, subnormals), the
# infinities, and a Fraction subclass; an operand is also one of the two
# infinities as the module defines them.
KINDS = [
    WIDE_FRACTIONS,
    st.integers(-10**6, 10**6),
    st.sampled_from([0.0, -0.0, 0.5, -1.5, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf, "POS_INF", "NEG_INF"]),
    WIDE_FRACTIONS.map(lambda q: _Third(q.numerator, q.denominator)),
]
PAYLOADS = st.one_of(KINDS[:4] + [st.sampled_from([math.inf, -math.inf]), KINDS[5]])
OPERANDS = st.one_of(KINDS)


@st.composite
def operand_pairs(draw):
    """Two operands of one kind (floats with floats, Fractions with
    Fractions) or of any two kinds."""
    if draw(st.booleans()):
        kind = draw(st.sampled_from(KINDS))
        return draw(kind), draw(kind)
    return draw(OPERANDS), draw(OPERANDS)


def _pair(operand):
    """The operand as an ExtReal and as a reference ExtReal."""
    if operand == "POS_INF":
        return POS_INF, REFERENCE_POS_INF
    if operand == "NEG_INF":
        return NEG_INF, REFERENCE_NEG_INF
    return ExtReal(operand), ReferenceExtReal(operand)


def _seen(thunk, infinities):
    """What a caller can tell of thunk(): the class of the error it raises,
    or for an ExtReal its repr, its payload class and whether it is one of
    the two infinities, or any other result as it is."""
    try:
        out = thunk()
    except Exception as exc:  # either side's error; its class is compared
        return type(exc)
    if isinstance(out, (ExtReal, ReferenceExtReal)):
        return repr(out), type(out._v), [out is inf for inf in infinities]
    if isinstance(out, (Fraction, float)):
        return repr(out), type(out)
    return out


def _same(op, a, b=None):
    """op on the ExtReals a (and b) and on the reference ExtReals."""
    new_a, old_a = a
    new_b, old_b = b if b is not None else (None, None)
    new = _seen(lambda: op(new_a, new_b), (POS_INF, NEG_INF))
    old = _seen(lambda: op(old_a, old_b), (REFERENCE_POS_INF, REFERENCE_NEG_INF))
    assert new == old


UNARY = {
    "is_pos_inf": lambda a, _: a.is_pos_inf,
    "is_neg_inf": lambda a, _: a.is_neg_inf,
    "is_finite": lambda a, _: a.is_finite,
    "backend": lambda a, _: a.backend,
    "value": lambda a, _: a.value,
    "neg": lambda a, _: -a,
    "repr": lambda a, _: repr(a),
    "str": lambda a, _: str(a),
    "hash": lambda a, _: hash(a),
}
BINARY = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "add": operator.add,
    "sub": operator.sub,
}


class TestAgainstTheReference:
    """Every operation against the reference ExtReal of ``helpers``: the
    same repr and payload class, the same infinity objects, or the same
    error class, on same-backend, mixed and subclass payloads."""

    @given(PAYLOADS)
    @settings(max_examples=300)
    def test_construction(self, payload):
        new = _seen(lambda: ExtReal(payload), (POS_INF, NEG_INF))
        old = _seen(lambda: ReferenceExtReal(payload), (REFERENCE_POS_INF, REFERENCE_NEG_INF))
        assert new == old

    @pytest.mark.parametrize("name", UNARY)
    @given(OPERANDS)
    @settings(max_examples=200)
    def test_unary(self, name, a):
        _same(UNARY[name], _pair(a))

    @given(OPERANDS)
    @settings(max_examples=200)
    def test_fmt(self, a):
        new, old = _pair(a)
        assert fmt(new) == reference_fmt(old)

    @pytest.mark.parametrize("name", BINARY)
    @given(operand_pairs())
    @settings(max_examples=400)
    def test_binary(self, name, pair):
        a, b = pair
        _same(BINARY[name], _pair(a), _pair(b))

    @pytest.mark.parametrize("name", BINARY)
    @pytest.mark.parametrize("other", [1, 0.5, Fraction(1, 2), None, "inf"])
    @given(OPERANDS)
    @settings(max_examples=40)
    def test_other_operands(self, name, other, a):
        # NotImplemented for a non-ExtReal operand, on either side
        new_a, old_a = _pair(a)
        for op in (BINARY[name], lambda x, y: BINARY[name](y, x)):
            assert _seen(lambda: op(new_a, other), ()) == _seen(lambda: op(old_a, other), ())
