import itertools
from fractions import Fraction

import pytest
from hypothesis import given
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
    parse,
    scalar,
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
