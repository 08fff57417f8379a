import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nonsieve import KahanSum, CompensatedProduct, PrecisionValue
from nonsieve.numerics import dd_add, dd_mul, format_float, two_prod, two_sum

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100
)


@given(finite_floats, finite_floats)
def test_two_sum_is_error_free(a, b):
    s, e = two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


# magnitudes bounded away from under/overflow: the error-free property
# holds only while p and its error term stay in the normal range
normal_floats = st.floats(min_value=1e-140, max_value=1e140).flatmap(
    lambda m: st.sampled_from((m, -m))
)


@given(normal_floats, normal_floats)
def test_two_prod_is_error_free(a, b):
    p, e = two_prod(a, b)
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


def test_kahan_recovers_digits_plain_sum_loses():
    values = [1.0] + [1e-16] * 10_000
    acc = KahanSum()
    for v in values:
        acc.add(v)
    assert acc.value == math.fsum(values)


def test_compensated_product_tracks_error():
    acc = CompensatedProduct()
    exact = Fraction(1)
    for n in range(2, 500):
        f = 1.0 - 1.0 / n
        acc.multiply(f)
        exact *= Fraction(f)
    assert abs(Fraction(acc.product) + Fraction(acc.error) - exact) < Fraction(1, 10**25)


def test_dd_ops_round_trip():
    hi, lo = dd_mul(1.0 / 3.0, 0.0, 3.0, 0.0)
    s, e = dd_add(hi, lo, -1.0, 0.0)
    assert abs(s + e) < 1e-16


class TestPrecisionValue:
    def test_exact_decimal_string_half_even(self):
        # .5 tie at the 14th place: round half to even
        v = PrecisionValue.exact(Fraction(5, 10**15))
        assert v.decimal_str(14) == "0.00000000000000"
        v = PrecisionValue.exact(Fraction(15, 10**15))
        assert v.decimal_str(14) == "0.00000000000002"

    @pytest.mark.parametrize(
        "value, places, expected",
        [
            (Fraction(25, 10**15), 14, "0.00000000000002"),  # tie, down to even
            (Fraction(35, 10**15), 14, "0.00000000000004"),  # tie, up to even
            (Fraction(-15, 10**15), 14, "-0.00000000000002"),
            (Fraction(-25, 10**15), 14, "-0.00000000000002"),
            (Fraction(-5, 10**15), 14, "-0.00000000000000"),  # tie to zero keeps the sign
            (Fraction(-1, 10**15), 14, "-0.00000000000000"),
            (Fraction(0), 14, "0.00000000000000"),
            (Fraction(159, 133), 14, "1.19548872180451"),  # Z of shell:3 at x = 3
            (Fraction(37039, 3), 14, "12346.33333333333333"),
            (Fraction(5, 2), 0, "2"),
            (Fraction(7, 2), 0, "4"),
            (Fraction(-1, 2), 0, "-0"),
            (Fraction(-1, 3), 3, "-0.333"),
            (Fraction(2, 3), 20, "0.66666666666666666667"),
        ],
    )
    def test_exact_decimal_edge_cases(self, value, places, expected):
        assert PrecisionValue.exact(value).decimal_str(places) == expected
        unreduced = PrecisionValue.ratio(value.numerator * 6, value.denominator * 6)
        assert unreduced.decimal_str(places) == expected

    def test_negative_formatting(self):
        v = PrecisionValue.exact(Fraction(-517, 17689))
        assert v.decimal_str(14) == "-0.02922720334671"

    def test_compensated_value_includes_compensation(self):
        v = PrecisionValue.compensated(1.0, 1e-20)
        assert v.value == 1.0 + 1e-20
        assert v.as_fraction() == Fraction(1.0) + Fraction(1e-20)

    def test_exact_in_lowest_terms(self):
        v = PrecisionValue.exact(Fraction(7, 17689))
        assert v.rational.numerator == 1
        assert v.rational.denominator == 2527


def decimal_formula(value: Fraction, places: int) -> str:
    """Exact decimal_str as it was computed through Decimal: a 60-digit
    quotient, then one quantize."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        q = d.quantize(decimal.Decimal(1).scaleb(-places), rounding=decimal.ROUND_HALF_EVEN)
    return format(q, "f")


# With |value| <= 10**6 + 1 the formula's 60-digit quotient is within
# 10**-53 of the value.  With den <= 10**30 and places <= 20, a value that is
# not a rounding tie is at least 10**-50 / 2 from every tie, so the quotient
# rounds as the value does and the formula is correctly rounded here.
@settings(max_examples=500)
@given(
    den=st.integers(1, 10**30),
    scaled=st.integers(-(10**6), 10**6),
    rest=st.integers(0, 10**30),
    places=st.integers(0, 20),
    factor=st.integers(1, 10**6),
)
def test_integer_decimal_matches_decimal_formula(den, scaled, rest, places, factor):
    value = Fraction(scaled * den + rest % den, den)
    expected = decimal_formula(value, places)
    assert PrecisionValue.exact(value).decimal_str(places) == expected
    pv = PrecisionValue.ratio(value.numerator * factor, value.denominator * factor)
    assert pv.decimal_str(places) == expected


def test_format_float_half_even():
    assert format_float(29.991437, 5) == "29.99144"  # ordinary rounding
    assert format_float(-1.25, 1) == "-1.2"  # exact binary tie, half to even
    assert format_float(0.375, 2) == "0.38"
