import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nonsieve import KahanSum, CompensatedProduct, PrecisionValue
from nonsieve.numerics import _fixed_point, format_float, two_prod, two_sum
from nonsieve.residual import _combine

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
        # the printed value is approx + comp, not approx alone
        assert v.decimal_str(25) == "1.0000000000000000000100000"

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


def half_even_oracle(value: Fraction, places: int) -> str:
    """value rounded half to even to `places` decimals by Fraction's round;
    a negative value that rounds to zero keeps its sign."""
    q = round(abs(value) * 10**places)
    sign = "-" if value < 0 else ""
    if places == 0:
        return f"{sign}{q}"
    return f"{sign}{q // 10**places}.{q % 10**places:0{places}d}"


def old_float_decimal(approx: float, comp: float, places: int) -> str:
    """Float decimal_str as it was computed through Decimal: a 60-digit sum
    of the two floats, then one quantize."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal(approx) + decimal.Decimal(comp)
        q = d.quantize(decimal.Decimal(1).scaleb(-places), rounding=decimal.ROUND_HALF_EVEN)
    return format(q, "f")


def old_format_float(value: float, places: int) -> str:
    """format_float as it was computed through a 40-digit Decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        q = decimal.Decimal(value).quantize(
            decimal.Decimal(1).scaleb(-places), rounding=decimal.ROUND_HALF_EVEN
        )
    return format(q, "f")


@pytest.mark.parametrize("sign", (1, -1))
def test_float_decimal_rounds_the_exact_sum_once(sign):
    # 2**-15 = 0.000030517578125 is a 14-place half-way point, and the
    # compensation term puts the value just above it: the 60-digit Decimal
    # sum dropped the 2**-250 and then broke the tie to even, "...812".
    v = PrecisionValue.compensated(sign * 2.0**-15, sign * 2.0**-250)
    expected = "0.00003051757813" if sign > 0 else "-0.00003051757813"
    assert v.decimal_str(14) == expected


def negative_zero(v: float) -> bool:
    return v == 0 and math.copysign(1.0, v) < 0


def distance_to_tie(value: Fraction, places: int) -> Fraction:
    scaled = abs(value) * 10**places
    return abs(scaled - math.floor(scaled) - Fraction(1, 2)) / 10**places


tiny = st.builds(
    lambda s, e: math.ldexp(s, -e), st.sampled_from((1, -1)), st.integers(60, 1074)
)
dyadic = st.builds(
    lambda k, e: math.ldexp(k, -e), st.integers(-(2**20), 2**20), st.integers(0, 60)
)


@st.composite
def float_pairs(draw):
    """(approx, comp, places).  An odd multiple of 2**-(p + 1) is a half-way
    point at p places (2**-15 at 14), and a tiny compensation term moves it
    just off the tie."""
    places = draw(st.sampled_from((0, 5, 14)))
    tie = math.ldexp(2 * draw(st.integers(-(2**19), 2**19)) + 1, -(places + 1))
    approx = draw(st.one_of(st.just(tie), dyadic, st.floats(-1e6, 1e6)))
    comp = draw(st.one_of(st.just(0.0), tiny, dyadic, st.floats(-1e6, 1e6)))
    return approx, comp, places


@settings(max_examples=600)
@given(float_pairs())
def test_float_decimals_match_a_half_even_oracle(pair):
    approx, comp, places = pair
    exact = Fraction(approx) + Fraction(comp)
    got = PrecisionValue.compensated(approx, comp).decimal_str(places)
    assert got == half_even_oracle(exact, places)
    assert format_float(approx, places) == half_even_oracle(Fraction(approx), places)
    # The old formulas agree except that Decimal printed a -0.0, and the sum
    # -0.0 + -0.0, as "-0...": a zero now prints unsigned in both modes.
    # One rounding of the exact float was already what format_float did.
    if not negative_zero(approx):
        assert format_float(approx, places) == old_format_float(approx, places)
    # Away from ties the 60-digit sum (off by at most 10**-53 here) rounds
    # as the exact sum does.
    near_tie = distance_to_tie(exact, places) <= Fraction(1, 10**50)
    if not near_tie and not (negative_zero(approx) and negative_zero(comp)):
        assert got == old_float_decimal(approx, comp, places)


any_float = st.floats(allow_nan=False, allow_infinity=False)
subnormal = st.builds(
    lambda sign, k: sign * math.ldexp(k, -1074),
    st.sampled_from((1.0, -1.0)),
    st.integers(1, 2**52 - 1),
)
signed_zero = st.sampled_from((0.0, -0.0))


@st.composite
def compensated_pairs(draw):
    """(approx, comp): any finite floats, subnormals and signed zeros, and
    comp far below one ulp of approx or of the opposite sign."""
    approx = draw(st.one_of(any_float, subnormal, signed_zero))
    below_ulp = st.builds(
        lambda sign, e: sign * math.ulp(approx) * 2.0**-e,
        st.sampled_from((1.0, -1.0)),
        st.integers(1, 80),
    )
    opposite = any_float.map(lambda c: -math.copysign(abs(c), approx))
    comp = draw(st.one_of(any_float, subnormal, signed_zero, below_ulp, opposite))
    return approx, comp


@settings(max_examples=600)
@given(compensated_pairs(), st.integers(0, 20))
@example((0.5, 0.0), 0)  # exact half-even ties: "0", "2", "-0" and "0.12"
@example((2.5, 0.0), 0)
@example((-0.5, 0.0), 0)
@example((0.125, 0.0), 2)
@example((0.125, -0.0), 2)
@example((-0.0, -0.0), 3)
def test_float_decimal_rounds_the_fraction_sum(pair, places):
    approx, comp = pair
    total = Fraction(approx) + Fraction(comp)
    expected = _fixed_point(total.numerator, total.denominator, places)
    assert PrecisionValue.compensated(approx, comp).decimal_str(places) == expected


def enclosed_m(zn, zd, pn, pd):
    """M = Z * P - 1 as the residual builds it from Z = zn/zd, P = pn/pd,
    and a list that grows each time M's exact pair is formed."""
    m = _combine(PrecisionValue.ratio(zn, zd), PrecisionValue.ratio(pn, pd))
    make_pair, formed = m._pair, []

    def counted():
        formed.append(1)
        return make_pair()

    m._pair = counted
    return m, formed


PLACES = (0, 5, 14, 20)


@settings(max_examples=400)
@given(
    zn=st.integers(0, 2**300),
    zd=st.integers(1, 2**300),
    pn=st.integers(0, 2**300),
    pd=st.integers(1, 2**300),
)
def test_enclosed_m_rounds_as_its_exact_pair(zn, zd, pn, pd):
    m, _ = enclosed_m(zn, zd, pn, pd)
    num, den = zn * pn - zd * pd, zd * pd
    assert m.pair == (num, den)
    assert m.value.hex() == (num / den).hex()  # also tells 0.0 from -0.0
    for places in PLACES:
        assert m.decimal_str(places) == _fixed_point(num, den, places)


@settings(max_examples=200)
@given(
    scale=st.integers(1, 2**200),
    z=st.fractions(1, 3),
    p=st.fractions(0, 1),
)
def test_enclosed_m_near_the_residual_range(scale, z, p):
    # Z >= 1 and P in [0, 1] as in the residual, over unreduced pairs
    m, _ = enclosed_m(z.numerator * scale, z.denominator * scale, p.numerator, p.denominator)
    exact = z * p - 1
    assert m.value.hex() == float(exact).hex()
    for places in PLACES:
        assert m.decimal_str(places) == PrecisionValue.exact(exact).decimal_str(places)


def test_enclosure_decides_a_residual_without_its_pair():
    # shell:3 at x = 3: Z = 159/133, P = 108/133, M = -517/17689
    m, formed = enclosed_m(159, 133, 108, 133)
    assert m.value == -517 / 17689
    assert m.decimal_str(14) == "-0.02922720334671"
    assert formed == []


@pytest.mark.parametrize(
    "zn, zd, pn, pd, read, expected",
    [
        # on a 14-place half-way point: rounds half to even, down to ...34
        (1, 1, 876543210987655, 10**15, "decimal", "-0.12345678901234"),
        # -1 + 2**-54, half way between two floats: even is -1.0
        (1, 1, 1, 2**54, "value", -1.0),
        # M = 0 from Z = 3, P = 1/3: the enclosure straddles 0
        (3, 1, 1, 3, "value", 0.0),
        (3, 1, 1, 3, "decimal", "0.00000000000000"),
        # M = -2**-300, far inside the enclosure's width around 0
        (1, 1, 2**300 - 1, 2**300, "value", -(2.0**-300)),
        (1, 1, 2**300 - 1, 2**300, "decimal", "-0.00000000000000"),
    ],
    ids=["decimal-tie", "float-tie", "zero-value", "zero-decimal", "tiny-value", "tiny-decimal"],
)
def test_enclosure_falls_back_to_the_exact_pair(zn, zd, pn, pd, read, expected):
    m, formed = enclosed_m(zn, zd, pn, pd)
    got = m.value if read == "value" else m.decimal_str(14)
    assert repr(got) == repr(expected)  # repr tells 0.0 from -0.0
    assert formed == [1]
