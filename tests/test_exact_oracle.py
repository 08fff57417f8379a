"""Exact Z, P and M against a term-by-term Fraction oracle.

The oracle is the plain definition: Z adds 1/f(n)**s one Fraction at a
time and P multiplies in 1 - 1/f(n)**s from the first n with f(n) >= 2.
The package computes both from integer binary-splitting trees instead.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nonsieve import (
    euler_product_partial,
    parse_poly_spec,
    residual,
    residual_scan,
    zeta_partial,
)
from nonsieve.errors import NotMonotoneError

# f(1) = 1 with n0 = 2 (integers, the shells, n^2), f(1) = f(2) = 1 with
# n0 = 3 (n^2 - 3n + 3), f(1) > 1 with n0 = 1 (n^2 + 1, n + 3), and the
# constant 1, which has no start index and an empty product at every x.
# n^2 - 3n + 3 repeats the unit value, so the residual rejects it from x = 2
# on: Z would count both units, and M would leave (-1, 0) from x = 3 on.
SPECS = ("integers", "shell:1", "shell:2", "shell:3", "shell:5", "shell:7",
         "0,0,1", "3,-3,1", "1,0,1", "3,1")


def oracle(poly, x, s):
    """(Z, P, M, start_index, empty_product) by per-term Fractions."""
    values = [poly(n) for n in range(1, x + 1)]
    z = Fraction(1 if values[0] > 1 else 0)
    for v in values:
        z += Fraction(1, v**s)
    n0 = next((n for n, v in enumerate(values, 1) if v >= 2), None)
    p = Fraction(1)
    if n0 is not None:
        for v in values[n0 - 1:]:
            p *= 1 - Fraction(1, v**s)
    return z, p, z * p - 1, n0, n0 is None


def rejected(poly, x):
    """f fails to increase strictly on 1..x, and is not the constant 1."""
    return poly.coefficients != (1,) and any(poly(n + 1) <= poly(n) for n in range(1, x))


def decimal_oracle(value: Fraction, places: int = 14) -> str:
    """value rounded half to even to `places` decimals, by Fraction's round;
    a negative value that rounds to zero keeps its sign."""
    q = round(abs(value) * 10**places)
    sign = "-" if value < 0 else ""
    return f"{sign}{q // 10**places}.{q % 10**places:0{places}d}"


def assert_matches_oracle(res, poly, s):
    z, p, m, n0, empty = oracle(poly, res.x, s)
    assert res.m_value.value == float(m)
    assert res.m_value.decimal_str(14) == decimal_oracle(m)
    assert res.zeta_partial.rational == z
    assert res.product_partial.rational == p
    assert res.m_value.rational == m
    assert res.start_index == n0
    assert res.empty_product is empty


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("s", (1, 2))
def test_one_shot_matches_oracle_at_small_and_start_limits(spec, s):
    poly = parse_poly_spec(spec)
    n0 = oracle(poly, 3, s)[3] or 1
    for x in sorted({1, 2, 3, n0, n0 + 1, 17}):
        if rejected(poly, x):
            for engine in (residual, zeta_partial, euler_product_partial):
                with pytest.raises(NotMonotoneError):
                    engine(poly, x, s, "exact")
            continue
        assert_matches_oracle(residual(poly, x, s, "exact"), poly, s)
        z, p, _, _, _ = oracle(poly, x, s)
        assert zeta_partial(poly, x, s, "exact").rational == z
        assert euler_product_partial(poly, x, s, "exact").rational == p


@settings(max_examples=150, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    s=st.sampled_from((1, 2)),
    xs=st.lists(st.integers(1, 60), min_size=1, max_size=6, unique=True).map(sorted),
)
def test_gapped_scan_matches_oracle_and_one_shot(spec, s, xs):
    poly = parse_poly_spec(spec)
    if rejected(poly, xs[-1]):
        with pytest.raises(NotMonotoneError):
            residual_scan(poly, xs, s, "exact")
        return
    scan = residual_scan(poly, xs, s, "exact")
    assert [r.x for r in scan] == xs
    for res in scan:
        assert_matches_oracle(res, poly, s)
        fresh = residual(poly, res.x, s, "exact")
        for field in ("label", "x", "s", "start_index", "empty_product"):
            assert getattr(res, field) == getattr(fresh, field)
        for field in ("zeta_partial", "product_partial", "m_value"):
            a, b = getattr(res, field), getattr(fresh, field)
            assert a.pair == b.pair
            assert a.decimal_str(14) == b.decimal_str(14)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    s=st.sampled_from((1, 2)),
    xs=st.lists(st.integers(1, 300), min_size=1, max_size=5, unique=True).map(sorted),
)
def test_float_scan_equals_one_shot_bit_for_bit(spec, s, xs):
    poly = parse_poly_spec(spec)
    if rejected(poly, xs[-1]):
        with pytest.raises(NotMonotoneError):
            residual_scan(poly, xs, s, "float")
        return
    for res in residual_scan(poly, xs, s, "float"):
        fresh = residual(poly, res.x, s, "float")
        for field in ("label", "x", "s", "start_index", "empty_product"):
            assert getattr(res, field) == getattr(fresh, field)
        for field in ("zeta_partial", "product_partial", "m_value"):
            a, b = getattr(res, field), getattr(fresh, field)
            assert (a.approx, a.comp) == (b.approx, b.comp)


def test_scan_rejects_limits_below_one():
    with pytest.raises(ValueError):
        residual_scan(parse_poly_spec("integers"), [0, 5])
