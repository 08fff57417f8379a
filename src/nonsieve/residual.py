"""Truncated zeta sums, truncated Euler products, and the residual
M(x) = Z(x) * P(x) - 1 over an integer-valued polynomial's outputs.

The product starts at the first n with f(n) >= 2: starting at a unit
value would annihilate the whole product through the factor 1 - 1/1.

Exact mode works on plain integers.  Before that start index n0 every
f(n) is 1, so Z and P share the denominator D = prod_{n=n0}^{x} f(n)**s,
and one binary-splitting tree over f(n0..x)**s gives both numerators
(Haible & Papanikolaou 1998).  Nothing is reduced until a Fraction is
asked for.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import BoundViolationError, OutOfRangeError
from .numerics import (
    _SPLITTER,
    EXACT,
    PrecisionValue,
    dd_add,
    dd_mul,
    require_exactable_exponent,
)
from .polynomial import IntegerPolynomial, validate_monotone


def start_index(poly: IntegerPolynomial, x: int) -> int | None:
    """Smallest n <= x with f(n) >= 2, or None if every value is 1."""
    for n, v in enumerate(poly.values(1, x), 1):
        if v >= 2:
            return n
    return None


# The largest bit length of D = prod_{n <= x} f(n)**s that exact mode will
# form.  Cost grows about as bits**1.6: at 3.4e6 bits one exact residual took
# 9 s (integers, x = 1000, s = 400; Python 3.11 on x86_64).  The bound below
# stays under 2e5 bits for every test and benchmark command.
EXACT_BITS_MAX = 1 << 24


def _checked_start(poly: IntegerPolynomial, x_list: list[int], s, mode: str) -> int | None:
    """Check the first of the ascending limits, f's monotonicity up to the
    last one, the exponent and, in exact mode, the size of D; return the
    start index n0 at the last limit."""
    if x_list[0] < 1:
        raise ValueError(f"truncation limit must be >= 1, got {x_list[0]}")
    x = x_list[-1]
    if x >= 2 and poly.coefficients != (1,):  # the constant 1 is exempt
        validate_monotone(poly, x)
    require_exactable_exponent(s, mode)
    if mode == EXACT:
        # f is increasing, so D <= f(x)**(s * x); (v - 1).bit_length() is
        # ceil(log2 v) for v >= 1.
        bits = int(s) * x * (poly(x) - 1).bit_length()
        if bits > EXACT_BITS_MAX:
            raise OutOfRangeError(
                f"{poly.label}: exact mode at x={x}, s={s} would form integers of "
                f"up to {bits} bits, above the {EXACT_BITS_MAX}-bit cap; "
                "use float mode"
            )
    return start_index(poly, x)


# Below this many terms a range is folded term by term: the products are
# still small, and Python call overhead would dominate a deeper tree.
_LEAF = 8


def _split(poly: IntegerPolynomial, lo: int, hi: int, s: int) -> tuple[int, int, int]:
    """Binary splitting over t_n = f(n)**s for lo <= n < hi.

    Returns (S, D, Q) with S / D = sum 1/t_n, D = prod t_n and
    Q = prod (t_n - 1), so Q / D = prod (1 - 1/t_n).  An empty range gives
    (0, 1, 1).
    """
    if hi - lo <= _LEAF:
        s_num, den, q = 0, 1, 1
        for t in poly.values(lo, hi - 1):
            t **= s
            s_num, den, q = s_num * t + den, den * t, q * (t - 1)
        return s_num, den, q
    mid = (lo + hi) // 2
    return _join(_split(poly, lo, mid, s), _split(poly, mid, hi, s))


def _join(left: tuple[int, int, int], right: tuple[int, int, int]) -> tuple[int, int, int]:
    """The (S, D, Q) of two adjacent ranges taken together."""
    s1, d1, q1 = left
    s2, d2, q2 = right
    return s1 * d2 + s2 * d1, d1 * d2, q1 * q2


def _units(x: int, n0: int | None) -> int:
    """The part of Z(x) before n0: one per unit value f(n) = 1 with n <= x
    while no factor has started, and 1 after that.  Only the constant 1 may
    repeat a value, so that 1 is the one unit f(1) = 1 (n0 = 2) or, when
    f(1) > 1 (n0 = 1), the explicit leading 1."""
    return x if n0 is None or x < n0 else 1


def _exact_zps(poly: IntegerPolynomial, x_list: list[int], s: int, n0: int | None):
    """Exact (Z, P) at each ascending limit: one tree per segment between
    consecutive limits, folded into the running (S, D, Q).  Z and P hold
    the same D."""
    lo = x_list[-1] + 1 if n0 is None else n0  # next n to fold in
    sdq = (0, 1, 1)
    for x in x_list:
        if x >= lo:
            sdq = _join(sdq, _split(poly, lo, x + 1, s))
            lo = x + 1
        s_num, den, q = sdq
        yield (
            PrecisionValue.ratio(s_num + _units(x, n0) * den, den),
            PrecisionValue.ratio(q, den),
        )


def _float_zps(poly: IntegerPolynomial, x_list: list[int], s, n0: int | None):
    """Compensated (Z, P) at each ascending limit, from one walk over f.

    Z is KahanSum.add and P is CompensatedProduct.multiply, written out on
    locals operation for operation, so both are bit-identical to what those
    classes give.
    """
    total, comp = (1.0 if n0 == 1 else 0.0), 0.0  # Z: f(1) > 1 exactly when n0 = 1
    prod, err = 1.0, 0.0  # P
    first = x_list[-1] + 1 if n0 is None else n0  # the first n with a factor
    values = poly.values(1, x_list[-1])
    n = 0  # the last n walked
    for x in x_list:
        for n, v in zip(range(n + 1, x + 1), values):
            t = 1.0 / v if s == 1 else float(v) ** -s
            z = total + t  # TwoSum(total, t)
            bb = z - total
            comp += (total - (z - bb)) + (t - bb)
            total = z
            if n >= first:
                f = 1.0 - t
                p = prod * f  # TwoProduct(prod, f), Veltkamp splits
                c = _SPLITTER * prod
                ah = c - (c - prod)
                al = prod - ah
                c = _SPLITTER * f
                bh = c - (c - f)
                bl = f - bh
                err = err * f + (((ah * bh - p) + ah * bl + al * bh) + al * bl)
                prod = p
        yield PrecisionValue.compensated(total, comp), PrecisionValue.compensated(prod, err)


def _zps(poly: IntegerPolynomial, x_list: list[int], s, mode: str, n0: int | None):
    """(Z, P) at each ascending limit in the accumulation mode."""
    if mode == EXACT:
        return _exact_zps(poly, x_list, int(s), n0)
    return _float_zps(poly, x_list, s, n0)


@functools.lru_cache(maxsize=1)
def _zp(poly: IntegerPolynomial, x: int, s, mode: str):
    """Z(x), P(x) and the start index n0 from one checked pass over f(1..x).

    residual() asks zeta_partial, euler_product_partial and then n0 for the
    same (f, x, s, mode); keeping the last answer lets all three use one pass.
    """
    n0 = _checked_start(poly, [x], s, mode)
    return (*next(_zps(poly, [x], s, mode, n0)), n0)


def zeta_partial(
    poly: IntegerPolynomial, x: int, s=1, mode: str = EXACT
) -> PrecisionValue:
    """[f(1) > 1] + sum_{n=1}^{x} 1/f(n)**s.

    When f(1) = 1 the term 1/f(1)**s itself supplies the leading 1, so no
    extra unit is added; when f(1) > 1 the leading 1 is explicit.
    """
    return _zp(poly, x, s, mode)[0]


def euler_product_partial(
    poly: IntegerPolynomial, x: int, s=1, mode: str = EXACT
) -> PrecisionValue:
    """prod_{n=n0}^{x} (1 - 1/f(n)**s) with n0 the first n where f(n) >= 2.

    An empty range is the empty product 1; residual reports it as
    empty_product.
    """
    return _zp(poly, x, s, mode)[1]


@dataclass(frozen=True)
class ResidualResult:
    label: str
    x: int
    s: object
    start_index: int | None
    zeta_partial: PrecisionValue
    product_partial: PrecisionValue
    m_value: PrecisionValue

    @property
    def empty_product(self) -> bool:
        """No factor up to x: P is the empty product 1 and M = Z - 1."""
        return self.start_index is None


# Bits after the binary point of the truncated Z and P that enclose an exact
# M.  The enclosure is about (Z + P) * 2**-128 wide, far narrower than the
# 2**-53 spacing of M's floats or the 10**-14 of its decimals.
_ENCLOSE_BITS = 128


def _combine(z: PrecisionValue, p: PrecisionValue, mode: str) -> PrecisionValue:
    """M = Z * P - 1 in the accumulation mode."""
    if mode == EXACT:
        (zn, zd), (pn, pd) = z.pair, p.pair

        def m_pair():
            den = zd * pd
            return zn * pn - den, den

        # With Z, P >= 0, K = _ENCLOSE_BITS, a = floor(Z * 2**K) and
        # b = floor(P * 2**K): a * b <= Z * P * 2**2K < (a + 1) * (b + 1).
        # The pair itself is computed at each use rather than stored: a scan
        # keeps Z and P for every limit, and M's pair would double the
        # integers held.
        a = (zn << _ENCLOSE_BITS) // zd
        b = (pn << _ENCLOSE_BITS) // pd
        one = 1 << 2 * _ENCLOSE_BITS
        bounds = (a * b - one, (a + 1) * (b + 1) - one, one)
        return PrecisionValue.deferred(m_pair, bounds)
    hi, lo = dd_mul(z.approx, z.comp, p.approx, p.comp)
    hi, lo = dd_add(hi, lo, -1.0, 0.0)
    return PrecisionValue.compensated(hi, lo)


def _make_result(
    poly: IntegerPolynomial,
    x: int,
    s,
    mode: str,
    z: PrecisionValue,
    p: PrecisionValue,
    n0: int | None,
) -> ResidualResult:
    m = _combine(z, p, mode)
    empty = n0 is None or x < n0
    if not empty and not -1.0 < m.value < 0.0:
        raise BoundViolationError(
            f"{poly.label}: M({x}) = {m.value!r} escaped (-1, 0)"
        )
    return ResidualResult(
        label=poly.label,
        x=x,
        s=s,
        start_index=None if empty else n0,
        zeta_partial=z,
        product_partial=p,
        m_value=m,
    )


def residual(
    poly: IntegerPolynomial, x: int, s=1, mode: str = EXACT
) -> ResidualResult:
    """One (f, x, s) evaluation of the residual M = Z * P - 1."""
    z = zeta_partial(poly, x, s, mode)
    p = euler_product_partial(poly, x, s, mode)
    return _make_result(poly, x, s, mode, z, p, _zp(poly, x, s, mode)[2])


def residual_scan(
    poly: IntegerPolynomial, x_list, s=1, mode: str = EXACT
) -> list[ResidualResult]:
    """Residuals at each limit in ascending x_list, extending Z and P
    incrementally instead of recomputing from scratch."""
    x_list = list(x_list)
    if any(b <= a for a, b in zip(x_list, x_list[1:])):
        raise ValueError(f"limits must be strictly ascending: {x_list}")
    if not x_list:
        return []
    n0 = _checked_start(poly, x_list, s, mode)
    zps = _zps(poly, x_list, s, mode, n0)
    return [_make_result(poly, x, s, mode, z, p, n0) for x, (z, p) in zip(x_list, zps)]
