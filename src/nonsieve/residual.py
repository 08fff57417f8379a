"""Truncated zeta sums, truncated Euler products, and the residual
M(x) = Z(x) * P(x) - 1 over an integer-valued polynomial's outputs.

The product starts at the first n with f(n) >= 2: starting at a unit
value would annihilate the whole product through the factor 1 - 1/1.

Exact mode works on plain integers.  One walk over f(n0..x)**s in 128-bit
fixed point encloses Z, P and so M, and the enclosures decide the floats
and decimals read from them (Ziv 1991).  Before the start index n0 every
f(n) is 1, so Z and P share the denominator D = prod_{n=n0}^{x} f(n)**s,
and one binary-splitting tree over f(n0..x)**s gives both numerators
(Haible & Papanikolaou 1998).  It is built only when an exact pair is read
or an enclosure cannot decide a rounding.  Nothing is reduced until a
Fraction is asked for.  Float mode carries M itself through a recurrence
whose sums never cancel, rather than forming Z * P - 1 from two values
near 1.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from itertools import islice, repeat
from operator import truediv

from .errors import BoundViolationError, OutOfRangeError
from .numerics import EXACT, PrecisionValue, require_exactable_exponent, two_sum
from .polynomial import IntegerPolynomial, validate_monotone


# The largest bit length of D = prod_{n <= x} f(n)**s that an exact pair may
# need, judged up front also for tables, which form no D: the cap bounds their
# walk's powers f(n)**s too, and n**100000 for n = 1..200 took 2.2 s.
# Cost grows about as bits**1.6: at 3.4e6 bits one exact residual took 9 s
# (integers, x = 1000, s = 400; Python 3.11 on x86_64).  The bound below
# stays under 2e5 bits for every test and benchmark command.
EXACT_BITS_MAX = 1 << 24


def _checked_start(poly: IntegerPolynomial, x_list: list[int], s, mode: str) -> int:
    """Check the first of the ascending limits, f's monotonicity up to the
    last one, the exponent and, in exact mode, the size of D; return the
    start index n0 at the last limit x: the smallest n <= x with f(n) >= 2,
    or x + 1, so a limit below n0 has no factor.  f(1) is the sum of the
    coefficients, and past the monotone check f(2) > f(1) unless f is the
    constant 1, so n0 needs no walk.
    """
    if x_list[0] < 1:
        raise ValueError(f"truncation limit must be >= 1, got {x_list[0]}")
    x = x_list[-1]
    unit = poly.coefficients == (1,)  # the constant 1, exempt from the check
    if x >= 2 and not unit:
        validate_monotone(poly, x)
    require_exactable_exponent(s, mode)
    if mode == EXACT:
        # f is increasing, so D <= f(x)**(s * x); (v - 1).bit_length() is
        # ceil(log2 v) for v >= 1.
        bits = int(s) * x * (poly(x) - 1).bit_length()
        if bits > EXACT_BITS_MAX:
            if bits >= 2**53:  # as s prints from 2**53 on; Decimal takes any int
                from decimal import Decimal

                bits = f"{Decimal(bits):.4g}"
            raise OutOfRangeError(
                f"{poly.label}: exact mode at x={x}, s={s} would form integers of "
                f"up to {bits} bits, above the {EXACT_BITS_MAX}-bit cap; "
                "use float mode"
            )
    if sum(poly.coefficients) >= 2:
        return 1
    return x + 1 if unit else 2  # at x = 1 both say no factor


# Below this many terms a range is folded term by term: the products are
# still small, and Python call overhead would dominate a deeper tree.
_LEAF = 8


def _split(values, lo: int, hi: int, s: int) -> tuple[int, int, int]:
    """Binary splitting over t_n = f(n)**s for lo <= n < hi.

    Returns (S, D, Q) with S / D = sum 1/t_n, D = prod t_n and
    Q = prod (t_n - 1), so Q / D = prod (1 - 1/t_n).  An empty range gives
    (0, 1, 1).  The leaves read f(lo..hi - 1) from the iterator `values`,
    which must be at f(lo): the tree folds its leaves left to right.
    """
    if hi - lo <= _LEAF:
        s_num, den, q = 0, 1, 1
        for t in islice(values, hi - lo):
            t **= s
            s_num, den, q = s_num * t + den, den * t, q * (t - 1)
        return s_num, den, q
    mid = (lo + hi) // 2
    return _join(_split(values, lo, mid, s), _split(values, mid, hi, s))


def _join(left: tuple[int, int, int], right: tuple[int, int, int]) -> tuple[int, int, int]:
    """The (S, D, Q) of two adjacent ranges taken together."""
    s1, d1, q1 = left
    s2, d2, q2 = right
    return s1 * d2 + s2 * d1, d1 * d2, q1 * q2


def _units(x: int, n0: int) -> int:
    """The part of Z(x) before n0: one per unit value f(n) = 1 while no
    factor has started up to x (x < n0), and 1 after that.  Only the
    constant 1 may repeat a value, so that 1 is the one unit f(1) = 1
    (n0 = 2) or, when f(1) > 1 (n0 = 1), the explicit leading 1."""
    return x if x < n0 else 1


# Bits after the binary point of the fixed-point walk that encloses Z and P.
# After k factors each enclosure is k * 2**-128 wide, far narrower than the
# 2**-53 spacing of M's floats or the 10**-14 of its decimals.
_ENCLOSE_BITS = 128


def _exact_zps(poly: IntegerPolynomial, x_list: list[int], s: int, n0: int):
    """Exact (Z, P, M) at each ascending limit, enclosed by one walk over
    t = f(n)**s in fixed point, one = 2**_ENCLOSE_BITS.

    Each factor takes z += one // t and p = floor(p * (1 - 1/t)), kept as
    q = -p by q -= q // t.  Each step rounds down by less than one unit,
    and P's earlier errors only shrink under factors below 1, so after k
    factors Z * one lies in [u * one + z, u * one + z + k], u the units
    before n0, and P * one in [p, p + k].  `pairs` builds the exact pairs
    of all the limits at most once, when a pair is first read or an
    enclosure cannot decide a rounding.
    """
    one = 1 << _ENCLOSE_BITS

    @functools.cache
    def pairs():
        """The exact (Z, P) pairs at every limit, from one tree per segment
        between consecutive limits, folded into the running (S, D, Q).  Z
        and P hold the same D."""
        values = poly.values(n0, x_list[-1])
        out, sdq, n = [], (0, 1, 1), n0  # n: the next n to fold in
        for x in x_list:
            if x >= n:
                sdq = _join(sdq, _split(values, n, x + 1, s))
                n = x + 1
            s_num, den, q = sdq
            out.append(((s_num + _units(x, n0) * den, den), (q, den)))
        return out

    terms = poly.values(n0, x_list[-1])
    if s != 1:
        terms = map(pow, terms, repeat(s))
    z, q, k = 0, -one, 0  # k: the factors walked
    for i, x in enumerate(x_list):
        for t in islice(terms, max(0, x + 1 - n0 - k)):
            z += one // t
            q -= q // t
        k = max(k, x + 1 - n0)
        zlo = _units(x, n0) * one + z
        zv = PrecisionValue.deferred(lambda i=i: pairs()[i][0], (zlo, zlo + k, one))
        pv = PrecisionValue.deferred(lambda i=i: pairs()[i][1], (-q, k - q, one))
        yield zv, pv, _combine(zv, pv)


def _float_terms(poly: IntegerPolynomial, x: int, s):
    """t = 1/f(n)**s for n = 1..x, as 1.0 / v at s = 1 and v ** -s otherwise:
    f(n) is binary64 from the table up to 2**53, and an int is converted once."""
    values = poly.values(1, x, binary64=True)
    return map(truediv, repeat(1.0), values) if s == 1 else map(pow, values, repeat(-s))


def _float_zps(poly: IntegerPolynomial, x_list: list[int], s, n0: int):
    """Compensated (Z, P, M) at each ascending limit, from one walk over f.

    The walk carries u = Z - 1, Q = P and M itself, never Z * P - 1.  With
    t = 1/f(n)**s, each factor n >= n0 takes one step
        p = t * Q;  u += t;  M -= p * u;  Q -= p,
    since M_n - M_{n-1} = -t * Q_{n-1} * u_n.  Every term of each sum has
    one sign, so nothing cancels, and each product reads its factor's
    compensation.  The u and Q sums are Fast2Sum (Dekker 1971), whose error
    term equals TwoSum's when the first operand is the larger: u >= t as f
    increases, and Q > p as t <= 1/2.  Before n0 every term is 1.0, P = 1
    and M = u, and u is exactly 0 at n0 - 1, where M starts.
    M is TwoSum for its first three factors, which can have |p * u| > |M|
    (f = n + 13 at n = 2), and Fast2Sum from n0 + 3 on.  With
    w_n = t_n * Q_{n-1} * u_n the term taken from M: t and Q fall, and
    t_n <= t_{n-2} <= u_{n-2} for n >= n0 + 2, so u_n <= u_{n-1} + u_{n-2}
    and w_n <= w_{n-1} + w_{n-2}.  For n >= n0 + 3 that gives
    |M_{n-1}| >= w_{n-1} + w_{n-2} + w_{n-3} >= w_n + w_{n-3}, and
    w_{n-3} >= w_n / 4 as u_n <= u_{n-3} + 3 t_{n-3} <= 4 u_{n-3}.  A margin
    of a quarter of w_n is far above the few rounding units by which the
    float m and w differ from M and w_n, so |m| >= |w|, and Fast2Sum's error
    term equals TwoSum's: every (approx, comp) is bit-identical.  The terms
    come from _float_terms in C; each limit's segment is split at the first
    factor and at n0 + 3, so the loops test nothing.
    """
    u, uc = (0.0 if n0 == 1 else -1.0), 0.0  # f(1) > 1 exactly when n0 = 1
    q, qc = 1.0, 0.0
    m, mc = 0.0, 0.0
    terms = _float_terms(poly, x_list[-1], s)
    n = 0  # the last n walked
    for x in x_list:
        u += sum(islice(terms, max(0, min(x, n0 - 1) - n)))  # 1.0s: exact
        for t in islice(terms, max(0, min(x, n0 + 2) - max(n, n0 - 1))):
            p = t * (q + qc)
            z = u + t  # Fast2Sum(u, t)
            uc += t - (z - u)
            u = z
            m, e = two_sum(m, -p * (u + uc))
            mc += e
            z = q - p  # Fast2Sum(q, -p)
            qc += (q - z) - p
            q = z
        for t in islice(terms, max(0, x - max(n, n0 + 2))):
            p = t * (q + qc)
            z = u + t  # Fast2Sum(u, t)
            uc += t - (z - u)
            u = z
            w = p * (u + uc)
            z = m - w  # Fast2Sum(m, -w), from n0 + 3 on
            mc += (m - z) - w
            m = z
            z = q - p  # Fast2Sum(q, -p)
            qc += (q - z) - p
            q = z
        n = x
        zh, zl = two_sum(1.0, u)
        yield (
            PrecisionValue.compensated(zh, zl + uc),
            PrecisionValue.compensated(q, qc),
            PrecisionValue.compensated(*((m, mc) if x >= n0 else (u, uc))),
        )


def _zps(poly: IntegerPolynomial, x_list: list[int], s, mode: str, n0: int):
    """(Z, P, M) at each ascending limit in the accumulation mode."""
    if mode == EXACT:
        return _exact_zps(poly, x_list, int(s), n0)
    return _float_zps(poly, x_list, s, n0)


@functools.lru_cache(maxsize=1)
def _zp(poly: IntegerPolynomial, x: int, s, mode: str):
    """Z(x), P(x), M(x) and the start index n0 from one checked pass over f(1..x).

    residual() asks zeta_partial, euler_product_partial and then M and n0 for
    the same (f, x, s, mode); keeping the last answer lets all three use one
    pass.
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


class ResidualResult(namedtuple(
    "ResidualResult",
    "label x s start_index zeta_partial product_partial m_value",
)):
    """Z(x), P(x) and M(x) as PrecisionValues; start_index is n0, or None
    while no factor has started."""

    __slots__ = ()

    @property
    def empty_product(self) -> bool:
        """No factor up to x: P is the empty product 1 and M = Z - 1."""
        return self.start_index is None


def _enclosure(v: PrecisionValue) -> tuple[int, int]:
    """(lo, hi) with lo <= v * 2**K <= hi, K = _ENCLOSE_BITS: the walk's
    own bounds, or floor(v * 2**K) and one more from a plain pair."""
    if v.bounds is not None:
        return v.bounds[:2]
    num, den = v.pair
    a = (num << _ENCLOSE_BITS) // den
    return a, a + 1


def _combine(z: PrecisionValue, p: PrecisionValue) -> PrecisionValue:
    """The exact M = Z * P - 1, enclosed."""

    def m_pair():
        (zn, zd), (pn, pd) = z.pair, p.pair
        den = zd * pd
        return zn * pn - den, den

    # With Z, P >= 0 enclosed by [a, a2] and [b, b2] at scale 2**K,
    # a * b <= Z * P * 2**2K <= a2 * b2: two products of 2K-bit integers,
    # and no big division.  The pair itself is formed at each use rather
    # than stored: a scan keeps Z and P for every limit, and M's pair would
    # double the integers held.
    (a, a2), (b, b2) = _enclosure(z), _enclosure(p)
    one = 1 << 2 * _ENCLOSE_BITS
    return PrecisionValue.deferred(m_pair, (a * b - one, a2 * b2 - one, one))


def _make_result(
    poly: IntegerPolynomial,
    x: int,
    s,
    mode: str,
    z: PrecisionValue,
    p: PrecisionValue,
    m: PrecisionValue,
    n0: int,
) -> ResidualResult:
    empty = x < n0
    value = m.value
    if not empty and not -1.0 < value < 0.0:
        if value == 0.0 and mode != EXACT:
            raise OutOfRangeError(
                f"{poly.label}: float M({x}) at s={s} underflows to 0.0: "
                "|M| is below the binary64 range"
            )
        # An exact |M| below 2**-1075 reads 0.0, so its pair decides the sign.
        num, den = m.pair if value == 0.0 else (value, 1)
        if not -den < num < 0:
            raise BoundViolationError(f"{poly.label}: M({x}) = {value!r} escaped (-1, 0)")
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
    return _make_result(poly, x, s, mode, z, p, *_zp(poly, x, s, mode)[2:])


def residual_scan(
    poly: IntegerPolynomial, x_list, s=1, mode: str = EXACT
) -> list[ResidualResult]:
    """Residuals at each limit in ascending x_list, extending Z, P and M
    incrementally instead of recomputing from scratch."""
    x_list = list(x_list)
    if any(b <= a for a, b in zip(x_list, x_list[1:])):
        raise ValueError(f"limits must be strictly ascending: {x_list}")
    if not x_list:
        return []
    n0 = _checked_start(poly, x_list, s, mode)
    zps = _zps(poly, x_list, s, mode, n0)
    return [_make_result(poly, x, s, mode, *zpm, n0) for x, zpm in zip(x_list, zps)]
