"""Precision-tracked numbers: exact rationals and compensated binary floats.

Exact mode stores an integer numerator/denominator pair, reduced to a
`fractions.Fraction` only when one is asked for, and is the ground truth
for every tabulated case.  Float mode carries a binary64 value plus the
running compensation of a Neumaier sum (`two_sum`, `KahanSum`); the
residual adds only terms of one sign, so each sum stays within a few ulps.
A float value's decimal is the exact sum of its two floats' integer
ratios, rounded once.  `fractions` is imported only by the calls that
form a Fraction (`exact`, `rational` and so `rational_str`), so
importing this module loads neither it nor the `decimal` it imports.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Callable

from .errors import ExactRationalUnsupportedError, OutOfRangeError

EXACT = "exact"
FLOAT = "float"

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Return (s, e) with s = fl(a+b) and a + b = s + e exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _split(a: float) -> tuple[float, float]:
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Return (p, e) with p = fl(a*b) and a * b = p + e exactly."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


class KahanSum:
    """Compensated (Neumaier) accumulator for a sum of floats."""

    __slots__ = ("total", "compensation")

    def __init__(self, start: float = 0.0):
        self.total = start
        self.compensation = 0.0

    def add(self, value: float) -> None:
        t, e = two_sum(self.total, value)
        self.total = t
        self.compensation += e

    def as_pair(self) -> tuple[float, float]:
        return self.total, self.compensation

    @property
    def value(self) -> float:
        return self.total + self.compensation


class CompensatedProduct:
    """Factor-by-factor product with a running first-order error term."""

    __slots__ = ("product", "error")

    def __init__(self, start: float = 1.0):
        self.product = start
        self.error = 0.0

    def multiply(self, factor: float) -> None:
        p, e = two_prod(self.product, factor)
        self.product = p
        self.error = self.error * factor + e

    def as_pair(self) -> tuple[float, float]:
        return self.product, self.error

    @property
    def value(self) -> float:
        return self.product + self.error


class PrecisionValue:
    """A number carried either exactly or as a compensated float pair.

    An exact value is an integer pair (num, den) with den > 0, not
    necessarily in lowest terms, or a function that returns one on demand,
    so that the pair is formed only when it is read.  Such a value may also
    carry `bounds`, small integers (lo, hi, den) with
    lo / den <= value <= hi / den; `value` and `decimal_str` read their
    result from them when both ends round alike (Ziv 1991), and ask for the
    pair only when they do not.  `rational` reduces the pair to a Fraction
    on first access and keeps it; it is None in float mode.
    """

    __slots__ = ("mode", "approx", "comp", "_pair", "_rational", "bounds")

    def __init__(
        self, mode: str, approx: float = 0.0, comp: float = 0.0, pair=None, bounds=None
    ):
        self.mode = mode
        self.approx = approx
        self.comp = comp
        self._pair = pair
        self._rational = None
        self.bounds = bounds

    @staticmethod
    def exact(value: Fraction | int) -> "PrecisionValue":
        from fractions import Fraction

        r = Fraction(value)
        pv = PrecisionValue.ratio(r.numerator, r.denominator)
        pv._rational = r
        return pv

    @staticmethod
    def ratio(num: int, den: int) -> "PrecisionValue":
        """The exact value num / den, den > 0, left unreduced."""
        return PrecisionValue(EXACT, pair=(num, den))

    @staticmethod
    def deferred(
        make_pair: Callable[[], tuple[int, int]], bounds: tuple[int, int, int]
    ) -> "PrecisionValue":
        """An exact value enclosed by (lo, hi, den): lo / den <= value <=
        hi / den.  Each read of its (num, den) pair calls make_pair, which
        may form the pair anew or return one it keeps."""
        return PrecisionValue(EXACT, pair=make_pair, bounds=bounds)

    @staticmethod
    def compensated(approx: float, comp: float = 0.0) -> "PrecisionValue":
        return PrecisionValue(FLOAT, approx=approx, comp=comp)

    @property
    def pair(self) -> tuple[int, int]:
        """Exact (num, den), den > 0, not necessarily in lowest terms."""
        return self._pair() if callable(self._pair) else self._pair

    @property
    def rational(self) -> Fraction | None:
        if self.mode != EXACT:
            return None
        if self._rational is None:
            from fractions import Fraction

            self._rational = Fraction(*self.pair)
        return self._rational

    def _rounded(self, rnd: Callable[[int, int], object]):
        """rnd(num, den) of the exact value, from the enclosure if it decides.

        rnd must be monotone in num / den: the values that give any one
        result form an interval.  So when both ends of the enclosure give the
        same result, the value between them does too.
        """
        if self.bounds is not None:
            lo, hi, den = self.bounds
            result = rnd(lo, den)
            if result == rnd(hi, den):
                return result
        return rnd(*self.pair)

    @property
    def value(self) -> float:
        if self.mode == EXACT:
            # int true division is correctly rounded, hence monotone.  With
            # den <= 2**1074 a bound that is not 0 does not round to a zero,
            # so 0.0 == -0.0 cannot hide a sign.
            return self._rounded(operator.truediv)
        return self.approx + self.comp

    def decimal_str(self, places: int = 14) -> str:
        """Fixed-point decimal string of the exact value (approx + comp in
        float mode), rounded half-to-even once."""
        if self.mode == EXACT:
            # Signed round-half-even is monotone; an enclosure that straddles
            # 0 gives "-0..." and "0..." at its ends and so is never read.
            return self._rounded(lambda num, den: _fixed_point(num, den, places))
        an, ad = self.approx.as_integer_ratio()
        cn, cd = self.comp.as_integer_ratio()
        return _fixed_point(an * cd + cn * ad, ad * cd, places)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.mode == EXACT:
            return f"PrecisionValue(exact {self.rational})"
        return f"PrecisionValue(float {self.approx!r} + {self.comp!r})"


def _fixed_point(num: int, den: int, places: int) -> str:
    """num / den (den > 0) rounded half-to-even to `places` >= 0 decimals,
    by one integer division: the one rounding behind every printed decimal.
    A negative value that rounds to zero keeps its sign, "-0.00", as Decimal
    and float formatting do; zero itself, a float -0.0 too, prints "0.00"."""
    q, r = divmod(abs(num) * 10**places, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    digits = str(q).rjust(places + 1, "0")
    sign = "-" if num < 0 else ""
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def rational_str(value: PrecisionValue) -> str:
    """str() of an exact value's Fraction, "num/den" or "num".

    Python refuses to print an int of more digits than its int-to-str limit
    (4300 by default); that becomes an OutOfRangeError whose message a CLI
    user can act on.
    """
    try:
        return str(value.rational)
    except ValueError:
        raise OutOfRangeError(
            f"an exact rational has over {sys.get_int_max_str_digits()} digits in its "
            "numerator or denominator, Python's int-to-str limit; use --precision float"
        ) from None


def require_exactable_exponent(s, mode: str) -> None:
    """Exact mode supports only positive integer exponents."""
    if mode == EXACT and (s != int(s) or s < 1):
        raise ExactRationalUnsupportedError(
            f"exact mode needs a positive integer exponent, got s={s}"
        )


def format_float(value: float, places: int) -> str:
    """Round-half-even fixed-point formatting of a plain float's exact value."""
    return _fixed_point(*value.as_integer_ratio(), places)
