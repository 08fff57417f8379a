"""Integer-valued polynomials, including the family n**p - (n-1)**p.

Coefficients are stored dense, ascending power, as exact Python integers,
so evaluation never overflows or rounds.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, chain, islice, repeat
from math import comb

from .errors import NonIntegerValuedError, NonsieveError, NotMonotoneError

_CONSTRUCTION_SAMPLE = 1000  # n range sampled by the integer-valued check


def _difference_edge(window: list[int]) -> list[int] | None:
    """Delta^0..Delta^d of f at m, read from the values f(m..m + d) of a
    degree-d polynomial, or None if some Delta^k with k >= 1 is negative.

    Delta^d = d! * c_d is constant, and Delta^k(n + 1) = Delta^k(n) +
    Delta^(k+1)(n), so induction down from Delta^d keeps every Delta^k >= 0
    for all n >= m once it holds at m: f is then nondecreasing from m on.
    """
    edge = [window[0]]
    row = window
    while len(row) > 1:
        row = [b - a for a, b in zip(row, row[1:])]
        if row[0] < 0:
            return None
        edge.append(row[0])
    return edge


def _difference_stream(edge: list[int]):
    """f(m), f(m + 1), ... from the Delta^0..Delta^d of f at m: one nested
    accumulate per order over the constant Delta^d (Knuth, TAOCP 2, 4.6.4)."""
    stream = repeat(edge[-1])
    for start in reversed(edge[:-1]):
        stream = accumulate(stream, initial=start)
    return stream


class IntegerPolynomial(namedtuple("IntegerPolynomial", "coefficients label")):
    """Polynomial with integer coefficients, constant term first."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"polynomial domain is n >= 1, got {n}")
        value = 0
        for c in reversed(self.coefficients):
            value = value * n + c
        if value < 1:
            raise NonIntegerValuedError(
                f"{self.label}: f({n}) = {value} < 1"
            )
        return value

    def values(self, lo: int, hi: int, binary64: bool = False):
        """An iterator over f(lo), f(lo + 1), ..., f(hi), and no list of
        them.  Each value comes from __call__, with its error, until the
        last d + 1 values prove f >= 1 for the rest (_difference_edge);
        from there on the values come from the difference table, d C-level
        additions per value, so they are exact and raise nothing.  The
        pieces are chained in C, and each error is
        raised during iteration, at the n where f(n) raises it.  With
        binary64 the table runs in floats if f(hi) < 2**53: each of its sums
        is a Delta^k(n) in [0, f(n + k)], n + k <= hi, so exact (Higham, 2.1).
        """
        return chain.from_iterable(self._pieces(lo, hi, binary64))

    def _pieces(self, lo: int, hi: int, binary64: bool = False):
        """values in pieces: (f(n),) per __call__ value, then the table's stream."""
        if lo < 1:
            raise ValueError(f"polynomial domain is n >= 1, got {lo}")
        d = self.degree
        provable = self.coefficients[-1] > 0  # a negative leading coefficient never proves
        window = []  # the last d + 1 values
        for n in range(lo, hi + 1):
            value = self(n)
            yield (value,)
            if provable:
                window.append(value)
                if len(window) > d:
                    del window[:-d - 1]
                    edge = _difference_edge(window)
                    if edge is not None:
                        if binary64 and self(hi) < 2**53:  # the table proved f(hi) >= 1
                            edge = [float(e) for e in edge]
                        # The table runs from m = n - d: skip f(m..n), stop after f(hi).
                        yield islice(_difference_stream(edge), d + 1, hi - n + d + 1)
                        return

    def __str__(self) -> str:
        return self.label


def make_polynomial(coefficients, label: str | None = None) -> IntegerPolynomial:
    """Validate and build a polynomial from ascending coefficients.

    Rejects the zero polynomial and any polynomial whose value at some
    n in 1..1000 is below 1.  (Sampling, not the binomial-basis criterion;
    all intended inputs have integer coefficients, so sampling only guards
    against misuse.)
    """
    coeffs = [int(c) for c in coefficients]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs or all(c == 0 for c in coeffs):
        raise NonsieveError("zero polynomial is not allowed")
    if label is None:
        label = ",".join(str(c) for c in coeffs)
    poly = IntegerPolynomial(tuple(coeffs), label)
    for n in range(1, _CONSTRUCTION_SAMPLE + 1):
        poly(n)  # raises NonIntegerValuedError on a value < 1
    return poly


def shell_coefficients(p: int) -> tuple[int, ...]:
    """The ascending coefficients of n**p - (n-1)**p, p of them."""
    # n**p - sum_k C(p,k) n**k (-1)**(p-k): the n**p terms cancel.
    return tuple(-comb(p, k) * (-1) ** (p - k) for k in range(p))


def prime_shell(p: int) -> IntegerPolynomial:
    """The degree p-1 polynomial equal to n**p - (n-1)**p."""
    if p < 1:
        raise ValueError(f"shell power must be >= 1, got {p}")
    return make_polynomial(shell_coefficients(p), f"prime-shell p={p}")


def integers() -> IntegerPolynomial:
    """The identity polynomial f(n) = n."""
    return make_polynomial([0, 1], "integers")


def validate_monotone(poly: IntegerPolynomial, x: int) -> None:
    """Raise NotMonotoneError unless f(n+1) > f(n) on 1 <= n < x.

    The walk checks that each __call__ value of values(1, x) rises, and for
    degree >= 1 stops at the difference table's piece: the window that made
    values switch rose and has every Delta^k >= 0, so Delta^1 > 0 from there
    on.  A constant walks into its table and fails at n = 1.
    """
    if x < 2:
        raise ValueError(f"monotone check needs x >= 2, got {x}")
    prev, n = 0, 0  # f(n) so far; every f(1) >= 1 rises above 0
    for piece in poly._pieces(1, x):
        if poly.degree and not isinstance(piece, tuple):
            return
        for cur in piece:
            if cur <= prev:
                raise NotMonotoneError(f"{poly.label} is not increasing at n={n}")
            prev, n = cur, n + 1


def parse_poly_spec(spec: str) -> IntegerPolynomial:
    """Parse the CLI/config polynomial syntax.

    Accepts "integers", "shell:p", or a comma-separated ascending
    coefficient list such as "1,-3,3".
    """
    spec = spec.strip()
    if spec == "integers":
        return integers()
    if spec.startswith("shell:"):
        try:
            p = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad shell power in {spec!r}") from exc
        return prime_shell(p)
    try:
        coeffs = [int(part) for part in spec.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse polynomial spec {spec!r}") from exc
    return make_polynomial(coeffs, spec)
