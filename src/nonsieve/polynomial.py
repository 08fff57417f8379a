"""Integer-valued polynomials, including the family n**p - (n-1)**p.

Coefficients are stored dense, ascending power, as exact Python integers,
so evaluation never overflows or rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import NonIntegerValuedError, NonsieveError, NotMonotoneError

_CONSTRUCTION_SAMPLE = 1000  # n range sampled by the integer-valued check


@dataclass(frozen=True)
class IntegerPolynomial:
    """Polynomial with integer coefficients, constant term first."""

    coefficients: tuple[int, ...]
    label: str

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

    def values(self, lo: int, hi: int):
        """Yield f(lo), f(lo + 1), ..., f(hi), each as __call__ returns it.

        The walks over f(1..x) read this generator: one Horner loop on
        locals per value, no method call, and no list of the outputs.
        """
        if lo < 1:
            raise ValueError(f"polynomial domain is n >= 1, got {lo}")
        coeffs = self.coefficients[::-1]
        for n in range(lo, hi + 1):
            value = 0
            for c in coeffs:
                value = value * n + c
            if value < 1:
                raise NonIntegerValuedError(f"{self.label}: f({n}) = {value} < 1")
            yield value

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


def prime_shell(p: int) -> IntegerPolynomial:
    """The degree p-1 polynomial equal to n**p - (n-1)**p."""
    if p < 1:
        raise ValueError(f"shell power must be >= 1, got {p}")
    if p == 1:
        return make_polynomial([1], "prime-shell p=1")
    # n**p - sum_k C(p,k) n**k (-1)**(p-k): the n**p terms cancel.
    coeffs = [-comb(p, k) * (-1) ** (p - k) for k in range(p)]
    return make_polynomial(coeffs, f"prime-shell p={p}")


def integers() -> IntegerPolynomial:
    """The identity polynomial f(n) = n."""
    return make_polynomial([0, 1], "integers")


def validate_monotone(poly: IntegerPolynomial, x: int) -> None:
    """Raise NotMonotoneError unless f(n+1) > f(n) on 1 <= n < x."""
    if x < 2:
        raise ValueError(f"monotone check needs x >= 2, got {x}")
    values = poly.values(1, x)
    prev = next(values)
    for n, cur in enumerate(values, 1):
        if cur <= prev:
            raise NotMonotoneError(f"{poly.label} is not increasing at n={n}")
        prev = cur


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
