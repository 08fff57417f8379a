"""Primality of polynomial outputs and the log-density sum.

is_prime is deterministic for the whole 64-bit range via a fixed
Miller-Rabin witness set; trial division stays available as the
independent cross-check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isqrt, log

from .errors import OutOfRangeError
from .numerics import KahanSum
from .polynomial import IntegerPolynomial

_U64 = 1 << 64

# Sufficient deterministic witness set for all v < 2**64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(v: int) -> bool:
    """Deterministic primality for 1 <= v < 2**64."""
    if v < 1:
        raise ValueError(f"need v >= 1, got {v}")
    if v >= _U64:
        raise OutOfRangeError(f"is_prime is certified only below 2**64, got {v}")
    if v < 2:
        return False
    for p in _SMALL_PRIMES:
        if v == p:
            return True
        if v % p == 0:
            return False
    d = v - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, v)
        if x == 1 or x == v - 1:
            continue
        for _ in range(r - 1):
            x = x * x % v
            if x == v - 1:
                break
        else:
            return False
    return True


def is_prime_trial_division(v: int) -> bool:
    """Plain trial division; the independent oracle for is_prime."""
    if v < 2:
        return False
    if v % 2 == 0:
        return v == 2
    f = 3
    limit = isqrt(v)
    while f <= limit:
        if v % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeCensus:
    label: str
    x: int
    prime_count: int
    log_density_sum: float
    witnesses: tuple[int, ...] | None = None
    skipped_units: int = 0


def census(
    poly: IntegerPolynomial, x: int, with_witnesses: bool = False
) -> PrimeCensus:
    """Prime count and log-density sum for one polynomial and limit."""
    witnesses = []
    count = 0
    skipped = 0
    acc = KahanSum()
    for n in range(1, x + 1):
        v = poly(n)
        if is_prime(v):
            count += 1
            if with_witnesses:
                witnesses.append(n)
        if n >= 2:
            if v == 1:
                skipped += 1
            else:
                acc.add(1.0 / log(v))
    if skipped:
        warnings.warn(
            f"{poly.label}: {skipped} unit outputs skipped in the log-density sum",
            UserWarning,
            stacklevel=2,
        )
    return PrimeCensus(
        label=poly.label,
        x=x,
        prime_count=count,
        log_density_sum=acc.value,
        witnesses=tuple(witnesses) if with_witnesses else None,
        skipped_units=skipped,
    )


def count_primes_in_outputs(poly: IntegerPolynomial, x: int) -> int:
    """Number of n in [1, x] with f(n) prime."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return census(poly, x).prime_count


def log_density_sum(poly: IntegerPolynomial, x: int) -> float:
    """sum_{n=2}^{x} 1/ln f(n), compensated accumulation.

    Indices with f(n) = 1 are skipped (ln 1 = 0); census reports how many.
    No primality is tested, so outputs at or above 2**64 are fine here.
    """
    acc = KahanSum()
    for n in range(2, x + 1):
        v = poly(n)
        if v != 1:
            acc.add(1.0 / log(v))
    return acc.value
