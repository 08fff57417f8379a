"""Primality of polynomial outputs and the log-density sum.

is_prime is deterministic for the whole 64-bit range.  Its Miller-Rabin
witnesses are the first k primes, with k chosen by the size of the value:
below the smallest strong pseudoprime to the first k prime bases, those k
bases decide primality (Jaeschke, "On strong pseudoprimes to several
bases", Math. Comp. 1993; Sorenson & Webster, "Strong pseudoprimes to
twelve prime bases", Math. Comp. 2017, arXiv 2015).  Trial division stays
available as the independent cross-check.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt, log

from .errors import OutOfRangeError
from .polynomial import IntegerPolynomial

_U64 = 1 << 64

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_k, the smallest strong pseudoprime to all of the first k prime bases,
# for the k used below: the bases _SMALL_PRIMES[:k] are deterministic for
# every v < psi_k.  psi_8 = psi_7 and psi_10 = psi_11 = psi_9, so k = 8, 10
# and 11 gain nothing; psi_12 > 2**64, so the first 12 primes cover the rest.
_PSI = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
)
_BOUNDS = tuple(bound for bound, _ in _PSI)
_BASE_SETS = tuple(_SMALL_PRIMES[:k] for _, k in _PSI) + (_SMALL_PRIMES,)


def bases_for(v: int) -> tuple[int, ...]:
    """The Miller-Rabin bases that decide primality of v < 2**64."""
    return _BASE_SETS[bisect_right(_BOUNDS, v)]


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
    return strong_probable_prime(v, bases_for(v))


def strong_probable_prime(v: int, bases) -> bool:
    """Miller-Rabin: True when odd v > 2 is a strong probable prime to
    every one of the bases, each in 2..v-2."""
    d = v - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
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
    skipped_units: int = 0


def census_scan(poly: IntegerPolynomial, x_list) -> list[PrimeCensus]:
    """Prime count and log-density sum at each ascending limit, from one
    walk over f(1..max(x_list)).

    Raises OutOfRangeError at the first f(n) >= 2**64, as is_prime does.
    Unit outputs f(n) = 1 with n >= 2 are left out of the log sum and counted
    in skipped_units.
    The log sum is KahanSum.add written out on locals, operation for
    operation, so it is bit-identical to log_density_sum.
    """
    x_list = list(x_list)
    if any(b <= a for a, b in zip(x_list, x_list[1:])):
        raise ValueError(f"limits must be strictly ascending: {x_list}")
    results = []
    count = skipped = 0
    total = comp = 0.0
    values = poly.values(1, x_list[-1] if x_list else 0)
    n = 0  # the last n walked
    for x in x_list:
        for n, v in zip(range(n + 1, x + 1), values):
            if is_prime(v):
                count += 1
            if n >= 2:
                if v == 1:
                    skipped += 1
                else:
                    t = 1.0 / log(v)
                    z = total + t
                    bb = z - total
                    comp += (total - (z - bb)) + (t - bb)
                    total = z
        results.append(PrimeCensus(
            label=poly.label,
            x=x,
            prime_count=count,
            log_density_sum=total + comp,
            skipped_units=skipped,
        ))
    return results


def census(poly: IntegerPolynomial, x: int) -> PrimeCensus:
    """Prime count and log-density sum for one polynomial and limit."""
    return census_scan(poly, [x])[0]


def log_density_sum(poly: IntegerPolynomial, x: int) -> float:
    """sum_{n=2}^{x} 1/ln f(n), compensated accumulation.

    Indices with f(n) = 1 are skipped (ln 1 = 0); census reports how many.
    No primality is tested, so outputs at or above 2**64 are fine here.
    """
    total = comp = 0.0
    for v in poly.values(2, x):
        if v != 1:
            t = 1.0 / log(v)
            z = total + t  # KahanSum.add on locals, as in census_scan
            bb = z - total
            comp += (total - (z - bb)) + (t - bb)
            total = z
    return total + comp
