"""Primality of polynomial outputs and the log-density sum.

is_prime is deterministic for the whole 64-bit range.  After trial
division by the primes <= 37, which decides every v < 41**2, it runs BPSW:
a strong probable prime test to base 2, then a strong Lucas test with
Selfridge's parameters (Baillie & Wagstaff, "Lucas pseudoprimes", Math.
Comp. 1980; Pomerance, Selfridge & Wagstaff, "The pseudoprimes to
25 * 10^9", Math. Comp. 1980).  No composite below 2**64 passes both:
Feitsma and Galway listed every base-2 strong pseudoprime below 2**64, and
none of them is a strong Lucas probable prime.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import compress, islice
from math import gcd, isqrt, log

from .errors import NonIntegerValuedError, OutOfRangeError
from .polynomial import IntegerPolynomial, shell_coefficients

_U64 = 1 << 64

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
    return v < 41 * 41 or _bpsw(v)  # with no prime factor <= 37, v < 41**2 is prime


def _bpsw(v: int) -> bool:
    """BPSW for odd v >= 5: exact below 2**64."""
    return strong_probable_prime(v, (2,)) and _strong_lucas(v)


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


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(v: int) -> bool:
    """True when odd v > 1 is a strong Lucas probable prime with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/v) = -1, P = 1
    and Q = (1 - D)/4.  With v + 1 = d 2**s, d odd, that is U_d = 0 or
    V_{d 2**r} = 0 (mod v) for some 0 <= r < s (Baillie & Wagstaff 1980).
    A square v has no such D, so it is caught first."""
    if isqrt(v) ** 2 == v:
        return False
    big_d = 5
    while (j := _jacobi(big_d, v)) != -1:
        if j == 0 and abs(big_d) != v:
            return False
        big_d = -big_d - 2 if big_d > 0 else -big_d + 2
    q = (1 - big_d) // 4 % v
    d, s = v + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # (V_k, V_{k+1}, Q**k) from k = 0 up the bits of d, with P = 1:
    # V_2k = V_k**2 - 2 Q**k and V_2k+1 = V_k V_k+1 - Q**k.
    vk, vk1, qk = 2, 1, 1
    for bit in bin(d)[2:]:
        if bit == "1":
            vk, vk1 = (vk * vk1 - qk) % v, (vk1 * vk1 - 2 * qk * q) % v
            qk = qk * qk * q % v
        else:
            vk, vk1 = (vk * vk - 2 * qk) % v, (vk * vk1 - qk) % v
            qk = qk * qk % v
    # D U_d = 2 V_{d+1} - P V_d, and D is a unit mod v.
    if vk == 0 or (2 * vk1 - vk) % v == 0:
        return True
    for _ in range(s - 1):
        vk = (vk * vk - 2 * qk) % v
        if vk == 0:
            return True
        qk = qk * qk % v
    return False


PrimeCensus = namedtuple(
    "PrimeCensus", "label x prime_count log_density_sum skipped_units", defaults=(0,)
)


def _primes_to(bound: int, segment: int = 1 << 15):
    """The primes q <= bound, from a segmented sieve of Eratosthenes: a
    bytearray sieve gives the base primes up to isqrt(bound), and they
    strike the rest one window of `segment` flags at a time, so no more
    than isqrt(bound) + segment flags are held at once."""
    root = isqrt(bound)
    flags = bytearray([1]) * (root + 1)
    flags[:2] = b"\0\0"
    for p in range(2, isqrt(root) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, root + 1, p)))
    base = list(compress(range(root + 1), flags))
    yield from base
    for lo in range(root + 1, bound + 1, segment):
        hi = min(lo + segment, bound + 1)
        flags = bytearray([1]) * (hi - lo)
        for p in base:  # p * p <= bound, and every p below lo
            start = max(p * p, -(-lo // p) * p)
            flags[start - lo::p] = bytes(len(range(start, hi, p)))
        yield from compress(range(lo, hi), flags)


def _roots_mod(c0: int, c1: int, q: int):
    """The r in 0..q-1 with q | c0 + c1 r, for a prime q: one modular
    inverse, or every residue when q divides both coefficients."""
    b = c1 % q
    if b == 0:
        return range(q) if c0 % q == 0 else ()
    return (-c0 * pow(b, -1, q) % q,)


def _shell_roots(p: int, q: int):
    """The r in 1..q-1 with q | r**p - (r-1)**p, for a prime q.  Neither 0
    nor 1 is a root, as f(0) = +-1 and f(1) = 1, so q | f(r) exactly when
    z = r / (r - 1) has z**p = 1 and z != 1, and r = z / (z - 1) =
    1 + 1 / (z - 1).  The z with z**p = 1 form the subgroup of order
    d = gcd(p, q - 1) (Crandall & Pomerance, Prime Numbers, sec. 2.2), so
    q = 2, q = p and every q != 1 (mod p) for prime p have no root.  Else
    g = a**((q-1)/d) for a = 2, 3, ... until g**k != 1 for k <= d/2 (an
    order below d divides d), and those powers of g give the roots.  As
    r(1/z) = 1 - r(z), the z = g**k with k < d/2 give them in pairs r and
    q + 1 - r, one modular inverse a pair, and for even d, z = g**(d/2) =
    -1 is its own inverse and gives r = (q + 1)/2."""
    d = gcd(p, q - 1)
    if d == 1:
        return ()
    e = (q - 1) // d
    for a in range(2, q):  # a primitive root mod q ends the search
        g = pow(a, e, q)
        zs = [g]
        while len(zs) < d // 2:
            zs.append(zs[-1] * g % q)
        if 1 not in zs:
            break
    rs = []
    for z in zs[:(d - 1) // 2]:
        r = 1 + pow(z - 1, -1, q)
        rs += r, q + 1 - r
    if d % 2 == 0:
        rs.append((q + 1) // 2)
    return rs


def _scanned_roots(poly: IntegerPolynomial, bound: int, x: int):
    """q -> the r in 1..min(q, x) with q | f(r), read from poly.values up to
    min(bound, x): roots repeat mod q, and no index past x is struck.  The
    values stop at an f(n) < 1, where the walk raises at n or before: an
    f(m) >= 2**64 with m < n raises first, so the error is the walk's."""
    low = [0]
    try:
        low += poly.values(1, min(bound, x))  # keeps the values read before the raise
    except NonIntegerValuedError:
        pass
    return lambda q: [r for r in range(1, min(q + 1, len(low))) if low[r] % q == 0]


def _struck(x: int, bound: int, roots):
    """struck[n] = 1 for each n <= x where some prime q <= bound divides f(n),
    given roots(q), the roots of f mod q; and those q.  The flags come first,
    so a limit too large for memory fails before the sieve runs."""
    from array import array  # off the import path; 4 bytes a prime, where a list takes 36
    struck = bytearray(x + 1)
    sieve_primes = array("I" if bound < 1 << 32 else "Q", _primes_to(bound))
    for q in sieve_primes:
        for r in roots(q):
            start = r or q
            if start + q <= x:
                struck[start::q] = b"\1" * len(range(start, x + 1, q))
            elif start <= x:  # the only index <= x, as for every q > x
                struck[start] = 1
    return struck, sieve_primes


def census_scan(poly: IntegerPolynomial, x_list) -> list[PrimeCensus]:
    """Prime count and log-density sum at each ascending limit, from one
    walk over f(1..max(x_list)).

    Primality comes from a sieve by the roots of f mod each prime q <= B
    (Crandall & Pomerance, Prime Numbers, sec. 3.2), X the largest limit.
    The roots come in closed form for a prime shell n**p - (n-1)**p, known
    by its coefficients (_shell_roots, from the p-th roots of unity), and
    for f of degree <= 1 with a positive leading coefficient, such as the
    integers (_roots_mod).  Every f(n) with n <= X is then at most
    T = max(f(1), f(X)), so B = max(B1, min(isqrt(T), 4 X)) with
    B1 = max(37, min(1000, isqrt(4 X))).  Any other f, quadratics included,
    takes B = B1 and reads its roots from f(1..min(B, X)).  A value
    v <= B is prime when it is among the primes <= B that the sieve strikes
    with; a v >= 2**64 goes to is_prime (OutOfRangeError at the first).
    Any other v is composite when struck, prime below (B + 1)**2, and else
    goes straight to BPSW: every prime <= 37 is sieved, so is_prime's trial
    division would pass it.  So for f of degree <= 1 or shell:3 BPSW runs
    only where the 4 X cap binds, for a shell of degree >= 3 only from
    (4 X + 1)**2 on, and for any other f from (B1 + 1)**2 on.
    The loop over f(1..X) decides primality only.  The log sum is
    log_density_sum's loop, run once per limit on a second walk over
    f(2..X), carrying its sums across limits; unit outputs f(n) = 1 with
    n >= 2 are left out of it and counted in skipped_units.
    """
    x_list = list(x_list)
    if any(b <= a for a, b in zip(x_list, x_list[1:])):
        raise ValueError(f"limits must be strictly ascending: {x_list}")
    if not x_list:
        return []
    if x_list[0] < 1:
        raise ValueError(f"truncation limit must be >= 1, got {x_list[0]}")
    x_max = x_list[-1]
    bound = max(_SMALL_PRIMES[-1], min(1000, isqrt(4 * x_max)))
    coeffs = poly.coefficients
    if coeffs == shell_coefficients(len(coeffs)):
        roots = partial(_shell_roots, len(coeffs))
    elif len(coeffs) <= 2 and coeffs[-1] > 0:
        roots = partial(_roots_mod, *coeffs + (0,) * (2 - len(coeffs)))
    else:
        roots = None  # read from f(1..min(B, X)) below
    if roots:
        top = 0
        for c in reversed(coeffs):
            top = top * x_max + c  # Horner, never raises
        bound = max(bound, min(isqrt(max(sum(coeffs), top, 0)), 4 * x_max))
    from bisect import bisect_right
    struck, sieve_primes = _struck(x_max, bound, roots or _scanned_roots(poly, bound, x_max))
    square = (bound + 1) ** 2
    results = []
    count = skipped = 0
    total = comp = 0.0
    values = poly.values(1, x_max)
    logs = map(log, poly.values(2, x_max))
    last = 0  # the previous limit
    for x in x_list:
        for n, v in zip(range(last + 1, x + 1), values):
            if v <= bound:  # v = 1 reads index -1, a prime
                count += sieve_primes[bisect_right(sieve_primes, v) - 1] == v
            elif v >= _U64:
                count += is_prime(v)  # raises OutOfRangeError
            elif not struck[n] and (v < square or _bpsw(v)):
                count += 1
        total, comp, skipped = _log_sum(islice(logs, x - max(last, 1)), total, comp, skipped)
        last = x
        results.append(PrimeCensus(poly.label, x, count, total + comp, skipped))
    return results


def census(poly: IntegerPolynomial, x: int) -> PrimeCensus:
    """Prime count and log-density sum for one polynomial and limit."""
    return census_scan(poly, [x])[0]


def _log_sum(logs, total: float = 0.0, comp: float = 0.0, skipped: int = 0):
    """Neumaier's compensated sum (Neumaier 1974) of 1/ln over the logs ln,
    carried on from (total, comp, skipped), with KahanSum.add's operations
    in its order.  A zero log, ln f(n) for f(n) = 1, adds one to skipped
    instead.  Returns the carried (total, comp, skipped)."""
    for ln in logs:
        if ln:
            t = 1.0 / ln
            z = total + t
            bb = z - total
            comp += (total - (z - bb)) + (t - bb)
            total = z
        else:
            skipped += 1
    return total, comp, skipped


def log_density_sum(poly: IntegerPolynomial, x: int) -> float:
    """sum_{n=2}^{x} 1/ln f(n), compensated accumulation (_log_sum).

    Indices with f(n) = 1 are skipped (ln 1 = 0); census reports how many.
    No primality is tested, so outputs at or above 2**64 are fine here.
    """
    total, comp, _ = _log_sum(map(log, poly.values(2, x)))
    return total + comp
