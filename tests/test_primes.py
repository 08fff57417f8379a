import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import is_prime_trial_division
from test_exact_oracle import SPECS

from nonsieve import (
    IntegerPolynomial,
    KahanSum,
    NonIntegerValuedError,
    OutOfRangeError,
    census,
    census_scan,
    integers,
    is_prime,
    log_density_sum,
    parse_poly_spec,
    prime_shell,
    residual_scan,
)
from nonsieve import primes
from nonsieve.primes import (
    PrimeCensus, _roots_mod, _shell_roots, _strong_lucas, strong_probable_prime,
)

FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_k, the smallest strong pseudoprime to the first k prime bases, with
# k and a factorization: the bounds of the Miller-Rabin witness table that
# BPSW replaced.
PSI = (
    (2047, 1, (23, 89)),
    (1373653, 2, (829, 1657)),
    (25326001, 3, (2251, 11251)),
    (3215031751, 4, (151, 751, 28351)),
    (2152302898747, 5, (6763, 10627, 29947)),
    (3474749660383, 6, (1303, 16927, 157543)),
    (341550071728321, 7, (10670053, 32010157)),
    (3825123056546413051, 9, (149491, 747451, 34233211)),
)

# The strong pseudoprimes to base 2 below 60000 (OEIS A001262), and the
# strong Lucas pseudoprimes with Selfridge's parameters below 60000 (OEIS
# A217255): each fools one half of BPSW, and the other half rejects it.
BASE_TWO_PSEUDOPRIMES = (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633)
LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519)


def miller_rabin_all_twelve(v):
    """The fixed 12-base test, written out independently of the package."""
    if v < 2:
        return False
    for p in FIRST_PRIMES:
        if v % p == 0:
            return v == p
    d, r = v - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in FIRST_PRIMES:
        x = pow(a, d, v)
        if x in (1, v - 1):
            continue
        for _ in range(r - 1):
            x = x * x % v
            if x == v - 1:
                break
        else:
            return False
    return True


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return flags


class TestIsPrime:
    def test_eq4_sequence_values(self):
        assert is_prime(7)
        assert not is_prime(91)  # 7 * 13
        assert not is_prime(169)  # 13**2

    def test_one_is_not_prime(self):
        assert not is_prime(1)

    def test_exhaustive_against_sieve(self):
        flags = sieve(10**6)
        for v in range(1, 10**6 + 1):
            assert is_prime(v) == bool(flags[v]), v

    def test_random_against_trial_division(self):
        rng = random.Random(7)
        for _ in range(500):
            v = rng.randrange(2, 10**12)
            assert is_prime(v) == is_prime_trial_division(v), v

    def test_random_against_independent_random_bases(self):
        # probabilistic cross-check with witnesses outside the fixed set
        rng = random.Random(11)
        for _ in range(10_000):
            v = rng.randrange(5, 10**12) | 1
            d, r = v - 1, 0
            while d % 2 == 0:
                d //= 2
                r += 1
            probable = True
            for _ in range(12):
                a = rng.randrange(2, v - 1)
                x = pow(a, d, v)
                if x in (1, v - 1):
                    continue
                for _ in range(r - 1):
                    x = x * x % v
                    if x == v - 1:
                        break
                else:
                    probable = False
                    break
            assert is_prime(v) == probable, v

    def test_large_shell_value_dual_method(self):
        v = prime_shell(7)(200)  # 441335720838601, about 4.4e14
        # small-prime trial division clears the easy factors...
        assert all(v % f for f in range(3, 20000, 2))
        # ...and an independent random-base round agrees with the verdict
        rng = random.Random(200)
        d, r = v - 1, 0
        while d % 2 == 0:
            d //= 2
            r += 1
        probable = True
        for _ in range(20):
            a = rng.randrange(2, v - 1)
            x = pow(a, d, v)
            if x in (1, v - 1):
                continue
            for _ in range(r - 1):
                x = x * x % v
                if x == v - 1:
                    break
            else:
                probable = False
                break
        assert is_prime(v) is probable is False
        assert v == 14743177 * 29934913  # the factorization behind the verdict

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            is_prime(1 << 64)
        with pytest.raises(ValueError):
            is_prime(0)


class TestCountPrimes:
    def test_shell3_first_ten(self):
        assert census(prime_shell(3), 10).prime_count == 6

    def test_classical_pi_values(self):
        for x, expected in ((10, 4), (100, 25), (200, 46), (1000, 168)):
            assert census(integers(), x).prime_count == expected

    def test_shell_counts_cross_validated_by_trial_division(self):
        # the published shell-row cells differ from these verified counts
        expected = {(2, 100): 45, (2, 200): 77, (3, 100): 42, (3, 200): 71}
        for (p, x), count in expected.items():
            poly = prime_shell(p)
            oracle = sum(
                1 for n in range(1, x + 1) if is_prime_trial_division(poly(n))
            )
            assert census(poly, x).prime_count == oracle == count


class TestLogDensitySum:
    def test_integers_matches_reference(self):
        assert log_density_sum(integers(), 100) == pytest.approx(29.99144, abs=5e-4)
        assert log_density_sum(integers(), 200) == pytest.approx(50.04329, abs=5e-4)

    def test_single_term(self):
        import math

        assert log_density_sum(integers(), 2) == pytest.approx(1 / math.log(2))

    def test_monotone_in_x(self):
        values = [log_density_sum(prime_shell(3), x) for x in range(2, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_outputs_beyond_primality_range(self):
        # f(n) passes 2**64 here, where census raises; the log sum needs no primality
        value = log_density_sum(prime_shell(11), 200)
        assert math.isfinite(value) and value > 0
        shell = [n**11 - (n - 1) ** 11 for n in range(2, 201)]
        assert value == pytest.approx(sum(1 / math.log(v) for v in shell), rel=1e-12)
        with pytest.raises(OutOfRangeError):
            census(prime_shell(11), 200)


class TestCensus:
    def test_integers_row(self):
        c = census(integers(), 100)
        assert c.prime_count == 25
        assert c.log_density_sum == pytest.approx(29.99144, abs=5e-4)

    def test_constant_one_flags_units(self):
        c = census(prime_shell(1), 20)
        assert c.prime_count == 0
        assert c.log_density_sum == 0.0
        assert c.skipped_units == 19

    def test_scan_rejects_non_ascending(self):
        with pytest.raises(ValueError):
            census_scan(integers(), [100, 50])

    def test_scan_raises_at_first_value_beyond_primality_range(self):
        with pytest.raises(OutOfRangeError, match=str(prime_shell(11)(67))):
            census_scan(prime_shell(11), [10, 200])  # f(67) is the first >= 2**64
        assert prime_shell(11)(66) < 2**64 <= prime_shell(11)(67)

    @pytest.mark.parametrize("xs", ([-3, 0, 5], [0], [0, 1]))
    def test_scan_rejects_limits_below_one_as_residual_scan_does(self, xs):
        with pytest.raises(ValueError) as from_census:
            census_scan(integers(), xs)
        with pytest.raises(ValueError) as from_residual:
            residual_scan(integers(), xs)
        assert str(from_census.value) == str(from_residual.value)
        assert str(from_census.value) == f"truncation limit must be >= 1, got {xs[0]}"


@settings(max_examples=120, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    xs=st.lists(st.integers(1, 400), min_size=1, max_size=6, unique=True).map(sorted),
)
def test_census_scan_equals_one_census_per_limit(spec, xs):
    poly = parse_poly_spec(spec)
    scan = census_scan(poly, xs)
    cells = [census(poly, x) for x in xs]
    assert len(scan) == len(cells)
    for a, b in zip(scan, cells):
        for field in PrimeCensus._fields:
            assert getattr(a, field) == getattr(b, field), field
        assert a.log_density_sum == log_density_sum(poly, a.x)


def census_oracle(poly, x_list):
    """census_scan before the sieve: is_prime on every f(n) in walk order,
    and the Kahan log sum over n >= 2 with units counted apart."""
    rows, count, skipped, log_sum = [], 0, 0, KahanSum()
    n = 0
    for x in x_list:
        for n in range(n + 1, x + 1):
            v = poly(n)
            count += is_prime(v)
            if n >= 2:
                if v == 1:
                    skipped += 1
                else:
                    log_sum.add(1.0 / math.log(v))
        rows.append(PrimeCensus(poly.label, x, count, log_sum.value, skipped))
    return rows


def census_outcome(scan, poly, xs):
    """The rows field for field, the log sum as float.hex, or the error."""
    try:
        rows = scan(poly, xs)
    except (OutOfRangeError, NonIntegerValuedError) as exc:
        return type(exc), str(exc)
    return [
        {f: getattr(row, f) for f in PrimeCensus._fields}
        | {"log_density_sum": row.log_density_sum.hex()}
        for row in rows
    ]


# The sieve bound is B = max(37, min(1000, isqrt(4 X))) for the largest
# limit X.  A prime shell, and an f of degree <= 2 with a positive leading
# coefficient, sieve to B2 = max(B, min(isqrt(max(f(1), f(X))), 4 X))
# instead.  Values at most the bound go to is_prime, struck values are
# composite, survivors below (bound + 1)**2 are prime and the rest go to
# Miller-Rabin.
CENSUS_CASES = (
    ("integers", [1, 2, 3, 36]),  # X < 37: B = 37 > X
    ("integers", [36, 37, 38, 100]),  # f(n) = n runs over every sieving prime
    ("integers", [37, 360, 361, 362]),  # B leaves its floor at X = 361
    ("integers", [999, 1000, 1001, 250001]),  # B = 1000 from X = 250000
    ("1,0,1", [6, 7, 37, 38, 39, 60]),  # B2 = isqrt(f(60)) = 60: f(7) = 50 < B2 < f(8)
    ("shell:3", [5, 6, 37, 38, 1000]),  # B2 = 1731: f(24) = 1657 < B2 < f(25) = 1801
    ("shell:2", [1, 2, 300]),
    ("1", [1, 2, 40]),  # units
    ("7", [1, 50]),  # the sieving prime 7 at every n
    ("1409", [50]),  # prime, between B2 = 37 and (B2 + 1)**2
    ("1369", [50]),  # 37**2, struck
    ("2021", [50]),  # 43 * 47: B2 = isqrt(2021) = 44 strikes it, B = 37 would not
    ("shell:11", [10, 66, 67, 200]),  # f(67) >= 2**64: OutOfRangeError
    ("1,0,1", [9, 10, 11, 101]),  # B2 = isqrt(f(101)) = 101 = f(10)
    ("1,0,1680", [1, 2, 10]),  # B2 = 4 X = 40 < isqrt(f(10)): f(1) = 41**2 = (B2 + 1)**2
    ("1,0,1680", [10, 300, 1000]),  # the 4 X cap binds, and Miller-Rabin finds primes
    ("1,1,6", [1, 2, 50, 400]),  # 2 and 3 divide the leading coefficient
    ("1,2,1", [1, 2, 100, 500]),  # (n + 1)**2: a double root mod every q
    ("2,3,1", [1, 2, 100, 500]),  # (n + 1)(n + 2)
    ("2,2,2", [1, 2, 60]),  # every residue is a root mod 2
    ("10,-5,1", [1, 2, 3]),  # f(1) = 6 > f(2) = f(3) = 4
    ("10,-5,1", [1, 2, 3, 4, 5, 200]),  # convex, not monotone
    ("10100,-200,1", [1, 2, 100, 150]),  # B2 = isqrt(f(1)) = 99 > isqrt(f(150)) = 50
    ("shell:5", [13, 14, 100]),  # B2 = 4 X = 400: f(13) < (B2 + 1)**2 = 160801 < f(14)
    ("shell:4", [1, 2, 500]),  # (2n - 1)(2n**2 - 2n + 1): no primes
    ("shell:6", [1, 300]),
    ("shell:7", [1175, 1176]),  # f(1176) >= 2**64: OutOfRangeError
    ("3,-3,1", [1, 2, 3, 4, 50]),  # f(1) = f(2) = 1: a unit at n = 2, alone in its limit's span
    ("3,-3,1", list(range(1, 41))),  # consecutive limits from 1: one n per span
)


@pytest.mark.parametrize("spec, xs", CENSUS_CASES)
def test_sieved_census_matches_the_is_prime_oracle(spec, xs):
    poly = parse_poly_spec(spec)
    assert census_outcome(census_scan, poly, xs) == census_outcome(census_oracle, poly, xs)


def test_sieved_census_raises_where_the_walk_drops_below_one():
    poly = IntegerPolynomial((1, 30, -1), "1+30n-n^2")  # f(30) = 1, f(31) = -30
    for xs in ([10, 30], [29, 30, 31, 40], [31]):
        expected = census_outcome(census_oracle, poly, xs)
        assert census_outcome(census_scan, poly, xs) == expected
    assert expected == (NonIntegerValuedError, "1+30n-n^2: f(31) = -30 < 1")


@settings(max_examples=200, deadline=None)
@given(
    poly=st.one_of(
        st.sampled_from(SPECS).map(parse_poly_spec),
        st.lists(st.integers(0, 60), min_size=1, max_size=5).map(
            lambda c: IntegerPolynomial(tuple(c), ",".join(map(str, c)))),
    ),
    xs=st.lists(st.integers(1, 1500), min_size=1, max_size=5, unique=True).map(sorted),
)
def test_sieved_census_matches_the_oracle_on_random_polynomials(poly, xs):
    assert census_outcome(census_scan, poly, xs) == census_outcome(census_oracle, poly, xs)


PRIMES_BELOW_5000 = [q for q in range(2, 5000) if is_prime_trial_division(q)]


@settings(max_examples=500, deadline=None)
@given(
    coeffs=st.tuples(*[st.integers(-10**6, 10**6)] * 3),
    shape=st.sampled_from(["quadratic", "linear", "constant", "q | c2", "q | all"]),
    q=st.one_of(  # q = 1 (mod 8) takes Tonelli-Shanks's non-residue search
        st.sampled_from(PRIMES_BELOW_5000),
        st.sampled_from([q for q in PRIMES_BELOW_5000 if q % 8 == 1]),
    ),
)
def test_closed_form_roots_equal_brute_force(coeffs, shape, q):
    c0, c1, c2 = coeffs
    if shape in ("linear", "constant"):
        c2 = 0
    if shape == "constant":
        c1 = 0
    if shape in ("q | c2", "q | all"):
        c2 *= q
    if shape == "q | all":
        c0, c1 = c0 * q, c1 * q
    roots = sorted(_roots_mod(c0, c1, c2, q))
    assert roots == [r for r in range(q) if (c0 + c1 * r + c2 * r * r) % q == 0]


def test_degree_two_census_needs_no_miller_rabin(monkeypatch):
    # Values up to the sieve bound are decided by the sieve's own primes and
    # values at or above 2**64 go to is_prime, which raises; its stand-in
    # fails on any value below 2**64, so every count is the walk's own.
    xs = [100, 200, 9951, 29976]
    polys = [parse_poly_spec(spec) for spec in ("integers", "shell:2", "shell:3")]
    expected = [census_oracle(poly, xs) for poly in polys]
    calls, passed, lucas_calls = [], [], []

    def is_prime_from_2_64(v):
        assert v >= 2**64, f"is_prime({v}) below 2**64"
        return is_prime(v)

    def counted(v, bases):
        assert bases == (2,)
        calls.append(v)
        if strong_probable_prime(v, bases):
            passed.append(v)
            return True
        return False

    def counted_lucas(v):
        lucas_calls.append(v)
        return _strong_lucas(v)

    monkeypatch.setattr(primes, "strong_probable_prime", counted)
    monkeypatch.setattr(primes, "_strong_lucas", counted_lucas)
    monkeypatch.setattr(primes, "is_prime", is_prime_from_2_64)
    for poly, rows in zip(polys, expected):
        assert census_scan(poly, xs) == rows
        assert calls == [] and lucas_calls == [], poly.label
    census_scan(parse_poly_spec("10100,-200,1"), [150])  # the bound is from f(1) > f(150)
    assert calls == [] and lucas_calls == []
    # A prime shell sieves to B2 = 4 X < isqrt(f(X)) here, so BPSW sees
    # only values from (B2 + 1)**2 on, and its Lucas half only those that
    # passed base 2.
    x = 5980
    census_scan(prime_shell(5), [x])
    assert calls and min(calls) >= (4 * x + 1) ** 2
    assert lucas_calls == passed and len(passed) < len(calls)
    with pytest.raises(OutOfRangeError, match=str(prime_shell(11)(67))):
        census_scan(prime_shell(11), [67])  # the stand-in passes f(67) >= 2**64 on


def brute_shell_roots(p, q):
    return [r for r in range(q) if (pow(r, p, q) - pow(r - 1, p, q)) % q == 0]


@settings(max_examples=500, deadline=None)
@given(
    pq=st.integers(2, 13).flatmap(lambda p: st.tuples(st.just(p), st.one_of(
        st.sampled_from(PRIMES_BELOW_5000),
        st.sampled_from([q for q in PRIMES_BELOW_5000 if q % p == 1]),  # d = p
        st.sampled_from([q for q in PRIMES_BELOW_5000 if p % q == 0]),  # q | p
        st.just(2),
    ))),
)
@example(pq=(8, 17))  # d = 8: 2**2 = 4 has order 4, so a = 3 gives g
@example(pq=(4, 17))  # d = 4: 2**4 = -1 has order 2
@example(pq=(9, 19))  # d = 9
@example(pq=(12, 13))  # d = 12
@example(pq=(6, 3))  # q | p with d = 2: f(2) = 63
@example(pq=(10, 5))
@example(pq=(4, 2))
@example(pq=(7, 7))  # q = p: f = 1 mod p
def test_shell_roots_equal_brute_force(pq):
    p, q = pq
    assert sorted(_shell_roots(p, q)) == brute_shell_roots(p, q)


def test_shell_census_finds_the_shell_by_its_coefficients(monkeypatch):
    # any label, as parsed from a coefficient list: the census sieves it by
    # its roots of unity, not by Horner values of f(1..B)
    monkeypatch.setattr(primes, "_scanned_roots", None)
    for p in range(1, 9):
        poly = parse_poly_spec(",".join(map(str, prime_shell(p).coefficients)))
        assert census_outcome(census_scan, poly, [50, 400]) == census_outcome(
            census_oracle, poly, [50, 400])


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4, 24, 25, 26, 48, 49, 50, 121, 1000])
@pytest.mark.parametrize("segment", [1, 2, 7, 25])
def test_segmented_sieve_equals_the_plain_sieve(bound, segment):
    want = [q for q, flag in enumerate(sieve(max(bound, 1))) if flag and q <= bound]
    assert list(primes._primes_to(bound, segment)) == want


def test_census_sieve_holds_about_x_bytes():
    # Shell:3 at X = 10**5 sieves to B2 = isqrt(f(X)) = 173204 > X; with
    # all B2 + 1 flags in one bytearray the call peaked at 447 KB, over 4 X.
    x = 10**5
    tracemalloc.start()
    try:
        census_scan(prime_shell(3), [x])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * x


class TestWitnessTable:
    @pytest.mark.parametrize("psi, k, factors", PSI)
    def test_each_bound_is_a_composite_strong_pseudoprime(self, psi, k, factors):
        assert math.prod(factors) == psi and all(f > 1 for f in factors)
        # the first k prime bases do not see through psi_k ...
        assert strong_probable_prime(psi, FIRST_PRIMES[:k])
        # ... and BPSW does
        assert not is_prime(psi)


class TestBPSWVectors:
    @pytest.mark.parametrize("v", BASE_TWO_PSEUDOPRIMES)
    def test_base_two_pseudoprime_is_caught_by_lucas(self, v):
        assert strong_probable_prime(v, (2,))
        assert not _strong_lucas(v)
        assert not is_prime(v)

    @pytest.mark.parametrize("v", LUCAS_PSEUDOPRIMES)
    def test_lucas_pseudoprime_is_caught_by_base_two(self, v):
        assert _strong_lucas(v)
        assert not strong_probable_prime(v, (2,))
        assert not is_prime(v)

    def test_each_half_passes_every_prime_and_no_other_composite(self):
        # below 60000; the Lucas half meets D = v at v = 5, 7, 11, 13, ...
        flags = sieve(60000)
        odd = range(3, 60000, 2)
        assert [v for v in odd if v > 3 and strong_probable_prime(v, (2,)) != flags[v]] == list(
            BASE_TWO_PSEUDOPRIMES)
        assert [v for v in odd if _strong_lucas(v) != flags[v]] == list(LUCAS_PSEUDOPRIMES)

    def test_square_ends_the_parameter_search(self):
        # a square v has (D/v) = 1 or 0 for every D: without the square
        # check the search for (D/v) = -1 would take 2**31 steps, to |D| = v**0.5
        v = (2**32 - 5) ** 2  # 2**32 - 5 is prime, so no small factor
        assert not _strong_lucas(v)
        assert not is_prime(v)

    @pytest.mark.parametrize("v", [2**61 - 1, 2**64 - 59])
    def test_large_primes_are_accepted(self, v):
        assert _strong_lucas(v)
        assert is_prime(v)


@settings(max_examples=400, deadline=None)
@given(v=st.one_of(
    st.integers(1, 2**64 - 1),
    st.sampled_from([psi for psi, _, _ in PSI]).flatmap(
        lambda psi: st.integers(psi - 1000, psi + 1000)),
))
def test_bpsw_agrees_with_all_twelve_bases(v):
    assert is_prime(v) == miller_rabin_all_twelve(v)
