import math
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st
from test_exact_oracle import SPECS

from nonsieve import (
    OutOfRangeError,
    census,
    census_scan,
    integers,
    is_prime,
    is_prime_trial_division,
    log_density_sum,
    parse_poly_spec,
    prime_shell,
)
from nonsieve.primes import PrimeCensus, bases_for, strong_probable_prime

FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_k, the smallest strong pseudoprime to the first k prime bases, with
# k and a factorization: the witness table's bounds.
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


@settings(max_examples=120, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    xs=st.lists(st.integers(0, 400), min_size=1, max_size=6, unique=True).map(sorted),
)
def test_census_scan_equals_one_census_per_limit(spec, xs):
    poly = parse_poly_spec(spec)
    scan = census_scan(poly, xs)
    cells = [census(poly, x) for x in xs]
    assert len(scan) == len(cells)
    for a, b in zip(scan, cells):
        for field in fields(PrimeCensus):
            assert getattr(a, field.name) == getattr(b, field.name), field.name
        assert a.log_density_sum == log_density_sum(poly, a.x)


class TestWitnessTable:
    @pytest.mark.parametrize("psi, k, factors", PSI)
    def test_each_bound_is_a_composite_strong_pseudoprime(self, psi, k, factors):
        assert math.prod(factors) == psi and all(f > 1 for f in factors)
        # the first k prime bases do not see through psi_k ...
        assert strong_probable_prime(psi, FIRST_PRIMES[:k])
        # ... so psi_k itself is decided by the next, larger set
        assert len(bases_for(psi)) > k and len(bases_for(psi - 1)) == k
        assert not is_prime(psi)

    def test_bases_are_smallest_prime_prefixes(self):
        assert bases_for(2) == (2,)
        assert bases_for(2**64 - 1) == FIRST_PRIMES
        for psi, k, _ in PSI:
            assert bases_for(psi - 1) == FIRST_PRIMES[:k]


@settings(max_examples=400, deadline=None)
@given(v=st.one_of(
    st.integers(1, 2**64 - 1),
    st.sampled_from([psi for psi, _, _ in PSI]).flatmap(
        lambda psi: st.integers(psi - 1000, psi + 1000)),
))
def test_size_picked_bases_agree_with_all_twelve(v):
    assert is_prime(v) == miller_rabin_all_twelve(v)
