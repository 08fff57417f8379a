"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; `-v` alone shows one PASSED/FAILED line per criterion.
"""

import random
import time
from fractions import Fraction

import pytest
from oracles import is_prime_trial_division

from nonsieve import (
    census,
    compare_to_residual,
    enumerate_oracle,
    expansion_oracle,
    integers,
    is_prime,
    log_density_sum,
    make_polynomial,
    prime_shell,
    residual,
    residual_scan,
    sigma_chain,
)
from nonsieve.reference import (
    LOG_SUM_TOLERANCE,
    REFERENCE_LOG_SUM,
    REFERENCE_M,
    REFERENCE_PRIME_COUNT,
    check_log_sum,
    check_prime_count,
)

SHELL3_X8_DEVIATION = Fraction(111044920832040402, 77089026890140104931)


def _verdict(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _row_poly(key):
    return integers() if key == "integers" else prime_shell(key)


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    scan = residual_scan(integers(), [100, 200], 1, "exact")
    printed = [r.m_value.decimal_str(14) for r in scan]
    digits_ok = printed == ["-0.94812622482360", "-0.97060984525939"]
    tol_ok = all(
        abs(r.m_value.value - float(REFERENCE_M[("integers", r.x)])) < 1e-13
        for r in scan
    )
    # independent cross-check: H_x / x - 1 from a direct rational harmonic sum
    cross_ok = True
    for r in scan:
        h = sum((Fraction(1, n) for n in range(1, r.x + 1)), Fraction(0))
        cross_ok &= r.m_value.rational == h / r.x - 1
    elapsed = time.perf_counter() - start
    _verdict(
        "1 table1 M values",
        digits_ok and tol_ok and cross_ok and elapsed < 1.0,
        f"{printed}, {elapsed:.3f}s",
    )


def test_criterion_2_table2_reproduction():
    start = time.perf_counter()
    bad = []
    for p in (2, 3, 5, 7):
        for r in residual_scan(prime_shell(p), [100, 200], 1, "exact"):
            ref = float(REFERENCE_M[(p, r.x)])
            if abs(r.m_value.value - ref) > 1e-12:
                bad.append((p, r.x))
    elapsed = time.perf_counter() - start
    _verdict(
        "2 table2 M values",
        not bad and elapsed < 5.0,
        f"8 cells within 1e-12, {elapsed:.2f}s",
    )


def _crosscheck_primality(v, rng):
    if v < 10**10:
        return is_prime_trial_division(v)
    # too large for full trial division at test speed: random-base rounds
    if v % 2 == 0:
        return v == 2
    d, r = v - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
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
            return False
    return True


def test_criterion_3_prime_count_columns():
    ok = census(integers(), 100).prime_count == 25
    ok &= census(integers(), 200).prime_count == 46
    rng = random.Random(3)
    report = []
    for p in (2, 3, 5, 7):
        poly = prime_shell(p)
        for x in (100, 200):
            count = census(poly, x).prime_count
            oracle = sum(
                1
                for n in range(1, x + 1)
                if _crosscheck_primality(poly(n), rng)
            )
            ok &= count == oracle
            check = check_prime_count(p, x, count)
            report.append(
                f"p={p},x={x}: computed {count}, published {check.reference}"
                + ("" if check.matches else " [DISCREPANCY reported]")
            )
            # the discrepancy must be surfaced, never silently reconciled
            ok &= check.matches == (count == REFERENCE_PRIME_COUNT[(p, x)])
    _verdict("3 prime counts", ok, "; ".join(report))


def test_criterion_4_log_density_columns():
    # integer row: the inferred definition reproduces the published cells
    ok = abs(log_density_sum(integers(), 100) - 29.99144) <= LOG_SUM_TOLERANCE
    ok &= abs(log_density_sum(integers(), 200) - 50.04329) <= LOG_SUM_TOLERANCE
    # shell rows: the published cells do not follow from the inferred
    # definition (or any recoverable variant); the mismatch is computed,
    # compared at the stated tolerance, and reported per cell
    report = []
    for p in (2, 3, 5, 7):
        for x in (100, 200):
            value = log_density_sum(prime_shell(p), x)
            check = check_log_sum(p, x, value)
            status = "match" if check.matches else "DEFINITION MISMATCH reported"
            report.append(
                f"p={p},x={x}: computed {value:.5f}, published {check.reference}: {status}"
            )
            ok &= check.matches == (abs(value - REFERENCE_LOG_SUM[(p, x)]) <= LOG_SUM_TOLERANCE)
    _verdict("4 log-density sums", ok, "; ".join(report))


def test_criterion_5_bound_property():
    start = time.perf_counter()
    rng = random.Random(20240501)
    violations = 0
    for _ in range(200):
        degree = rng.randint(1, 6)
        coeffs = [rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(degree)]
        if coeffs[-1] == 0:
            coeffs[-1] = rng.randint(1, 9)
        poly = make_polynomial(coeffs, "random")
        for res in residual_scan(poly, [10, 100, 1000, 10000], 1, "float"):
            if not -1.0 < res.m_value.value < 0.0:
                violations += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "5 bound property",
        violations == 0 and elapsed < 30.0,
        f"200 polynomials x 4 limits, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_6_oracle_equivalences():
    families = [integers(), prime_shell(2), prime_shell(3)]
    ok = True
    for poly in families:
        for x in range(2, 11):
            oracle = enumerate_oracle(poly, x, min(6, x))
            for term in oracle.terms:
                ok &= (
                    sigma_chain(poly, x, term.depth).rational
                    == term.magnitude.rational
                )
    for x in range(2, 17):
        ok &= (
            expansion_oracle(integers(), x).rational
            == residual(integers(), x).m_value.rational
        )
        ok &= (
            expansion_oracle(prime_shell(3), x).rational
            == residual(prime_shell(3), x).m_value.rational
        )
    for poly in (integers(), prime_shell(3)):
        for x in (2, 10, 50, 100, 200):
            t = sum((Fraction(1, poly(n)) for n in range(2, x + 1)), Fraction(0))
            q = sum((Fraction(1, poly(n)) ** 2 for n in range(2, x + 1)), Fraction(0))
            ok &= sigma_chain(poly, x, 2).rational == (t * t + q) / 2
    _verdict("6 oracle equivalences", ok, "DP=enumeration, expansion=residual, depth-2 closed form")


def test_criterion_7_literal_series_gap_regression():
    small = compare_to_residual(prime_shell(3), 3, mode="exact")
    ok = small.deviation.rational == Fraction(7, 17689)
    ok &= small.verdict == "SYSTEMATIC_GAP"
    frozen = compare_to_residual(prime_shell(3), 8, mode="exact")
    ok &= frozen.deviation.rational == SHELL3_X8_DEVIATION
    _verdict(
        "7 literal-series gap",
        ok,
        f"x=3 deviation {small.deviation.rational}, x=8 deviation {frozen.deviation.rational}",
    )


def test_criterion_8_trend_properties():
    grid = list(range(10, 201, 10))
    at_200 = {}
    ok = True
    for key in ("integers", 2, 3, 5, 7):
        values = [r.m_value.value for r in residual_scan(_row_poly(key), grid, 1, "exact")]
        ok &= all(b <= a for a, b in zip(values, values[1:]))
        at_200[key] = values[-1]
    ok &= at_200[2] < at_200[3] < at_200[5] < at_200[7] < 0.0
    _verdict(
        "8 trend properties",
        ok,
        "M non-increasing in x; M_2 < M_3 < M_5 < M_7 < 0 at x=200",
    )
