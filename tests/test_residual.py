import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nonsieve import (
    CompensatedProduct,
    ExactRationalUnsupportedError,
    KahanSum,
    NotMonotoneError,
    OutOfRangeError,
    euler_product_partial,
    integers,
    make_polynomial,
    parse_poly_spec,
    prime_shell,
    residual,
    residual_scan,
    start_index,
    zeta_partial,
)
from nonsieve.cli import run
from nonsieve.residual import _float_zps

# the module, which the package's `residual` function shadows
residual_module = importlib.import_module("nonsieve.residual")


def harmonic(x):
    # independent oracle: H_x as an exact rational
    return sum((Fraction(1, n) for n in range(1, x + 1)), Fraction(0))


class TestZetaPartial:
    def test_shell3_x3_exact(self):
        v = zeta_partial(prime_shell(3), 3, 1, "exact")
        assert v.rational == Fraction(159, 133)
        assert v.rational == 1 + Fraction(1, 7) + Fraction(1, 19)

    def test_integers_float_matches_harmonic_oracle(self):
        v = zeta_partial(integers(), 100, 1, "float")
        assert abs(v.value - float(harmonic(100))) < 1e-14

    def test_single_unit_term(self):
        assert zeta_partial(integers(), 1, 1, "exact").rational == 1

    def test_leading_one_added_only_when_f1_above_one(self):
        shifted = make_polynomial([1, 1], "n+1")  # f(1) = 2
        v = zeta_partial(shifted, 2, 1, "exact")
        assert v.rational == 1 + Fraction(1, 2) + Fraction(1, 3)

    def test_non_integer_s_rejected_in_exact_mode(self):
        with pytest.raises(ExactRationalUnsupportedError):
            zeta_partial(integers(), 10, 1.5, "exact")

    def test_non_integer_s_allowed_in_float_mode(self):
        v = zeta_partial(integers(), 10, 2.0, "float")
        assert 0 < v.value < 2


class TestEulerProductPartial:
    def test_shell3_x3_exact(self):
        v = euler_product_partial(prime_shell(3), 3, 1, "exact")
        assert v.rational == Fraction(108, 133)

    def test_telescoping_integers(self):
        for x in (2, 10, 100, 1000):
            v = euler_product_partial(integers(), x, 1, "exact")
            assert v.rational == Fraction(1, x)

    def test_empty_product_returns_one(self):
        v = euler_product_partial(integers(), 1, 1, "exact")
        assert v.rational == 1

    def test_constant_one_polynomial_is_the_empty_product(self):
        v = euler_product_partial(prime_shell(1), 50, 1, "exact")
        assert v.rational == 1


class TestResidual:
    def test_shell3_x3(self):
        r = residual(prime_shell(3), 3)
        assert r.m_value.rational == Fraction(-517, 17689)
        assert r.m_value.rational == Fraction(159, 133) * Fraction(108, 133) - 1

    def test_integers_equals_harmonic_identity(self):
        for x in (2, 10, 100, 1000):
            r = residual(integers(), x)
            assert r.m_value.rational == harmonic(x) / x - 1

    def test_table_values_14_digits(self):
        assert residual(integers(), 100).m_value.decimal_str(14) == "-0.94812622482360"
        assert residual(integers(), 200).m_value.decimal_str(14) == "-0.97060984525939"
        assert (
            residual(prime_shell(2), 100).m_value.decimal_str(14)
            == "-0.70856869191073"
        )

    def test_result_consistency_fields(self):
        r = residual(prime_shell(3), 3)
        assert r.start_index == 2
        assert (
            r.m_value.rational
            == r.zeta_partial.rational * r.product_partial.rational - 1
        )
        assert 0 < r.product_partial.rational <= 1
        assert r.zeta_partial.rational >= 1

    def test_exactness_bridge(self):
        # float-mode M agrees with the exact M to 1e-13 for every tabulated case
        for poly in (integers(), prime_shell(2), prime_shell(3), prime_shell(5), prime_shell(7)):
            for x in (100, 200):
                exact_m = residual(poly, x, 1, "exact").m_value.value
                float_m = residual(poly, x, 1, "float").m_value.value
                assert abs(exact_m - float_m) < 1e-13


class TestResidualScan:
    def test_matches_independent_calls_bit_for_bit(self):
        poly = prime_shell(3)
        scan = residual_scan(poly, [3, 10, 50], 1, "exact")
        for res in scan:
            fresh = residual(poly, res.x, 1, "exact")
            assert res.m_value.rational == fresh.m_value.rational
            assert res.zeta_partial.rational == fresh.zeta_partial.rational
            assert res.product_partial.rational == fresh.product_partial.rational

    def test_table1_pair(self):
        scan = residual_scan(integers(), [100, 200])
        assert [r.m_value.decimal_str(14) for r in scan] == [
            "-0.94812622482360",
            "-0.97060984525939",
        ]

    def test_shell7_pair(self):
        scan = residual_scan(prime_shell(7), [100, 200])
        assert [r.m_value.decimal_str(14) for r in scan] == [
            "-0.00006682330849",
            "-0.00006682330851",
        ]

    def test_single_point(self):
        scan = residual_scan(integers(), [2])
        assert scan[0].m_value.rational == Fraction(-1, 4)

    def test_rejects_non_ascending(self):
        with pytest.raises(ValueError):
            residual_scan(integers(), [100, 50])


class TestExactSizeCap:
    """Exact mode refuses a denominator D above EXACT_BITS_MAX bits before it
    forms any power f(n)**s."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        residual_module._zp.cache_clear()  # a cached pass would skip the check

    @pytest.fixture
    def no_powers(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a power of f(n) was formed")

        monkeypatch.setattr(residual_module, "_split", refuse)

    def test_huge_exponent_is_refused_before_any_power(self, no_powers):
        with pytest.raises(OutOfRangeError, match="float mode"):
            residual(prime_shell(3), 1000, 10**6, "exact")
        with pytest.raises(OutOfRangeError):
            residual_scan(prime_shell(3), [10, 1000], 10**6, "exact")

    def test_cli_exits_2(self, no_powers, capsys):
        argv = ["residual", "--poly", "shell:3", "--x", "1000", "--s", "1e6", "--exact"]
        assert run(argv) == 2
        assert "float mode" in capsys.readouterr().err

    def test_edge_of_the_cap(self, monkeypatch):
        # integers at x = 4: D <= 4**(4 s), an 8 s bit bound
        monkeypatch.setattr(residual_module, "EXACT_BITS_MAX", 8)
        assert residual(integers(), 4, 1, "exact").m_value.rational == Fraction(25, 48) - 1
        with pytest.raises(OutOfRangeError):
            residual(integers(), 4, 2, "exact")

    @settings(max_examples=100, deadline=None)
    @given(
        spec=st.sampled_from(("1", "integers", "shell:2", "shell:5", "0,0,1", "3,-3,1", "3,1")),
        x=st.integers(1, 60),
        s=st.integers(1, 3),
    )
    def test_cap_fires_whenever_d_exceeds_it(self, spec, x, s):
        poly = parse_poly_spec(spec)
        residual_module._zp.cache_clear()
        if spec == "3,-3,1" and x >= 2:  # f(1) = f(2) = 1: not increasing
            with pytest.raises(NotMonotoneError):
                zeta_partial(poly, x, s, "exact")
            return
        den = zeta_partial(poly, x, s, "exact").pair[1]
        cap = den.bit_length() - 2  # log2 D > cap
        residual_module._zp.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(residual_module, "EXACT_BITS_MAX", cap)
            with pytest.raises(OutOfRangeError):
                zeta_partial(poly, x, s, "exact")


class TestBoundProperty:
    def test_randomized_admissible_polynomials_stay_in_bounds(self):
        rng = random.Random(20240817)
        for _ in range(40):
            degree = rng.randint(1, 6)
            coeffs = [rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(degree)]
            if coeffs[-1] == 0:
                coeffs[-1] = 1
            poly = make_polynomial(coeffs, "random")
            for res in residual_scan(poly, [10, 100, 1000], 1, "float"):
                assert -1.0 < res.m_value.value < 0.0

    def test_monotone_trend_and_power_ordering(self):
        grid = list(range(10, 201, 10))
        at_200 = {}
        series = [("integers", integers())] + [
            (p, prime_shell(p)) for p in (2, 3, 5, 7)
        ]
        for key, poly in series:
            values = [r.m_value.value for r in residual_scan(poly, grid)]
            assert all(b <= a for a, b in zip(values, values[1:]))
            at_200[key] = values[-1]
        assert at_200[2] < at_200[3] < at_200[5] < at_200[7] < 0.0


def reference_float_zps(poly, x_list, s, n0):
    """(Z, P) pairs at each limit from the KahanSum and CompensatedProduct
    methods, one call per term: what _float_zps writes out on locals."""
    zacc = KahanSum(1.0 if poly(1) > 1 else 0.0)
    pacc = CompensatedProduct()
    pairs = []
    n = 1
    for x in x_list:
        while n <= x:
            v = poly(n)
            t = 1.0 / v if s == 1 else float(v) ** -s
            zacc.add(t)
            if n0 is not None and n >= n0:
                pacc.multiply(1.0 - t)
            n += 1
        pairs.append((zacc.as_pair(), pacc.as_pair()))
    return pairs


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(st.integers(0, 40), min_size=1, max_size=5).filter(lambda c: c[-1] > 0),
    s=st.sampled_from((1, 1.5, 2)),
    xs=st.lists(st.integers(1, 300), min_size=1, max_size=5, unique=True).map(sorted),
)
def test_inlined_float_kernel_is_bit_identical_to_the_accumulators(coeffs, s, xs):
    poly = make_polynomial(coeffs)  # nonnegative coefficients: f >= 1 on n >= 1
    n0 = start_index(poly, xs[-1])
    got = [((z.approx, z.comp), (p.approx, p.comp)) for z, p in _float_zps(poly, xs, s, n0)]
    want = reference_float_zps(poly, xs, s, n0)
    assert [hex_floats(zp) for zp in got] == [hex_floats(zp) for zp in want]


def hex_floats(pairs):
    """The bits of nested float pairs; unlike ==, this tells -0.0 from 0.0."""
    return tuple(v.hex() for pair in pairs for v in pair)
