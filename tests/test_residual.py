import importlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from oracles import float_zps_twosum
from test_exact_oracle import oracle

from nonsieve import (
    ExactRationalUnsupportedError,
    NotMonotoneError,
    OutOfRangeError,
    euler_product_partial,
    integers,
    make_polynomial,
    parse_poly_spec,
    prime_shell,
    residual,
    residual_scan,
    zeta_partial,
)
from nonsieve.cli import run
from nonsieve.numerics import PrecisionValue

# the module, which the package's `residual` function shadows
residual_module = importlib.import_module("nonsieve.residual")

GOLDEN = Path(__file__).parent / "golden"


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
        err = capsys.readouterr().err
        assert "float mode" in err and " s=1000000 would form" in err  # s stays an int

    def test_huge_bit_count_prints_in_four_digits(self, capsys):
        # as a plain int, 9e301 bits printed as 302 digits; 3.5e314 is past
        # the float range, where format(bits, ".4g") would raise
        for x, s, bits in (("10", "1e300", "9.000e+301"), ("100000", "1e308", "3.500e+314")):
            argv = ["residual", "--poly", "shell:3", "--x", x, "--s", s, "--exact"]
            assert run(argv) == 2
            assert capsys.readouterr().err == (
                f"error: prime-shell p=3: exact mode at x={x}, s={float(s)!r} would form "
                f"integers of up to {bits} bits, above the 16777216-bit cap; use float mode\n")

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


def m_gaps(poly, xs, s):
    """(|exact M|, |float M - exact M|) at each limit in xs, each rounded to
    a float once."""
    gaps = []
    for f, e in zip(residual_scan(poly, xs, s, "float"), residual_scan(poly, xs, s, "exact")):
        exact = e.m_value.rational
        gaps.append((float(abs(exact)), float(abs(Fraction(f.m_value.value) - exact))))
    return gaps


SMALL_COEFFS = st.one_of(
    st.tuples(st.lists(st.integers(0, 40), min_size=1, max_size=4), st.integers(1, 40)).map(
        lambda t: (*t[0], t[1])
    ),
    st.sampled_from([prime_shell(p).coefficients for p in range(1, 8)]),
    st.integers(6, 9).map(lambda k: (0,) * k + (1,)),  # n**k >= 2**53 from n = 456 down to 60
)
# f(n) >= 2**53 from n = 1: 1 - 1/f(n) rounds to 1.0 for every factor
HUGE_COEFFS = st.tuples(st.integers(2**53, 2**62), st.integers(0, 40), st.integers(1, 40))


@settings(max_examples=100, deadline=None)
@given(
    case=st.one_of(
        st.tuples(SMALL_COEFFS | HUGE_COEFFS, st.sampled_from((1, 2, 3)), st.integers(1, 600)),
        # at s = 40 a huge f(n0) would put M far below the normal range
        st.tuples(SMALL_COEFFS, st.just(40), st.integers(1, 200)),
    ),
    data=st.data(),
)
def test_float_m_is_within_a_few_ulps_of_exact(case, data):
    coeffs, s, x = case
    xs = sorted(data.draw(st.sets(st.integers(1, x), max_size=3)) | {x})
    for size, gap in m_gaps(make_polynomial(coeffs), xs, s):
        assume(size == 0 or size >= 2.0**-1000)  # the normal range, or M = 0 at x < n0
        assert gap <= 2.0**-50 * size


@settings(max_examples=200, deadline=None)
@given(
    coeffs=SMALL_COEFFS,
    s=st.sampled_from((1, 1.5, 2, 40)),
    xs=st.lists(st.integers(1, 1200), min_size=1, max_size=4, unique=True).map(sorted),
)
@example(coeffs=(13, 1), s=1, xs=[1, 2, 3, 50])  # f = n + 13: Fast2Sum loses M's error at n = 2
@example(coeffs=(0, 1, 1), s=2, xs=[1, 2, 30])  # f(1) = 2
@example(coeffs=(0,) * 6 + (1,), s=1, xs=[1, 455, 456, 1200])  # n**6 passes 2**53 at 456
@example(coeffs=(1,), s=1.5, xs=[1, 7])  # the constant 1: no factor
# M switches to Fast2Sum at n0 + 3: t nearly equal over the first factors,
# f(1) > 1 (n0 = 1) with a limit at each of the first four, and s = 40
@example(coeffs=(10**12, 1), s=1, xs=[1, 2, 3, 4, 5, 9])
@example(coeffs=(1, 1), s=1, xs=[1, 2, 3, 4])
@example(coeffs=(1, -3, 3), s=40, xs=[2, 3, 4, 5, 6, 30])
# f = n + 2**53 - 3 reaches 2**53 + 1 at n = 4, so its values stay ints; a
# binary64 table would round f(4) and add to the rounded value up to f(6).
# 2 n**4 + n**3 + n**2 + 1 stays below 2**53 to 8191, read in binary64
@example(coeffs=(2**53 - 3, 1), s=1, xs=[1, 2, 3, 4])
@example(coeffs=(2**53 - 3, 1), s=1.5, xs=[1, 2, 3, 4])
@example(coeffs=(2**53 - 3, 1), s=1.5, xs=[2, 6])
@example(coeffs=(1, 0, 1, 1, 2), s=1, xs=[8191])
def test_float_kernel_matches_the_twosum_loop_bit_for_bit(coeffs, s, xs):
    """Fast2Sum where the recurrence orders the operands finds the same
    error terms as TwoSum: every approx and comp of Z, P and M is equal."""
    poly = make_polynomial(coeffs)
    n0 = residual_module._checked_start(poly, xs, s, "float")
    got = [tuple((v.approx.hex(), v.comp.hex()) for v in zpm)
           for zpm in residual_module._float_zps(poly, xs, s, n0)]
    want = [tuple((a.hex(), c.hex()) for a, c in zpm)
            for zpm in float_zps_twosum(poly, xs, s, n0)]
    assert got == want


@st.composite
def near_2_53(draw):
    """Coefficients of degree 0-4, the leading one positive or negative, with
    f(hi) = 2**53 - 1, 2**53 or 2**53 + 1, and a walk to x = hi + 0..3."""
    d, hi = draw(st.integers(0, 4)), draw(st.integers(1, 300))
    target = 2**53 + draw(st.sampled_from((-1, 0, 1)))
    middle = draw(st.lists(st.integers(0, 9), min_size=max(d - 1, 0), max_size=max(d - 1, 0)))
    rest = target - sum(c * hi**k for k, c in enumerate(middle, 1))
    if d and draw(st.booleans()):
        lead = -draw(st.integers(1, 9))  # f falls from some n on: never read from the table
    else:
        lead = rest // hi**d  # >= 1, and the constant term is what is left
    coeffs = (rest - lead * hi**d, *middle, lead) if d else (target,)
    return coeffs, hi + draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(case=near_2_53(), s=st.sampled_from((1, 1.5, 40)))
def test_float_terms_equal_the_terms_of_each_value(case, s):
    """The walk's values equal f(n), those from 2**53 on as ints, and each
    of its terms is bit for bit 1.0 / f(n) or float(f(n)) ** -s."""
    coeffs, x = case
    poly = make_polynomial(coeffs)
    want = [poly(n) for n in range(1, x + 1)]
    got = list(poly.values(1, x, binary64=True))
    assert got == want
    assert all(isinstance(v, int) for v in got if v >= 2**53)
    terms = [(1.0 / v if s == 1 else float(v) ** -s).hex() for v in want]
    assert [t.hex() for t in residual_module._float_terms(poly, x, s)] == terms


def test_float_m_past_2_53_matches_exact():
    # f(n) = n**6 passes 2**53 at n = 456; forming Z * P - 1 from two
    # compensated values near 1 was 1.5e-11 off here
    [(size, gap)] = m_gaps(make_polynomial([0, 0, 0, 0, 0, 0, 1]), [3000], 1)
    assert gap <= 2.0**-50 * size


def test_float_m_at_large_s_keeps_its_sign(capsys):
    # M = -2.47e-68: Z * P - 1 from values within float error of 1 gave
    # +1.57e-34 and exit 3
    argv = ["residual", "--poly", "shell:3", "--x", "20", "--s", "40", "--float"]
    assert run(argv) == 0
    assert '"decimal": "-0.00000000000000"' in capsys.readouterr().out
    assert all(gap <= 2.0**-50 * size for size, gap in m_gaps(prime_shell(3), [2, 20], 40))


@pytest.mark.parametrize("spec, x, s", [
    pytest.param("shell:3", "1000", "200", id="200"),
    pytest.param("shell:3", "1000", "1e6", id="1e6"),
    pytest.param("shell:3", "5", "200", id="shell:3-x5-s200"),
    pytest.param("integers", "2", "600", id="integers-x2-s600"),
])
def test_float_m_below_the_binary64_range_exits_2(spec, x, s, capsys):
    # M is about -f(2)**(-2 s): -7**(-2 s) for shell:3, 0.0 in binary64 from
    # s = 192 on, and -2**-1200 for the integers at s = 600
    argv = ["residual", "--poly", spec, "--x", x, "--s", s]
    assert run(argv + ["--float"]) == 2
    assert "below the binary64 range" in capsys.readouterr().err
    poly = parse_poly_spec(spec)
    with pytest.raises(OutOfRangeError, match="binary64"):
        residual_scan(poly, [1, 2], float(s), "float")
    if x != "1000":  # exact mode reads the sign of M from its pair and exits 0
        assert run(argv + ["--exact"]) == 0
        m = oracle(poly, int(x), int(s))[2]
        assert json.loads(capsys.readouterr().out)["m_value"] == {
            "decimal": "-0.00000000000000", "rational": str(m)}


# Admissible polynomials for the exact walk: the shells (shell:1 is the
# constant 1), and nonnegative coefficient lists with f(1) > 1, so n0 = 1.
WALK_POLYS = st.one_of(
    st.integers(1, 7).map(prime_shell),
    st.lists(st.integers(0, 4), min_size=2, max_size=4)
    .filter(lambda c: c[-1] > 0 and sum(c) > 1)
    .map(make_polynomial),
)


@settings(max_examples=120, deadline=None)
@given(
    poly=WALK_POLYS,
    s=st.sampled_from((1, 2, 3, 40)),
    xs=st.lists(st.integers(1, 25), min_size=1, max_size=5, unique=True).map(sorted),
)
def test_exact_enclosures_hold_the_exact_values(poly, s, xs):
    n0 = residual_module._checked_start(poly, xs, s, "exact")
    for x, zpm in zip(xs, residual_module._zps(poly, xs, s, "exact", n0)):
        z, p, m, _, _ = oracle(poly, x, s)
        walked = max(0, x + 1 - n0)  # factors walked
        for v, exact in zip(zpm, (z, p, m)):
            lo, hi, den = v.bounds
            assert Fraction(lo, den) <= exact <= Fraction(hi, den)
            plain = PrecisionValue.ratio(*v.pair)
            assert v.value.hex() == plain.value.hex()
            assert v.decimal_str(14) == plain.decimal_str(14)
        for v in zpm[:2]:
            lo, hi, _ = v.bounds
            assert 0 <= hi - lo <= walked


class TestLazyTree:
    """Tables and figures read Z, P and M from the walk's enclosures and
    never form the binary-splitting tree; a read exact pair forms it once
    per scan."""

    @pytest.fixture
    def splits(self, monkeypatch):
        calls = []
        split = residual_module._split

        def counted(values, lo, hi, s):
            calls.append((lo, hi))
            return split(values, lo, hi, s)

        monkeypatch.setattr(residual_module, "_split", counted)
        residual_module._zp.cache_clear()  # a cached result may hold its pairs
        monkeypatch.delenv("NONSIEVE_PRECISION", raising=False)
        return calls

    @pytest.mark.parametrize("argv, golden", [
        (("table1",), "readme_table1"),
        (("table2", "--powers", "2,3,5,7", "--limits", "100,200,500,1000"),
         "table2_exact_x1000"),
        (("figure-data", "--powers", "2,3", "--limits", "1,2,7,40,41"),
         "figure_data_exact_csv"),
    ])
    def test_tables_form_no_tree(self, splits, argv, golden):
        out = io.StringIO()
        assert run([*argv, "--exact"], stdout=out) == 0
        assert splits == []
        assert out.getvalue() == (GOLDEN / f"{golden}.txt").read_text(encoding="utf-8")

    def test_one_tree_per_scan(self, splits):
        xs = [3, 10, 11, 40, 90]
        scan = residual_scan(prime_shell(3), xs, 1, "exact")
        assert splits == []
        for res in scan:
            values = (res.zeta_partial, res.product_partial, res.m_value)
            for v, exact in zip(values, oracle(prime_shell(3), res.x, 1)):
                assert Fraction(*v.pair) == exact
        # one tree: each range split once, its leaves covering n0 = 2 .. 90
        leaves = sorted((lo, hi) for lo, hi in splits if hi - lo <= residual_module._LEAF)
        assert len(set(splits)) == len(splits)
        assert [n for lo, hi in leaves for n in range(lo, hi)] == list(range(2, 91))

    def test_an_undecided_enclosure_falls_back_to_the_pair(self, splits):
        # M = -2**-1200: the enclosure straddles 0, so the bound check reads
        # M's sign from the pair before any rational is asked for
        residual(integers(), 2, 600, "exact")
        assert splits != []
        out = io.StringIO()
        argv = ["residual", "--poly", "integers", "--x", "2", "--s", "600", "--exact"]
        assert run(argv, stdout=out) == 0
        z, p, m, _, _ = oracle(integers(), 2, 600)
        assert json.loads(out.getvalue()) == {
            "label": "integers", "x": 2, "s": 600.0, "mode": "exact", "start_index": 2,
            "zeta_partial": {"decimal": "1.00000000000000", "rational": str(z)},
            "product_partial": {"decimal": "1.00000000000000", "rational": str(p)},
            "m_value": {"decimal": "-0.00000000000000", "rational": str(m)},
            "empty_product": False,
        }
