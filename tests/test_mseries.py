from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from test_exact_oracle import SPECS

import nonsieve.mseries
from nonsieve import (
    EXACT,
    FLOAT,
    IntegerPolynomial,
    KahanSum,
    LimitsTooLargeError,
    MSeriesExpansion,
    NonIntegerValuedError,
    NotMonotoneError,
    compare_to_residual,
    enumerate_oracle,
    expansion_oracle,
    integers,
    mseries_literal,
    parse_poly_spec,
    prime_shell,
    residual,
    sigma_chain,
)

# frozen by an exact-rational run of both sides, confirmed by enumeration
SHELL3_X8_DEVIATION = Fraction(111044920832040402, 77089026890140104931)
SHELL3_X8_PARTIAL = Fraction(-19855887858733357, 456148088107337899)


class TestSigmaChain:
    def test_shell3_x3_depth2(self):
        v = sigma_chain(prime_shell(3), 3, 2)
        assert v.rational == Fraction(543, 17689)
        assert (
            v.rational
            == Fraction(1, 49) + Fraction(1, 133) + Fraction(1, 361)
        )

    def test_shell3_x3_depth3(self):
        assert sigma_chain(prime_shell(3), 3, 3).rational == Fraction(1, 931)

    def test_depth_exceeds_support(self):
        v = sigma_chain(integers(), 2, 3)
        assert v.rational == 0

    @pytest.mark.parametrize("x", [2, 10, 50, 100, 200])
    @pytest.mark.parametrize("make", [integers, lambda: prime_shell(3)])
    def test_depth2_closed_form(self, x, make):
        # sum over i <= j of a_i a_j equals (T**2 + Q) / 2 with the diagonal
        poly = make()
        t = sum((Fraction(1, poly(n)) for n in range(2, x + 1)), Fraction(0))
        q = sum((Fraction(1, poly(n)) ** 2 for n in range(2, x + 1)), Fraction(0))
        assert sigma_chain(poly, x, 2).rational == (t * t + q) / 2

    @pytest.mark.parametrize("make", [integers, lambda: prime_shell(2), lambda: prime_shell(3)])
    def test_dp_equals_enumeration(self, make):
        poly = make()
        for x in range(2, 11):
            oracle = enumerate_oracle(poly, x, min(6, x))
            for term in oracle.terms:
                assert (
                    sigma_chain(poly, x, term.depth).rational
                    == term.magnitude.rational
                ), (x, term.depth)

    def test_float_mode_close_to_exact(self):
        exact = sigma_chain(prime_shell(3), 50, 4, "exact").value
        approx = sigma_chain(prime_shell(3), 50, 4, "float").value
        assert abs(exact - approx) < 1e-15


class TestMSeriesLiteral:
    def test_shell3_x3_partial_sum(self):
        e = mseries_literal(prime_shell(3), 3, 3)
        assert e.partial_sum.rational == Fraction(-524, 17689)

    def test_shell3_x3_deviation(self):
        # the gap is the i < j = k tuple 1/(7 * 19**2) the ranges exclude
        e = mseries_literal(prime_shell(3), 3, 3)
        assert e.deviation.rational == Fraction(7, 17689)
        assert e.deviation.rational == Fraction(1, 7 * 19**2)

    def test_integers_x2_matches_residual(self):
        e = mseries_literal(integers(), 2, 10)
        assert e.partial_sum.rational == Fraction(-1, 4)
        assert e.deviation.rational == 0

    def test_sign_alternation_and_zero_tail(self):
        e = mseries_literal(prime_shell(3), 5, 9)
        for term in e.terms:
            assert term.sign == (-1) ** (term.depth - 1)
            if term.depth <= 5:
                assert term.magnitude.rational > 0
            else:
                assert term.magnitude.rational == 0

    def test_full_depth_default(self):
        e = mseries_literal(prime_shell(3), 6)
        assert e.max_depth == 6
        assert all(t.magnitude.rational > 0 for t in e.terms)

    def test_float_mode_tracks_exact(self):
        exact = mseries_literal(prime_shell(3), 20, mode="exact")
        approx = mseries_literal(prime_shell(3), 20, mode="float")
        assert abs(exact.partial_sum.value - approx.partial_sum.value) < 1e-15


class TestEnumerateOracle:
    def test_matches_literal_bit_for_bit(self):
        for poly, x in ((prime_shell(3), 3), (integers(), 4)):
            a = enumerate_oracle(poly, x)
            b = mseries_literal(poly, x)
            assert a.partial_sum.rational == b.partial_sum.rational
            assert [t.magnitude.rational for t in a.terms] == [
                t.magnitude.rational for t in b.terms
            ]

    def test_single_tuple_case(self):
        e = enumerate_oracle(integers(), 2, 2)
        assert e.terms[0].magnitude.rational == Fraction(1, 4)

    def test_limits_enforced(self):
        with pytest.raises(LimitsTooLargeError):
            enumerate_oracle(integers(), 13)
        with pytest.raises(LimitsTooLargeError):
            enumerate_oracle(integers(), 10, 9)


class TestExpansionOracle:
    def test_shell3_x3(self):
        assert expansion_oracle(prime_shell(3), 3).rational == Fraction(-517, 17689)

    def test_integers_small(self):
        assert expansion_oracle(integers(), 2).rational == Fraction(-1, 4)
        assert expansion_oracle(integers(), 4).rational == Fraction(-23, 48)

    @pytest.mark.parametrize("x", range(2, 17))
    def test_equals_residual_integers(self, x):
        assert (
            expansion_oracle(integers(), x).rational
            == residual(integers(), x).m_value.rational
        )

    @pytest.mark.parametrize("x", [2, 3, 5, 8, 12, 16])
    def test_equals_residual_shell3(self, x):
        assert (
            expansion_oracle(prime_shell(3), x).rational
            == residual(prime_shell(3), x).m_value.rational
        )

    def test_limits_enforced(self):
        with pytest.raises(LimitsTooLargeError):
            expansion_oracle(integers(), 17)


class TestCompareToResidual:
    def test_shell3_x3_systematic_gap(self):
        report = compare_to_residual(prime_shell(3), 3)
        assert report.verdict == "SYSTEMATIC_GAP"
        assert report.deviation.rational == Fraction(7, 17689)

    def test_integers_x2_match(self):
        report = compare_to_residual(integers(), 2)
        assert report.verdict == "MATCH"
        assert report.deviation.rational == 0

    def test_shell3_x8_frozen_constant(self):
        report = compare_to_residual(prime_shell(3), 8)
        assert report.deviation.rational == SHELL3_X8_DEVIATION
        assert report.partial_sum.rational == SHELL3_X8_PARTIAL

    def test_gap_is_one_sided(self):
        # across tested cases the residual sits above the literal series
        for poly, xs in ((integers(), range(2, 11)), (prime_shell(3), range(2, 11))):
            for x in xs:
                report = compare_to_residual(poly, x)
                assert report.deviation.rational >= 0, (poly.label, x)

    def test_json_round_trip(self):
        d = compare_to_residual(prime_shell(3), 3).to_dict()
        assert d["verdict"] == "SYSTEMATIC_GAP"
        assert d["deviation"] == "1/2527"

    def test_gap_is_negative_when_f1_exceeds_one(self):
        # the ranges start at index 2, so 1/f(1) = 1/2 is missing
        report = compare_to_residual(parse_poly_spec("1,1"), 3)
        assert report.deviation.rational == Fraction(-1, 4)
        assert report.to_dict()["deviation"] == "-1/4"

    @pytest.mark.parametrize("x", [2, 3, 8, 20])
    @pytest.mark.parametrize("spec", ["integers", "shell:2", "shell:3", "shell:5"])
    def test_gap_closed_form_when_f1_is_one(self, spec, x):
        # M - L = S (1 + P) + 2 P - 2 + sum_j a_j**2 T_j, T_j = prod_{k>j} (1 - a_k)
        poly = parse_poly_spec(spec)
        a = [Fraction(1, poly(n)) for n in range(2, x + 1)]
        tails = [Fraction(1)]
        for v in reversed(a):
            tails.append(tails[-1] * (1 - v))
        tails = tails[::-1]  # tails[i] is the product over a[i:]
        s, p = sum(a), tails[0]
        gap = s * (1 + p) + 2 * p - 2 + sum(v * v * tails[i + 1] for i, v in enumerate(a))
        assert compare_to_residual(poly, x).deviation.rational == gap


def outcome(fn, *args):
    """fn(*args), or the type and text of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


# nonnegative coefficients, degree 0-4: constants (the residual rejects all
# but 1), f(1) = 1 such as n**2, and f(1) > 1 such as n + 1
coefficient_specs = st.builds(
    lambda low, lead: ",".join(map(str, low + [lead])),
    st.lists(st.integers(0, 3), max_size=4),
    st.integers(1, 3),
)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.one_of(
        st.sampled_from(["integers", "shell:2", "shell:3", "shell:5", "1"]),
        coefficient_specs,
    ),
    x=st.integers(2, 40),
)
def test_full_depth_closed_form_equals_the_dp(spec, x):
    poly = parse_poly_spec(spec)
    dp = outcome(mseries_literal, poly, x, None, EXACT)
    for depth in (None, x, x + 3):
        report = outcome(compare_to_residual, poly, x, depth)
        if not isinstance(dp, MSeriesExpansion):  # (type, message) of its error
            assert report == dp
            continue
        assert report.max_depth == (x if depth is None else depth)
        assert report.partial_sum.rational == dp.partial_sum.rational
        assert report.residual.rational == dp.residual_reference.rational
        assert report.deviation.rational == dp.deviation.rational
        assert report.verdict == (
            "MATCH" if abs(dp.deviation.value) <= 1e-12 else "SYSTEMATIC_GAP"
        )
        assert report.cutoff_depth is None
    if x <= 12 and isinstance(dp, MSeriesExpansion):
        with mock.patch.object(nonsieve.mseries, "_ENUM_MAX_DEPTH", 12):
            oracle = enumerate_oracle(poly, x)
        assert compare_to_residual(poly, x).partial_sum.rational == oracle.partial_sum.rational


class TestFullDepthPath:
    def test_exact_full_depth_does_not_run_the_dp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sigma_chain called")

        monkeypatch.setattr(nonsieve.mseries, "sigma_chain", refuse)
        for depth in (None, 300, 301):
            report = compare_to_residual(prime_shell(3), 300, depth)
            assert report.max_depth == (300 if depth is None else depth)
            assert report.verdict == "SYSTEMATIC_GAP"

    @pytest.mark.parametrize("depth, mode", [(None, FLOAT), (20, FLOAT), (6, EXACT)])
    def test_float_and_truncated_compare_run_the_dp(self, monkeypatch, depth, mode):
        # Each _suffix_dp sweep starts at E_0 and takes first - 1 DP steps to
        # its first magnitude, then one step per further magnitude.
        depths = len(float_series_reference(prime_shell(3), 8, depth or 8)[0])
        sweeps, steps = [], []
        real = nonsieve.mseries._suffix_dp

        def counted(poly, x, dp_mode, first=2):
            sweeps.append(first)
            for i, mag in enumerate(real(poly, x, dp_mode, first)):
                steps.append(first - 1 if i == 0 else 1)
                yield mag

        monkeypatch.setattr(nonsieve.mseries, "_suffix_dp", counted)
        compare_to_residual(prime_shell(3), 8, depth, mode)
        if mode == FLOAT:  # one sweep, one step per depth that mseries prints
            assert sweeps == [2] and len(steps) == sum(steps) == depths
        else:  # one sigma_chain per depth, each from E_0
            assert sweeps == [2, 3, 4, 5, 6] and sum(steps) == 1 + 2 + 3 + 4 + 5

    @pytest.mark.parametrize(
        "poly, x, depth, error, text",
        [
            (integers(), 1, None, ValueError, "need x >= 2, got 1"),
            (integers(), 1, 5, ValueError, "need x >= 2, got 1"),
            (integers(), 1, 1, ValueError, "need x >= 2, got 1"),
            (parse_poly_spec("3"), 5, None, NotMonotoneError, "3 is not increasing at n=1"),
            (parse_poly_spec("5,-6,2"), 5, None, NotMonotoneError,
             "5,-6,2 is not increasing at n=1"),
            # f(3) < 1 is found reading 1/f(n), before the residual's monotone check
            (IntegerPolynomial((5, -2), "5,-2"), 4, None, NonIntegerValuedError,
             "5,-2: f(3) = -1 < 1"),
            (IntegerPolynomial((5, -2), "5,-2"), 4, 9, NonIntegerValuedError,
             "5,-2: f(3) = -1 < 1"),
            (integers(), 5, 1, ValueError, "need max_depth >= 2, got 1"),
        ],
    )
    def test_errors_match_the_dp(self, poly, x, depth, error, text):
        assert outcome(mseries_literal, poly, x, depth) == (error, text)
        assert outcome(compare_to_residual, poly, x, depth) == (error, text)


def float_series_reference(poly, x, max_depth):
    """The float series as documented: sigma_chain per depth, signed terms
    summed by KahanSum, stopping after two consecutive magnitudes below
    1e-16 of the plain running sum.  Returns (depth, magnitude) pairs and
    the accumulator."""
    terms, acc, running, streak = [], KahanSum(), 0.0, 0
    for d in range(2, max_depth + 1):
        mag = sigma_chain(poly, x, d, FLOAT).value
        terms.append((d, mag))
        acc.add((-1) ** (d - 1) * mag)
        running += (-1) ** (d - 1) * mag
        streak = streak + 1 if abs(mag) < 1e-16 * abs(running) else 0
        if streak >= 2:
            break
    return terms, acc


def hexes(*values):
    return [v.hex() for v in values]


# n^2 - 3n + 3 is left out: it repeats the unit value, so the residual rejects it.
# The examples are the series benchmark's float commands at seed 0, and a
# depth above x, where the sweep runs on through exact zeros to its stop.
@settings(max_examples=60, deadline=None)
@example(spec="shell:2", x=1004, depth=None)
@example(spec="shell:3", x=2993, depth=None)
@example(spec="shell:3", x=8, depth=20)
@given(
    spec=st.sampled_from([s for s in SPECS if s != "3,-3,1"]),
    x=st.integers(2, 60),
    depth=st.one_of(st.none(), st.integers(2, 70)),
)
def test_float_series_matches_a_kahan_reference(spec, x, depth):
    poly = parse_poly_spec(spec)
    terms, acc = float_series_reference(poly, x, x if depth is None else depth)
    ref = residual(poly, x, 1, FLOAT).m_value.value
    deviation = ref - acc.value

    e = mseries_literal(poly, x, depth, FLOAT)
    assert [(t.depth, t.sign) for t in e.terms] == [(d, (-1) ** (d - 1)) for d, _ in terms]
    assert hexes(*(t.magnitude.value for t in e.terms)) == hexes(*(m for _, m in terms))
    assert hexes(e.partial_sum.approx, e.partial_sum.comp) == hexes(*acc.as_pair())
    assert hexes(e.residual_reference.value, e.deviation.value) == hexes(ref, deviation)

    report = compare_to_residual(poly, x, depth, FLOAT)
    assert hexes(report.partial_sum.approx, report.partial_sum.comp) == hexes(*acc.as_pair())
    assert hexes(report.residual.value, report.deviation.value) == hexes(ref, deviation)
    assert report.cutoff_depth == next((d for d, m in terms if abs(m) < 1e-16), None)
    assert report.verdict == ("MATCH" if abs(deviation) <= 1e-12 else "SYSTEMATIC_GAP")
    if x <= 12:  # the float DP tracks the exact one
        for d, mag in terms[:4]:
            exact = sigma_chain(poly, x, d).rational
            assert mag == pytest.approx(float(exact), rel=1e-13, abs=0)
