from itertools import count, islice

import pytest
from hypothesis import example, given, settings, strategies as st

from nonsieve import polynomial as polynomial_module
from nonsieve import (
    IntegerPolynomial,
    NonIntegerValuedError,
    NonsieveError,
    NotMonotoneError,
    integers,
    make_polynomial,
    parse_poly_spec,
    prime_shell,
    validate_monotone,
)


class TestMakePolynomial:
    def test_shell3_coefficients(self):
        poly = make_polynomial([1, -3, 3], "3n^2-3n+1")
        assert poly.degree == 2
        assert poly(2) == 7

    def test_constant_one_is_legal_here(self):
        poly = make_polynomial([1])
        assert poly(57) == 1

    def test_identity(self):
        poly = make_polynomial([0, 1])
        assert [poly(n) for n in (1, 2, 3)] == [1, 2, 3]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(NonsieveError):
            make_polynomial([0, 0])
        with pytest.raises(NonsieveError):
            make_polynomial([])

    def test_negative_values_rejected(self):
        with pytest.raises(NonIntegerValuedError):
            make_polynomial([100, -1])  # 100 - n dips below 1 at n = 100

    def test_trailing_zero_coefficients_stripped(self):
        poly = make_polynomial([1, 2, 0, 0])
        assert poly.degree == 1


class TestPrimeShell:
    def test_p3(self):
        assert prime_shell(3).coefficients == (1, -3, 3)

    def test_p2(self):
        assert prime_shell(2).coefficients == (-1, 2)

    def test_p1_is_constant_one(self):
        assert prime_shell(1).coefficients == (1,)

    @pytest.mark.parametrize("p", range(1, 12))
    def test_matches_direct_big_integer_form(self, p):
        poly = prime_shell(p)
        for n in range(1, 501):
            assert poly(n) == n**p - (n - 1) ** p

    @pytest.mark.parametrize("p", range(1, 12))
    def test_value_one_at_n1(self, p):
        assert prime_shell(p)(1) == 1

    def test_bad_power(self):
        with pytest.raises(ValueError):
            prime_shell(0)


class TestEvaluate:
    def test_eq4_values(self):
        poly = prime_shell(3)
        assert poly(2) == 7
        assert poly(10) == 271

    def test_large_shell_value_exact(self):
        # frozen regression constant: 200**7 - 199**7
        assert prime_shell(7)(200) == 441335720838601

    def test_domain_error(self):
        with pytest.raises(ValueError):
            prime_shell(3)(0)


class TestValidateMonotone:
    def test_shell3_increasing(self):
        validate_monotone(prime_shell(3), 100)

    def test_identity_increasing(self):
        validate_monotone(integers(), 200)

    def test_decreasing_reports_first_violation(self):
        poly = prime_shell(3)
        bad = poly.__class__((100, -1), "100-n")  # bypass construction check
        with pytest.raises(NotMonotoneError, match=r"^100-n is not increasing at n=1$"):
            validate_monotone(bad, 50)

    def test_shell_tie_at_one_allowed(self):
        # f(1) = 1 < f(2) for every shell with p >= 2
        validate_monotone(prime_shell(2), 10)

    def test_proof_exit_reads_only_a_few_values(self):
        class Bounded(IntegerPolynomial):
            def _pieces(self, lo, hi):
                read = count()

                def counted(piece):
                    for v in piece:
                        if next(read) == 50:
                            raise AssertionError("read 50 values")
                        yield v

                # Horner values stay 1-tuples; the table's stream is counted
                # as it is read.
                for piece in super()._pieces(lo, hi):
                    yield tuple(counted(piece)) if isinstance(piece, tuple) else counted(piece)

        shell = prime_shell(3)
        validate_monotone(Bounded(shell.coefficients, shell.label), 10**9)


def full_walk(poly, x):
    """The monotone check as a walk over every n <= x: each f(n) is formed
    (raising below 1) before it is compared with f(n - 1)."""
    prev = None
    for n in range(1, x + 1):
        cur = poly(n)
        if prev is not None and cur <= prev:
            raise NotMonotoneError(f"{poly.label} is not increasing at n={n - 1}")
        prev = cur


def outcome(check, poly, x):
    try:
        check(poly, x)
    except (NotMonotoneError, NonIntegerValuedError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(
    coeffs=st.lists(st.integers(-40, 40), min_size=1, max_size=6),
    shift=st.integers(0, 10**5),
    x=st.integers(2, 300),
)
@example(coeffs=[1, 0, 30, -1], shift=0, x=300)  # -n^3 + 30n^2 + 1 falls after n = 20
@example(coeffs=[0, 0, -3, 1], shift=5, x=300)  # n^3 - 3n^2 + 5 dips at n = 1
@example(coeffs=[0, -400, -1, 0, 1], shift=10**5, x=300)  # n^4 falls until n = 5
@example(coeffs=[0, 60, -12, 1], shift=0, x=300)  # rises, Delta^2 < 0 until n = 3
@example(coeffs=[1, 299, -30, 1], shift=0, x=300)  # rises, then f(10) = f(9)
@example(coeffs=[3], shift=0, x=2)  # a constant: its table starts after f(1)
def test_proof_exit_agrees_with_a_full_walk(coeffs, shift, x):
    coeffs = [coeffs[0] + shift, *coeffs[1:]]
    poly = IntegerPolynomial(tuple(coeffs), ",".join(map(str, coeffs)))
    assert outcome(validate_monotone, poly, x) == outcome(full_walk, poly, x)


class TestParsePolySpec:
    def test_integers(self):
        assert parse_poly_spec("integers").label == "integers"

    def test_shell_shorthand(self):
        assert parse_poly_spec("shell:3").coefficients == (1, -3, 3)

    def test_coefficient_list(self):
        assert parse_poly_spec("1,-3,3").coefficients == (1, -3, 3)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_poly_spec("shell:x")
        with pytest.raises(ValueError):
            parse_poly_spec("1;2;3")


class TestValues:
    @pytest.mark.parametrize("poly", [integers(), prime_shell(1), prime_shell(3),
                                      make_polynomial([3, -3, 1]), make_polynomial([2, 0, 0, 0, 1])])
    def test_equals_calls(self, poly):
        for lo, hi in ((1, 1), (1, 50), (7, 40), (5, 4)):
            assert list(poly.values(lo, hi)) == list(map(poly, range(lo, hi + 1)))

    def test_value_below_one_raises_as_the_call_does(self):
        poly = IntegerPolynomial((7, -6, 1), "n^2-6n+7")  # f(1) = 2, f(2) = -1
        values = poly.values(1, 5)
        assert next(values) == 2
        with pytest.raises(NonIntegerValuedError) as from_values:
            next(values)
        with pytest.raises(NonIntegerValuedError) as from_call:
            poly(2)
        assert str(from_values.value) == str(from_call.value) == "n^2-6n+7: f(2) = -1 < 1"

    def test_domain_starts_at_one(self):
        values = integers().values(0, 5)  # raises nothing yet
        with pytest.raises(ValueError, match="n >= 1, got 0"):
            next(values)

    def test_negative_leading_coefficient_raises_where_the_call_does(self):
        # it never switches to the table: f(30) = 1, f(31) = -30
        poly = IntegerPolynomial((1, 30, -1), "1+30n-n^2")
        values = poly.values(1, 40)
        assert list(islice(values, 30)) == [poly(n) for n in range(1, 31)]
        with pytest.raises(NonIntegerValuedError, match=r"^1\+30n-n\^2: f\(31\) = -30 < 1$"):
            next(values)


def prefix(values, take):
    """The first `take` items of an iterator, then the type and text of the
    error that ended it, if one did."""
    out = []
    try:
        out.extend(islice(values, take))
    except NonIntegerValuedError as exc:
        out.append((type(exc), str(exc)))
    return out


@settings(max_examples=400, deadline=None)
@given(
    coeffs=st.lists(st.integers(-40, 40), min_size=1, max_size=6).filter(lambda c: c[-1] != 0),
    shift=st.integers(0, 10**4),
    lo=st.integers(1, 40),
    span=st.integers(-2, 120),
    take=st.integers(0, 130),
)
@example(coeffs=[99, -20, 1], shift=0, lo=1, span=20, take=130)  # f(1) = 80, f(9) = 0
@example(coeffs=[99, -20, 1], shift=0, lo=2, span=20, take=5)  # stops before f(9)
@example(coeffs=[1, 0, 30, -1], shift=0, lo=1, span=60, take=130)  # negative lead: falls after n = 20
@example(coeffs=[3, -3, 1], shift=0, lo=1, span=30, take=130)  # f(1) = f(2) = 1: Delta^1 = 0
@example(coeffs=[1, -3, 3], shift=0, lo=9, span=40, take=130)  # shell:3 from lo > d + 1
@example(coeffs=[5], shift=0, lo=3, span=-1, take=130)  # lo > hi
def test_values_equal_calls(coeffs, shift, lo, span, take):
    """values(lo, hi) against one call per n, up to and including the first
    value below 1, also when only a prefix is read."""
    coeffs = [coeffs[0] + shift, *coeffs[1:]]
    poly = IntegerPolynomial(tuple(coeffs), ",".join(map(str, coeffs)))
    hi = lo + span
    assert prefix(poly.values(lo, hi), take) == prefix(map(poly, range(lo, hi + 1)), take)


def test_values_stream_far_past_the_proof():
    poly = prime_shell(7)
    assert list(islice(poly.values(1, 10**12), 10**5)) == [poly(n) for n in range(1, 10**5 + 1)]


@pytest.mark.parametrize("coeffs, lo, edge", [
    ((3, -3, 1), 1, [1, 0, 2]),  # f(1..3) = 1, 1, 3: a zero difference proves
    ((1, -3, 3), 1, [1, 6, 6]),  # shell:3
    ((1, -3, 3), 5, [61, 30, 6]),
    ((5,), 4, [5]),  # a constant proves at its first value
    ((30, -10, 1), 1, [5, 1, 2]),  # falls to f(5) = 5, proves at m = 5
])
def test_values_stream_from_the_first_window_that_proves(monkeypatch, coeffs, lo, edge):
    edges = []
    stream = polynomial_module._difference_stream
    monkeypatch.setattr(polynomial_module, "_difference_stream", lambda e: edges.append(e) or stream(e))
    poly = IntegerPolynomial(coeffs, "p")
    assert list(poly.values(lo, 60)) == [poly(n) for n in range(lo, 61)]
    assert edges == [edge]
