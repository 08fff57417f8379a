import pytest

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
                                      make_polynomial([3, -3, 1])])
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
        with pytest.raises(ValueError):
            next(integers().values(0, 3))
