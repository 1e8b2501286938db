import itertools
from fractions import Fraction
from functools import partial
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bghultman.exactmath import (
    ExactnessError,
    Polynomial,
    binomial,
    exact_div,
    harmonic,
    harmonic_numerators,
    harmonic_squares,
    linear_product,
    rising_factorial_poly,
    shifted_falling_factorial_poly,
)


def brute_stirling(n, k):
    """Count permutations of n elements with k cycles, by full enumeration."""
    count = 0
    for images in itertools.permutations(range(n)):
        seen = [False] * n
        c = 0
        for i in range(n):
            if not seen[i]:
                c += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = images[j]
        if c == k:
            count += 1
    return count


def recurrence_stirling(n, k):
    """Independent oracle: the triangle built bottom-up in the test itself."""
    if k < 0 or k > n:
        return 0
    prev = [1]
    for m in range(1, n + 1):
        row = [0] * (m + 1)
        for j in range(1, m + 1):
            row[j] = prev[j - 1] + (m - 1) * (prev[j] if j < m else 0)
        prev = row
    return prev[k]


class TestFactorialPolynomials:
    def test_rising_small(self):
        assert rising_factorial_poly(2).coeffs == (0, 1, 1)
        assert rising_factorial_poly(0).coeffs == (1,)
        assert rising_factorial_poly(4).coefficient(2) == 11

    def test_falling_small(self):
        assert shifted_falling_factorial_poly(0, 3).coeffs == (0, 2, -3, 1)
        assert shifted_falling_factorial_poly(0, 0).coeffs == (1,)
        assert shifted_falling_factorial_poly(2, 2).coeffs == (2, 3, 1)

    def test_rising_coefficients_are_stirling(self):
        for n in range(41):
            poly = rising_factorial_poly(n)
            for k in range(n + 2):
                assert poly.coefficient(k) == recurrence_stirling(n, k)

    def test_falling_coefficients_are_signed_stirling(self):
        for n in range(41):
            poly = shifted_falling_factorial_poly(0, n)
            for k in range(n + 1):
                expected = recurrence_stirling(n, k)
                if (n - k) % 2:
                    expected = -expected
                assert poly.coefficient(k) == expected


class TestStirling:
    # The Stirling numbers [n, k] are the coefficients of rising_factorial_poly(n).
    def test_brute_force_small(self):
        for n in range(7):
            poly = rising_factorial_poly(n)
            for k in range(n + 2):
                assert poly.coefficient(k) == brute_stirling(n, k)

    def test_recurrence_oracle(self):
        assert rising_factorial_poly(4).coefficient(2) == 11 == recurrence_stirling(4, 2)
        assert rising_factorial_poly(5).coefficient(2) == 50 == recurrence_stirling(5, 2)

    def test_diagonal_and_bounds(self):
        for n in range(10):
            assert rising_factorial_poly(n).coefficient(n) == 1
        assert rising_factorial_poly(5).coefficient(-1) == 0
        assert rising_factorial_poly(5).coefficient(6) == 0

    def test_row_sums(self):
        for n in range(21):
            assert sum(rising_factorial_poly(n).coeffs) == factorial(n)

    def test_deep_row_without_recursion(self):
        # A deep row must build without hitting the recursion limit.
        assert rising_factorial_poly(1100).coefficient(1) == factorial(1099)


class TestScalars:
    def test_harmonic(self):
        assert harmonic(3) == Fraction(11, 6)
        assert harmonic(0) == 0
        assert harmonic_squares(2) == Fraction(5, 4)
        assert harmonic_squares(0) == 0

    def test_harmonic_matches_term_sums(self):
        # The per-term Fraction sums are the oracle of the prefix sums.
        h = h2 = Fraction(0)
        for n in range(301):
            if n:
                h += Fraction(1, n)
                h2 += Fraction(1, n * n)
            assert harmonic(n) == h and harmonic_squares(n) == h2, n
        for f in (harmonic, harmonic_squares):
            with pytest.raises(ValueError):
                f(-1)

    def test_binomial(self):
        assert binomial(5, 2) == 10
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_exact_div(self):
        assert exact_div(12, 4) == 3
        with pytest.raises(ExactnessError):
            exact_div(13, 4)


# Polynomial coefficients are ints (the exactmath contract); evaluation
# points may be rational.
coeff = st.integers(min_value=-20, max_value=20)
polys = st.lists(coeff, max_size=6).map(lambda cs: Polynomial(tuple(cs)))
scalars = st.one_of(
    st.integers(min_value=-10, max_value=10),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


class TestPolynomialRing:
    @given(polys, polys, polys)
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(polys, polys)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    @settings(max_examples=50)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys)
    def test_identities(self, a):
        assert a + Polynomial.zero() == a
        assert a * Polynomial.constant(1) == a
        assert a - a == Polynomial.zero()

    @given(polys, scalars)
    def test_evaluate_matches_term_sum(self, a, x):
        assert a.evaluate(x) == sum(c * x**k for k, c in enumerate(a.coeffs))

    @given(polys, polys)
    @settings(max_examples=50)
    def test_derivative_product_rule(self, a, b):
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        assert lhs == rhs

    @given(polys, polys, scalars)
    @settings(max_examples=50)
    def test_evaluation_is_ring_morphism(self, a, b, x):
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)

    def test_normalisation_and_degree(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert Polynomial((0,)).is_zero
        assert Polynomial(()).degree == -1
        assert Polynomial((0, 1)).coefficient(5) == 0
        assert Polynomial((0, 1)).coefficient(-1) == 0

    def test_linear_product_matches_generic_mul(self):
        offsets = [3, -1, 0, 2]
        direct = Polynomial.constant(1)
        for a in offsets:
            direct = direct * Polynomial((a, 1))
        assert linear_product(offsets) == direct

    @given(polys, st.integers(min_value=-10, max_value=10))
    def test_times_linear_matches_generic_mul(self, a, c):
        assert a.times_linear(c) == a * Polynomial((c, 1))

    @given(polys, st.integers(min_value=-10, max_value=10))
    def test_times_then_over_linear_round_trip(self, a, c):
        assert a.times_linear(c).over_linear(c) == a

    def test_over_linear_remainder_raises(self):
        # x^2 + 1 has no real root, so (x + c) never divides it.
        p = Polynomial((1, 0, 1))
        for c in (0, 1, -1, 3):
            with pytest.raises(ExactnessError):
                p.over_linear(c)
        with pytest.raises(ExactnessError):
            linear_product([2, -1]).over_linear(1)
        assert linear_product([2, -1, 5]).over_linear(-1) == linear_product([2, 5])

    @given(polys, st.lists(coeff, max_size=3))
    @settings(max_examples=50)
    def test_divmod_by_monic(self, a, low):
        b = Polynomial((*low, 1))
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        with pytest.raises(ValueError):
            divmod(a, Polynomial((1, 2)))

    def test_exact_div_of_polynomials(self):
        p = linear_product([1, 2, 3])
        assert exact_div(p, Polynomial((2, 1))) == linear_product([1, 3])
        with pytest.raises(ExactnessError):
            exact_div(p, Polynomial((4, 1)))


@pytest.mark.parametrize(
    "build, name",
    [
        (partial(rising_factorial_poly, -1), "n"),
        (partial(shifted_falling_factorial_poly, 0, -1), "length"),
        (partial(harmonic_numerators, -1), "n"),
        (partial(binomial, -1, 0), "n"),
    ],
    ids=[
        "rising_factorial_poly", "shifted_falling_factorial_poly", "harmonic_numerators", "binomial"
    ],
)
def test_negative_length_is_rejected(build, name):
    with pytest.raises(ValueError, match=rf"^{name} must be >= 0, got -1$"):
        build()
