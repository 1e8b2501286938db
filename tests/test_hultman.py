from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bghultman import census, golden, hultman
from bghultman.exactmath import (
    ExactnessError,
    Polynomial,
    binomial,
    exact_div,
    harmonic,
    harmonic_squares,
    linear_product,
)
from bghultman.hultman import (
    HookPartition,
    MomentPair,
    c_lambda,
    f_lambda_deriv_at_zero,
    f_lambda_poly,
    hook_partitions,
    hultman_bona_flynn,
    hultman_new_formula,
    new_formula_row,
    r_abs_sum,
    r_coefficient,
    r_sum,
    signed_gf,
    signed_hultman,
    signed_hultman_special,
    signed_mean,
    signed_moments,
    signed_variance,
    sury_identity_check,
    unsigned_gf,
    unsigned_mean,
    unsigned_moments,
)


class TestUnsignedFormulas:
    def test_examples(self):
        assert hultman_bona_flynn(2, 1) == 1
        assert hultman_bona_flynn(3, 2) == 5
        assert hultman_bona_flynn(4, 2) == 0
        assert hultman_new_formula(2, 3) == 1
        assert hultman_new_formula(3, 2) == 5
        assert hultman_new_formula(0, 1) == 1

    def test_out_of_range_k(self):
        assert hultman_bona_flynn(3, 0) == 0
        assert hultman_bona_flynn(3, 5) == 0
        with pytest.raises(ValueError):
            hultman_new_formula(3, 0)

    def test_k_is_checked_before_the_row_is_built(self, monkeypatch):
        def build(n):
            raise AssertionError("new_formula_row called")

        monkeypatch.setattr(hultman, "new_formula_row", build)
        with pytest.raises(ValueError, match=r"^k=0 outside 1\.\.11$"):
            hultman_new_formula(10, 0)

    def test_parity_zeros(self):
        for n in range(0, 12):
            for k in range(1, n + 2):
                if (n - k) % 2 == 0:
                    assert hultman_bona_flynn(n, k) == 0
                    assert hultman_new_formula(n, k) == 0

    def test_agreement(self):
        for n in range(0, 26):
            for k in range(1, n + 2):
                assert hultman_new_formula(n, k) == hultman_bona_flynn(n, k)

    def test_new_formula_row_equals_unsigned_rows(self):
        for n, row in enumerate(hultman.unsigned_rows(40)):
            assert new_formula_row(n) == row

    def test_decimal_rows_print_as_unsigned_rows(self):
        # `table` prints the Decimal stream; the int stream is its reference,
        # digit for digit, zeros and the x^(n+2) place included.
        decimal_rows = hultman.unsigned_decimal_rows(400)
        for n, (row, ref) in enumerate(zip(decimal_rows, hultman.unsigned_rows(400))):
            assert list(map(str, row)) == list(map(str, (*ref.coeffs, 0))), n
        assert next(decimal_rows, None) is None

    @pytest.mark.parametrize("name", ["unsigned_rows", "unsigned_decimal_rows"])
    def test_off_by_one_divisor_is_inexact(self, monkeypatch, name):
        monkeypatch.setattr(hultman, "binomial", lambda n, k: binomial(n, k) + 1)
        with pytest.raises(ExactnessError):
            list(getattr(hultman, name)(5))

    def test_row_totals(self):
        for n in range(0, 26):
            assert sum(hultman_bona_flynn(n, k) for k in range(1, n + 2)) == factorial(n)

    def test_census_oracle(self):
        for n in range(0, 7):
            table = census.hultman_census(n)
            for k in range(1, n + 2):
                assert hultman_bona_flynn(n, k) == table.count(k)


class TestHookPartitions:
    def test_iteration_order_and_shapes(self):
        for n in range(0, 9):
            shapes = list(hook_partitions(n))
            assert shapes[-1] == HookPartition(n + 1, 0, n)
            assert len(shapes) == len(set(shapes))
            bs = [lam.b for lam in shapes[:-1]]
            assert bs == sorted(bs)
            for lam in shapes[:-1]:
                # parts (a, b, 1^(n-a-b+1)) add up to n+1
                assert lam.a + lam.b + (n - lam.a - lam.b + 1) == n + 1

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            HookPartition(1, 2, 3)
        with pytest.raises(ValueError):
            HookPartition(4, 0, 4)
        with pytest.raises(ValueError):
            HookPartition(3, 3, 3)


class TestHookPolynomials:
    def test_f_lambda_examples(self):
        assert f_lambda_poly(HookPartition(2, 0, 1)) == Polynomial((0, 2, 1))
        assert f_lambda_poly(HookPartition(1, 1, 1)) == Polynomial((0, -1, 1))

    def test_single_row_product_form(self):
        for n in range(0, 9):
            expected = Polynomial((0, 1))
            for k in range(1, n + 1):
                expected = expected * Polynomial((2 * k, 1))
            assert f_lambda_poly(HookPartition(n + 1, 0, n)) == expected

    def test_deriv_at_zero_matches_polynomial(self):
        for n in range(0, 9):
            for lam in hook_partitions(n):
                assert f_lambda_poly(lam).coefficient(1) == f_lambda_deriv_at_zero(lam)

    def test_walk_matches_products(self):
        for n in range(0, 31):
            shapes = list(hook_partitions(n))
            assert list(hultman._hook_polys(shapes)) == [f_lambda_poly(lam) for lam in shapes]

    def test_c_lambda_examples(self):
        assert c_lambda(HookPartition(1, 1, 1)) == Fraction(-1, 3)
        assert c_lambda(HookPartition(2, 0, 1)) == Fraction(1, 3)
        for n in range(0, 21):
            assert c_lambda(HookPartition(n + 1, 0, n)) > 0


class TestSignedFormula:
    def test_examples(self):
        assert signed_hultman(5, 1) == 1348
        assert signed_hultman(8, 3) == 2325740
        assert signed_hultman(1, 2) == 1

    def test_out_of_range_k(self):
        assert signed_hultman(3, 0) == 0
        assert signed_hultman(3, 5) == 0

    def test_census_oracle(self):
        for n in range(0, 6):
            table = census.signed_hultman_census(n)
            for k in range(1, n + 2):
                assert signed_hultman(n, k) == table.count(k)

    def test_row_totals(self):
        for n in range(0, 26):
            assert sum(signed_hultman(n, k) for k in range(1, n + 2)) == 2**n * factorial(n)

    def test_special_cases(self):
        assert signed_hultman_special(4, 5) == 1
        assert signed_hultman_special(4, 4) == 10 == binomial(5, 2)
        assert signed_hultman_special(4, 3) == 65
        for n in range(1, 31):
            assert signed_hultman(n, n + 1) == signed_hultman_special(n, n + 1) == 1
            assert signed_hultman(n, n) == signed_hultman_special(n, n)
            if n >= 2:
                assert signed_hultman(n, n - 1) == signed_hultman_special(n, n - 1)

    def test_special_case_domain(self):
        with pytest.raises(ValueError):
            signed_hultman_special(4, 2)
        with pytest.raises(ValueError):
            signed_hultman_special(0, -1)
        with pytest.raises(ValueError):
            signed_hultman_special(-1, 0)


class TestGeneratingFunctions:
    def test_unsigned_examples(self):
        assert unsigned_gf(1) == Polynomial((0, 0, 1))
        assert unsigned_gf(2) == Polynomial((0, 1, 0, 1))

    def test_signed_examples(self):
        assert signed_gf(1) == Polynomial((0, 1, 1))
        assert signed_gf(3) == Polynomial((0, 20, 21, 6, 1))

    def test_mass_at_one(self):
        for n in range(0, 13):
            assert unsigned_gf(n).evaluate(1) == factorial(n)
        for n in range(0, 11):
            assert signed_gf(n).evaluate(1) == 2**n * factorial(n)

    def test_coefficients_match_closed_forms(self):
        # For k outside 1..n+1 both routes give zero.
        for n in range(0, 16):
            F, G = unsigned_gf(n), signed_gf(n)
            for k in range(0, n + 3):
                assert F.coefficient(k) == hultman_bona_flynn(n, k)
                assert G.coefficient(k) == signed_hultman(n, k)
        # The unsigned stream against rising minus falling factorial.
        for n, row in enumerate(hultman.unsigned_rows(150)):
            assert row == unsigned_gf(n)

    def test_integer_sum_matches_fraction_sum(self):
        # The route signed_gf replaced: add c * F'(0) * F(x) term by term,
        # one Fraction coefficient at a time.
        for n in range(0, 31):
            old = [Fraction(0)] * (n + 2)
            for lam in hook_partitions(n):
                weight = c_lambda(lam) * f_lambda_deriv_at_zero(lam)
                for k, c in enumerate(f_lambda_poly(lam).coeffs):
                    old[k] += weight * c
            new = signed_gf(n)
            assert [new.coefficient(k) for k in range(n + 2)] == old
            assert all(type(c) is int for c in new.coeffs)

    def test_walk_matches_replaced_products(self):
        # The route the hook walk replaced: one full linear_product per
        # shape, summed over the common denominator.
        for n in [*range(0, 31), 60]:
            shapes = list(hook_partitions(n))
            weights = [c_lambda(lam) * f_lambda_deriv_at_zero(lam) for lam in shapes]
            den = lcm(*(w.denominator for w in weights))
            total = Polynomial.zero()
            for lam, w in zip(shapes, weights):
                a, b = lam.a, lam.b
                offsets = [2 * j for j in range(b, a)]
                offsets += [2 * b - 2 - t for t in range(n + 1 - a + b)]
                total = total + linear_product(offsets) * (w.numerator * (den // w.denominator))
            assert signed_gf(n) == Polynomial(tuple(exact_div(c, den) for c in total.coeffs))

    def test_full_products_only_at_row_starts(self, monkeypatch):
        calls = []
        product = hultman.linear_product

        def counting_product(offsets):
            calls.append(offsets)
            return product(offsets)

        monkeypatch.setattr(hultman, "linear_product", counting_product)
        for n in (0, 1, 2, 7, 20, 80):
            calls.clear()
            hultman.signed_gf(n)
            assert len(calls) <= (n + 1) // 2 + 1

    def test_perturbed_weight_is_inexact(self, monkeypatch):
        original = hultman.c_lambda

        def perturbed(lam):
            weight = original(lam)
            return weight * Fraction(3, 2) if lam.b == 0 else weight

        monkeypatch.setattr(hultman, "c_lambda", perturbed)
        for n in (3, 5, 8):
            with pytest.raises(ExactnessError):
                signed_gf(n)

    def test_unsigned_derivatives_closed_forms(self):
        # First and second derivative of the unsigned generating function at 1,
        # against their harmonic-number expressions.
        for n in range(0, 16):
            F = unsigned_gf(n)
            den = 2 * binomial(n + 2, 2)
            sign = -1 if (n - 1) % 2 else 1
            d1_expected = Fraction(
                factorial(n + 2) * harmonic(n + 2) + sign * factorial(n), den
            )
            assert Fraction(F.derivative().evaluate(1)) == d1_expected
            sign2 = 1 if n % 2 == 0 else -1
            d2_expected = (
                factorial(n + 2) * (harmonic(n + 2) ** 2 - harmonic_squares(n + 2))
                + 2 * sign2 * factorial(n) * (harmonic(n) - 1)
            ) / den
            assert Fraction(F.derivative().derivative().evaluate(1)) == d2_expected


class TestSignedRecurrence:
    def test_rows_equal_hook_sum(self):
        for n, row in enumerate(hultman.signed_rows(120)):
            if n <= 40 or n % 20 == 0:
                assert row == signed_gf(n)

    @pytest.mark.parametrize(
        "row, index",
        [(r, j) for r, seed in enumerate(hultman._SIGNED_SEEDS) for j in range(len(seed))],
    )
    def test_perturbed_seed_is_inexact(self, monkeypatch, row, index):
        seeds = [list(seed) for seed in hultman._SIGNED_SEEDS]
        seeds[row][index] += 1
        monkeypatch.setattr(hultman, "_SIGNED_SEEDS", tuple(map(tuple, seeds)))
        with pytest.raises(ExactnessError):
            for _ in hultman.signed_rows(30):
                pass

    def test_table_never_sums_hooks(self, monkeypatch, capsys):
        from bghultman.cli import main

        def refuse(n):
            raise AssertionError("signed_gf called")

        monkeypatch.setattr(hultman, "signed_gf", refuse)
        assert main(["table", "--signed", "--n", "11"]) == 0
        rows = [tuple(map(int, line.split(","))) for line in capsys.readouterr().out.split()[1:]]
        assert len(rows) == 78
        assert all(count == golden.golden_value(n, k) for n, k, count in rows if n)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            signed_hultman(-1, 1)


def gf_moments(poly):
    total = Fraction(poly.evaluate(1))
    d1 = Fraction(poly.derivative().evaluate(1))
    d2 = Fraction(poly.derivative().derivative().evaluate(1))
    mean = d1 / total
    return MomentPair(mean, mean + d2 / total - mean * mean)


class TestMoments:
    def test_unsigned_examples(self):
        assert unsigned_moments(1) == MomentPair(Fraction(2), Fraction(0))
        assert unsigned_mean(2) == 2
        assert harmonic(2) + Fraction(1, 2) == 2

    def test_signed_examples(self):
        assert signed_moments(1) == MomentPair(Fraction(3, 2), Fraction(1, 4))

    def test_defined_at_zero(self):
        assert unsigned_moments(0) == MomentPair(Fraction(1), Fraction(0))
        assert signed_moments(0) == MomentPair(Fraction(1), Fraction(0))

    def test_matches_generating_functions(self):
        for n in range(0, 13):
            assert gf_moments(unsigned_gf(n)) == unsigned_moments(n)
        for n in range(0, 31):
            assert gf_moments(signed_gf(n)) == signed_moments(n)

    def test_census_oracle(self):
        for n in range(1, 6):
            table = census.hultman_census(n)
            assert census.moments_from_table(table, factorial(n)) == unsigned_moments(n)
            stable = census.signed_hultman_census(n)
            assert census.moments_from_table(stable, 2**n * factorial(n)) == signed_moments(n)


class TestRCoefficients:
    def test_example(self):
        assert r_coefficient(1, 1, 1) == Fraction(-1, 6)

    def test_domain(self):
        with pytest.raises(ValueError):
            r_coefficient(3, 1, 2)
        with pytest.raises(ValueError):
            r_coefficient(3, 4, 1)
        with pytest.raises(ValueError):
            r_abs_sum(-1)

    def test_grouped_sum_matches_direct(self):
        for n in range(0, 21):
            direct = sum(
                (
                    r_coefficient(n, a, b)
                    for b in range(1, (n + 1) // 2 + 1)
                    for a in range(b, n + 2 - b)
                ),
                Fraction(0),
            )
            assert r_sum(n) == direct

    def test_walk_matches_replaced_loops(self):
        # The routes r_abs_sum and signed_variance replaced: one r_coefficient
        # per (a, b) of A_n.
        for n in list(range(0, 41)) + [90]:
            h, hn = harmonic(2 * n + 1), harmonic(n)
            rsum = abs_sum = weighted = Fraction(0)
            for b in range(1, (n + 1) // 2 + 1):
                for a in range(b, n + 2 - b):
                    r = r_coefficient(n, a, b)
                    rsum += r
                    abs_sum += abs(r)
                    weighted += r * (
                        2 * h
                        - hn
                        - 2 * harmonic(2 * a - 1)
                        + 2 * harmonic(n - a - b + 1)
                        + harmonic(a - 1)
                        - harmonic(b - 1)
                        - 1
                    )
            odd_squares = harmonic_squares(2 * n + 1) - harmonic_squares(n) / 4
            variance = h - hn / 2 - odd_squares - rsum * rsum + weighted
            assert r_abs_sum(n) == abs_sum
            assert signed_variance(n) == variance
            assert signed_moments(n) == MomentPair(h - hn / 2 - rsum, variance)

    def test_moments_walk_once(self, monkeypatch):
        calls = []
        walk = hultman._r_groups

        def counting_walk(n):
            calls.append(n)
            return walk(n)

        monkeypatch.setattr(hultman, "_r_groups", counting_walk)
        for n in (0, 1, 7):
            calls.clear()
            signed_moments(n)
            assert calls == [n]

    def test_abs_sum_bound(self):
        for n in range(0, 31):
            bound = Fraction(2) * (1 - Fraction(1, 2**n)) / (n + 2)
            assert abs(r_sum(n)) <= r_abs_sum(n) <= bound

    def test_mean_uses_r_sum(self):
        for n in range(0, 9):
            expected = harmonic(2 * n + 1) - harmonic(n) / 2 - r_sum(n)
            assert signed_mean(n) == expected


class TestSuryIdentity:
    def test_examples(self):
        assert sury_identity_check(1) == (0, 0)
        assert sury_identity_check(2) == (Fraction(3, 2), Fraction(3, 2))
        assert sury_identity_check(4) == (Fraction(5, 3), Fraction(5, 3))

    def test_range(self):
        for n in range(0, 51):
            lhs, rhs = sury_identity_check(n)
            assert lhs == rhs


@given(st.integers(0, 20), st.integers(-2, 25))
@settings(max_examples=120)
def test_signed_nonnegative_and_bounded(n, k):
    value = signed_hultman(n, k)
    assert value >= 0
    if k < 1 or k > n + 1:
        assert value == 0


@pytest.mark.parametrize(
    "name, args",
    [
        ("hultman_new_formula", (-1, 0)),
        ("signed_gf", (-1,)),
        ("unsigned_gf", (-1,)),
        ("unsigned_mean", (-1,)),
        ("unsigned_variance", (-1,)),
        ("signed_mean", (-1,)),
        ("signed_moments", (-1,)),
        ("sury_identity_check", (-1,)),
        ("cycle_row", (-1, False)),
        ("signed_hultman_special", (-1, 0)),
        ("r_sum", (-1,)),
        ("r_abs_sum", (-1,)),
        ("new_formula_row", (-1,)),
        ("r_coefficient", (-1, 1, 1)),
    ],
)
def test_negative_n_is_rejected(name, args):
    with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
        getattr(hultman, name)(*args)


@pytest.mark.parametrize("name", ["unsigned_rows", "unsigned_decimal_rows", "signed_rows"])
def test_row_stream_rejects_negative_max_n(name):
    # At the call, before the stream is read.
    with pytest.raises(ValueError, match=r"^max_n must be >= 0, got -1$"):
        getattr(hultman, name)(-1)
