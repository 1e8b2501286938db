"""Exact arithmetic building blocks: big integers, rationals, dense integer polynomials.

Every count and moment in this library is exact.  Integers are Python's
arbitrary-precision ``int`` and rationals are ``fractions.Fraction``; the
one exception is the route that prints the unsigned table,
``hultman.unsigned_decimal_rows``, whose integers are exact ``Decimal``s
because ``str()`` of a ``Decimal`` is linear in its digits and of an ``int``
quadratic.
``exact_div`` is the one exactness check: every division that must leave
no remainder goes through it, whether of integers (``int`` or ``Decimal``)
or of polynomials by a monic divisor.  A negative size is rejected by
``perm.check_nonnegative``, the library's one check for it.  The
``Polynomial`` class stores int coefficients densely in ascending-degree
order, which is the right shape for factorial polynomials and generating
functions whose degree stays small (at most a few hundred here); a rational
combination is summed over a common denominator and divided exactly at the
end.  Products of linear factors are
built one factor at a time (``times_linear``), and a known linear factor is
taken out again (``over_linear``) by ``exact_div``, whose long division by a
monic divisor costs O(degree) steps when that divisor is linear.  Nothing
here is cached: a consumer of many rows steps one product forward, and every
harmonic sum is an integer prefix sum over one denominator
(``harmonic_numerators``), cheap enough to rebuild on each call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import comb, lcm
from typing import Iterable, Union

from .perm import Record, check_nonnegative

__all__ = [
    "ExactnessError",
    "exact_div",
    "Polynomial",
    "linear_product",
    "rising_factorial_poly",
    "shifted_falling_factorial_poly",
    "harmonic_numerators",
    "harmonic",
    "harmonic_squares",
    "binomial",
]


_Dividend = Union[int, "Polynomial"]


class ExactnessError(ArithmeticError):
    """A division that must be exact left a remainder; indicates a bug."""


def exact_div(a: _Dividend, b: _Dividend) -> _Dividend:
    """Division that refuses to round: of integers, or of polynomials by a monic one."""
    q, r = divmod(a, b)
    if r:
        raise ExactnessError(f"inexact division: {a} / {b}")
    return q


class Polynomial(Record):
    """Dense univariate polynomial with int coefficients.

    ``coeffs[k]`` is the coefficient of x^k.  The tuple carries no trailing
    zeros, so the zero polynomial is the empty tuple and ``degree`` of zero
    is -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]) -> None:
        c = coeffs if isinstance(coeffs, tuple) else tuple(coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        self.coeffs = c

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        return cls((value,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k: int) -> int:
        """Coefficient of x^k; zero beyond the degree (and for k < 0)."""
        if k < 0 or k >= len(self.coeffs):
            return 0
        return self.coeffs[k]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Polynomial(tuple(out))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial(())
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(tuple(out))
        return Polynomial(tuple(c * other for c in self.coeffs))

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder by a monic polynomial, by long division."""
        d = other.coeffs
        if not d or d[-1] != 1:
            raise ValueError("divisor must be monic")
        top = len(d) - 1
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - top, 0)
        for k in reversed(range(len(quot))):
            q = quot[k] = rem[k + top]
            for j in range(top):
                rem[k + j] -= q * d[j]
        return Polynomial(tuple(quot)), Polynomial(tuple(rem[:top]))

    def times_linear(self, c: int) -> "Polynomial":
        """This polynomial times (x + c), in O(degree) coefficient operations."""
        a = self.coeffs
        return Polynomial(tuple([lo + c * hi for lo, hi in zip((0, *a), (*a, 0))]))

    def over_linear(self, c: int) -> "Polynomial":
        """This polynomial divided by (x + c); a remainder raises ExactnessError."""
        return exact_div(self, Polynomial((c, 1)))

    def evaluate(self, x: int) -> int:
        """Evaluate by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))


def linear_product(offsets: Iterable[int]) -> Polynomial:
    """Product of linear factors (x + a) over the given offsets.

    A fold of ``times_linear`` from the constant 1: O(len * degree)
    coefficient operations, which beats repeated generic multiplication for
    the factorial polynomials built here.  Where a neighbouring product is at
    hand, one ``times_linear`` and one ``over_linear`` step are cheaper still.
    """
    return reduce(Polynomial.times_linear, offsets, Polynomial.constant(1))


def rising_factorial_poly(n: int) -> Polynomial:
    """x(x+1)...(x+n-1); its x^k coefficient is the Stirling number [n, k].

    [n, k], unsigned and of the first kind, counts permutations of n
    elements with exactly k disjoint cycles.
    """
    check_nonnegative(n)
    return linear_product(range(n))


def shifted_falling_factorial_poly(offset: int, length: int) -> Polynomial:
    """Product (x+offset)(x+offset-1)...(x+offset-length+1).

    With offset 0 this is the plain falling factorial, whose x^k coefficient
    is (-1)^(length-k) * [length, k].
    """
    check_nonnegative(length, "length")
    return linear_product(offset - j for j in range(length))


def harmonic_numerators(n: int, power: int = 1) -> tuple[int, list[int]]:
    """The sums of 1/i^power over i <= j, for j = 0..n, on one denominator.

    Returns (den, nums) with den = lcm(1..n)^power and nums[j] = den * that
    sum: O(n) integer operations and no gcd, where summing Fractions takes
    one gcd per term.
    """
    check_nonnegative(n)
    den = lcm(*range(1, n + 1)) ** power
    return den, list(accumulate((den // i**power for i in range(1, n + 1)), initial=0))


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, exactly (H_0 = 0)."""
    den, nums = harmonic_numerators(n)
    return Fraction(nums[n], den)


def harmonic_squares(n: int) -> Fraction:
    """Sum of 1/i^2 for i = 1..n, exactly."""
    den, nums = harmonic_numerators(n, 2)
    return Fraction(nums[n], den)


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0; zero outside 0 <= k <= n."""
    check_nonnegative(n)
    if k < 0 or k > n:
        return 0
    return comb(n, k)
