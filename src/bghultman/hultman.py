"""Closed-form cycle counts for breakpoint graphs, and their exact moments.

Unsigned counts come in two equivalent forms: a quotient of a Stirling
number of the first kind by a binomial, and an average of falling-factorial
coefficients.  Signed counts sum over hook-shaped partitions (a, b, 1^m) of
n+1, combining three ingredients per partition: a rational weight, a
coefficient of the hook polynomial F, and the linear coefficient F'(0).
The hook polynomials are walked in hook_partitions order, each built from
its neighbour: along a row b, F(a+1, b) is F(a, b) times one linear factor
over another, so only the first shape of each row and the single-row shape
take a full product, and signed_gf(n) costs O(n^3) coefficient operations.
The weights share one common denominator, so the sum runs over integer
polynomials and ends in one exact division per coefficient.  The unsigned
falling-factorial route slides its window of factors the same way.
Tables and checks iterate one uncached row stream per group: unsigned_rows
adds one factor per row to x(x+1)...(x+n+1), and signed_rows is a second
route to signed_gf, a four-term recurrence (n+2) P_n = c_1 P_{n-1} + ... +
c_4 P_{n-4} with small polynomial coefficients c_i(n, x), from P_0..P_2: O(n)
coefficient operations per row instead of O(n^3).  The recurrence was found
by guessing (scripts/guess_recurrence.py, linear algebra over signed_gf(0..16))
and is not proved.  The tests check it against the hook sum for n <= 40 and
n = 60, 80, 100, 120, and `verify --suite formulas` for n <= 40; every n <= 120
and n = 150 were checked once by hand.
Every count here is an int, except in the stream that `hultman table`
prints: unsigned_decimal_rows runs unsigned_rows' recurrence on exact
Decimal integers, since str() of an int is quadratic in its digits and the
unsigned counts reach 869 digits at n = 400, while a Decimal prints in
linear time.  The signed table stays on int: its four-term recurrence ran
no faster on Decimal.
Generating functions for both cases yield exact means and variances, which
are also available directly as harmonic-number formulas.  The signed ones
carry correction sums over the index set A_n, folded from one walk over A_n
grouped by a - b: integer terms per group, times an integer numerator over
one denominator shared by all groups.  signed_moments takes the mean and the
variance from a single such walk as two integer sums, and builds no Fraction
but the two it returns.

All arithmetic is exact; any inexact internal division raises
ExactnessError, which always indicates a bug rather than bad input.
"""

from __future__ import annotations

from collections import deque
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)
from fractions import Fraction
from itertools import chain, repeat
from math import factorial, lcm
from typing import Iterator

from .exactmath import (
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
from .perm import Record, check_nonnegative

__all__ = [
    "HookPartition",
    "MomentPair",
    "hook_partitions",
    "hultman_bona_flynn",
    "hultman_new_formula",
    "new_formula_row",
    "unsigned_rows",
    "unsigned_decimal_rows",
    "signed_rows",
    "cycle_row",
    "f_lambda_poly",
    "f_lambda_deriv_at_zero",
    "c_lambda",
    "signed_hultman",
    "signed_hultman_special",
    "unsigned_gf",
    "signed_gf",
    "unsigned_mean",
    "unsigned_variance",
    "unsigned_moments",
    "signed_mean",
    "signed_variance",
    "signed_moments",
    "r_coefficient",
    "r_sum",
    "r_abs_sum",
    "sury_identity_check",
]


class HookPartition(Record):
    """Hook-shaped partition (a, b, 1^(n-a-b+1)) of n+1.

    Either a >= b >= 1 with a + b <= n+1, or (a, b) = (n+1, 0) for the
    single-row shape.
    """

    __slots__ = ("a", "b", "n")

    def __init__(self, a: int, b: int, n: int) -> None:
        check_nonnegative(n)
        ok_hook = b >= 1 and a >= b and a + b <= n + 1
        ok_row = a == n + 1 and b == 0
        if not (ok_hook or ok_row):
            raise ValueError(f"({a}, {b}) is not a hook shape for n={n}")
        self.a, self.b, self.n = a, b, n


class MomentPair(Record):
    """Exact mean and variance of a statistic."""

    __slots__ = ("mean", "variance")

    def __init__(self, mean: Fraction, variance: Fraction) -> None:
        if variance < 0:
            raise ValueError("variance must be >= 0")
        self.mean, self.variance = mean, variance


def hook_partitions(n: int) -> Iterator[HookPartition]:
    """All hook shapes for n, b ascending then a ascending, (n+1, 0) last."""
    check_nonnegative(n)
    hooks = (
        HookPartition(a, b, n) for b in range(1, (n + 1) // 2 + 1) for a in range(b, n + 2 - b)
    )
    return chain(hooks, [HookPartition(n + 1, 0, n)])


# Exact decimal integers: any rounding traps, so no Decimal operation can
# lose a digit, and none runs at the default 28.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    traps=[Inexact, Rounded, InvalidOperation, DivisionByZero, Overflow],
)


def _unsigned_coefficients(max_n: int, number: type) -> Iterator[list]:
    # Row n as the list of its x^0..x^(n+2) coefficients, each a `number`
    # (int or Decimal): rising <- rising * (x+n+1), then the coefficients
    # with n - k odd over C(n+2, 2), through exact_div.  rising is updated in
    # place from the top down, so each old coefficient is freed as it is
    # replaced; a new list per step kept both alive, ~0.15 MiB more peak RSS
    # for Decimal at n = 400.  Decimal arithmetic runs in _EXACT, left before
    # each row is yielded so that a caller's context never changes; int
    # arithmetic ignores it.
    check_nonnegative(max_n, "max_n")

    def rows() -> Iterator[list]:
        zero = number(0)
        rising = [zero, number(1)]
        for n in range(max_n + 1):
            with localcontext(_EXACT):
                factor = number(n + 1)
                rising.append(zero)
                for k in range(n + 2, 0, -1):
                    rising[k] = rising[k - 1] + factor * rising[k]
                row = [zero] * len(rising)
                odd = (n + 1) % 2  # the first k with n - k odd
                row[odd::2] = map(exact_div, rising[odd::2], repeat(binomial(n + 2, 2)))
            yield row

    return rows()


def unsigned_rows(max_n: int) -> Iterator[Polynomial]:
    """Rows n = 0..max_n of hultman_bona_flynn, each equal to unsigned_gf(n).

    Row n keeps the x^k coefficients of x(x+1)...(x+n+1) with n - k odd, over C(n+2, 2).
    """
    return map(Polynomial, _unsigned_coefficients(max_n, int))


def unsigned_decimal_rows(max_n: int) -> Iterator[list[Decimal]]:
    """The rows of unsigned_rows as exact Decimal integers, for printing.

    Entry k of row n is the x^k coefficient, for k = 0..n+2, zeros included.
    str() of a Decimal integer gives the digits of the int in time linear in
    their number, where str() of an int is quadratic; the counts of
    `table --n 400` run to 869 digits.
    """
    return _unsigned_coefficients(max_n, Decimal)


def hultman_bona_flynn(n: int, k: int) -> int:
    """Unsigned permutations of n elements with k breakpoint-graph cycles.

    Equals the Stirling number [n+2, k] / C(n+2, 2) when n - k is odd, else 0;
    the division is always exact.  Read from row n of unsigned_rows.
    """
    return cycle_row(n, False).coefficient(k)


def new_formula_row(n: int) -> Polynomial:
    """Row n of unsigned counts, by the averaged falling-factorial coefficients.

    Sum over i = 1..n+1 of the length-(n+1) falling factorial shifted by
    n-i+1, (x+n-i+1)(x+n-i)...(x-i+1), over n+1.  Each term slides the
    previous one's window down by one: gain the factor (x-i+1), lose
    (x+n-i+2).  Agrees with unsigned_rows everywhere; kept as an independent
    route because the two are cross-checked in the verification suites.
    """
    check_nonnegative(n)
    term = total = shifted_falling_factorial_poly(n, n + 1)
    for i in range(2, n + 2):
        term = term.times_linear(1 - i).over_linear(n - i + 2)
        total = total + term
    return Polynomial(exact_div(c, n + 1) for c in total.coeffs)


def hultman_new_formula(n: int, k: int) -> int:
    """Unsigned count with k cycles, read from new_formula_row(n)."""
    check_nonnegative(n)
    if not 1 <= k <= n + 1:
        raise ValueError(f"k={k} outside 1..{n + 1}")
    return new_formula_row(n).coefficient(k)


def f_lambda_poly(lam: HookPartition) -> Polynomial:
    """Hook polynomial F for a shape of n+1, as one full product.

    Product form with integer coefficients:
    (x+2a-2)(x+2a-4)...(x+2b) times the falling factorial of length
    n+1-a+b starting at x+2b-2.  The first factor absorbs the power of two
    attached to the half-argument falling factorial.  Moving to (a+1, b)
    gains the factor (x+2a) and loses the last one, (x+a+b-2-n); signed_gf
    takes that step instead of calling this for every shape.
    """
    a, b, n = lam.a, lam.b, lam.n
    offsets = [2 * j for j in range(b, a)]
    offsets += [2 * b - 2 - t for t in range(n + 1 - a + b)]
    return linear_product(offsets)


def f_lambda_deriv_at_zero(lam: HookPartition) -> int:
    """Linear coefficient F'(0) of the hook polynomial, in closed form.

    The single-row shape uses the explicit value 2^n * n!, sidestepping the
    (2b - 1) = -1 denominator the hook-case expression would need at b = 0.
    """
    a, b, n = lam.a, lam.b, lam.n
    if b == 0:
        return 2**n * factorial(n)
    sign = -1 if (n - a - b) % 2 else 1
    return (
        sign
        * 2 ** (a - b)
        * (factorial(a - 1) // factorial(b - 1))
        * factorial(2 * b - 2)
        * factorial(n - a - b + 2)
    )


def c_lambda(lam: HookPartition) -> Fraction:
    """Rational weight of a hook shape (zonal expansion coefficient)."""
    a, b, n = lam.a, lam.b, lam.n
    m = n + 1
    if b == 0:
        return Fraction(2**m * factorial(m), factorial(2 * m))
    sign = -1 if (m + a - b + 1) % 2 else 1
    num = sign * 2 ** (a - b + 1) * m * (2 * a - 2 * b + 1) * factorial(a - 1)
    den = (
        (m + a - b + 1)
        * (m + a - b)
        * (m - a + b)
        * (m - a + b - 1)
        * factorial(m - a - b)
        * factorial(2 * a - 1)
        * factorial(b - 1)
    )
    return Fraction(num, den)


def _hook_polys(shapes: list[HookPartition]) -> Iterator[Polynomial]:
    # F for each shape in turn, the shapes in hook_partitions order.  A shape
    # (a, b) with a > b >= 1 follows (a-1, b) in its row, so it is that F times
    # (x+2a-2) over (x+a+b-3-n): one multiply and one exact division, O(n)
    # each.  Any other shape (the first of a row, the single-row shape) is a
    # full product.
    for lam in shapes:
        a, b, n = lam.a, lam.b, lam.n
        if a > b >= 1:
            poly = poly.times_linear(2 * a - 2).over_linear(a + b - 3 - n)
        else:
            poly = f_lambda_poly(lam)
        yield poly


def signed_gf(n: int) -> Polynomial:
    """Generating function of signed counts: sum of c * F(x) * F'(0).

    The weights c * F'(0) are rational; they are brought to one common
    denominator D, the integer polynomials F(x) * (weight * D) are summed,
    and each coefficient is divided by D exactly.  The F are walked in
    hook_partitions order, each from its neighbour in the row (one linear
    multiply and one exact linear division), so only the (n+1)//2 + 1 row
    starts are full products: O(n^3) coefficient operations in all.
    """
    check_nonnegative(n)
    shapes = list(hook_partitions(n))
    weights = [c_lambda(lam) * f_lambda_deriv_at_zero(lam) for lam in shapes]
    den = lcm(*(w.denominator for w in weights))
    total = Polynomial.zero()
    for poly, w in zip(_hook_polys(shapes), weights):
        total = total + poly * (w.numerator * (den // w.denominator))
    return Polynomial(tuple(exact_div(c, den) for c in total.coeffs))


# P_0..P_2, the rows the recurrence in signed_rows starts from, as
# coefficient tuples in ascending powers of x.  P_3 follows from them, since
# c_4 carries the factor n - 3.
_SIGNED_SEEDS = ((0, 1), (0, 1, 1), (0, 4, 3, 1))


def _signed_steps(n: int) -> tuple[tuple[int, ...], ...]:
    # c_1..c_4 of (n+2) P_n = c_1 P_{n-1} + c_2 P_{n-2} + c_3 P_{n-3} + c_4 P_{n-4},
    # each in ascending powers of x, as scripts/guess_recurrence.py prints them:
    #   c_1 = (4n+3)(x-1)
    #   c_2 = -[(2n-1)(3x^2 - 4x) - 5n^3 + n^2 + 4n - 1]
    #   c_3 = (x-1)[(4n-7)x^2 + e],  e = -10n^3 + 38n^2 - 44n + 15
    #   c_4 = -(n-3)(x^2 - (n-1)^2)(x^2 - (2n-5)^2)
    e = -10 * n**3 + 38 * n**2 - 44 * n + 15
    sq_sum, sq_prod = (n - 1) ** 2 + (2 * n - 5) ** 2, (n - 1) ** 2 * (2 * n - 5) ** 2
    return (
        (-(4 * n + 3), 4 * n + 3),
        (5 * n**3 - n**2 - 4 * n + 1, 4 * (2 * n - 1), -3 * (2 * n - 1)),
        (-e, e, 7 - 4 * n, 4 * n - 7),
        (-(n - 3) * sq_prod, 0, (n - 3) * sq_sum, 0, 3 - n),
    )


def signed_rows(max_n: int) -> Iterator[Polynomial]:
    """Rows n = 0..max_n of signed counts, each equal to signed_gf(n).

    Past the seeds, row n comes from the last four by _signed_steps (from
    three at n = 3, where c_4 vanishes); its exact division by n+2 makes a
    wrong seed or step raise ExactnessError.
    """
    check_nonnegative(max_n, "max_n")

    def rows() -> Iterator[Polynomial]:
        last: deque[Polynomial] = deque(maxlen=4)
        for n in range(max_n + 1):
            if n < len(_SIGNED_SEEDS):
                row = Polynomial(_SIGNED_SEEDS[n])
            else:
                terms = (Polynomial(c) * prev for c, prev in zip(_signed_steps(n), reversed(last)))
                total = sum(terms, Polynomial.zero())
                row = Polynomial(tuple(exact_div(c, n + 2) for c in total.coeffs))
            last.append(row)
            yield row

    return rows()


def cycle_row(n: int, signed: bool) -> Polynomial:
    """Row n of unsigned_rows or signed_rows: the count of each cycle number c."""
    check_nonnegative(n)
    return deque(signed_rows(n) if signed else unsigned_rows(n), maxlen=1)[0]


def signed_hultman(n: int, k: int) -> int:
    """Signed permutations of n elements with k breakpoint-graph cycles.

    Read from row n of signed_rows, the recurrence route to signed_gf(n).
    """
    return cycle_row(n, True).coefficient(k)


def signed_hultman_special(n: int, k: int) -> int:
    """Closed forms for the top three cycle counts.

    k = n+1: only the identity.  k = n: C(n+1, 2), one 2-cycle.  k = n-1:
    5*C(n+1, 4) + 4*C(n+1, 3), two 2-cycles or one 3-cycle.
    """
    check_nonnegative(n)
    if k == n + 1:
        return 1
    if k == n:
        if n < 1:
            raise ValueError("k = n requires n >= 1")
        return binomial(n + 1, 2)
    if k == n - 1:
        if n < 1:
            raise ValueError("k = n-1 requires n >= 1")
        return 5 * binomial(n + 1, 4) + 4 * binomial(n + 1, 3)
    raise ValueError(f"k={k} is not one of n+1, n, n-1 for n={n}")


def unsigned_gf(n: int) -> Polynomial:
    """Generating function of unsigned counts.

    (rising factorial of length n+2 minus falling factorial of length n+2)
    divided by 2*C(n+2, 2); coefficients are the per-k counts.
    """
    check_nonnegative(n)
    diff = rising_factorial_poly(n + 2) - shifted_falling_factorial_poly(0, n + 2)
    den = 2 * binomial(n + 2, 2)
    coeffs = tuple(exact_div(c, den) for c in diff.coeffs)
    return Polynomial(coeffs)


def unsigned_mean(n: int) -> Fraction:
    """Expected cycle count over unsigned permutations: H_n + 1/floor((n+2)/2)."""
    check_nonnegative(n)
    return harmonic(n) + Fraction(1, (n + 2) // 2)


def unsigned_variance(n: int) -> Fraction:
    """Exact variance of the unsigned cycle count."""
    check_nonnegative(n)
    sign = 1 if n % 2 == 0 else -1
    d = (n + 1) * (n + 2)
    h = harmonic(n + 2)
    return (
        h
        - harmonic_squares(n + 2)
        + Fraction(sign, d) * (2 * h + 2 * harmonic(n) - 3)
        - Fraction(1, d * d)
    )


def unsigned_moments(n: int) -> MomentPair:
    return MomentPair(unsigned_mean(n), unsigned_variance(n))


def r_coefficient(n: int, a: int, b: int) -> Fraction:
    """Correction coefficient r_n(a, b) in the signed mean and variance.

    Defined for a >= b >= 1 with a + b <= n+1 (the index set A_n).
    """
    check_nonnegative(n)
    if not (a >= b >= 1 and a + b <= n + 1):
        raise ValueError(f"(a, b) = ({a}, {b}) outside the index set for n={n}")
    sign = -1 if (n + a - b) % 2 else 1
    num = (
        sign
        * (n + 1)
        * (2 * a - 2 * b + 1)
        * factorial(a - 1)
        * factorial(2 * b - 2)
        * factorial(n - a - b + 2)
    )
    den = (
        2 ** (n - a + b - 1)
        * factorial(n)
        * factorial(b - 1)
        * (n + a - b + 2)
        * (n + a - b + 1)
        * (n - a + b + 1)
        * (n - a + b)
    )
    return Fraction(num, den)


def _r_groups(n: int) -> tuple[int, Iterator[tuple[int, int, list[int]]]]:
    # The one walk over A_n: den, then per k = a - b the group's numerator
    # and its positive integer terms (a-1)!/(b-1)! * (2b-2)! * (n-a-b+2)! for
    # b = 1, 2, ..., so r_n(k + b, b) = num * terms[b - 1] / den.  Each term
    # follows from the one before by a small-integer ratio.  Group k's own
    # denominator is 2^(n-k-1) n! quartics[k]; den = 2^n n! lcm(quartics).
    check_nonnegative(n)
    fact = [1] * (n + 3)
    for i in range(1, n + 3):
        fact[i] = fact[i - 1] * i
    quartics = [(n + k + 2) * (n + k + 1) * (n - k + 1) * (n - k) for k in range(n)]
    common = lcm(*quartics)

    def groups() -> Iterator[tuple[int, int, list[int]]]:
        for k, quartic in enumerate(quartics):
            terms = []
            term = fact[k] * fact[n - k]  # b = 1
            for b in range(1, (n + 1 - k) // 2 + 1):
                terms.append(term)
                # term(b+1) / term(b) = (k+b) * 2(2b-1) / ((m+2)(m+1)).
                m = n - k - 2 * b
                if m > 0:
                    term = exact_div(term * (k + b) * 2 * (2 * b - 1), (m + 2) * (m + 1))
            sign = -1 if (n + k) % 2 else 1
            yield k, sign * (n + 1) * (2 * k + 1) * 2 ** (k + 1) * (common // quartic), terms

    return 2**n * fact[n] * common, groups()


def r_sum(n: int) -> Fraction:
    """Sum of r_n(a, b) over the whole index set A_n.

    One integer sum per group k = a - b of the shared walk, over its one
    denominator; term-by-term Fraction summation is too slow for n ~ 1000.
    """
    den, groups = _r_groups(n)
    return Fraction(sum(num * sum(terms) for _, num, terms in groups), den)


def r_abs_sum(n: int) -> Fraction:
    """Sum of |r_n(a, b)| over A_n; bounded by 2(1 - 2^-n)/(n+2)."""
    den, groups = _r_groups(n)
    return Fraction(sum(abs(num) * sum(terms) for _, num, terms in groups), den)


def signed_mean(n: int) -> Fraction:
    """Expected cycle count over signed permutations."""
    check_nonnegative(n)
    return harmonic(2 * n + 1) - harmonic(n) / 2 - r_sum(n)


def signed_variance(n: int) -> Fraction:
    """Exact variance of the signed cycle count."""
    return signed_moments(n).variance


def signed_moments(n: int) -> MomentPair:
    """Exact signed mean and variance from one walk over A_n.

    The mean is H_{2n+1} - H_n/2 - r_sum(n).  The variance weights r_n(a, b)
    by 2H_{2n+1} - H_n - 1 + 2H_{n-a-b+1} - 2H_{2a-1} + H_{a-1} - H_{b-1}.
    Every harmonic number here, the mean's included, is taken from
    hnum[j] = hden * H_j with hden = lcm(1..2n+1) (harmonic_numerators), and
    every r_n(a, b) is an integer over the walk's denominator rden: the walk
    sums two integers, and the moments are the only Fractions built.
    """
    check_nonnegative(n)
    hden, hnum = harmonic_numerators(2 * n + 1)
    _, sq = harmonic_numerators(2 * n + 1, 2)  # over hden**2
    const = 2 * hnum[2 * n + 1] - hnum[n] - hden
    rden, groups = _r_groups(n)
    rsum = weighted = 0
    for k, num, terms in groups:
        inner = sum(terms)
        group = const * inner
        for b, term in enumerate(terms, 1):
            a = k + b
            group += term * (2 * hnum[n - a - b + 1] - 2 * hnum[2 * a - 1] + hnum[a - 1] - hnum[b - 1])
        rsum += num * inner
        weighted += num * group
    base = 2 * hnum[2 * n + 1] - hnum[n]  # (H_{2n+1} - H_n/2) * 2 hden
    odd_sq = 4 * sq[2 * n + 1] - sq[n]  # (sum of 1/(2k+1)^2, k <= n) * 4 hden^2
    # The variance is base/(2 hden) - odd_sq/(4 hden^2) - (rsum/rden)^2
    # + weighted/(hden rden).
    mean = Fraction(base * rden - 2 * hden * rsum, 2 * hden * rden)
    variance = Fraction(
        rden * (rden * (2 * hden * base - odd_sq) + 4 * hden * weighted) - 4 * (hden * rsum) ** 2,
        4 * (hden * rden) ** 2,
    )
    return MomentPair(mean, variance)


def sury_identity_check(n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the alternating inverse-binomial identity.

    Left: sum over i of (-1)^i / C(n, i).  Right: (1 + (-1)^n)(n+1)/(n+2).
    The two are provably equal; this evaluates them independently.
    """
    check_nonnegative(n)
    lhs = Fraction(0)
    for i in range(n + 1):
        term = Fraction(1, binomial(n, i))
        lhs += -term if i % 2 else term
    rhs = Fraction((1 + (-1 if n % 2 else 1)) * (n + 1), n + 2)
    return lhs, rhs
