import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bghultman import perm
from bghultman.exactmath import harmonic
from bghultman.hultman import hultman_bona_flynn
from bghultman.perm import (
    GuardError,
    PermutationError,
    SignedPermutation,
    compose,
    count_factorizations,
    enumerate_signed,
    enumerate_unsigned,
    first_values,
    format_permutation,
    identity,
    inverse,
    iter_images_signed,
    iter_images_unsigned,
    validate,
)


@st.composite
def signed_perms(draw, min_n=0, max_n=7, unsigned=False):
    n = draw(st.integers(min_n, max_n))
    base = draw(st.permutations(list(range(1, n + 1))))
    if unsigned:
        return SignedPermutation(tuple(base))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return SignedPermutation(tuple(v if s else -v for v, s in zip(base, signs)))


class TestValidate:
    def test_accepts_valid(self):
        assert validate([2, 4, 1, 3]) == SignedPermutation((2, 4, 1, 3))
        pi = validate([-5, 1, 2, 4, -7, -3, 6])
        assert pi.n == 7 and pi.images == (-5, 1, 2, 4, -7, -3, 6)

    @pytest.mark.parametrize(
        "images, fragment",
        [
            ([1, 1], "position 2"),
            ([0], "position 1"),
            ([3, 1], "position 1"),
            ([1, -1], "duplicate absolute value"),
        ],
    )
    def test_rejects_with_position(self, images, fragment):
        with pytest.raises(PermutationError, match=fragment):
            validate(images)


class TestGroupOps:
    def test_inverse_example(self):
        assert inverse(validate([2, 4, 1, 3])).images == (3, 1, 4, 2)

    def test_size_mismatch(self):
        with pytest.raises(PermutationError):
            compose(identity(2), identity(3))

    @given(signed_perms())
    def test_inverse_law(self, pi):
        assert compose(pi, inverse(pi)) == identity(pi.n)
        assert compose(inverse(pi), pi) == identity(pi.n)
        assert inverse(inverse(pi)) == pi

    @given(signed_perms(max_n=5), signed_perms(max_n=5), signed_perms(max_n=5))
    @settings(max_examples=60)
    def test_associativity(self, a, b, c):
        n = max(a.n, b.n, c.n)
        a, b, c = (
            SignedPermutation(p.images + tuple(range(p.n + 1, n + 1))) for p in (a, b, c)
        )
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_conjugate_relabels_cycles(self):
        pi = validate([2, 4, 1, 3])  # the 4-cycle (1 2 4 3)
        sigma = validate([3, 1, 4, 2])
        conj = _conjugate(pi, sigma)
        relabeled = {
            tuple(sorted(sigma.images[v - 1] for v in cyc)) for cyc in perm._cycles(pi.images)
        }
        got = {tuple(sorted(cyc)) for cyc in perm._cycles(conj.images)}
        assert got == relabeled

    @given(signed_perms(unsigned=True), signed_perms(unsigned=True))
    @settings(max_examples=60)
    def test_conjugate_preserves_cycle_type(self, pi, sigma):
        n = max(pi.n, sigma.n)
        pi = SignedPermutation(pi.images + tuple(range(pi.n + 1, n + 1)))
        sigma = SignedPermutation(sigma.images + tuple(range(sigma.n + 1, n + 1)))
        lengths = sorted(len(c) for c in perm._cycles(pi.images))
        conj_lengths = sorted(len(c) for c in perm._cycles(_conjugate(pi, sigma).images))
        assert lengths == conj_lengths


def _conjugate(pi, sigma):
    # sigma o pi o sigma^{-1}: relabels pi's cycles through sigma.
    return compose(compose(sigma, pi), inverse(sigma))


class TestCycleDecomposition:
    # perm._cycles is the one cycle walk on unsigned images; the brute-force
    # factorisation counter reads it.
    def test_paper_example(self):
        cycles = tuple(perm._cycles((2, 4, 1, 3, 5, 8, 7, 9, 6)))
        assert cycles == ((1, 2, 4, 3), (5,), (6, 8, 9), (7,))

    def test_identity_and_swap(self):
        assert tuple(perm._cycles(identity(4).images)) == ((1,), (2,), (3,), (4,))
        assert tuple(perm._cycles((2, 1))) == ((1, 2),)


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_unsigned(3))) == 6
        assert len(list(enumerate_signed(2))) == 8
        assert list(enumerate_unsigned(0)) == [SignedPermutation(())]
        assert list(enumerate_signed(0)) == [SignedPermutation(())]

    def test_lexicographic_and_distinct(self):
        for n in range(4):
            seq = [p.images for p in enumerate_signed(n)]
            assert seq == sorted(seq)
            assert len(set(seq)) == len(seq) == 2**n * factorial(n)
        seq = [p.images for p in enumerate_unsigned(4)]
        assert seq == sorted(seq) and len(set(seq)) == 24

    def test_split_by_first_value(self):
        for signed in (False, True):
            n = 3
            it = iter_images_signed if signed else iter_images_unsigned
            whole = list(it(n))
            parts = [t for first in first_values(n, signed) for t in it(n, first)]
            assert sorted(parts) == sorted(whole)
            assert len(parts) == len(whole)
            for first in (0, n + 2, -(n + 2)):
                with pytest.raises(PermutationError):
                    next(it(n, first))
        # A negative first image is out of range for an unsigned stream.
        with pytest.raises(PermutationError):
            next(iter_images_unsigned(3, -1))
        # n = 0 has no first image: only the unsplit stream yields ().
        for it in (iter_images_unsigned, iter_images_signed):
            assert list(it(0)) == [()]
            for first in (1, -1, 5):
                with pytest.raises(PermutationError):
                    next(it(0, first))

    def test_guards(self):
        with pytest.raises(GuardError):
            enumerate_unsigned(13)
        with pytest.raises(GuardError):
            enumerate_signed(10)
        assert next(iter(enumerate_unsigned(13, force=True))).n == 13
        for enumerate_group in (enumerate_unsigned, enumerate_signed):
            with pytest.raises(ValueError):
                enumerate_group(-1)


class TestCountFactorizations:
    def test_examples(self):
        assert count_factorizations(2, 1) == 1
        assert count_factorizations(2, 2) == 0
        assert count_factorizations(3, 4) == 1

    def test_matches_closed_form(self):
        for n in range(0, 6):
            for k in range(1, n + 2):
                assert count_factorizations(n, k) == hultman_bona_flynn(n, k)

    def test_total_is_factorial(self):
        for n in range(0, 6):
            assert sum(count_factorizations(n, k) for k in range(1, n + 2)) == factorial(n)

    def test_guard_and_domain(self):
        with pytest.raises(GuardError):
            count_factorizations(8, 1)
        with pytest.raises(ValueError):
            count_factorizations(3, 0)
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            count_factorizations(-1, 1, force=True)


class TestCycleCountMean:
    def test_mean_is_harmonic(self):
        # Average disjoint-cycle count over the full group equals H_n.
        for n in range(1, 9):
            total = 0
            for images in itertools.permutations(range(1, n + 1)):
                seen = [False] * (n + 1)
                for i in range(1, n + 1):
                    if not seen[i]:
                        total += 1
                        j = i
                        while not seen[j]:
                            seen[j] = True
                            j = images[j - 1]
            assert Fraction(total, factorial(n)) == harmonic(n)


class TestTextFormat:
    def test_round_trip(self):
        pi = validate([-5, 1, 2, 4, -7, -3, 6])
        assert format_permutation(pi) == str(pi) == "-5 1 2 4 -7 -3 6"
        assert validate(int(t) for t in str(pi).split()) == pi
        assert str(identity(0)) == ""
