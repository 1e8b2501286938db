import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bghultman import bpgraph, perm
from bghultman.distances import bfs_distances
from bghultman.exactmath import harmonic
from bghultman.hultman import hultman_bona_flynn
from bghultman.perm import (
    GuardError,
    PermutationError,
    compose,
    count_factorizations,
    enumerate_signed,
    enumerate_unsigned,
    first_values,
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
        return tuple(base)
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return tuple(v if s else -v for v, s in zip(base, signs))


class TestValidate:
    def test_accepts_valid(self):
        assert validate([2, 4, 1, 3]) == (2, 4, 1, 3)
        pi = validate(iter([-5, 1, 2, 4, -7, -3, 6]))
        assert type(pi) is tuple and pi == (-5, 1, 2, 4, -7, -3, 6)

    @pytest.mark.parametrize(
        "images, fragment",
        [
            ([1, 1], "position 2"),
            ([0], "position 1"),
            ([3, 1], "position 1"),
            ([1, -1], "duplicate absolute value"),
            ([2.0, 1.0], r"^position 1: image 2\.0 is not an integer$"),
            (["1"], r"^position 1: image '1' is not an integer$"),
            ([True], r"^position 1: image True is not an integer$"),
        ],
    )
    def test_rejects_with_position(self, images, fragment):
        with pytest.raises(PermutationError, match=fragment):
            validate(images)


class TestGroupOps:
    def test_inverse_example(self):
        assert inverse(validate([2, 4, 1, 3])) == (3, 1, 4, 2)

    def test_size_mismatch(self):
        with pytest.raises(PermutationError):
            compose(identity(2), identity(3))

    @given(signed_perms())
    def test_inverse_law(self, pi):
        assert compose(pi, inverse(pi)) == identity(len(pi))
        assert compose(inverse(pi), pi) == identity(len(pi))
        assert inverse(inverse(pi)) == pi

    @given(signed_perms(max_n=5), signed_perms(max_n=5), signed_perms(max_n=5))
    @settings(max_examples=60)
    def test_associativity(self, a, b, c):
        n = max(len(a), len(b), len(c))
        a, b, c = (p + tuple(range(len(p) + 1, n + 1)) for p in (a, b, c))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_conjugate_relabels_cycles(self):
        pi = validate([2, 4, 1, 3])  # the 4-cycle (1 2 4 3)
        sigma = validate([3, 1, 4, 2])
        conj = _conjugate(pi, sigma)
        relabeled = {tuple(sorted(sigma[v - 1] for v in cyc)) for cyc in perm._cycles(pi)}
        got = {tuple(sorted(cyc)) for cyc in perm._cycles(conj)}
        assert got == relabeled

    @given(signed_perms(unsigned=True), signed_perms(unsigned=True))
    @settings(max_examples=60)
    def test_conjugate_preserves_cycle_type(self, pi, sigma):
        n = max(len(pi), len(sigma))
        pi += tuple(range(len(pi) + 1, n + 1))
        sigma += tuple(range(len(sigma) + 1, n + 1))
        lengths = sorted(len(c) for c in perm._cycles(pi))
        conj_lengths = sorted(len(c) for c in perm._cycles(_conjugate(pi, sigma)))
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
        assert tuple(perm._cycles(identity(4))) == ((1,), (2,), (3,), (4,))
        assert tuple(perm._cycles((2, 1))) == ((1, 2),)


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_unsigned(3))) == 6
        assert len(list(enumerate_signed(2))) == 8
        assert list(enumerate_unsigned(0)) == [()]
        assert list(enumerate_signed(0)) == [()]

    def test_lexicographic_and_distinct(self):
        for n in range(4):
            seq = list(enumerate_signed(n))
            assert seq == sorted(seq)
            assert len(set(seq)) == len(seq) == 2**n * factorial(n)
        seq = list(enumerate_unsigned(4))
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
        assert len(next(enumerate_unsigned(13, force=True))) == 13
        for enumerate_group in (enumerate_unsigned, enumerate_signed):
            with pytest.raises(ValueError):
                enumerate_group(-1)

    def test_permutations_are_image_tuples(self):
        # A permutation has one representation: the enumerations yield the
        # tuples that the breakpoint graph, the group operations and the BFS
        # keys take and return.
        signed = list(enumerate_signed(3))
        for p in signed + list(enumerate_unsigned(4)):
            assert type(p) is tuple
            assert bpgraph.recover_permutation(bpgraph.breakpoint_graph(p)) == p
            assert compose(p, inverse(p)) == identity(len(p))
        reached = bfs_distances(3, "signed_reversal")
        assert all(p in reached for p in signed)


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

