from itertools import product
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bghultman import bpgraph as bg
from bghultman.distances import distance_distribution
from bghultman.hultman import HookPartition, hook_partitions
from bghultman.perm import (
    SignedPermutation,
    check_size,
    enumerate_signed,
    first_values,
    identity,
    iter_images_signed,
    iter_images_unsigned,
    validate,
)

FIG2_PERM = validate([-5, 1, 2, 4, -7, -3, 6])
FIG2_DOUBLED = (0, 10, 9, 1, 2, 3, 4, 7, 8, 14, 13, 6, 5, 11, 12, 15)

# A configuration on 16 vertices whose complement splits into two cycles:
# the graph above with two black edges re-wired ({12,15},{2,3} -> {2,15},{3,12}).
NON_HAMILTONIAN_BLACK = [(1, 9), (0, 10), (2, 15), (5, 11), (3, 12), (8, 14), (4, 7), (6, 13)]


@st.composite
def signed_perms(draw, max_n=5):
    n = draw(st.integers(0, max_n))
    base = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return SignedPermutation(tuple(v if s else -v for v, s in zip(base, signs)))


def double_factorial_odd(m):
    out = 1
    for v in range(1, 2 * m, 2):
        out *= v
    return out


def doubled_black(doubled):
    # Black edges join doubled positions (2i, 2i+1).
    return bg.matching_from_pairs(zip(doubled[0::2], doubled[1::2]), size=len(doubled))


class TestDoubling:
    def test_fig2_sequence(self):
        assert bg.breakpoint_graph(FIG2_PERM).black == doubled_black(FIG2_DOUBLED)

    def test_single_negative(self):
        assert bg.breakpoint_graph(validate([-1])).black == doubled_black((0, 2, 1, 3))

    def test_identity(self):
        assert bg.breakpoint_graph(identity(2)).black == doubled_black((0, 1, 2, 3, 4, 5))


class TestBreakpointGraph:
    def test_identity_profile(self):
        for n in range(6):
            assert bg.cycle_profile(bg.breakpoint_graph(identity(n))) == (1,) * (n + 1)

    def test_fig2_has_two_cycles(self):
        assert len(bg.cycle_profile(bg.breakpoint_graph(FIG2_PERM))) == 2

    def test_swap_is_one_three_cycle(self):
        assert bg.cycle_profile(bg.breakpoint_graph(validate([2, 1]))) == (3,)

    def test_negative_singleton_profile(self):
        assert bg.cycle_profile(bg.breakpoint_graph(validate([-1]))) == (2,)

    @given(signed_perms())
    def test_lengths_sum_and_range(self, pi):
        lengths = bg.cycle_profile(bg.breakpoint_graph(pi))
        assert sum(lengths) == pi.n + 1
        assert 1 <= len(lengths) <= pi.n + 1

    @given(signed_perms())
    def test_fast_counters_agree(self, pi):
        lengths = bg.cycle_profile(bg.breakpoint_graph(pi))
        assert bg.cycle_count_images(pi.images) == len(lengths)
        assert tuple(sorted(bg.cycle_lengths_images(pi.images))) == lengths


def complement_lengths(config):
    # The configuration with its grey edges shifted sideways by one position.
    return bg.union_cycle_lengths(config.black, bg.grey_complement_matching(config.n))


class TestComplementAndValidity:
    def test_fig2_complement_is_hamiltonian(self):
        config = bg.breakpoint_graph(FIG2_PERM)
        assert len(complement_lengths(config)) == 1
        assert bg.is_valid_breakpoint_graph(config)

    def test_non_hamiltonian_fixture(self):
        config = bg.Configuration(7, bg.matching_from_pairs(NON_HAMILTONIAN_BLACK, size=16))
        assert len(complement_lengths(config)) == 2
        assert not bg.is_valid_breakpoint_graph(config)

    def test_identity_complement_covers_all_vertices(self):
        for n in range(5):
            # One cycle with n + 1 black edges meets all 2n + 2 vertices.
            assert complement_lengths(bg.breakpoint_graph(identity(n))) == (n + 1,)

    def test_tiny_invalid_configuration(self):
        config = bg.Configuration(1, bg.matching_from_pairs([(0, 3), (1, 2)]))
        assert not bg.is_valid_breakpoint_graph(config)

    def test_non_matching_black_rejected(self):
        # 0 and 1 swap while 2 and 3 both point at 0.  Were it accepted, it
        # would pass the validity check and recover the permutation (1,).
        with pytest.raises(ValueError, match="not a perfect matching"):
            bg.Configuration(1, (1, 0, 0, 0))

    def test_accepts_exactly_perfect_matchings(self):
        for n in range(3):
            size = 2 * n + 2
            matchings = set(bg.iter_partner_tuples(n + 1))
            for black in product(range(size), repeat=size):
                try:
                    bg.Configuration(n, black)
                except ValueError:
                    assert black not in matchings
                else:
                    assert black in matchings

    @given(signed_perms())
    def test_all_breakpoint_graphs_valid(self, pi):
        assert bg.is_valid_breakpoint_graph(bg.breakpoint_graph(pi))


class TestRecovery:
    def test_negative_singleton(self):
        config = bg.Configuration(1, bg.matching_from_pairs([(0, 2), (1, 3)]))
        assert bg.recover_permutation(config).images == (-1,)

    def test_invalid_raises(self):
        config = bg.Configuration(7, bg.matching_from_pairs(NON_HAMILTONIAN_BLACK, size=16))
        with pytest.raises(bg.InvalidConfigurationError):
            bg.recover_permutation(config)

    def test_round_trip_exhaustive(self):
        for n in range(4):
            for pi in enumerate_signed(n):
                config = bg.breakpoint_graph(pi)
                assert bg.recover_permutation(config) == pi

    @given(signed_perms())
    def test_round_trip_random(self, pi):
        assert bg.recover_permutation(bg.breakpoint_graph(pi)) == pi

    def test_valid_configurations_biject_with_permutations(self):
        for n in range(4):
            recovered = set()
            valid = 0
            for tau in bg.iter_partner_tuples(n + 1):
                config = bg.Configuration(n, tau)
                if bg.is_valid_breakpoint_graph(config):
                    valid += 1
                    recovered.add(bg.recover_permutation(config).images)
            assert valid == 2**n * factorial(n)
            assert len(recovered) == valid


class TestMatchings:
    def test_counts(self):
        assert len(list(bg.iter_partner_tuples(2))) == 3
        for m in range(1, 6):
            assert len(list(bg.iter_partner_tuples(m))) == double_factorial_odd(m)
        assert list(bg.iter_partner_tuples(0)) == [()]

    def test_deterministic_order(self):
        assert list(bg.iter_partner_tuples(3)) == list(bg.iter_partner_tuples(3))

    def test_matching_from_pairs_validation(self):
        with pytest.raises(ValueError):
            bg.matching_from_pairs([(0, 1), (1, 2)], size=4)
        with pytest.raises(ValueError):
            bg.matching_from_pairs([(0, 0), (1, 2)], size=4)
        with pytest.raises(ValueError):
            bg.matching_from_pairs([(0, 1)], size=4)


class TestRelabeling:
    def test_mu_sends_grey_to_identity_matching(self):
        n = 4
        mu = bg.mu_relabeling(n + 1)
        assert bg.conjugate_matching(bg.grey_matching(n), mu) == bg.identity_matching(n + 1)
        fixed = bg.conjugate_matching(bg.grey_complement_matching(n), mu)
        expected = bg.matching_from_pairs(
            [(0, 9), (5, 1), (6, 2), (7, 3), (8, 4)], size=10
        )
        assert fixed == expected
        assert bg.union_cycle_count(bg.identity_matching(n + 1), fixed) == 1

    def test_conjugation_preserves_union_cycles(self):
        for m in range(1, 4):
            mu = bg.mu_relabeling(m)
            matchings = list(bg.iter_partner_tuples(m))
            for phi1 in matchings:
                for phi2 in matchings:
                    direct = bg.union_cycle_lengths(phi1, phi2)
                    conj = bg.union_cycle_lengths(
                        bg.conjugate_matching(phi1, mu), bg.conjugate_matching(phi2, mu)
                    )
                    assert direct == conj

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            bg.conjugate_matching(bg.grey_matching(1), (0, 0, 1, 2))


@pytest.mark.parametrize(
    "build, name",
    [
        (bg.grey_matching, "n"),
        (bg.grey_complement_matching, "n"),
        (bg.identity_matching, "m"),
        (bg.mu_relabeling, "m"),
        (bg.iter_partner_tuples, "m"),
        (lambda n: bg.Configuration(n, ()), "n"),
        (hook_partitions, "n"),
        (lambda n: HookPartition(0, 0, n), "n"),
        (identity, "n"),
        (iter_images_unsigned, "n"),
        (iter_images_signed, "n"),
        (lambda n: first_values(n, True), "n"),
        (lambda n: check_size(n, 5, False, "test"), "n"),
        (lambda n: distance_distribution(n, "bid"), "n"),
    ],
    ids=[
        "grey",
        "grey_complement",
        "identity",
        "mu",
        "partner_tuples",
        "Configuration",
        "hook_partitions",
        "HookPartition",
        "perm_identity",
        "images_unsigned",
        "images_signed",
        "first_values",
        "check_size",
        "distance_distribution",
    ],
)
def test_negative_size_rejected(build, name):
    with pytest.raises(ValueError, match=rf"^{name} must be >= 0, got -1$"):
        build(-1)


@pytest.mark.parametrize("union", [bg.union_cycle_lengths, bg.union_cycle_count])
def test_union_of_mismatched_sizes_is_rejected(union):
    with pytest.raises(ValueError, match="different vertex sets"):
        union((1, 0), (1, 0, 3, 2))
