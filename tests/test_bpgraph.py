from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bghultman import bpgraph as bg
from bghultman.hultman import HookPartition, hook_partitions
from bghultman.perm import GuardError, SignedPermutation, enumerate_signed, identity, validate

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
            profile = bg.cycle_profile(bg.breakpoint_graph(identity(n)))
            assert profile.lengths == (1,) * (n + 1)
            assert profile.c == profile.c_odd == profile.c_1 == n + 1

    def test_fig2_has_two_cycles(self):
        assert bg.cycle_profile(bg.breakpoint_graph(FIG2_PERM)).c == 2

    def test_swap_is_one_three_cycle(self):
        profile = bg.cycle_profile(bg.breakpoint_graph(validate([2, 1])))
        assert profile.lengths == (3,)

    def test_negative_singleton_profile(self):
        profile = bg.cycle_profile(bg.breakpoint_graph(validate([-1])))
        assert profile.lengths == (2,)
        assert profile.c == 1 and profile.c_odd == 0 and profile.c_1 == 0

    @given(signed_perms())
    def test_lengths_sum_and_range(self, pi):
        profile = bg.cycle_profile(bg.breakpoint_graph(pi))
        assert sum(profile.lengths) == pi.n + 1
        assert 1 <= profile.c <= pi.n + 1

    @given(signed_perms())
    def test_fast_counters_agree(self, pi):
        profile = bg.cycle_profile(bg.breakpoint_graph(pi))
        assert bg.cycle_count_images(pi.images) == profile.c
        assert tuple(sorted(bg.cycle_lengths_images(pi.images))) == profile.lengths


class TestComplementAndValidity:
    def test_fig2_complement_is_hamiltonian(self):
        config = bg.breakpoint_graph(FIG2_PERM)
        assert bg.union_cycle_count(*bg.complement(config)) == 1
        assert bg.is_valid_breakpoint_graph(config)

    def test_non_hamiltonian_fixture(self):
        config = bg.Configuration(7, bg.matching_from_pairs(NON_HAMILTONIAN_BLACK, size=16))
        assert bg.union_cycle_count(*bg.complement(config)) == 2
        assert not bg.is_valid_breakpoint_graph(config)

    def test_identity_complement_covers_all_vertices(self):
        for n in range(5):
            # One cycle with n + 1 black edges meets all 2n + 2 vertices.
            union = bg.complement(bg.breakpoint_graph(identity(n)))
            assert bg.union_cycle_lengths(*union) == (n + 1,)

    def test_tiny_invalid_configuration(self):
        config = bg.Configuration(1, bg.matching_from_pairs([(0, 3), (1, 2)]))
        assert not bg.is_valid_breakpoint_graph(config)

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
            for tau in bg.enumerate_matchings(n + 1):
                config = bg.Configuration(n, tau)
                if bg.is_valid_breakpoint_graph(config):
                    valid += 1
                    recovered.add(bg.recover_permutation(config).images)
            assert valid == 2**n * factorial(n)
            assert len(recovered) == valid


class TestMatchings:
    def test_counts(self):
        assert len(list(bg.enumerate_matchings(2))) == 3
        for m in range(1, 6):
            assert len(list(bg.enumerate_matchings(m))) == double_factorial_odd(m)

    def test_deterministic_order(self):
        assert list(bg.enumerate_matchings(3)) == list(bg.enumerate_matchings(3))

    def test_guard(self):
        with pytest.raises(GuardError):
            list(bg.enumerate_matchings(9))
        with pytest.raises(ValueError):
            list(bg.enumerate_matchings(0))

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
            matchings = list(bg.enumerate_matchings(m))
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
    "build",
    [
        bg.grey_matching,
        bg.grey_complement_matching,
        bg.identity_matching,
        bg.mu_relabeling,
        lambda m: list(bg.iter_partner_tuples(m)),
        lambda n: bg.Configuration(n, bg.PerfectMatching(())),
        lambda n: list(hook_partitions(n)),
        lambda n: HookPartition(0, 0, n),
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
    ],
)
def test_negative_size_rejected(build):
    with pytest.raises(ValueError, match="must be >= 0"):
        build(-1)
