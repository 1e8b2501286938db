from math import factorial

import pytest

from bghultman import distances as D
from bghultman.distances import (
    GENERATOR_SETS,
    bfs_distances,
    bfs_level_sizes,
    bid,
    bound_distribution,
    bound_report,
    compare_to_shifted,
    dcj,
    distance_distribution,
    psrd_lower,
    ptd_lower,
    srd_lower,
    td_lower,
)
from bghultman.perm import (
    GuardError,
    PermutationError,
    SignedPermutation,
    compose,
    identity,
    inverse,
    validate,
)

FIG2_PERM = validate([-5, 1, 2, 4, -7, -3, 6])


class TestFormulaDistances:
    def test_identity_is_sorted(self):
        for n in range(0, 6):
            assert bid(identity(n)) == 0
            assert dcj(identity(n)) == 0
            assert srd_lower(identity(n)) == 0
            assert td_lower(identity(n)) == 0
            assert ptd_lower(identity(n)) == 0
            assert psrd_lower(identity(n)) == 0

    def test_examples(self):
        assert bid(validate([2, 1])) == 1
        assert dcj(FIG2_PERM) == 6
        assert td_lower(validate([2, 1])) == 1

    def test_signedness_enforced(self):
        with pytest.raises(PermutationError):
            bid(validate([-1]))
        with pytest.raises(PermutationError):
            td_lower(validate([-1, 2]))
        with pytest.raises(PermutationError):
            ptd_lower(validate([-1, 2]))

    def test_bound_report_fields(self):
        report = bound_report(FIG2_PERM, "dcj")
        assert report.value == 6
        assert report.c == 2
        assert not report.first_is_one
        report = bound_report(identity(3), "ptd_lower")
        assert report.c == report.c_1 == 4 and report.first_is_one


class TestDistributions:
    def test_dcj_row(self):
        assert distance_distribution(3, "dcj").counts == {0: 1, 1: 6, 2: 21, 3: 20}

    def test_bid_row(self):
        # S_3: identity at distance 0, the five c=2 permutations at distance 1.
        assert distance_distribution(3, "bid").counts == {0: 1, 1: 5}
        assert distance_distribution(3, "bid").total() == 6

    def test_formula_vs_tally(self):
        for n in range(0, 7):
            assert bound_distribution(n, "bid") == distance_distribution(n, "bid")
        for n in range(0, 5):
            assert bound_distribution(n, "dcj") == distance_distribution(n, "dcj")

    def test_tally_parallel_matches(self):
        assert bound_distribution(5, "td_lower", jobs=3) == bound_distribution(5, "td_lower")

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            distance_distribution(3, "nope")
        with pytest.raises(ValueError):
            bound_distribution(3, "reversal")

    def test_census_input_checks(self):
        with pytest.raises(ValueError):
            bound_distribution(-1, "td_lower")
        with pytest.raises(GuardError):
            bound_distribution(11, "td_lower")
        with pytest.raises(GuardError):
            bound_distribution(9, "srd_lower")


class TestBFS:
    def test_group_orders(self):
        for name, gset in GENERATOR_SETS.items():
            n = 4 if not gset.signed else 3
            total = factorial(n) * (2**n if gset.signed else 1)
            sizes = bfs_level_sizes(n, name)
            assert sum(sizes.values()) == total, name
            assert sizes[0] == 1

    def test_signed_reversal_level_sum_n3(self):
        assert sum(bfs_level_sizes(3, "signed_reversal").values()) == 48

    def test_swap_distances(self):
        swap = (2, 1)
        assert bfs_distances(2, "reversal")[swap] == 1
        assert bfs_distances(2, "transposition")[swap] == 1
        assert bfs_distances(2, "block_interchange")[swap] == 1

    def test_moves_closed_under_inverse(self):
        for name, gset in GENERATOR_SETS.items():
            n = 4 if not gset.signed else 3
            states = list(bfs_distances(n, name))
            for s in states[:40]:
                for t in gset.moves(s):
                    assert s in set(gset.moves(t)), name

    def test_left_invariance_spot_check(self):
        for name in ("reversal", "prefix_transposition", "signed_reversal"):
            gset = GENERATOR_SETS[name]
            n = 4 if not gset.signed else 3
            ident = bfs_distances(n, name)
            start = (3, 1, 4, 2) if not gset.signed else (-2, 3, -1)
            dist = {start: 0}
            frontier = [start]
            d = 0
            while frontier:
                nxt = []
                for s in frontier:
                    for nb in gset.moves(s):
                        if nb not in dist:
                            dist[nb] = d + 1
                            nxt.append(nb)
                d += 1
                frontier = nxt
            inv = inverse(SignedPermutation(start))
            for x, dx in dist.items():
                relabeled = compose(inv, SignedPermutation(x)).images
                assert dx == ident[relabeled]

    def test_guards(self):
        with pytest.raises(GuardError):
            bfs_distances(9, "reversal")
        with pytest.raises(GuardError):
            bfs_distances(7, "signed_reversal")
        with pytest.raises(ValueError):
            bfs_distances(3, "unknown_moves")


class TestDomination:
    def test_unsigned_bounds_below_bfs(self):
        for n in range(0, 6):
            td_bfs = bfs_distances(n, "transposition")
            for images, d in td_bfs.items():
                assert D._metric_value(images, "td_lower") <= d
                assert D._metric_value(images, "bid") <= d
            ptd_bfs = bfs_distances(n, "prefix_transposition")
            for images, d in ptd_bfs.items():
                assert D._metric_value(images, "ptd_lower") <= d

    def test_bid_below_transposition_n7(self):
        bfs = bfs_distances(7, "transposition")
        assert all(D._metric_value(images, "bid") <= d for images, d in bfs.items())
        assert all(D._metric_value(images, "td_lower") <= d for images, d in bfs.items())

    def test_signed_bounds_below_bfs(self):
        for n in range(0, 5):
            srd_bfs = bfs_distances(n, "signed_reversal")
            for images, d in srd_bfs.items():
                assert D._metric_value(images, "srd_lower") <= d
            psrd_bfs = bfs_distances(n, "prefix_signed_reversal")
            for images, d in psrd_bfs.items():
                assert D._metric_value(images, "psrd_lower") <= d

    def test_srd_bound_equality_fraction_n6(self):
        # The cycle bound is tight for most signed permutations; the 0.9
        # threshold is an engineering check on "most", not a proved constant.
        bfs = bfs_distances(6, "signed_reversal")
        tight = 0
        for images, d in bfs.items():
            lb = D._metric_value(images, "srd_lower")
            assert lb <= d
            tight += lb == d
        assert tight / len(bfs) > 0.9

    def test_lower_bound_distributions_dominate_cumulatively(self):
        # Cumulative mass of the bound distribution is >= that of the true
        # distance at every k (the bound never overshoots).
        for metric, bfs_name, n in (
            ("srd_lower", "signed_reversal", 4),
            ("td_lower", "transposition", 5),
        ):
            bound = bound_distribution(n, metric).counts
            exact = bfs_level_sizes(n, bfs_name)
            top = max(list(bound) + list(exact))
            cb = ce = 0
            for k in range(top + 1):
                cb += bound.get(k, 0)
                ce += exact.get(k, 0)
                assert cb >= ce


class TestCompare:
    def test_transposition_fit(self):
        result = compare_to_shifted(5, "transposition")
        assert result.offset == 0
        assert sum(d for _, d, _ in result.rows) == 120
        assert sum(s for _, _, s in result.rows) == 120

    def test_signed_reversal_fit(self):
        result = compare_to_shifted(5, "signed_reversal")
        assert result.offset == 0
        assert sum(d for _, d, _ in result.rows) == 2**5 * 120

    def test_offset_is_minimal(self):
        result = compare_to_shifted(4, "prefix_reversal")
        dist = bfs_level_sizes(4, "prefix_reversal")
        for m in range(-5, 6):
            shifted = D._shifted_counts(4, False, m)
            keys = set(dist) | set(shifted)
            tv = sum(abs(dist.get(k, 0) - shifted.get(k, 0)) for k in keys)
            assert result.total_variation <= tv
