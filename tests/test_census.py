from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial

import pytest

from bghultman import bpgraph, census, cli, distances, perm
from bghultman.census import (
    DistributionTable,
    hultman_census,
    matching_census,
    moments_from_table,
    odd_hultman_census,
    signed_hultman_census,
)
from bghultman.hultman import (
    MomentPair,
    hultman_bona_flynn,
    signed_hultman,
    signed_moments,
    unsigned_moments,
)
from bghultman.perm import GuardError


def double_factorial_odd(m):
    out = 1
    for v in range(1, 2 * m, 2):
        out *= v
    return out


class TestCycleCensuses:
    def test_known_rows(self):
        assert signed_hultman_census(3).counts == {1: 20, 2: 21, 3: 6, 4: 1}
        assert signed_hultman_census(1).counts == {1: 1, 2: 1}
        assert hultman_census(2).counts == {1: 1, 3: 1}

    def test_matches_closed_forms(self):
        for n in range(0, 7):
            table = hultman_census(n)
            assert table.total() == factorial(n)
            assert all(table.count(k) == hultman_bona_flynn(n, k) for k in range(1, n + 2))
        for n in range(0, 6):
            table = signed_hultman_census(n)
            assert table.total() == 2**n * factorial(n)
            assert all(table.count(k) == signed_hultman(n, k) for k in range(1, n + 2))

    def test_guard(self):
        with pytest.raises(GuardError):
            hultman_census(11)
        with pytest.raises(GuardError):
            signed_hultman_census(9)


def _images(n, signed):
    return (perm.iter_images_signed if signed else perm.iter_images_unsigned)(n)


def _odd_cycle_count(images):
    return sum(length % 2 for length in bpgraph.cycle_lengths_images(images))


def _weighted_sum(weight, images):
    lengths = bpgraph.cycle_lengths_images(images)
    # The cycle through vertex 0 has length 1 iff the first image is 1 (or
    # n = 0); the third weight counts it +1 either way.
    zero_singleton = not images or images[0] == 1
    return {
        "c": len(lengths),
        "c_odd": sum(length % 2 for length in lengths),
        "c_minus_2c_1": len(lengths) - 2 * lengths.count(1) + 2 * zero_singleton,
    }[weight]


# statistic -> (signed, per-permutation key of the brute-force route the DP
# replaced, DP census of the whole group).
_TABLES = {
    "unsigned_cycles": (False, bpgraph.cycle_count_images, hultman_census),
    "signed_cycles": (True, bpgraph.cycle_count_images, signed_hultman_census),
    "unsigned_odd_cycles": (False, _odd_cycle_count, odd_hultman_census),
    **{
        metric: (
            distances._METRICS[metric].signed,
            partial(distances._metric_value, metric=metric),
            partial(distances.bound_distribution, metric=metric),
        )
        for metric in distances.FORMULA_METRICS + distances.BOUND_METRICS
    },
}

# statistic -> command line printing its table; the rest are dist metrics.
_COMMANDS = {
    "unsigned_cycles": ["census"],
    "signed_cycles": ["census", "--signed"],
    "unsigned_odd_cycles": ["census", "--statistic", "odd"],
}


@lru_cache(maxsize=None)
def _brute_table(statistic, n):
    signed, key, _ = _TABLES[statistic]
    return dict(Counter(map(key, _images(n, signed))))


class TestTransferMatrix:
    """The DP census equals the per-permutation tally it replaced."""

    @pytest.mark.parametrize("signed, max_n", [(False, 7), (True, 6)])
    @pytest.mark.parametrize("weight", census.WEIGHTS)
    def test_each_first_image(self, weight, signed, max_n):
        # One DP run covers every first image; the "c_minus_2c_1" weight
        # carries the first image's [first == 1] term.
        for n in range(0, max_n + 1):
            expected = Counter(_weighted_sum(weight, t) for t in _images(n, signed))
            assert census._weighted_census(n, signed, weight) == expected, n

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("statistic", sorted(_TABLES))
    def test_tables(self, statistic, jobs, capsys):
        signed, _, dp_census = _TABLES[statistic]
        max_n = 6 if signed else 7
        for n in range(0, max_n + 1):
            table = dp_census(n)
            assert table.n == n
            assert table.counts == _brute_table(statistic, n), n
        # --jobs is accepted for compatibility and must leave the table as it is.
        argv = _COMMANDS.get(statistic, ["dist", "--metric", statistic])
        assert cli.main([*argv, "--n", str(max_n), "--jobs", str(jobs)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert dict(map(int, row.split(",")) for row in rows) == _brute_table(statistic, max_n)

    @pytest.mark.parametrize("statistic", sorted(_TABLES))
    def test_one_dp_run(self, statistic, monkeypatch):
        calls = []
        dp = census._weighted_census

        def counting_dp(*args):
            calls.append(args)
            return dp(*args)

        monkeypatch.setattr(census, "_weighted_census", counting_dp)
        _TABLES[statistic][2](5)
        assert len(calls) == 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            census._weighted_census(3, False, "c_even")
        # A state byte must stay below the "done" marker 255.
        with pytest.raises(ValueError):
            odd_hultman_census(63, force=True)


class TestOddCensus:
    def test_singleton(self):
        assert odd_hultman_census(1).counts == {2: 1}

    def test_total_and_parity(self):
        for n in range(0, 7):
            table = odd_hultman_census(n)
            assert table.total() == factorial(n)
            for k in table.counts:
                assert k % 2 == (n + 1) % 2


class TestMatchingCensus:
    def test_tiny_case(self):
        assert matching_census(1) == {(2, 1): 1, (1, 1): 1, (1, 2): 1}

    def test_total_is_double_factorial(self):
        for n in range(0, 5):
            pairs = matching_census(n)
            assert sum(pairs.values()) == double_factorial_odd(n + 1)

    def test_hamiltonian_slice_is_signed_row(self):
        for n in range(0, 5):
            pairs = matching_census(n)
            row = {i: v for (i, j), v in pairs.items() if j == 1}
            assert row == {
                k: signed_hultman(n, k) for k in range(1, n + 2) if signed_hultman(n, k)
            }
            assert sum(row.values()) == 2**n * factorial(n)

    def test_guard(self):
        with pytest.raises(GuardError):
            matching_census(7)


class TestMomentsFromTable:
    def test_examples(self):
        signed1 = DistributionTable(1, "signed_cycles", {1: 1, 2: 1})
        assert moments_from_table(signed1, 2) == MomentPair(Fraction(3, 2), Fraction(1, 4))
        unsigned1 = DistributionTable(1, "unsigned_cycles", {2: 1})
        assert moments_from_table(unsigned1, 1) == MomentPair(Fraction(2), Fraction(0))
        unsigned2 = DistributionTable(2, "unsigned_cycles", {1: 1, 3: 1})
        assert moments_from_table(unsigned2, 2) == MomentPair(Fraction(2), Fraction(1))

    def test_total_mismatch(self):
        table = DistributionTable(1, "unsigned_cycles", {2: 1})
        with pytest.raises(ValueError):
            moments_from_table(table, 5)

    def test_matches_formula_moments(self):
        for n in range(1, 6):
            assert (
                moments_from_table(hultman_census(n), factorial(n)) == unsigned_moments(n)
            )
            assert (
                moments_from_table(signed_hultman_census(n), 2**n * factorial(n))
                == signed_moments(n)
            )


class TestDistributionTable:
    def test_accessors(self):
        table = DistributionTable(3, "x", {2: 5, 1: 1})
        assert table.count(2) == 5
        assert table.count(7) == 0
        assert table.total() == 6
