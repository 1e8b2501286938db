from collections import Counter
from math import factorial

import pytest

from bghultman import distances as D
from bghultman.distances import (
    GENERATOR_SETS,
    GeneratorSet,
    bfs_distances,
    bfs_level_sizes,
    bid,
    bound_distribution,
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
    iter_images_signed,
    iter_images_unsigned,
    validate,
)

FIG2_PERM = validate([-5, 1, 2, 4, -7, -3, 6])


# The slicing move generators the position maps replaced, kept as the
# reference that GeneratorSet.moves must equal.
def _reversal_moves(t):
    n = len(t)
    for i in range(n - 1):
        for j in range(i + 1, n):
            yield t[:i] + t[i : j + 1][::-1] + t[j + 1 :]


def _prefix_reversal_moves(t):
    n = len(t)
    for j in range(1, n):
        yield t[: j + 1][::-1] + t[j + 1 :]


def _signed_reversal_moves(t):
    n = len(t)
    for i in range(n):
        for j in range(i, n):
            mid = tuple(-x for x in reversed(t[i : j + 1]))
            yield t[:i] + mid + t[j + 1 :]


def _prefix_signed_reversal_moves(t):
    n = len(t)
    for j in range(n):
        yield tuple(-x for x in reversed(t[: j + 1])) + t[j + 1 :]


def _transposition_moves(t):
    n = len(t)
    for i in range(n - 1):
        for j in range(i + 1, n):
            for k in range(j + 1, n + 1):
                yield t[:i] + t[j:k] + t[i:j] + t[k:]


def _prefix_transposition_moves(t):
    n = len(t)
    for j in range(1, n):
        for k in range(j + 1, n + 1):
            yield t[j:k] + t[:j] + t[k:]


def _block_interchange_moves(t):
    n = len(t)
    for i in range(n - 1):
        for j in range(i + 1, n):
            for k in range(j, n):
                for l in range(k + 1, n + 1):
                    yield t[:i] + t[k:l] + t[j:k] + t[i:j] + t[l:]


# Reference BFS over tuples from ``start``, by right multiplication through
# GeneratorSet.moves; bfs_distances must equal it from the identity.
def _tuple_bfs(gset, start):
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        nxt = []
        for state in frontier:
            for nb in gset.moves(state):
                if nb not in dist:
                    dist[nb] = d + 1
                    nxt.append(nb)
        d += 1
        frontier = nxt
    return dist


SLICING_MOVES = {
    "reversal": _reversal_moves,
    "prefix_reversal": _prefix_reversal_moves,
    "transposition": _transposition_moves,
    "prefix_transposition": _prefix_transposition_moves,
    "block_interchange": _block_interchange_moves,
    "signed_reversal": _signed_reversal_moves,
    "prefix_signed_reversal": _prefix_signed_reversal_moves,
}


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
        assert dcj(FIG2_PERM) == 6  # n + 1 - c with c = 2
        assert td_lower(validate([2, 1])) == 1
        # Fig. 2 has cycle lengths (1, 7) and first image -5, so psrd_lower
        # is n+1+c-2*c_1-2*[first != 1] = 8 + 2 - 2 - 2.
        assert psrd_lower(FIG2_PERM) == 6
        # The identity of 3 has c = c_1 = 4 and first image 1: (4 + 4)/2 - 4.
        assert ptd_lower(identity(3)) == 0
        with pytest.raises(ValueError, match="unknown metric"):
            D._metric_value(FIG2_PERM.images, "reversal")

    def test_signedness_enforced(self):
        with pytest.raises(PermutationError):
            bid(validate([-1]))
        with pytest.raises(PermutationError):
            td_lower(validate([-1, 2]))
        with pytest.raises(PermutationError):
            ptd_lower(validate([-1, 2]))
        # One row per cycle-based metric; the private route enforces the
        # unsigned ones too.
        assert list(D._METRICS) == [*D.FORMULA_METRICS, *D.BOUND_METRICS]
        unsigned = [m for m, row in D._METRICS.items() if not row.signed]
        assert unsigned == ["bid", "td_lower", "ptd_lower"]
        for metric in unsigned:
            with pytest.raises(PermutationError):
                D._metric_value((-1, 2), metric)


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

    @pytest.mark.parametrize(
        "metric, signed, max_n", [("ptd_lower", False, 7), ("psrd_lower", True, 6)]
    )
    def test_prefix_bounds_from_cycle_lengths(self, metric, signed, max_n):
        # The census reads these bounds off one weighted cycle sum; check them
        # against the textbook form, from the cycle lengths and the first image.
        stream = iter_images_signed if signed else iter_images_unsigned
        for n in range(0, max_n + 1):
            expected = Counter()
            for images in stream(n):
                lengths = D.bpgraph.cycle_lengths_images(images)
                c, c_1 = len(lengths), lengths.count(1)
                first_not_one = not images or images[0] != 1
                if metric == "ptd_lower":
                    assert (n + 1 + c) % 2 == 0
                    want = max(0, (n + 1 + c) // 2 - c_1 - first_not_one)
                else:
                    want = max(0, n + 1 + c - 2 * c_1 - 2 * first_not_one)
                assert getattr(D, metric)(SignedPermutation(images)) == want, images
                expected[want] += 1
            assert bound_distribution(n, metric).counts == expected, n

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            distance_distribution(3, "nope")
        with pytest.raises(ValueError):
            bound_distribution(3, "reversal")

    def test_negative_n(self):
        for metric in ("bid", "dcj", "td_lower", "psrd_lower", "reversal"):
            with pytest.raises(ValueError):
                distance_distribution(-2, metric)

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

    def test_moves_equal_slicing_reference(self):
        assert set(SLICING_MOVES) == set(GENERATOR_SETS)
        for name, gset in GENERATOR_SETS.items():
            stream = iter_images_signed if gset.signed else iter_images_unsigned
            for n in range(0, 6 if gset.signed else 7):
                for t in stream(n):
                    assert sorted(gset.moves(t)) == sorted(SLICING_MOVES[name](t)), (name, t)

    def test_moves_are_right_multiplications(self):
        # t's neighbours are t composed with the identity's neighbours, which
        # is why distances from a BFS at the identity are left-invariant.
        for name, gset in GENERATOR_SETS.items():
            stream = iter_images_signed if gset.signed else iter_images_unsigned
            for n in range(0, 6):
                generators = [SignedPermutation(g) for g in gset.moves(identity(n).images)]
                for t in list(stream(n))[::7]:
                    pi = SignedPermutation(t)
                    expected = sorted(compose(pi, g).images for g in generators)
                    assert sorted(gset.moves(t)) == expected, (name, t)

    def test_block_interchange_matches_closed_form(self):
        # Christie (1996): block-interchange distance is (n+1-c)/2.
        for n in range(0, 8):
            bfs = distance_distribution(n, "block_interchange").counts
            assert bfs == distance_distribution(n, "bid").counts, n

    @pytest.mark.parametrize(
        "name, diameters",
        [
            ("prefix_reversal", [0, 1, 3, 4, 5, 7, 8, 9]),  # pancake numbers, OEIS A058986
            ("prefix_signed_reversal", [1, 4, 6, 8, 10, 12]),  # burnt pancakes, OEIS A078941
        ],
    )
    def test_known_diameters(self, name, diameters):
        for n, diameter in enumerate(diameters, start=1):
            assert max(bfs_level_sizes(n, name)) == diameter, n

    def test_left_invariance_spot_check(self):
        for name in ("reversal", "prefix_transposition", "signed_reversal"):
            gset = GENERATOR_SETS[name]
            n = 4 if not gset.signed else 3
            ident = bfs_distances(n, name)
            start = (3, 1, 4, 2) if not gset.signed else (-2, 3, -1)
            inv = inverse(SignedPermutation(start))
            for x, dx in _tuple_bfs(gset, start).items():
                relabeled = compose(inv, SignedPermutation(x)).images
                assert dx == ident[relabeled]

    def test_guards(self):
        with pytest.raises(GuardError):
            bfs_distances(9, "reversal")
        with pytest.raises(GuardError):
            bfs_distances(7, "signed_reversal")
        with pytest.raises(ValueError):
            bfs_distances(3, "unknown_moves")
        with pytest.raises(ValueError):
            GeneratorSet("pancake")
        with pytest.raises(ValueError):
            bfs_distances(-1, "transposition")
        with pytest.raises(ValueError):
            bfs_level_sizes(-1, "transposition")

    def test_byte_bfs_equals_tuple_bfs(self):
        for name, gset in GENERATOR_SETS.items():
            for n in range(0, 5 if gset.signed else 7):
                dist = bfs_distances(n, name)
                assert dist == _tuple_bfs(gset, tuple(range(1, n + 1))), (name, n)
                assert bfs_level_sizes(n, name) == Counter(dist.values()), (name, n)

    def test_value_tables_are_left_multiplications(self):
        # Each table relabels the values of an encoded t (v, or v + n when
        # signed) as its generator g does, which is g composed after t.
        for name, gset in GENERATOR_SETS.items():
            stream = iter_images_signed if gset.signed else iter_images_unsigned
            for n in range(0, 5):
                shift = n if gset.signed else 0
                generators = gset.moves(identity(n).images)
                tables = D._value_tables(name, n)
                assert len(tables) == len(generators)
                for t in stream(n):
                    code = bytes([shift + v for v in t])
                    for g, table in zip(generators, tables):
                        moved = tuple([c - shift for c in code.translate(table)])
                        expected = compose(SignedPermutation(g), SignedPermutation(t)).images
                        assert moved == expected, (name, g, t)

    def test_encoding_limit(self):
        # States are bytes: forced sizes past the codes fail at once, before
        # any table is built, and the guard still speaks first.
        built = D._value_tables.cache_info().misses
        for name, limit in (("transposition", 256), ("prefix_signed_reversal", 128)):
            with pytest.raises(ValueError, match=f"{name} BFS .* below {limit}, got {limit}"):
                bfs_level_sizes(limit, name, force=True)
            with pytest.raises(ValueError, match=f"below {limit}"):
                bfs_distances(limit + 50, name, force=True)
            with pytest.raises(GuardError):
                bfs_distances(limit, name)
        assert D._value_tables.cache_info().misses == built


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

    def test_tie_goes_to_smallest_offset(self, monkeypatch):
        # With every shifted family empty, all offsets tie at the full group
        # mass, and the docstring promises the smallest one.
        monkeypatch.setattr(D, "_shifted_counts", lambda n, signed, m: {})
        result = compare_to_shifted(3, "transposition")
        assert result.offset == -4
        assert result.total_variation == factorial(3)

    def test_offset_is_minimal(self):
        result = compare_to_shifted(4, "prefix_reversal")
        dist = bfs_level_sizes(4, "prefix_reversal")
        for m in range(-5, 6):
            shifted = D._shifted_counts(4, False, m)
            keys = set(dist) | set(shifted)
            tv = sum(abs(dist.get(k, 0) - shifted.get(k, 0)) for k in keys)
            assert result.total_variation <= tv
