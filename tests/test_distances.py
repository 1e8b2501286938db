from collections import Counter
from functools import partial
from math import factorial

import pytest

from bghultman import cli
from bghultman import distances as D
from bghultman.bpgraph import weighted_cycle_sum
from bghultman.census import SIGNED_CENSUS_GUARD, UNSIGNED_CENSUS_GUARD, weighted_census
from bghultman.distances import (
    BFS_SIGNED_GUARD,
    BFS_UNSIGNED_GUARD,
    GENERATOR_SETS,
    bfs_distances,
    bfs_level_sizes,
    bound_distribution,
    compare_to_shifted,
    distance_distribution,
    metric_value,
)
from bghultman.exactmath import Polynomial
from bghultman.hultman import cycle_row
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


def _mirror(t):
    # w0 t w0 for the reversal w0: t read backwards, each value v replaced by
    # sgn(v) * (n + 1 - |v|).
    n = len(t)
    return tuple([-n - 1 - v if v < 0 else n + 1 - v for v in reversed(t)])


def _shift(t, m):
    # The toric shift: frame t as (0 t) on Z_{n+1}, read it from position m
    # and subtract the value there.
    n = len(t)
    framed = (0, *t)
    return tuple([(framed[(i + m) % (n + 1)] - framed[m]) % (n + 1) for i in range(1, n + 1)])


TORIC_SETS = ("transposition", "block_interchange")

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
            for metric in D.METRICS:
                assert metric_value(identity(n).images, metric) == 0

    def test_examples(self):
        assert metric_value((2, 1), "bid") == 1
        assert metric_value(FIG2_PERM.images, "dcj") == 6  # n + 1 - c with c = 2
        assert metric_value((2, 1), "td_lower") == 1
        # Fig. 2 has cycle lengths (1, 7) and first image -5, so psrd_lower
        # is n+1+c-2*c_1-2*[first != 1] = 8 + 2 - 2 - 2.
        assert metric_value(FIG2_PERM.images, "psrd_lower") == 6
        # The identity of 3 has c = c_1 = 4 and first image 1: (4 + 4)/2 - 4.
        assert metric_value((1, 2, 3), "ptd_lower") == 0
        with pytest.raises(ValueError, match=r"^unknown metric 'reversal'$"):
            metric_value(FIG2_PERM.images, "reversal")

    def test_signedness_enforced(self):
        # One row per cycle-based metric; metric_value enforces the group of
        # each unsigned one.
        assert list(D.METRICS) == ["bid", "dcj", "srd_lower", "td_lower", "ptd_lower", "psrd_lower"]
        unsigned = [m for m, row in D.METRICS.items() if not row.signed]
        assert unsigned == ["bid", "td_lower", "ptd_lower"]
        for metric in unsigned:
            for images in [(-1,), (-1, 2)]:
                with pytest.raises(PermutationError, match=f"^{metric} requires an unsigned"):
                    metric_value(images, metric)


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
            assert bound_distribution(n, "srd_lower") == distance_distribution(n, "srd_lower")

    def test_route_follows_the_weight_row(self):
        # A metric whose weight row weighs every cycle 1 reads the closed-form
        # row; every other one is tallied behind the census guard.
        closed = [m for m, row in D.METRICS.items() if row.closed_form]
        assert closed == ["bid", "dcj", "srd_lower"]
        for metric in D.METRICS.keys() - closed:
            guard = SIGNED_CENSUS_GUARD if D.METRICS[metric].signed else UNSIGNED_CENSUS_GUARD
            with pytest.raises(GuardError):
                distance_distribution(guard + 1, metric)

    def test_srd_lower_reads_the_closed_form(self):
        # srd_lower and dcj are both n+1-c on the signed group, so they have
        # one table, past the census guard too.
        assert SIGNED_CENSUS_GUARD + 1 <= 40
        for n in range(41):
            dcj_counts = distance_distribution(n, "dcj").counts
            assert distance_distribution(n, "srd_lower").counts == dcj_counts, n
        with pytest.raises(GuardError):
            bound_distribution(SIGNED_CENSUS_GUARD + 1, "srd_lower")

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
                assert metric_value(images, metric) == want, images
                expected[want] += 1
            assert bound_distribution(n, metric).counts == expected, n

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match=r"^unknown metric 'nope'$"):
            distance_distribution(3, "nope")
        with pytest.raises(ValueError, match=r"^unknown metric 'reversal'$"):
            bound_distribution(3, "reversal")

    def test_negative_n(self):
        for metric in ("bid", "dcj", "td_lower", "psrd_lower", "reversal"):
            with pytest.raises(ValueError, match=r"^n must be >= 0, got -2$"):
                distance_distribution(-2, metric)

    def test_census_input_checks(self):
        with pytest.raises(ValueError):
            bound_distribution(-1, "td_lower")
        with pytest.raises(GuardError):
            bound_distribution(UNSIGNED_CENSUS_GUARD + 1, "td_lower")
        with pytest.raises(GuardError):
            bound_distribution(SIGNED_CENSUS_GUARD + 1, "srd_lower")


# Each entry that reads a table by name, with an unknown name, and what the
# table holds.
UNKNOWN_NAMES = [
    (metric_value, ((1, 2), "pancake"), "metric"),
    (bound_distribution, (3, "pancake"), "metric"),
    (distance_distribution, (3, "pancake"), "metric"),
    (bfs_level_sizes, (3, "pancake"), "generator set"),
    (weighted_census, (3, False, "pancake"), "cycle weight"),
    (weighted_cycle_sum, ((1, 2), "pancake"), "cycle weight"),
]


@pytest.mark.parametrize(
    "entry, args, what", UNKNOWN_NAMES, ids=[entry.__name__ for entry, *_ in UNKNOWN_NAMES]
)
def test_unknown_name_is_rejected(entry, args, what):
    with pytest.raises(ValueError, match=rf"^unknown {what} 'pancake'$"):
        entry(*args)


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
        # Christie (1996): block-interchange distance is (n+1-c)/2, checked
        # one size past the guard too.
        for n in range(0, 10):
            bfs = distance_distribution(n, "block_interchange", force=True).counts
            assert bfs == distance_distribution(n, "bid").counts, n
        assert list(bfs.values()) == [1, 330, 16401, 152900, 193248]

    def test_transposition_levels_past_guard(self):
        # The n = 9 row the README records.
        sizes = bfs_level_sizes(9, "transposition", force=True)
        assert list(sizes.values()) == [1, 120, 4284, 52512, 191636, 114327]

    @pytest.mark.parametrize(
        "name, diameters",
        [
            ("prefix_reversal", [0, 1, 3, 4, 5, 7, 8, 9]),  # pancake numbers, OEIS A058986
            ("prefix_signed_reversal", [1, 4, 6, 8, 10, 12]),  # burnt pancakes, OEIS A078941
            ("transposition", [0, 1, 2, 3, 3, 4, 4, 5, 5]),
        ],
    )
    def test_known_diameters(self, name, diameters):
        for n, diameter in enumerate(diameters, start=1):
            assert max(bfs_level_sizes(n, name, force=True)) == diameter, n

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
            bfs_distances(-1, "transposition")
        with pytest.raises(ValueError):
            bfs_level_sizes(-1, "transposition")

    def test_byte_bfs_equals_tuple_bfs(self):
        for name, gset in GENERATOR_SETS.items():
            for n in range(0, 6 if gset.signed else 8):
                dist = bfs_distances(n, name)
                assert dist == _tuple_bfs(gset, tuple(range(1, n + 1))), (name, n)
                assert bfs_level_sizes(n, name) == Counter(dist.values()), (name, n)

    # The level sizes at the guards as a plain top-down BFS counts them,
    # expanding every state; below the guards test_byte_bfs_equals_tuple_bfs
    # checks every size against _tuple_bfs.
    GUARD_LEVELS = {
        "reversal": [1, 28, 487, 4642, 16445, 16604, 2111, 2],
        "prefix_reversal": [1, 7, 42, 251, 1191, 4281, 10561, 15011, 8520, 455],
        "transposition": [1, 84, 1932, 13467, 22000, 2836],
        "prefix_transposition": [1, 28, 532, 4970, 18096, 15532, 1161],
        "block_interchange": [1, 210, 5985, 26060, 8064],
        "signed_reversal": [1, 21, 245, 2170, 8820, 19495, 15148, 180],
        "prefix_signed_reversal": [1, 6, 30, 150, 675, 2340, 6604, 12795, 15519, 6957, 959, 43, 1],
    }

    def test_levels_at_the_guards(self):
        assert set(self.GUARD_LEVELS) == set(GENERATOR_SETS)
        for name, gset in GENERATOR_SETS.items():
            n = BFS_SIGNED_GUARD if gset.signed else BFS_UNSIGNED_GUARD
            assert list(bfs_level_sizes(n, name).values()) == self.GUARD_LEVELS[name], name

    def test_bottom_up_runs_for_the_bfs_workload(self, monkeypatch, capsys):
        # The commands of perfbench's bfs_oracle workload each switch to
        # bottom-up rounds, which stream the group once.
        streamed = []
        stream = D._group_codes
        monkeypatch.setattr(D, "_group_codes", lambda *args: streamed.append(args) or stream(*args))
        for command in [
            "dist --metric signed_reversal --n 6",
            "dist --metric transposition --n 8",
            "compare --metric prefix_signed_reversal --n 6",
        ]:
            assert cli.main(command.split()) == 0, command
        assert streamed == [(6, True), (8, False), (6, True)]
        capsys.readouterr()

    def test_smallest_sizes(self):
        # Every set has no generators at n = 0, and the unsigned ones none at
        # n = 1 either: their whole group is the identity.
        signed_rows = {"signed_reversal": [1, 3, 3, 1], "prefix_signed_reversal": [1, 2, 2, 2, 1]}
        for name, gset in GENERATOR_SETS.items():
            assert D._generators(gset, 0) == ()
            assert (D._generators(gset, 1) == ()) is not gset.signed
            rows = [[1], [1, 1] if gset.signed else [1], signed_rows.get(name, [1, 1])]
            for n, row in enumerate(rows):
                assert list(bfs_level_sizes(n, name).values()) == row, (name, n)
                assert Counter(bfs_distances(n, name).values()) == dict(enumerate(row)), (name, n)

    def test_group_codes(self):
        # The bottom-up rounds' stream: an iterator over every group element
        # once, each a valid permutation in the byte encoding v + n.
        for signed, top in ((False, 7), (True, 5)):
            for n in range(top + 1):
                codes = D._group_codes(n, signed)
                assert iter(codes) is codes
                codes = list(codes)
                order = factorial(n) << n * signed
                assert len(codes) == len(set(codes)) == order, (signed, n)
                for code in codes:
                    images = [c - n for c in code]
                    assert validate(images).images == tuple(images)
                    assert signed or min(images, default=1) > 0

    @staticmethod
    def _check_orbit_length(name, n):
        # The length of a state's orbit list under the BFS's orbit map: 1,
        # with no map, when no symmetry is kept, 2 for the mirror alone,
        # n + 1 for the toric shifts alone and 2(n + 1) for both.  The
        # expected length comes from two facts.  Conjugation by the reversal
        # maps a set's generators onto themselves for every set below n = 2,
        # at n = 2 for all but prefix signed reversals, and from n = 3 on
        # exactly for the four sets that are not prefix sets.  Every toric
        # shift maps them back into the set for transpositions and block
        # interchanges, and for every unsigned set below n = 3; signed sets
        # are never shifted.
        state = bytes(range(n + 1, 2 * n + 1))
        orbit = D._bfs_moves(n, name, True)[1]
        images = [state] if orbit is None else orbit(state)
        assert images[0] == state, (name, n)
        prefix = name.startswith("prefix_")
        mirror = n < 2 or not prefix or n == 2 and name != "prefix_signed_reversal"
        toric = not GENERATOR_SETS[name].signed and (name in TORIC_SETS or n <= 2)
        assert len(images) == (n + 1 if toric else 1) * (2 if mirror else 1), (name, n)

    def test_mirror_closure_is_derived(self):
        # The sets never shifted from n = 3 on, whose orbits from there on
        # are the mirror pairs or single states.
        for name in GENERATOR_SETS:
            if name not in TORIC_SETS:
                for n in range(0, 9):
                    self._check_orbit_length(name, n)

    def test_toric_closure_is_derived(self):
        for name in TORIC_SETS:
            for n in range(0, 9):
                self._check_orbit_length(name, n)

    def test_levels_expand_one_state_per_orbit(self):
        # The mirror w0 s w0, and for unsigned sets the toric shifts, are
        # symmetries of the BFS exactly where they map the generators onto
        # themselves: then every state's image lies at the state's distance,
        # and otherwise some state's does not.  The BFS expands one state of
        # each orbit of the symmetries, counted here from tuples.
        for name, gset in GENERATOR_SETS.items():
            for n in range(0, 6 if gset.signed else 8):
                dist = bfs_distances(n, name)
                generators = set(gset.moves(identity(n).images))
                shifts = [] if gset.signed else [partial(_shift, m=m) for m in range(n + 1)]
                symmetries = []
                for f in [_mirror, *shifts]:
                    closed = {f(g) for g in generators} == generators
                    kept = all(dist[f(t)] == d for t, d in dist.items())
                    assert closed == kept, (name, n, f)
                    symmetries += [f] * closed
                orbits = 0
                unseen = set(dist)
                while unseen:
                    orbits += 1
                    stack = [unseen.pop()]
                    while stack:
                        t = stack.pop()
                        images = {f(t) for f in symmetries} & unseen
                        unseen -= images
                        stack += images
                levels = D._bfs_levels(n, *D._bfs_moves(n, name, False))
                assert sum(len(level) for _, level in levels) == orbits, (name, n)

    def test_value_tables_are_left_multiplications(self):
        # Each table relabels the values of an encoded t (each v as v + n) as
        # its generator g does, which is g composed after t.
        for name, gset in GENERATOR_SETS.items():
            stream = iter_images_signed if gset.signed else iter_images_unsigned
            for n in range(0, 5):
                generators = gset.moves(identity(n).images)
                tables = D._value_tables(gset, n)
                assert len(tables) == len(generators)
                for t in stream(n):
                    code = bytes([n + v for v in t])
                    for g, table in zip(generators, tables):
                        moved = tuple([c - n for c in code.translate(table)])
                        expected = compose(SignedPermutation(g), SignedPermutation(t)).images
                        assert moved == expected, (name, g, t)

    def test_encoding_limit(self, monkeypatch):
        # States are bytes v + n in both groups: forced sizes from 128 on
        # fail at once, before any table is built, and the guard still speaks
        # first.
        built = []
        build = D._value_tables
        monkeypatch.setattr(D, "_value_tables", lambda *args: built.append(args) or build(*args))
        for name in ("transposition", "prefix_signed_reversal"):
            with pytest.raises(ValueError, match=f"{name} BFS .* below 128, got 128"):
                bfs_level_sizes(128, name, force=True)
            with pytest.raises(ValueError, match="below 128"):
                bfs_distances(178, name, force=True)
            with pytest.raises(GuardError):
                bfs_distances(128, name)
        assert built == []


class TestDomination:
    def test_unsigned_bounds_below_bfs(self):
        for n in range(0, 6):
            td_bfs = bfs_distances(n, "transposition")
            for images, d in td_bfs.items():
                assert metric_value(images, "td_lower") <= d
                assert metric_value(images, "bid") <= d
            ptd_bfs = bfs_distances(n, "prefix_transposition")
            for images, d in ptd_bfs.items():
                assert metric_value(images, "ptd_lower") <= d

    def test_bid_below_transposition_n7(self):
        bfs = bfs_distances(7, "transposition")
        assert all(metric_value(images, "bid") <= d for images, d in bfs.items())
        assert all(metric_value(images, "td_lower") <= d for images, d in bfs.items())

    def test_signed_bounds_below_bfs(self):
        for n in range(0, 5):
            srd_bfs = bfs_distances(n, "signed_reversal")
            for images, d in srd_bfs.items():
                assert metric_value(images, "srd_lower") <= d
            psrd_bfs = bfs_distances(n, "prefix_signed_reversal")
            for images, d in psrd_bfs.items():
                assert metric_value(images, "psrd_lower") <= d

    def test_srd_bound_equality_fraction_n6(self):
        # The cycle bound is tight for most signed permutations; the 0.9
        # threshold is an engineering check on "most", not a proved constant.
        bfs = bfs_distances(6, "signed_reversal")
        tight = 0
        for images, d in bfs.items():
            lb = metric_value(images, "srd_lower")
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
        monkeypatch.setattr(D, "cycle_row", lambda n, signed: Polynomial.zero())
        result = compare_to_shifted(3, "transposition")
        assert result.offset == -4
        assert result.total_variation == factorial(3)

    def test_offset_is_minimal(self):
        # The shifted family by its definition: at offset m, distance k gets
        # the count of c = n+1-k+m (signed) or n+1-2k+m (unsigned).
        def family(n, signed, m):
            row = cycle_row(n, signed)
            step = 1 if signed else 2
            counts = {}
            for k in range(-(2 * n + 2), 2 * n + 3):
                v = row.coefficient(n + 1 - step * k + m)
                if v:
                    counts[k] = v
            return counts

        # The family is the closed-form distance table shifted by m/step, or
        # nothing, and compare reports it at the offset it picks.
        for name, gset in GENERATOR_SETS.items():
            step = 1 if gset.signed else 2
            for n in range(7):
                table = distance_distribution(n, "dcj" if gset.signed else "bid").counts
                for m in range(-(n + 1), n + 2):
                    shifted = {} if m % step else {k + m // step: v for k, v in table.items()}
                    assert shifted == family(n, gset.signed, m)
            for n in range(5):
                result = compare_to_shifted(n, name)
                shifted = {k: s for k, _, s in result.rows if s}
                assert shifted == family(n, gset.signed, result.offset), (name, n)
        result = compare_to_shifted(4, "prefix_reversal")
        dist = bfs_level_sizes(4, "prefix_reversal")
        for m in range(-5, 6):
            shifted = family(4, False, m)
            keys = set(dist) | set(shifted)
            tv = sum(abs(dist.get(k, 0) - shifted.get(k, 0)) for k in keys)
            assert result.total_variation <= tv
