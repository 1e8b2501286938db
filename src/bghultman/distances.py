"""Rearrangement distance formulas, lower bounds, and a small-n BFS engine.

Two distances are exact functions of the breakpoint-graph cycle count c:
block-interchange distance (n+1-c)/2 for unsigned permutations and
double-cut-and-join distance n+1-c for signed ones.  The other supported
distances are NP-hard or open, so this module provides their cycle-based
lower bounds plus an exact brute-force oracle: breadth-first search over the
whole group from the identity, for any of the supported generator sets.
BFS levels double as exact distance distributions at desk scale.

The BFS functions take a generator set by name, a ``GENERATOR_SETS`` key.
Each set's moves are built once per size, from its ``GeneratorSet`` row, as
a tuple of signed image tuples.  ``GeneratorSet.moves`` is right
multiplication t -> compose(t, g): the new state picks its entries, some
negated, from fixed positions of the old one.  The BFS walks by left
multiplication s -> compose(g, s) instead, which relabels the values of s
and leaves their positions alone.  A BFS state
stores each value v, signed or not, as the byte v + n, and one
``bytes.translate`` applies a move.  Both multiplications give the same
distances: the products of k generators form the same set whether each word
is built from the left or from the right, so the two balls of every radius
around the identity agree.

The BFS expands one state of each orbit of the symmetries that map the
generator set onto itself.  The candidates are the mirror, for every set,
and the toric shifts, for unsigned sets; one closure check on the generators
at each size keeps those that hold.  The mirror of s is w0 s w0, its
conjugate by the reversal w0: s read backwards, each value v replaced by
sgn(v) * (n + 1 - |v|).  (In the signed group conjugating by -w0 is the
same, since -id is central.)  It commutes with the move,
mirror(g s) = mirror(g) mirror(s).  The toric shift phi_m of an
unsigned s frames it as (0 s) on Z_{n+1}, reads the frame from position m
and subtracts the value there: phi_m(s)(i) = s(i+m) - s(m) mod n+1
(Eriksson et al., Discrete Math. 2001).  It satisfies
phi_m(g s) = phi_{s(m)}(g) phi_m(s), phi_m phi_k = phi_{m+k} and
phi_m(id) = id, so when every phi_x maps every generator back into the set,
each phi_m is a bijection that maps the moves of s onto those of phi_m(s)
and fixes the identity, and s and phi_m(s) lie at the same distance.  The
mirror holds from n = 3 on for reversals, transpositions, block interchanges
and signed reversals; the shifts hold for transpositions and block
interchanges (toric classes of up to n + 1 permutations, 2n + 2 with the
mirror), and below n = 3 for every unsigned set.  From n = 3 on the three
prefix sets expand every state.  Each image of a state found at a level is
counted there without being expanded.

The BFS runs in two phases (Beamer, Asanovic & Patterson, SC 2012).
Top-down, each round expands the frontier: every move of one state of each
orbit on it, looked up in the set of states seen so far.  Once fewer states
are unreached than lie on the last level, it turns bottom-up for good: a
round tests each state not reached yet and keeps it when one of its moves
lands in the last level, stopping at the first that does.  That is exact
because the levels of two states one move apart differ by at most one.  The
first bottom-up round streams the whole group lazily, each permutation of
the positive codes and, for a signed set, each of those under one
sign-flip translate table per sign pattern, past the set seen; later rounds
test only the states still unreached, against the last level's set alone.
The switch compares the moves out of the unreached states with the moves out
of the last level, both counted per state, so the number of generators
cancels and an orbit counts at its full width; it needs no tuning.

Each cycle-based metric is one row of ``METRICS``: its group (signed or
unsigned), the ``bpgraph.CYCLE_WEIGHTS`` row whose per-cycle sum it reads,
and its formula in n and that sum.  ``metric_value`` reads the row at one
permutation, and the census tallies and the closed-form tables read it over
the whole group.  A distribution reads ``hultman.cycle_row`` if the weight row
weighs every cycle 1, else the census.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import (
    chain, combinations_with_replacement, filterfalse, permutations, product, starmap
)
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import bpgraph
from .census import DistributionTable, weighted_census
from .exactmath import exact_div
from .hultman import cycle_row
from .perm import PermutationError, check_nonnegative, check_size, group_order, lookup

__all__ = [
    "GeneratorSet",
    "GENERATOR_SETS",
    "ComparisonResult",
    "metric_value",
    "bfs_distances",
    "bfs_level_sizes",
    "bound_distribution",
    "distance_distribution",
    "compare_to_shifted",
    "METRICS",
    "BFS_UNSIGNED_GUARD",
    "BFS_SIGNED_GUARD",
]

BFS_UNSIGNED_GUARD = 8
BFS_SIGNED_GUARD = 6

Images = tuple[int, ...]


class GeneratorSet(NamedTuple):
    """A move set generating S_n or its signed counterpart: one ``GENERATOR_SETS`` row.

    ``moves(t)`` is compose(t, g) for each generator g, so the moves of the
    identity are the generators themselves.  Every set is closed under
    inverses, so these are true left-invariant sorting distances.
    """

    gaps: tuple[int, ...]  # the smallest gaps between consecutive cut points
    prefix: bool  # whether the first cut is fixed at 0
    signed: bool  # whether the set acts on signed permutations

    def moves(self, t: Images) -> list[Images]:
        """Every state one move away from ``t``."""
        return [
            tuple([t[v - 1] if v > 0 else -t[-v - 1] for v in g])
            for g in _generators(self, len(t))
        ]


@lru_cache(maxsize=None)
def _generators(gset: GeneratorSet, n: int) -> tuple[Images, ...]:
    # Each move as a signed image tuple g: compose(t, g) takes its entries
    # from t at the positions |g| lists, negated where g is negative.
    gaps, prefix, signed = gset
    sign = -1 if signed else 1
    generators = []
    for cuts in combinations_with_replacement(range(n + 1), len(gaps) + 1):
        if prefix and cuts[0]:
            continue
        if any(b - a < gap for a, b, gap in zip(cuts, cuts[1:], gaps)):
            continue
        first, last = cuts[0], cuts[-1]
        blocks = zip(cuts, cuts[1:]) if len(cuts) > 2 else ((p, p + 1) for p in range(first, last))
        moved = [sign * p for a, b in reversed(list(blocks)) for p in range(a + 1, b + 1)]
        generators.append((*range(1, first + 1), *moved, *range(last + 1, n + 1)))
    return tuple(generators)


# Each generator set's moves, as cut points 0 <= c_0 <= ... <= c_k <= n.  Two
# cuts bound a reversed segment; with more, the blocks between the cuts trade
# places in reverse order.  A signed set negates what it reverses.
GENERATOR_SETS: dict[str, GeneratorSet] = {
    "reversal": GeneratorSet((2,), False, False),
    "prefix_reversal": GeneratorSet((2,), True, False),
    "transposition": GeneratorSet((1, 1), False, False),
    "prefix_transposition": GeneratorSet((1, 1), True, False),
    "block_interchange": GeneratorSet((1, 0, 1), False, False),
    "signed_reversal": GeneratorSet((1,), False, True),
    "prefix_signed_reversal": GeneratorSet((1,), True, True),
}


class _Metric(NamedTuple):
    signed: bool  # the group the metric is defined on
    weight: str  # the bpgraph.CYCLE_WEIGHTS row whose per-cycle sum it reads
    value: Callable[[int, int], int]  # (n, weighted sum) -> metric value

    @property
    def closed_form(self) -> bool:
        # Whether hultman.cycle_row, which counts cycles, gives the table.
        return set(bpgraph.CYCLE_WEIGHTS[self.weight]) == {1}


# One row per cycle-based metric.  The "c_minus_2c_1" sum is
# c - 2*c_1 + 2*[first == 1] (bpgraph.CYCLE_WEIGHTS), which turns the
# prefix bounds' [first != 1] term into a constant.
METRICS: dict[str, _Metric] = {
    # Exact block-interchange distance (n+1-c)/2; the halving is exact.
    "bid": _Metric(False, "c", lambda n, c: exact_div(n + 1 - c, 2)),
    # Exact double-cut-and-join distance n+1-c.
    "dcj": _Metric(True, "c", lambda n, c: n + 1 - c),
    # Cycle lower bound n+1-c on the signed reversal distance.
    "srd_lower": _Metric(True, "c", lambda n, c: n + 1 - c),
    # Odd-cycle lower bound (n+1-c_odd)/2 on the transposition distance.
    "td_lower": _Metric(False, "c_odd", lambda n, c_odd: exact_div(n + 1 - c_odd, 2)),
    # Prefix transposition bound (n+1+c)/2 - c_1 - [first != 1], clamped at 0.
    "ptd_lower": _Metric(False, "c_minus_2c_1", lambda n, w: max(0, exact_div(n + 1 + w, 2) - 1)),
    # Prefix signed reversal bound n+1+c - 2*c_1 - 2*[first != 1], clamped at 0.
    "psrd_lower": _Metric(True, "c_minus_2c_1", lambda n, w: max(0, n + 1 + w - 2)),
}


def metric_value(images: Sequence[int], metric: str) -> int:
    """The value of a cycle-based metric (a ``METRICS`` key) at one permutation."""
    signed, weight, value = lookup(METRICS, metric, "metric")
    if not signed and min(images, default=1) < 0:
        raise PermutationError(f"{metric} requires an unsigned permutation")
    return value(len(images), bpgraph.weighted_cycle_sum(images, weight))


def _tally(
    n: int, value: Callable[[int, int], int], counts: Iterable[tuple[int, int]]
) -> dict[int, int]:
    # The count of each metric value, from (weighted sum, count) pairs; two
    # sums may give one value, and zero counts are left out.
    tally: dict[int, int] = {}
    for total, count in counts:
        if count:
            k = value(n, total)
            tally[k] = tally.get(k, 0) + count
    return tally


def _value_tables(gset: GeneratorSet, n: int) -> tuple[bytes, ...]:
    # One bytes.translate table per generator g, mapping the code v + n of
    # each value v to g(v) + n, where g(-v) is -g(v); an unsigned state never
    # holds a code below n + 1.  Codes outside the group map to themselves.
    tables = []
    for g in _generators(gset, n):
        table = bytearray(range(256))
        for v, image in enumerate(g, start=1):
            table[n + v] = n + image
            table[n - v] = n - image
        tables.append(bytes(table))
    return tuple(tables)


def _toric_images(state: bytes, subtract: tuple[bytes, ...]) -> list[bytes]:
    # Every toric shift of an unsigned state: frame it as (0 s), read the
    # frame cyclically from position m, subtract the value read there mod
    # n + 1 (table subtract[a] maps the code of v to that of v - a), and drop
    # the leading 0.  The shift from m = 0 is the state itself.  A list, not
    # a set: set.update grows the BFS's seen set in 4x steps from a list,
    # as set.add does, but in 2x steps from a set, which raises peak memory.
    n = len(state)
    framed = bytes([n]) + state
    doubled = framed * 2
    return [doubled[m + 1 : m + n + 1].translate(subtract[a - n]) for m, a in enumerate(framed)]


def _bfs_moves(
    n: int, name: str, force: bool
) -> tuple[tuple[bytes, ...], Callable[[bytes], Iterable[bytes]] | None, bool]:
    # The checks every BFS makes before it builds anything, then its move
    # tables (see _value_tables), its orbit map, or None, and whether its
    # group is signed.  Each candidate symmetry maps a state to a list of its
    # images, the state first: the toric shifts for unsigned sets, and the
    # mirror for every set, whose table maps v to sgn(v) * (n + 1 - |v|) by
    # reversing the positive codes and the negative ones.  A candidate is
    # kept when it maps the generators onto themselves, which is checked at
    # this size, not declared per set.
    gset = lookup(GENERATOR_SETS, name, "generator set")
    check_size(n, BFS_SIGNED_GUARD if gset.signed else BFS_UNSIGNED_GUARD, force, f"{name} BFS")
    if n >= 128:
        raise ValueError(f"{name} BFS stores states as bytes, so n must be below 128, got {n}")
    positive, negative = bytes(range(n + 1, 2 * n + 1)), bytes(range(n))
    flip = bytes.maketrans(negative + positive, negative[::-1] + positive[::-1])
    frame = bytes(range(n, 2 * n + 1))
    subtract = tuple(bytes.maketrans(frame, frame[-a:] + frame[:-a]) for a in range(n + 1))
    shifts = partial(_toric_images, subtract=subtract)

    def mirror(state: bytes) -> list[bytes]:
        return [state, state[::-1].translate(flip)]

    def shifts_then_mirror(state: bytes) -> list[bytes]:
        images = _toric_images(state, subtract)
        images += [s[::-1].translate(flip) for s in images]
        return images

    tables = _value_tables(gset, n)
    codes = set(map(positive.translate, tables))
    candidates = [mirror] if gset.signed else [shifts, mirror]
    kept = [f for f in candidates if all(codes.issuperset(f(code)) for code in codes)]
    orbit = shifts_then_mirror if len(kept) == 2 else kept[0] if kept else None
    return tables, orbit, gset.signed


def _group_codes(n: int, signed: bool) -> Iterator[bytes]:
    # Every element of the group once, lazily, as a BFS state: each
    # permutation of the positive codes, and in the signed group each of
    # those under each of the 2^n tables that negate one subset of values.
    positive = bytes(range(n + 1, 2 * n + 1))
    perms = map(bytes, permutations(positive))
    if not signed:
        return perms
    signs = [bytes.maketrans(positive, bytes(f)) for f in product(*zip(positive, range(n)[::-1]))]
    return chain.from_iterable(map(perm.translate, signs) for perm in perms)


def _bfs_levels(
    n: int,
    tables: tuple[bytes, ...],
    orbit: Callable[[bytes], Iterable[bytes]] | None,
    signed: bool,
) -> Iterator[tuple[int, list[bytes]]]:
    # The BFS from the identity, level by level: each level's size and one
    # state of each orbit on it, as byte codes; each move is one translate by
    # a generator's table.  Keeping one state per orbit is exact because each
    # symmetry in the orbit map maps the moves of a state onto the moves of
    # its image (module docstring).  A round lists states one move from the
    # last level: top-down every move of the frontier, bottom-up every
    # unreached state with a move into seen.  It keeps each listed state not
    # yet seen and marks its orbit seen, so seen holds whole orbits and a
    # level's size is how much seen grew.  Bottom-up, seen is every earlier
    # level in the first round and the last level alone after it.  A
    # bottom-up round drops the top-down frontier before it splits the
    # unreached states, and builds the new level's set only after the split,
    # in place of the old one, so no two sets near the size of the group are
    # alive at once.
    frontier = [bytes(range(n + 1, 2 * n + 1))]
    seen, known, rest = set(frontier), 0, None
    unreached = group_order(n, signed)
    while frontier:
        size = len(seen) - known
        unreached -= size
        yield size, frontier
        if not unreached:
            return
        # Bottom-up once fewer states are unreached than lie on the last
        # level (module docstring).  The decision is final: the rounds after
        # it keep no set of the earlier levels to expand against.
        if rest is None and unreached >= size:
            near = starmap(bytes.translate, product(frontier, tables))
        else:
            frontier = None
            if rest is None:
                rest = filterfalse(seen.__contains__, _group_codes(n, signed))
            near, later = [], []
            for state in rest:
                (later if seen.isdisjoint(map(state.translate, tables)) else near).append(state)
            rest, seen = later, set()
        known, frontier = len(seen), []
        for state in filterfalse(seen.__contains__, near):
            frontier.append(state)
            if orbit is None:
                seen.add(state)
            else:
                seen.update(orbit(state))


def bfs_distances(n: int, generator_set: str, force: bool = False) -> dict[Images, int]:
    """Exact sorting distance of every group element, by BFS from identity."""
    tables, orbit, signed = _bfs_moves(n, generator_set, force)
    dist = {}
    for d, (_, level) in enumerate(_bfs_levels(n, tables, orbit, signed)):
        for state in level:
            for image in (state,) if orbit is None else orbit(state):
                dist[tuple([code - n for code in image])] = d
    return dist


def bfs_level_sizes(n: int, generator_set: str, force: bool = False) -> dict[int, int]:
    """The number of group elements at each BFS distance from the identity."""
    levels = _bfs_levels(n, *_bfs_moves(n, generator_set, force))
    # itemgetter drops each level's states at once, so that the bottom-up
    # rounds can free the last top-down frontier.
    return dict(enumerate(map(itemgetter(0), levels)))


def bound_distribution(n: int, metric: str, force: bool = False) -> DistributionTable:
    """Tally a cycle-based distance or bound over the whole group.

    This is the enumeration route, behind the census guard; for a metric whose
    weight row weighs every cycle 1 it must agree with distance_distribution.
    """
    signed, weight, value = lookup(METRICS, metric, "metric")
    counts = weighted_census(n, signed, weight, force)
    return DistributionTable(n, metric, _tally(n, value, counts.items()))


def distance_distribution(n: int, metric: str, force: bool = False) -> DistributionTable:
    """Exact distribution of a distance or bound statistic at size n.

    A weight row that weighs every cycle 1 (bid, dcj, srd_lower) reads the
    closed-form cycle row, with no guard; other metrics are tallied by
    bound_distribution; generator-set names run the BFS oracle.
    """
    check_nonnegative(n)
    if metric in GENERATOR_SETS:
        return DistributionTable(n, metric, bfs_level_sizes(n, metric, force))
    row = lookup(METRICS, metric, "metric")
    if not row.closed_form:
        return bound_distribution(n, metric, force=force)
    counts = enumerate(cycle_row(n, row.signed).coeffs)
    return DistributionTable(n, metric, _tally(n, row.value, counts))


class ComparisonResult:
    """A distance distribution next to its best-fitting shifted cycle table.

    Each row is (k, distance count, shifted count).
    """

    __slots__ = ("n", "metric", "offset", "total_variation", "rows")

    def __init__(
        self,
        n: int,
        metric: str,
        offset: int,
        total_variation: int,
        rows: tuple[tuple[int, int, int], ...],
    ) -> None:
        self.n, self.metric, self.offset = n, metric, offset
        self.total_variation, self.rows = total_variation, rows


def compare_to_shifted(n: int, metric: str, force: bool = False) -> ComparisonResult:
    """Fit a shifted cycle-count table to a BFS distance distribution.

    The offset minimises the total variation between the two series (both
    carry the full group mass, so no normalisation is needed); ties break
    toward the smaller offset.
    """
    dist = bfs_level_sizes(n, metric, force)
    # Offset m shifts the cycle-count index, so count c lands at distance
    # (n+1-c+m)/step; the unsigned row has no mass at an odd offset.
    signed = GENERATOR_SETS[metric].signed
    step = 1 if signed else 2
    row = cycle_row(n, signed).coeffs

    def fit(m: int) -> ComparisonResult:
        shifted = {} if m % step else {(n + 1 - c + m) // step: v for c, v in enumerate(row) if v}
        keys = sorted(set(dist) | set(shifted))
        rows = tuple((k, dist.get(k, 0), shifted.get(k, 0)) for k in keys)
        return ComparisonResult(n, metric, m, sum(abs(d - s) for _, d, s in rows), rows)

    # min keeps the first minimum, so a tie goes to the smaller offset.
    return min(map(fit, range(-(n + 1), n + 2)), key=attrgetter("total_variation"))
