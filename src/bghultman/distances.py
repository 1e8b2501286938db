"""Rearrangement distance formulas, lower bounds, and a small-n BFS engine.

Two distances are exact functions of the breakpoint-graph cycle count c:
block-interchange distance (n+1-c)/2 for unsigned permutations and
double-cut-and-join distance n+1-c for signed ones.  The other supported
distances are NP-hard or open, so this module provides their cycle-based
lower bounds plus an exact brute-force oracle: breadth-first search over the
whole group from the identity, for any of the supported generator sets.
BFS levels double as exact distance distributions at desk scale.

``GeneratorSet.moves`` is right multiplication t -> compose(t, g): the new
state picks its entries, some negated, from fixed positions of the old one.
The BFS walks by left multiplication s -> compose(g, s) instead, which
relabels the values of s and leaves their positions alone; one
``bytes.translate`` applies it to a state stored as bytes.  Both give the
same distances: the products of k generators form the same set whether each
word is built from the left or from the right, so the two balls of every
radius around the identity agree.

Each cycle-based metric is one row of ``_METRICS``: its group (signed or
unsigned), the census weight whose per-cycle sum it reads, and its formula
in n and that sum.  The per-permutation functions, the census tallies and
the closed-form tables all read that row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations_with_replacement
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from . import bpgraph
from .census import DistributionTable, _run_census
from .exactmath import exact_div
from .hultman import _cycle_row
from .perm import PermutationError, SignedPermutation, check_size

__all__ = [
    "GeneratorSet",
    "GENERATOR_SETS",
    "ComparisonResult",
    "bid",
    "dcj",
    "srd_lower",
    "td_lower",
    "ptd_lower",
    "psrd_lower",
    "bfs_distances",
    "bfs_level_sizes",
    "bound_distribution",
    "distance_distribution",
    "compare_to_shifted",
    "FORMULA_METRICS",
    "BOUND_METRICS",
    "BFS_UNSIGNED_GUARD",
    "BFS_SIGNED_GUARD",
]

BFS_UNSIGNED_GUARD = 8
BFS_SIGNED_GUARD = 6

Images = tuple[int, ...]

# Each generator set's moves, as the smallest gaps between consecutive cut
# points 0 <= c_0 <= ... <= c_k <= n.  Two cuts bound a reversed segment; with
# more, the blocks between the cuts trade places in reverse order.  A prefix
# set fixes c_0 = 0.
_CUT_GAPS: dict[str, tuple[int, ...]] = {
    "reversal": (2,),
    "prefix_reversal": (2,),
    "transposition": (1, 1),
    "prefix_transposition": (1, 1),
    "block_interchange": (1, 0, 1),
    "signed_reversal": (1,),
    "prefix_signed_reversal": (1,),
}


@lru_cache(maxsize=None)
def _move_getters(name: str, n: int) -> tuple[Callable[[Images], Images], ...]:
    # One itemgetter per move over t + (-t): index p < n reads t[p], and
    # n + p reads -t[p].  Signed sets negate what they reverse.
    gaps = _CUT_GAPS[name]
    shift = n if "signed_" in name else 0
    getters = []
    for cuts in combinations_with_replacement(range(n + 1), len(gaps) + 1):
        if name.startswith("prefix_") and cuts[0]:
            continue
        if any(b - a < gap for a, b, gap in zip(cuts, cuts[1:], gaps)):
            continue
        first, last = cuts[0], cuts[-1]
        blocks = zip(cuts, cuts[1:]) if len(cuts) > 2 else ((p, p + 1) for p in range(first, last))
        moved = [p + shift for a, b in reversed(list(blocks)) for p in range(a, b)]
        index = [*range(first), *moved, *range(last, n)]
        # With one index an itemgetter returns the item, not a 1-tuple.
        getters.append(itemgetter(*index) if n > 1 else itemgetter(slice(index[0], index[0] + 1)))
    return tuple(getters)


@dataclass(frozen=True)
class GeneratorSet:
    """A named move set generating S_n or its signed counterpart.

    ``moves(t)`` is right multiplication: compose(t, g) for each generator g,
    the identity's neighbours.  The BFS applies the same generators on the
    left, compose(g, s), as value relabellings; a word of k generators
    reaches the same set of products either way, so both give every state
    the same distance from the identity.  Every set is closed under
    inverses, so these are true left-invariant sorting distances.
    """

    name: str

    def __post_init__(self) -> None:
        if self.name not in _CUT_GAPS:
            raise ValueError(f"unknown generator set {self.name!r}")

    @property
    def signed(self) -> bool:
        return "signed_" in self.name

    def moves(self, t: Images) -> list[Images]:
        """Every state one move away from ``t``."""
        getters = _move_getters(self.name, len(t))
        if self.signed:
            t = t + tuple([-x for x in t])
        return [get(t) for get in getters]


GENERATOR_SETS: dict[str, GeneratorSet] = {name: GeneratorSet(name) for name in _CUT_GAPS}

FORMULA_METRICS = ("bid", "dcj")
BOUND_METRICS = ("srd_lower", "td_lower", "ptd_lower", "psrd_lower")


class _Metric(NamedTuple):
    signed: bool  # the group the metric is defined on
    weight: str  # the per-cycle weight (see census.WEIGHTS) whose sum it reads
    value: Callable[[int, int], int]  # (n, weighted sum) -> metric value


# One row per cycle-based metric.  The "c_minus_2c_1" sum is
# c - 2*c_1 + 2*[first == 1] (census.WEIGHTS), which turns the prefix
# bounds' [first != 1] term into a constant.
_METRICS: dict[str, _Metric] = {
    "bid": _Metric(False, "c", lambda n, c: exact_div(n + 1 - c, 2)),
    "dcj": _Metric(True, "c", lambda n, c: n + 1 - c),
    "srd_lower": _Metric(True, "c", lambda n, c: n + 1 - c),
    "td_lower": _Metric(False, "c_odd", lambda n, c_odd: exact_div(n + 1 - c_odd, 2)),
    "ptd_lower": _Metric(False, "c_minus_2c_1", lambda n, w: max(0, exact_div(n + 1 + w, 2) - 1)),
    "psrd_lower": _Metric(True, "c_minus_2c_1", lambda n, w: max(0, n + 1 + w - 2)),
}


def _metric_value(images: Sequence[int], metric: str) -> int:
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    signed, weight, value = _METRICS[metric]
    if not signed and min(images, default=1) < 0:
        raise PermutationError(f"{metric} requires an unsigned permutation")
    profile = bpgraph.CycleProfile(tuple(sorted(bpgraph.cycle_lengths_images(images))))
    # The cycle through vertex 0 has length 1 iff the first image is 1, or n = 0.
    zero_singleton = not images or images[0] == 1
    weights = {
        "c": profile.c,
        "c_odd": profile.c_odd,
        "c_minus_2c_1": profile.c - 2 * profile.c_1 + 2 * zero_singleton,
    }
    return value(len(images), weights[weight])


def bid(pi: SignedPermutation) -> int:
    """Exact block-interchange distance (n+1-c)/2; the halving is exact."""
    return _metric_value(pi.images, "bid")


def dcj(pi: SignedPermutation) -> int:
    """Exact double-cut-and-join distance n+1-c."""
    return _metric_value(pi.images, "dcj")


def srd_lower(pi: SignedPermutation) -> int:
    """Cycle lower bound n+1-c on the signed reversal distance."""
    return _metric_value(pi.images, "srd_lower")


def td_lower(pi: SignedPermutation) -> int:
    """Odd-cycle lower bound (n+1-c_odd)/2 on the transposition distance."""
    return _metric_value(pi.images, "td_lower")


def ptd_lower(pi: SignedPermutation) -> int:
    """Prefix-transposition bound (n+1+c)/2 - c_1 - [first != 1], clamped at 0."""
    return _metric_value(pi.images, "ptd_lower")


def psrd_lower(pi: SignedPermutation) -> int:
    """Prefix signed reversal bound n+1+c-2*c_1 - 2*[first != 1], clamped at 0."""
    return _metric_value(pi.images, "psrd_lower")


def _resolve_generator(metric: str | GeneratorSet) -> GeneratorSet:
    # An unknown name raises ValueError in GeneratorSet.
    return metric if isinstance(metric, GeneratorSet) else GeneratorSet(metric)


@lru_cache(maxsize=None)
def _value_tables(name: str, n: int) -> tuple[bytes, ...]:
    # One bytes.translate table per generator g, mapping the code of each
    # value v to that of g(v): v itself unsigned, v + n signed, where g(-v)
    # is -g(v).  Codes outside the group map to themselves.
    gset = GENERATOR_SETS[name]
    shift = n if gset.signed else 0
    tables = []
    for g in gset.moves(tuple(range(1, n + 1))):
        table = bytearray(range(256))
        for v, image in enumerate(g, start=1):
            table[shift + v] = shift + image
            if shift:
                table[shift - v] = shift - image
        tables.append(bytes(table))
    return tuple(tables)


def _bfs_levels(n: int, gset: GeneratorSet, force: bool) -> Iterator[list[bytes]]:
    # The BFS frontiers from the identity, level by level, as byte codes
    # (see _value_tables); each move is one translate by a generator's table.
    guard = BFS_SIGNED_GUARD if gset.signed else BFS_UNSIGNED_GUARD
    check_size(n, guard, force, f"{gset.name} BFS")
    limit = 128 if gset.signed else 256
    if n >= limit:
        raise ValueError(
            f"{gset.name} BFS stores states as bytes, so n must be below {limit}, got {n}"
        )
    shift = n if gset.signed else 0
    tables = _value_tables(gset.name, n)
    frontier = [bytes(range(shift + 1, shift + n + 1))]
    seen = set(frontier)
    while frontier:
        yield frontier
        nxt = []
        for state in frontier:
            for nb in map(state.translate, tables):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt


def bfs_distances(
    n: int, generator_set: str | GeneratorSet, force: bool = False
) -> dict[Images, int]:
    """Exact sorting distance of every group element, by BFS from identity."""
    gset = _resolve_generator(generator_set)
    shift = n if gset.signed else 0
    return {
        tuple([code - shift for code in state]): d
        for d, level in enumerate(_bfs_levels(n, gset, force))
        for state in level
    }


def bfs_level_sizes(
    n: int, generator_set: str | GeneratorSet, force: bool = False
) -> dict[int, int]:
    gset = _resolve_generator(generator_set)
    return {d: len(level) for d, level in enumerate(_bfs_levels(n, gset, force))}


def bound_distribution(n: int, metric: str, force: bool = False) -> DistributionTable:
    """Tally a cycle-based distance or bound over the whole group.

    This is the enumeration route; for bid and dcj it must agree with the
    closed-form tables from distance_distribution.
    """
    if metric not in _METRICS:
        raise ValueError(f"unknown bound metric {metric!r}")
    signed, weight, value = _METRICS[metric]
    return _run_census(n, signed, weight, metric, force, partial(value, n))


def distance_distribution(n: int, metric: str, force: bool = False) -> DistributionTable:
    """Exact distribution of a distance or bound statistic at size n.

    bid and dcj come from closed formulas and never hit a guard; the four
    lower-bound statistics are tallied over the group; generator-set names
    run the BFS oracle.
    """
    if n < 0:
        raise ValueError(f"size must be >= 0, got {n}")
    if metric in FORMULA_METRICS:
        return DistributionTable(n, metric, _shifted_counts(n, _METRICS[metric].signed, 0))
    if metric in BOUND_METRICS:
        return bound_distribution(n, metric, force=force)
    if metric in GENERATOR_SETS:
        sizes = bfs_level_sizes(n, metric, force)
        return DistributionTable(n, metric, sizes)
    raise ValueError(f"unknown metric {metric!r}")


@dataclass(frozen=True)
class ComparisonResult:
    """A distance distribution next to its best-fitting shifted cycle table."""

    n: int
    metric: str
    offset: int
    total_variation: int
    rows: tuple[tuple[int, int, int], ...]  # (k, distance count, shifted count)


def _shifted_counts(n: int, signed: bool, m: int) -> dict[int, int]:
    # Shifted cycle-count family: index n+1-k+m (signed) or n+1-2k+m
    # (unsigned, whose counts vanish at every other index).
    row = _cycle_row(n, signed)
    step = 1 if signed else 2
    counts = {}
    for k in range(-(2 * n + 2), 2 * n + 3):
        v = row.coefficient(n + 1 - step * k + m)
        if v:
            counts[k] = v
    return counts


def compare_to_shifted(
    n: int, metric: str | GeneratorSet, force: bool = False
) -> ComparisonResult:
    """Fit a shifted cycle-count table to a BFS distance distribution.

    The offset minimises the total variation between the two series (both
    carry the full group mass, so no normalisation is needed); ties break
    toward the smaller offset.
    """
    gset = _resolve_generator(metric)
    dist = bfs_level_sizes(n, gset, force)

    def total_variation(m: int) -> int:
        shifted = _shifted_counts(n, gset.signed, m)
        return sum(abs(dist.get(k, 0) - shifted.get(k, 0)) for k in set(dist) | set(shifted))

    # min keeps the first minimum, so a tie goes to the smaller offset.
    best_m = min(range(-(n + 1), n + 2), key=total_variation)
    shifted = _shifted_counts(n, gset.signed, best_m)
    keys = sorted(set(dist) | set(shifted))
    rows = tuple((k, dist.get(k, 0), shifted.get(k, 0)) for k in keys)
    return ComparisonResult(n, gset.name, best_m, sum(abs(d - s) for _, d, s in rows), rows)
