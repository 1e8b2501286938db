"""Rearrangement distance formulas, lower bounds, and a small-n BFS engine.

Two distances are exact functions of the breakpoint-graph cycle count c:
block-interchange distance (n+1-c)/2 for unsigned permutations and
double-cut-and-join distance n+1-c for signed ones.  The other supported
distances are NP-hard or open, so this module provides their cycle-based
lower bounds plus an exact brute-force oracle: breadth-first search over the
whole group from the identity, for any of the supported generator sets.
BFS levels double as exact distance distributions at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

from . import bpgraph
from .census import DistributionTable, _run_census
from .exactmath import exact_div
from .hultman import hultman_bona_flynn, signed_hultman
from .perm import GuardError, PermutationError, SignedPermutation

__all__ = [
    "GeneratorSet",
    "GENERATOR_SETS",
    "BoundReport",
    "ComparisonResult",
    "bid",
    "dcj",
    "srd_lower",
    "td_lower",
    "ptd_lower",
    "psrd_lower",
    "bound_report",
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


def _reversal_moves(t: Images) -> Iterator[Images]:
    n = len(t)
    for i in range(n - 1):
        for j in range(i + 1, n):
            yield t[:i] + t[i : j + 1][::-1] + t[j + 1 :]


def _prefix_reversal_moves(t: Images) -> Iterator[Images]:
    n = len(t)
    for j in range(1, n):
        yield t[: j + 1][::-1] + t[j + 1 :]


def _signed_reversal_moves(t: Images) -> Iterator[Images]:
    n = len(t)
    for i in range(n):
        for j in range(i, n):
            mid = tuple(-x for x in reversed(t[i : j + 1]))
            yield t[:i] + mid + t[j + 1 :]


def _prefix_signed_reversal_moves(t: Images) -> Iterator[Images]:
    n = len(t)
    for j in range(n):
        yield tuple(-x for x in reversed(t[: j + 1])) + t[j + 1 :]


def _transposition_moves(t: Images) -> Iterator[Images]:
    n = len(t)
    for i in range(n - 1):
        for j in range(i + 1, n):
            for k in range(j + 1, n + 1):
                yield t[:i] + t[j:k] + t[i:j] + t[k:]


def _prefix_transposition_moves(t: Images) -> Iterator[Images]:
    n = len(t)
    for j in range(1, n):
        for k in range(j + 1, n + 1):
            yield t[j:k] + t[:j] + t[k:]


def _block_interchange_moves(t: Images) -> Iterator[Images]:
    n = len(t)
    for i in range(n - 1):
        for j in range(i + 1, n):
            for k in range(j, n):
                for l in range(k + 1, n + 1):
                    yield t[:i] + t[k:l] + t[j:k] + t[i:j] + t[l:]


@dataclass(frozen=True)
class GeneratorSet:
    """A named move set generating S_n or its signed counterpart.

    Every supported set is closed under inverses, so undirected BFS from the
    identity computes true left-invariant sorting distances.
    """

    name: str
    signed: bool
    moves: Callable[[Images], Iterator[Images]]


GENERATOR_SETS: dict[str, GeneratorSet] = {
    g.name: g
    for g in (
        GeneratorSet("reversal", False, _reversal_moves),
        GeneratorSet("prefix_reversal", False, _prefix_reversal_moves),
        GeneratorSet("transposition", False, _transposition_moves),
        GeneratorSet("prefix_transposition", False, _prefix_transposition_moves),
        GeneratorSet("block_interchange", False, _block_interchange_moves),
        GeneratorSet("signed_reversal", True, _signed_reversal_moves),
        GeneratorSet("prefix_signed_reversal", True, _prefix_signed_reversal_moves),
    )
}

FORMULA_METRICS = ("bid", "dcj")
BOUND_METRICS = ("srd_lower", "td_lower", "ptd_lower", "psrd_lower")
_UNSIGNED_BOUNDS = {"bid", "td_lower", "ptd_lower"}


def _metric_value(images: Sequence[int], metric: str) -> int:
    lengths = bpgraph.cycle_lengths_images(images)
    n = len(images)
    c = len(lengths)
    if metric == "bid":
        return exact_div(n + 1 - c, 2)
    if metric == "dcj":
        return n + 1 - c
    if metric == "srd_lower":
        return n + 1 - c
    if metric == "td_lower":
        c_odd = sum(1 for length in lengths if length % 2 == 1)
        return exact_div(n + 1 - c_odd, 2)
    first_is_one = bool(images) and images[0] == 1
    c_1 = sum(1 for length in lengths if length == 1)
    if metric == "ptd_lower":
        value = exact_div(n + 1 + c, 2) - c_1 - (0 if first_is_one else 1)
        return max(0, value)
    if metric == "psrd_lower":
        value = n + 1 + c - 2 * c_1 - (0 if first_is_one else 2)
        return max(0, value)
    raise ValueError(f"unknown metric {metric!r}")


def _require_unsigned(pi: SignedPermutation, what: str) -> None:
    if not pi.is_unsigned:
        raise PermutationError(f"{what} requires an unsigned permutation")


def bid(pi: SignedPermutation) -> int:
    """Exact block-interchange distance (n+1-c)/2; the halving is exact."""
    _require_unsigned(pi, "block-interchange distance")
    return _metric_value(pi.images, "bid")


def dcj(pi: SignedPermutation) -> int:
    """Exact double-cut-and-join distance n+1-c."""
    return _metric_value(pi.images, "dcj")


def srd_lower(pi: SignedPermutation) -> int:
    """Cycle lower bound n+1-c on the signed reversal distance."""
    return _metric_value(pi.images, "srd_lower")


def td_lower(pi: SignedPermutation) -> int:
    """Odd-cycle lower bound (n+1-c_odd)/2 on the transposition distance."""
    _require_unsigned(pi, "transposition bound")
    return _metric_value(pi.images, "td_lower")


def ptd_lower(pi: SignedPermutation) -> int:
    """Prefix-transposition bound (n+1+c)/2 - c_1 - [first != 1], clamped at 0."""
    _require_unsigned(pi, "prefix transposition bound")
    return _metric_value(pi.images, "ptd_lower")


def psrd_lower(pi: SignedPermutation) -> int:
    """Prefix signed reversal bound n+1+c-2*c_1 - 2*[first != 1], clamped at 0."""
    return _metric_value(pi.images, "psrd_lower")


@dataclass(frozen=True)
class BoundReport:
    """A bound value together with the cycle statistics behind it."""

    permutation: SignedPermutation
    metric: str
    value: int
    c: int
    c_odd: int
    c_1: int
    first_is_one: bool


def bound_report(pi: SignedPermutation, metric: str) -> BoundReport:
    if metric not in FORMULA_METRICS + BOUND_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if metric in _UNSIGNED_BOUNDS:
        _require_unsigned(pi, metric)
    lengths = bpgraph.cycle_lengths_images(pi.images)
    return BoundReport(
        permutation=pi,
        metric=metric,
        value=_metric_value(pi.images, metric),
        c=len(lengths),
        c_odd=sum(1 for length in lengths if length % 2 == 1),
        c_1=sum(1 for length in lengths if length == 1),
        first_is_one=bool(pi.images) and pi.images[0] == 1,
    )


def _resolve_generator(metric: str | GeneratorSet) -> GeneratorSet:
    if isinstance(metric, GeneratorSet):
        return metric
    try:
        return GENERATOR_SETS[metric]
    except KeyError:
        raise ValueError(f"unknown generator set {metric!r}") from None


def bfs_distances(
    n: int, generator_set: str | GeneratorSet, force: bool = False
) -> dict[Images, int]:
    """Exact sorting distance of every group element, by BFS from identity."""
    gset = _resolve_generator(generator_set)
    guard = BFS_SIGNED_GUARD if gset.signed else BFS_UNSIGNED_GUARD
    if n > guard and not force:
        raise GuardError(
            f"n={n} exceeds the BFS guard ({guard}) for {gset.name}; "
            "pass force=True to run anyway"
        )
    start = tuple(range(1, n + 1))
    dist: dict[Images, int] = {start: 0}
    frontier = [start]
    moves = gset.moves
    d = 0
    while frontier:
        nxt = []
        for state in frontier:
            for nb in moves(state):
                if nb not in dist:
                    dist[nb] = d + 1
                    nxt.append(nb)
        d += 1
        frontier = nxt
    return dist


def bfs_level_sizes(
    n: int, generator_set: str | GeneratorSet, force: bool = False
) -> dict[int, int]:
    sizes: dict[int, int] = {}
    for d in bfs_distances(n, generator_set, force).values():
        sizes[d] = sizes.get(d, 0) + 1
    return sizes


def bound_distribution(
    n: int, metric: str, jobs: int = 1, force: bool = False
) -> DistributionTable:
    """Tally a cycle-based distance or bound over the whole group.

    This is the enumeration route; for bid and dcj it must agree with the
    closed-form tables from distance_distribution.
    """
    if metric not in FORMULA_METRICS + BOUND_METRICS:
        raise ValueError(f"unknown bound metric {metric!r}")
    signed = metric not in _UNSIGNED_BOUNDS
    return _run_census(n, signed, partial(_metric_value, metric=metric), metric, jobs, force)


def distance_distribution(
    n: int, metric: str, jobs: int = 1, force: bool = False
) -> DistributionTable:
    """Exact distribution of a distance or bound statistic at size n.

    bid and dcj come from closed formulas and never hit a guard; the four
    lower-bound statistics are tallied over the group; generator-set names
    run the BFS oracle.  ``jobs`` parallelises only the tallied statistics;
    BFS runs single-threaded either way.
    """
    if metric == "bid":
        counts = {}
        for k in range(0, (n + 1) // 2 + 1):
            v = hultman_bona_flynn(n, n + 1 - 2 * k)
            if v:
                counts[k] = v
        return DistributionTable(n, "bid", counts)
    if metric == "dcj":
        counts = {}
        for k in range(0, n + 1):
            v = signed_hultman(n, n + 1 - k)
            if v:
                counts[k] = v
        return DistributionTable(n, "dcj", counts)
    if metric in BOUND_METRICS:
        return bound_distribution(n, metric, jobs=jobs, force=force)
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
    step = 1 if signed else 2
    counts = {}
    for k in range(-(2 * n + 2), 2 * n + 3):
        j = n + 1 - step * k + m
        v = signed_hultman(n, j) if signed else hultman_bona_flynn(n, j)
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
    best_m = None
    best_tv = None
    for m in range(-(n + 1), n + 2):
        shifted = _shifted_counts(n, gset.signed, m)
        keys = set(dist) | set(shifted)
        tv = sum(abs(dist.get(k, 0) - shifted.get(k, 0)) for k in keys)
        if best_tv is None or tv < best_tv:
            best_tv = tv
            best_m = m
    shifted = _shifted_counts(n, gset.signed, best_m)
    keys = sorted(set(dist) | set(shifted))
    rows = tuple((k, dist.get(k, 0), shifted.get(k, 0)) for k in keys)
    return ComparisonResult(n, gset.name, best_m, best_tv, rows)
