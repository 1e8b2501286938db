"""Exact distribution tables of breakpoint-graph cycle statistics.

Every group census runs on one engine, a transfer-matrix DP over positions
(Stanley, Enumerative Combinatorics 1, section 4.7).  Placing images left to
right adds one black edge at a time to the fixed grey matching v <-> v^1, so
after k positions the graph is a set of closed cycles plus paths whose ends
are the vertices still without a black edge: the exit vertex, 2n+1, and the
two ends of each unused value, a node.  The paths lead from the exit through
some nodes to 2n+1; the other nodes lie on closed node cycles.  What follows
depends only on this shape, not on which values the nodes are, so a DP state
is one relabelling class: the path and the multiset of node cycles, each
cycle up to rotation and reflection.  An edge keeps only the label the
weight can tell apart (bare grey edge, even or odd black count), and an
unsigned node keeps which of its ends +v enters.  The next black edge enters
a node in one of four ways:

- path node 1 at its near end: the exit's path closes into a cycle;
- path node i > 1 at its near end: nodes 1..i-1 split off as a node cycle;
- path node i at its far end: nodes 1..i-1 move, reversed, to the front;
- a node of a node cycle: the cycle's other nodes go to the front.

A cycle is counted when the black edge that closes it is placed.  The
unsigned odd-cycle census at n = 9 visits 652 classes, where a DP over
labelled states visits 27,986.

A statistic is a sum of per-cycle weights, one row of bpgraph.CYCLE_WEIGHTS:
the cycle count, the odd-cycle count, or the weight behind the prefix bounds
in the distances module.  Each state carries its counts by weighted sum as
one packed integer, so closing a cycle is a shift, and prefixes that reach
the same state add their counts.  One DP run covers the whole group.  The
matching census walks perfect matchings instead.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator, Mapping

from . import bpgraph, perm
from .hultman import MomentPair

__all__ = [
    "DistributionTable",
    "hultman_census",
    "signed_hultman_census",
    "odd_hultman_census",
    "matching_census",
    "moments_from_table",
    "UNSIGNED_CENSUS_GUARD",
    "SIGNED_CENSUS_GUARD",
    "MATCHING_CENSUS_GUARD",
]

UNSIGNED_CENSUS_GUARD = 13
SIGNED_CENSUS_GUARD = 12
MATCHING_CENSUS_GUARD = 6


class DistributionTable:
    """Exact map k -> count for a named statistic at a given n.

    Absent keys mean zero; stored counts are positive.  Tables with equal
    fields compare equal; the counts are a dict, so a table has no hash.
    """

    __slots__ = ("n", "statistic", "counts")

    def __init__(self, n: int, statistic: str, counts: Mapping[int, int]) -> None:
        self.n, self.statistic, self.counts = n, statistic, counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistributionTable):
            return NotImplemented
        return (self.n, self.statistic, self.counts) == (other.n, other.statistic, other.counts)

    def count(self, k: int) -> int:
        return self.counts.get(k, 0)

    def total(self) -> int:
        return sum(self.counts.values())


# A node's code: the end at which the next image may enter it, read along
# its word: the near end (+v, unsigned), the far end, or either (+v or -v,
# signed).  Edge labels are 0..2; reading a word backwards swaps the ends.
_NEAR, _FAR, _EITHER = 3, 4, 5
_FLIP = (0, 1, 2, _FAR, _NEAR, _EITHER)


def _weighted_census(n: int, signed: bool, weight: str) -> dict[int, int]:
    """Counts by weighted cycle sum over the whole group.

    A state is one relabelling class (see the module docstring): the path
    from the exit vertex to 2n+1 as a tuple (e0, v1, e1, ..., vj, ej) of its
    nodes v and path-partner edges e, and a sorted tuple of node cycles
    (v1, e1, ..., vL, eL), eL leading back to v1, each the least of its
    readings from any node in either direction.  An edge is 0 (even black
    count), 1 (odd) or 2 (bare grey edge), merged into 0 where the row
    weighs the cycles they close alike; the edge at vertex 0 starts at 0, so
    the vertex-0 cycle is weighted by its parity.  A node is _NEAR or _FAR by
    whether +v enters the end read first, or _EITHER in the signed group.
    The start is the path of all n nodes.  The black edge from the exit
    enters:

    - v1 at its near end: e0 closes a cycle, weighted by its label;
    - vi, i > 1, at its near end: e0 and e(i-1) join and close v1..v(i-1)
      into a node cycle; the path starts at ei;
    - vi at its far end: e0 and ei join; the path is e(i-1), v(i-1), ...,
      e1, v1 read backwards, the joined edge, then v(i+1) onwards;
    - a cycle node at an end it may be entered at: e0 and the cycle edge
      at that end join; the path runs round the cycle's other nodes, then
      the joined edge, then v1 onwards.

    Equal cycles are entered once, the counts times their multiplicity.
    After n black edges the path is (e0,), and the last one closes it at
    2n+1.  A state's counts are packed into one int, ``bits`` bits per
    weighted sum; no field can exceed the group order, so no field
    overflows.
    """
    if weight not in bpgraph.CYCLE_WEIGHTS:
        raise ValueError(f"unknown cycle weight {weight!r}")
    row = bpgraph.CYCLE_WEIGHTS[weight]
    order = factorial(n) << n if signed else factorial(n)
    bits = order.bit_length() + 1
    # At most n + 1 cycles close, so every partial sum lies in [low, high].
    low, high = (n + 1) * min(0, *row), (n + 1) * max(0, *row)
    # The merged label of edge 0, 1, 2 and the shift of the cycle each
    # closes: an odd cycle, an even cycle, a length-1 cycle off vertex 0.
    labels = (0, int(row.even != row.odd), 2 * (row.one != row.odd))
    shifts = (row.odd * bits, row.even * bits, row.one * bits)

    def close(counts: int, edge: int) -> int:
        shift = shifts[edge]
        return counts << shift if shift >= 0 else counts >> -shift

    def join(a: int, b: int) -> int:
        # A black edge joins two paths; bare edges have an even count.
        return labels[(a ^ b ^ 1) & 1]

    def turn(word: tuple[int, ...]) -> tuple[int, ...]:
        return tuple([_FLIP[x] for x in reversed(word)])

    def entries(ring: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        # The ring read from each node, in each direction.
        back = turn(ring)
        for word in (ring, back[-1:] + back[:-1]):
            for k in range(0, len(word), 2):
                yield word[k:] + word[:k]

    level = {((0,) + (_EITHER if signed else _NEAR, labels[2]) * n, ()): 1 << (-low * bits)}
    for _ in range(n):
        nxt: dict[tuple, int] = {}

        def add(path: tuple[int, ...], cycles: tuple, counts: int) -> None:
            key = (path, cycles)
            nxt[key] = nxt.get(key, 0) + counts

        while level:
            (path, cycles), counts = level.popitem()
            e0 = path[0]
            for i in range(1, len(path), 2):
                if path[i] != _FAR:
                    if i == 1:
                        add(path[2:], cycles, close(counts, e0))
                    else:
                        ring = min(entries(path[1 : i - 1] + (join(e0, path[i - 1]),)))
                        add(path[i + 1 :], tuple(sorted((*cycles, ring))), counts)
                if path[i] != _NEAR:
                    add(turn(path[1:i]) + (join(e0, path[i + 1]),) + path[i + 2 :], cycles, counts)
            for k, ring in enumerate(cycles):
                if k and ring == cycles[k - 1]:
                    continue
                rest = cycles[:k] + cycles[k + 1 :]
                many = counts * cycles.count(ring)
                for word in entries(ring):
                    if word[0] != _FAR:
                        add(word[1:-1] + (join(e0, word[-1]),) + path[1:], rest, many)
        level = nxt
    # The last black edge joins the exit to 2n+1, its path partner.
    total = sum(close(counts, path[0]) for (path, _), counts in level.items())
    mask = (1 << bits) - 1
    table = {}
    for j in range(low, high + 1):
        count = (total >> ((j - low) * bits)) & mask
        if count:
            table[j] = count
    return table


def _run_census(
    n: int,
    signed: bool,
    weight: str,
    statistic: str,
    force: bool,
    value: Callable[[int], int] | None = None,
) -> DistributionTable:
    """Distribution of ``value(weighted cycle sum)`` over the group.

    Without ``value`` the statistic is the weighted cycle sum itself.
    """
    perm.check_size(n, SIGNED_CENSUS_GUARD if signed else UNSIGNED_CENSUS_GUARD, force, "census")
    counts: Counter[int] = Counter()
    for total, count in _weighted_census(n, signed, weight).items():
        counts[total if value is None else value(total)] += count
    return DistributionTable(n, statistic, dict(counts))


def hultman_census(n: int, force: bool = False) -> DistributionTable:
    """Counts of breakpoint-graph cycle numbers over all of S_n."""
    return _run_census(n, False, "c", "unsigned_cycles", force)


def signed_hultman_census(n: int, force: bool = False) -> DistributionTable:
    """Counts of breakpoint-graph cycle numbers over all signed permutations."""
    return _run_census(n, True, "c", "signed_cycles", force)


def odd_hultman_census(n: int, force: bool = False) -> DistributionTable:
    """Counts of odd-length breakpoint-graph cycles over S_n.

    These counts are sums of generalized Hultman numbers, the counts by
    cycle type (Alexeev, Pologova & Alekseyev, J. Comput. Biol. 2017); the
    library has only the census route for them for now.
    """
    return _run_census(n, False, "c_odd", "unsigned_odd_cycles", force)


def matching_census(n: int, force: bool = False) -> dict[tuple[int, int], int]:
    """Bivariate cycle census over perfect matchings of 0..2n+1.

    For each matching tau, tallies the pair (cycles of grey union tau,
    cycles of tau union shifted-grey).  The slice with second coordinate 1
    is exactly the signed cycle-count distribution for n, since those tau
    are the black matchings of valid breakpoint graphs.
    """
    perm.check_size(n, MATCHING_CENSUS_GUARD, force, "matching census")
    grey = bpgraph.grey_matching(n)
    shifted = bpgraph.grey_complement_matching(n)
    count = bpgraph.union_cycle_count
    pairs = (
        (count(grey, tau), count(tau, shifted))
        for tau in bpgraph.iter_partner_tuples(n + 1)
    )
    return dict(Counter(pairs))


def moments_from_table(table: DistributionTable, total: int) -> MomentPair:
    """Exact mean and variance of a distribution table.

    ``total`` is the expected mass (e.g. the group order); a mismatch with
    the table's actual total is an error, not a normalisation.
    """
    if table.total() != total:
        raise ValueError(f"table total {table.total()} != expected {total}")
    mean = Fraction(sum(k * v for k, v in table.counts.items()), total)
    second = Fraction(sum(k * k * v for k, v in table.counts.items()), total)
    return MomentPair(mean, second - mean * mean)
