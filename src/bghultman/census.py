"""Exact distribution tables of breakpoint-graph cycle statistics.

Every group census runs on one engine, a transfer-matrix DP over positions
(Stanley, Enumerative Combinatorics 1, section 4.7).  Placing images left to
right adds one black edge at a time to the fixed grey matching v <-> v^1, so
after k positions the graph is a set of closed cycles plus paths whose ends
are the vertices still without a black edge.  A DP state is the current exit
vertex and the path partner of every such vertex; a cycle is counted when the
black edge that closes it is placed.  The states number exponentially, not
factorially, in n.

A statistic is a sum of per-cycle weights, one row of bpgraph.CYCLE_WEIGHTS:
the cycle count, the odd-cycle count, or the weight behind the prefix bounds
in the distances module.  Each state carries its counts by weighted sum as
one packed integer, so closing a cycle is a shift, and prefixes that reach
the same state add their counts.  One DP run covers the whole group.  The
matching census walks perfect matchings instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Mapping

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

UNSIGNED_CENSUS_GUARD = 10
SIGNED_CENSUS_GUARD = 8
MATCHING_CENSUS_GUARD = 6


@dataclass(frozen=True)
class DistributionTable:
    """Exact map k -> count for a named statistic at a given n.

    Absent keys mean zero; stored counts are positive.
    """

    n: int
    statistic: str
    counts: Mapping[int, int]

    def count(self, k: int) -> int:
        return self.counts.get(k, 0)

    def total(self) -> int:
        return sum(self.counts.values())


_DONE = 255  # state byte of a vertex that has its black edge


def _weighted_census(n: int, signed: bool, weight: str) -> dict[int, int]:
    """Counts by weighted cycle sum over the whole group.

    State bytes 0..2n+1 hold 2 * path partner + path parity (the parity of
    the path's black-edge count, kept only when the row weighs odd and even
    cycles apart), or _DONE; byte 2n+2 is the exit vertex.  A state's
    counts are packed into one int, ``bits`` bits per weighted sum; no field
    can exceed the group order, so no field overflows.
    """
    if weight not in bpgraph.CYCLE_WEIGHTS:
        raise ValueError(f"unknown cycle weight {weight!r}")
    if 2 * (2 * n + 1) + 1 >= _DONE:
        raise ValueError(f"the census state encoding supports n <= 62, got {n}")
    row = bpgraph.CYCLE_WEIGHTS[weight]
    order = factorial(n) << n if signed else factorial(n)
    bits = order.bit_length() + 1
    parity = int(row.odd != row.even)
    # At most n + 1 cycles close, so every partial sum lies in [low, high].
    low, high = (n + 1) * min(0, *row), (n + 1) * max(0, *row)
    # A closed cycle's shift: [0] after an even path (an odd cycle), [1] after
    # an odd path (an even cycle), [2] for a length-1 cycle off vertex 0.
    shifts = (row.odd * bits, row.even * bits, row.one * bits)

    def close(counts: int, path_parity: int, exit_: int, entry: int) -> int:
        # Count the cycle closed by the black edge exit_-entry.  It has
        # length 1 if entry is the grey partner of exit_; vertex 0 is exit_
        # only at the first edge, and at the last one when n = 0.
        shift = shifts[2 if entry == exit_ ^ 1 and exit_ else path_parity]
        return counts << shift if shift >= 0 else counts >> -shift

    # Entry and exit vertex of each image: +v enters 2v-1, -v enters 2v.
    pairs = [(2 * v - 1, 2 * v) for v in range(1, n + 1)]
    if signed:
        pairs += [(2 * v, 2 * v - 1) for v in range(1, n + 1)]
    # With no black edge yet, each path is one grey edge; the exit is 0.
    level = {bytes([2 * (u ^ 1) for u in range(2 * n + 2)] + [0]): 1 << (-low * bits)}
    for _ in range(n):
        nxt: dict[bytes, int] = {}
        while level:
            state, counts = level.popitem()
            exit_ = state[-1]
            partner, path_parity = divmod(state[exit_], 2)
            for entry, new_exit in pairs:
                code = state[entry]
                if code == _DONE or state[new_exit] == _DONE:
                    continue
                b = bytearray(state)
                b[exit_] = b[entry] = _DONE
                b[-1] = new_exit
                if entry == partner:
                    out = close(counts, path_parity, exit_, entry)
                else:
                    # The black edge joins two paths into one; the low bit of
                    # ``code`` is the parity of the entry's path.
                    other = code >> 1
                    joined = (path_parity + code + 1) & parity
                    b[partner] = 2 * other + joined
                    b[other] = 2 * partner + joined
                    out = counts
                key = bytes(b)
                nxt[key] = nxt.get(key, 0) + out
        level = nxt
    # The last black edge joins the exit to 2n+1, its path partner.
    total = sum(
        close(counts, state[state[-1]] & 1, state[-1], 2 * n + 1) for state, counts in level.items()
    )
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
