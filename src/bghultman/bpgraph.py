"""Breakpoint graphs, configurations, and perfect-matching machinery.

A perfect matching of 0..2m-1 is its partner tuple: entry v is v's neighbour.

The breakpoint graph of a signed permutation of n elements lives on vertices
0..2n+1.  The permutation is doubled: image v becomes the pair (2v-1, 2v)
when positive and (2|v|, 2|v|-1) when negative; the doubled sequence starts
with 0 and ends with 2n+1.  Black edges join consecutive doubled positions
(2i, 2i+1); grey edges are the fixed matching {2i, 2i+1} on vertex values.
The union of the two matchings is 2-regular and so splits uniquely into
alternating cycles; cycle *length* here is half the number of edges in the
cycle (so a doubled fixed point is a cycle of length 1).  Graph-theoretic
lengths never leak out of this module.

A configuration is the union of an arbitrary black perfect matching with the
fixed grey matching.  It is the breakpoint graph of some signed permutation
exactly when its complement (grey replaced by the shifted matching
{2i-1, 2i} plus {0, 2n+1}) is a single cycle, in which case walking that
cycle from 0 recovers the permutation.  ``breakpoint_graph`` returns that
configuration: its black matching is read straight off the images, and the
doubled sequence is never built.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .perm import Images, check_nonnegative, lookup, validate

__all__ = [
    "InvalidConfigurationError",
    "Configuration",
    "CYCLE_WEIGHTS",
    "matching_from_pairs",
    "grey_matching",
    "grey_complement_matching",
    "identity_matching",
    "mu_relabeling",
    "conjugate_matching",
    "iter_partner_tuples",
    "union_cycle_lengths",
    "union_cycle_count",
    "breakpoint_graph",
    "cycle_profile",
    "is_valid_breakpoint_graph",
    "recover_permutation",
    "cycle_count_images",
    "cycle_lengths_images",
    "weighted_cycle_sum",
]


class InvalidConfigurationError(ValueError):
    """The configuration is not the breakpoint graph of any permutation."""


def matching_from_pairs(pairs: Iterable[tuple[int, int]], size: int | None = None) -> tuple[int, ...]:
    """Build a matching from edge pairs, checking it is perfect."""
    pairs = list(pairs)
    if size is None:
        size = 2 * len(pairs)
    partner = [-1] * size
    for u, v in pairs:
        if not (0 <= u < size and 0 <= v < size) or u == v:
            raise ValueError(f"bad edge ({u}, {v}) for vertex set 0..{size - 1}")
        if partner[u] != -1 or partner[v] != -1:
            raise ValueError(f"vertex reused by edge ({u}, {v})")
        partner[u] = v
        partner[v] = u
    if -1 in partner:
        raise ValueError("matching does not cover every vertex")
    return tuple(partner)


@lru_cache(maxsize=None)
def grey_matching(n: int) -> tuple[int, ...]:
    """The fixed grey matching {2i, 2i+1} on 0..2n+1: v's partner is v XOR 1."""
    check_nonnegative(n)
    return tuple(v ^ 1 for v in range(2 * n + 2))


def grey_complement_matching(n: int) -> tuple[int, ...]:
    """The shifted matching {2i-1, 2i} for 1 <= i <= n, plus {0, 2n+1}."""
    check_nonnegative(n)
    inner = (v + 1 if v % 2 else v - 1 for v in range(1, 2 * n + 1))
    return (2 * n + 1, *inner, 0)


def identity_matching(m: int) -> tuple[int, ...]:
    """The matching {i, m+i} on 0..2m-1."""
    check_nonnegative(m, "m")
    return tuple(v + m if v < m else v - m for v in range(2 * m))


def mu_relabeling(m: int) -> tuple[int, ...]:
    """Vertex relabeling i -> i/2 (i even), (i + 2m - 1)/2 (i odd) on 0..2m-1.

    Conjugating by this map carries the grey matching onto identity_matching(m)
    and the shifted grey complement onto a fixed hamiltonian partner of it.
    """
    check_nonnegative(m, "m")
    return tuple(i // 2 if i % 2 == 0 else (i + 2 * m - 1) // 2 for i in range(2 * m))


def conjugate_matching(phi: Sequence[int], relabel: Sequence[int]) -> tuple[int, ...]:
    """Relabel both endpoints of every edge of phi through the bijection."""
    size = len(phi)
    if sorted(relabel) != list(range(size)):
        raise ValueError("relabeling is not a bijection of the vertex set")
    out = [0] * size
    for v in range(size):
        out[relabel[v]] = relabel[phi[v]]
    return tuple(out)


def iter_partner_tuples(m: int) -> Iterator[tuple[int, ...]]:
    """All (2m-1)!! perfect matchings of 0..2m-1, as partner tuples.

    Deterministic order: the smallest unmatched vertex is paired first, with
    its partner chosen in ascending order.
    """
    check_nonnegative(m, "m")
    size = 2 * m
    partner = [-1] * size

    def rec(lo: int) -> Iterator[tuple[int, ...]]:
        while lo < size and partner[lo] != -1:
            lo += 1
        if lo == size:
            yield tuple(partner)
            return
        for w in range(lo + 1, size):
            if partner[w] == -1:
                partner[lo] = w
                partner[w] = lo
                yield from rec(lo + 1)
                partner[lo] = -1
                partner[w] = -1

    return rec(0)


def _union_lengths(pa: Sequence[int], pb: Sequence[int]) -> list[int]:
    # Alternating-cycle lengths of the union of two partner arrays, where a
    # cycle's length counts its edges from the first matching (= half its
    # total edge count).
    size = len(pa)
    seen = bytearray(size)
    out = []
    for v in range(size):
        if seen[v]:
            continue
        length = 0
        w = v
        while not seen[w]:
            seen[w] = 1
            u = pa[w]
            seen[u] = 1
            length += 1
            w = pb[u]
        out.append(length)
    return out


def _checked_union_lengths(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) != len(b):
        raise ValueError("matchings live on different vertex sets")
    return _union_lengths(a, b)


def union_cycle_lengths(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Sorted alternating-cycle lengths of a union of two matchings."""
    return tuple(sorted(_checked_union_lengths(a, b)))


def union_cycle_count(a: Sequence[int], b: Sequence[int]) -> int:
    return len(_checked_union_lengths(a, b))


class Configuration:
    """Black perfect matching on 0..2n+1; the grey matching is implicit."""

    __slots__ = ("n", "black")

    def __init__(self, n: int, black: tuple[int, ...]) -> None:
        check_nonnegative(n)
        size = 2 * n + 2
        # A perfect matching of 0..2n+1 is a fixed-point-free involution of it.
        if len(black) != size or not all(
            0 <= w < size and w != v and black[w] == v for v, w in enumerate(black)
        ):
            raise ValueError(f"black {black} is not a perfect matching of 0..{size - 1}")
        self.n = n
        self.black = black


def breakpoint_graph(pi: Images) -> Configuration:
    """Breakpoint graph of pi: black edges join doubled positions (2i, 2i+1)."""
    return Configuration(len(pi), tuple(_black_partner(pi)))


def cycle_profile(config: Configuration) -> tuple[int, ...]:
    """Sorted alternating-cycle lengths of black union grey."""
    return union_cycle_lengths(config.black, grey_matching(config.n))


def is_valid_breakpoint_graph(config: Configuration) -> bool:
    """True iff the complement is a single cycle (2-regular hamiltonicity)."""
    return union_cycle_count(config.black, grey_complement_matching(config.n)) == 1


def recover_permutation(config: Configuration) -> Images:
    """Read the permutation back off a valid configuration.

    Walks the complement cycle from vertex 0, alternating black and shifted
    grey edges.  Each black edge enters a doubled pair, whose shifted grey
    edge leads across it: entering {2v-1, 2v} at 2v-1 means +v, at 2v means
    -v.  The cycle is hamiltonian, so it meets 2n+1, whose shifted partner
    is 0, only after the n-th pair.
    """
    if not is_valid_breakpoint_graph(config):
        raise InvalidConfigurationError(
            "complement is not a single cycle; no permutation corresponds"
        )
    black = config.black
    shifted = grey_complement_matching(config.n)
    images = []
    u = black[0]
    for _ in range(config.n):
        images.append((u + 1) // 2 if u % 2 else -(u // 2))
        u = black[shifted[u]]
    return validate(images)


def _black_partner(images: Sequence[int]) -> list[int]:
    # Black partner array straight from the images: black edges join the
    # right end of each doubled pair to the left end of the next one, with 0
    # before the first pair and 2n+1 after the last.
    size = 2 * len(images) + 2
    black = [0] * size
    u = 0
    for v in images:
        if v > 0:
            w = 2 * v - 1
            right = w + 1
        else:
            w = -2 * v
            right = w - 1
        black[u] = w
        black[w] = u
        u = right
    black[u] = size - 1
    black[size - 1] = u
    return black


def cycle_count_images(images: Sequence[int]) -> int:
    """Alternating-cycle count of the breakpoint graph, from raw images."""
    return len(cycle_lengths_images(images))


def cycle_lengths_images(images: Sequence[int]) -> list[int]:
    """Alternating-cycle lengths (black-edge counts) from raw images.

    Avoids building permutation and configuration objects.  The grey
    matching is cached per size, so only the black partner array is built
    per call.
    """
    return _union_lengths(_black_partner(images), grey_matching(len(images)))


class CycleWeight(NamedTuple):
    one: int  # weight of a cycle of length 1 that avoids vertex 0
    odd: int  # of any other cycle of odd length
    even: int  # of a cycle of even length


# A cycle statistic sums one row over the cycles.  The cycle through vertex 0
# is weighted by its parity; it has length 1 exactly when the first image is
# +1 (black edge 0-1, grey edge 1-0), so "c_minus_2c_1" sums to
# c - 2*c_1 + 2*[first == 1] and the prefix bounds' [first != 1] comes free.
CYCLE_WEIGHTS: dict[str, CycleWeight] = {
    "c": CycleWeight(1, 1, 1),
    "c_odd": CycleWeight(1, 1, 0),
    "c_minus_2c_1": CycleWeight(-1, 1, 1),
}


def weighted_cycle_sum(images: Sequence[int], weight: str) -> int:
    """Sum of the ``CYCLE_WEIGHTS[weight]`` row over the breakpoint-graph cycles."""
    one, odd, even = lookup(CYCLE_WEIGHTS, weight, "cycle weight")
    # The walk starts at vertex 0, so lengths[0] is the vertex-0 cycle.
    return sum(
        one if length == 1 and i else odd if length % 2 else even
        for i, length in enumerate(cycle_lengths_images(images))
    )
