"""Breakpoint graphs, configurations, and perfect-matching machinery.

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

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .perm import SignedPermutation, check_size, validate

__all__ = [
    "InvalidConfigurationError",
    "PerfectMatching",
    "Configuration",
    "CycleProfile",
    "matching_from_pairs",
    "grey_matching",
    "grey_complement_matching",
    "identity_matching",
    "mu_relabeling",
    "conjugate_matching",
    "enumerate_matchings",
    "iter_partner_tuples",
    "union_cycle_lengths",
    "union_cycle_count",
    "breakpoint_graph",
    "cycle_profile",
    "complement",
    "is_valid_breakpoint_graph",
    "recover_permutation",
    "cycle_count_images",
    "cycle_lengths_images",
    "MATCHING_ENUMERATION_GUARD",
]

MATCHING_ENUMERATION_GUARD = 8


class InvalidConfigurationError(ValueError):
    """The configuration is not the breakpoint graph of any permutation."""


@dataclass(frozen=True)
class PerfectMatching:
    """Fixed-point-free involution on {0..2m-1}: partner[v] is v's neighbour."""

    partner: tuple[int, ...]


def matching_from_pairs(pairs: Iterable[tuple[int, int]], size: int | None = None) -> PerfectMatching:
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
    return PerfectMatching(tuple(partner))


@lru_cache(maxsize=None)
def _grey_partner(size: int) -> tuple[int, ...]:
    return tuple(v ^ 1 for v in range(size))


def grey_matching(n: int) -> PerfectMatching:
    """The fixed grey matching {2i, 2i+1} on 0..2n+1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return PerfectMatching(_grey_partner(2 * n + 2))


def grey_complement_matching(n: int) -> PerfectMatching:
    """The shifted matching {2i-1, 2i} for 1 <= i <= n, plus {0, 2n+1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    size = 2 * n + 2
    partner = [0] * size
    partner[0] = size - 1
    partner[size - 1] = 0
    for i in range(1, n + 1):
        partner[2 * i - 1] = 2 * i
        partner[2 * i] = 2 * i - 1
    return PerfectMatching(tuple(partner))


def identity_matching(m: int) -> PerfectMatching:
    """The matching {i, m+i} on 0..2m-1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return PerfectMatching(tuple(v + m if v < m else v - m for v in range(2 * m)))


def mu_relabeling(m: int) -> tuple[int, ...]:
    """Vertex relabeling i -> i/2 (i even), (i + 2m - 1)/2 (i odd) on 0..2m-1.

    Conjugating by this map carries the grey matching onto identity_matching(m)
    and the shifted grey complement onto a fixed hamiltonian partner of it.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    return tuple(i // 2 if i % 2 == 0 else (i + 2 * m - 1) // 2 for i in range(2 * m))


def conjugate_matching(phi: PerfectMatching, relabel: Sequence[int]) -> PerfectMatching:
    """Relabel both endpoints of every edge of phi through the bijection."""
    size = len(phi.partner)
    if sorted(relabel) != list(range(size)):
        raise ValueError("relabeling is not a bijection of the vertex set")
    out = [0] * size
    for v in range(size):
        out[relabel[v]] = relabel[phi.partner[v]]
    return PerfectMatching(tuple(out))


def iter_partner_tuples(m: int) -> Iterator[tuple[int, ...]]:
    """Raw stream of partner tuples for all perfect matchings of 0..2m-1.

    Deterministic order: the smallest unmatched vertex is paired first, with
    its partner chosen in ascending order.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
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

    if m == 0:
        yield ()
        return
    yield from rec(0)


def enumerate_matchings(m: int, force: bool = False) -> Iterator[PerfectMatching]:
    """All (2m-1)!! perfect matchings of {0..2m-1}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    check_size(m, MATCHING_ENUMERATION_GUARD, force, "matching enumeration")
    return (PerfectMatching(t) for t in iter_partner_tuples(m))


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


def union_cycle_lengths(a: PerfectMatching, b: PerfectMatching) -> tuple[int, ...]:
    """Sorted alternating-cycle lengths of a union of two matchings."""
    if len(a.partner) != len(b.partner):
        raise ValueError("matchings live on different vertex sets")
    return tuple(sorted(_union_lengths(a.partner, b.partner)))


def union_cycle_count(a: PerfectMatching, b: PerfectMatching) -> int:
    return len(union_cycle_lengths(a, b))


@dataclass(frozen=True)
class Configuration:
    """Black perfect matching on 0..2n+1; the grey matching is implicit."""

    n: int
    black: PerfectMatching

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if len(self.black.partner) != 2 * self.n + 2:
            raise ValueError(
                f"black matching covers {len(self.black.partner)} vertices, "
                f"expected {2 * self.n + 2}"
            )


@dataclass(frozen=True)
class CycleProfile:
    """Multiset of alternating-cycle lengths of a configuration."""

    lengths: tuple[int, ...]

    @property
    def c(self) -> int:
        return len(self.lengths)

    @property
    def c_odd(self) -> int:
        return sum(1 for length in self.lengths if length % 2 == 1)

    @property
    def c_1(self) -> int:
        return sum(1 for length in self.lengths if length == 1)


def breakpoint_graph(pi: SignedPermutation) -> Configuration:
    """Breakpoint graph of pi: black edges join doubled positions (2i, 2i+1)."""
    return Configuration(pi.n, PerfectMatching(tuple(_black_partner(pi.images))))


def cycle_profile(config: Configuration) -> CycleProfile:
    """Alternating-cycle lengths of black union grey; exposes c, c_odd, c_1."""
    lengths = _union_lengths(config.black.partner, grey_matching(config.n).partner)
    return CycleProfile(tuple(sorted(lengths)))


def complement(config: Configuration) -> tuple[PerfectMatching, PerfectMatching]:
    """The configuration with grey edges shifted sideways by one position.

    Returned as the pair (black, shifted grey) of matchings whose union it is.
    """
    return config.black, grey_complement_matching(config.n)


def is_valid_breakpoint_graph(config: Configuration) -> bool:
    """True iff the complement is a single cycle (2-regular hamiltonicity)."""
    return union_cycle_count(*complement(config)) == 1


def recover_permutation(config: Configuration) -> SignedPermutation:
    """Read the permutation back off a valid configuration.

    Walks the complement cycle from vertex 0, alternating black and shifted
    grey edges, then decodes each doubled pair: (2v-1, 2v) read in that order
    means +v, (2v, 2v-1) means -v.
    """
    n = config.n
    if not is_valid_breakpoint_graph(config):
        raise InvalidConfigurationError(
            "complement is not a single cycle; no permutation corresponds"
        )
    black = config.black.partner
    shifted = grey_complement_matching(n).partner
    seq = [0]
    w = black[0]
    seq.append(w)
    for _ in range(n):
        w = shifted[w]
        seq.append(w)
        w = black[w]
        seq.append(w)
    images = []
    for i in range(1, n + 1):
        u, v = seq[2 * i - 1], seq[2 * i]
        if u % 2 == 1 and v == u + 1:
            images.append((u + 1) // 2)
        elif u % 2 == 0 and v == u - 1:
            images.append(u // 2)
            images[-1] = -images[-1]
        else:
            raise InvalidConfigurationError(
                f"walk produced non-adjacent doubled pair ({u}, {v})"
            )
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

    Avoids building permutation and matching objects.  The grey partner of
    vertex v is v XOR 1 and its tuple is cached per size, so only the black
    partner array is built per call.
    """
    black = _black_partner(images)
    return _union_lengths(black, _grey_partner(len(black)))
