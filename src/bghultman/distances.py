"""Rearrangement distance formulas, lower bounds, and a small-n BFS engine.

Two distances are exact functions of the breakpoint-graph cycle count c:
block-interchange distance (n+1-c)/2 for unsigned permutations and
double-cut-and-join distance n+1-c for signed ones.  The other supported
distances are NP-hard or open, so this module provides their cycle-based
lower bounds plus an exact brute-force oracle: breadth-first search over the
whole group from the identity, for any of the supported generator sets.
BFS levels double as exact distance distributions at desk scale.

The BFS functions take a generator set by name.  Each set is built once
per size as a tuple of signed image tuples.  ``GeneratorSet.moves`` is right
multiplication t -> compose(t, g): the new state picks its entries, some
negated, from fixed positions of the old one.  The BFS walks by left
multiplication s -> compose(g, s) instead, which relabels the values of s
and leaves their positions alone.  A BFS state stores each value v, signed
or not, as the byte v + n, and one ``bytes.translate`` applies a move.  Both
multiplications give the same distances: the products of k generators form
the same set whether each word is built from the left or from the right, so
the two balls of every radius around the identity agree.

The BFS expands one state of each orbit of the symmetries that map the
generator set onto itself, checked on the generators at each size.  The
mirror of s is w0 s w0, its conjugate by the reversal w0: s read backwards,
each value v replaced by sgn(v) * (n + 1 - |v|).  (In the signed group
conjugating by -w0 is the same, since -id is central.)  It commutes with the
move, mirror(g s) = mirror(g) mirror(s).  The toric shift phi_m of an
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
mirror), and below n = 3 for every unsigned set.  Signed sets are never
shifted, and the three prefix sets expand every state.  Each image of a state
found at a level is counted there without being expanded.

Each cycle-based metric is one row of ``_METRICS``: its group (signed or
unsigned), the ``bpgraph.CYCLE_WEIGHTS`` row whose per-cycle sum it reads,
and its formula in n and that sum.  The per-permutation functions, the
census tallies and the closed-form tables all read that row.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
def _generators(name: str, n: int) -> tuple[Images, ...]:
    # Each move as a signed image tuple g: compose(t, g) takes its entries
    # from t at the positions |g| lists, negated where g is negative.
    # Signed sets negate what they reverse.
    gaps = _CUT_GAPS[name]
    sign = -1 if GENERATOR_SETS[name].signed else 1
    generators = []
    for cuts in combinations_with_replacement(range(n + 1), len(gaps) + 1):
        if name.startswith("prefix_") and cuts[0]:
            continue
        if any(b - a < gap for a, b, gap in zip(cuts, cuts[1:], gaps)):
            continue
        first, last = cuts[0], cuts[-1]
        blocks = zip(cuts, cuts[1:]) if len(cuts) > 2 else ((p, p + 1) for p in range(first, last))
        moved = [sign * p for a, b in reversed(list(blocks)) for p in range(a + 1, b + 1)]
        generators.append((*range(1, first + 1), *moved, *range(last + 1, n + 1)))
    return tuple(generators)


class GeneratorSet:
    """A named move set generating S_n or its signed counterpart.

    ``moves(t)`` is compose(t, g) for each generator g, so the moves of the
    identity are the generators themselves.  Every set is closed under
    inverses, so these are true left-invariant sorting distances.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if name not in _CUT_GAPS:
            raise ValueError(f"unknown generator set {name!r}")
        self.name = name

    @property
    def signed(self) -> bool:
        return "signed_" in self.name

    def moves(self, t: Images) -> list[Images]:
        """Every state one move away from ``t``."""
        return [
            tuple([t[v - 1] if v > 0 else -t[-v - 1] for v in g])
            for g in _generators(self.name, len(t))
        ]


GENERATOR_SETS: dict[str, GeneratorSet] = {name: GeneratorSet(name) for name in _CUT_GAPS}

FORMULA_METRICS = ("bid", "dcj")
BOUND_METRICS = ("srd_lower", "td_lower", "ptd_lower", "psrd_lower")


class _Metric(NamedTuple):
    signed: bool  # the group the metric is defined on
    weight: str  # the bpgraph.CYCLE_WEIGHTS row whose per-cycle sum it reads
    value: Callable[[int, int], int]  # (n, weighted sum) -> metric value


# One row per cycle-based metric.  The "c_minus_2c_1" sum is
# c - 2*c_1 + 2*[first == 1] (bpgraph.CYCLE_WEIGHTS), which turns the
# prefix bounds' [first != 1] term into a constant.
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
    return value(len(images), bpgraph.weighted_cycle_sum(images, weight))


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


def _value_tables(name: str, n: int) -> tuple[bytes, ...]:
    # One bytes.translate table per generator g, mapping the code v + n of
    # each value v to g(v) + n, where g(-v) is -g(v); an unsigned state never
    # holds a code below n + 1.  Codes outside the group map to themselves.
    tables = []
    for g in _generators(name, n):
        table = bytearray(range(256))
        for v, image in enumerate(g, start=1):
            table[n + v] = n + image
            table[n - v] = n - image
        tables.append(bytes(table))
    return tuple(tables)


def _mirror_table(name: str, n: int) -> bytes | None:
    # The bytes.translate table of the mirror s -> w0 s w0 on values: the
    # code of v maps to the code of sgn(v) * (n + 1 - |v|), and the state is
    # read backwards.  None unless the mirror maps the generator set onto
    # itself, which is checked on the generators, not declared per set.
    table = bytearray(range(256))
    for v in range(1, n + 1):
        table[n + v] = 2 * n + 1 - v
        table[n - v] = v - 1
    flip = bytes(table)
    codes = {bytes([n + v for v in g]) for g in _generators(name, n)}
    return flip if {code[::-1].translate(flip) for code in codes} == codes else None


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


def _shift_tables(name: str, n: int) -> tuple[bytes, ...] | None:
    # The subtract tables of _toric_images, or None unless every toric shift
    # maps every generator back into the set, which is checked on the
    # generators, not declared per set.  Signed sets are never shifted.
    if GeneratorSet(name).signed:
        return None
    subtract = []
    for a in range(n + 1):
        table = bytearray(range(256))
        table[n : 2 * n + 1] = [n + (v - a) % (n + 1) for v in range(n + 1)]
        subtract.append(bytes(table))
    codes = {bytes([n + v for v in g]) for g in _generators(name, n)}
    closed = all(codes.issuperset(_toric_images(code, subtract)) for code in codes)
    return tuple(subtract) if closed else None


def _bfs_moves(
    n: int, name: str, force: bool
) -> tuple[tuple[bytes, ...], Callable[[bytes], Iterable[bytes]] | None]:
    # The checks every BFS makes before it builds anything, then its move
    # tables (see _value_tables) and its orbit map: a state's images under
    # the toric shifts and the mirror that map the generators onto
    # themselves, the state included, or None if neither does.
    gset = GeneratorSet(name)
    check_size(n, BFS_SIGNED_GUARD if gset.signed else BFS_UNSIGNED_GUARD, force, f"{name} BFS")
    if n >= 128:
        raise ValueError(f"{name} BFS stores states as bytes, so n must be below 128, got {n}")
    flip, subtract = _mirror_table(name, n), _shift_tables(name, n)
    if subtract is None:
        orbit = None if flip is None else lambda s: (s, s[::-1].translate(flip))
    else:
        def orbit(state: bytes) -> list[bytes]:
            images = _toric_images(state, subtract)
            if flip is not None:
                images += [s[::-1].translate(flip) for s in images]
            return images
    return _value_tables(name, n), orbit


def _bfs_levels(
    n: int, tables: tuple[bytes, ...], orbit: Callable[[bytes], Iterable[bytes]] | None
) -> Iterator[tuple[int, list[bytes]]]:
    # The BFS from the identity, level by level: each level's size and the
    # states expanded at it, as byte codes; each move is one translate by a
    # generator's table.  With an orbit map only one state of each orbit is
    # expanded, which is exact because each symmetry in it maps the moves of
    # a state onto the moves of its image (module docstring).  The images of
    # a new state are new too: they lie at its depth, and seen only ever
    # holds whole orbits.  They are marked seen, and so counted in the
    # level's size, but never expanded.
    frontier = [bytes(range(n + 1, 2 * n + 1))]
    seen = set(frontier)
    size = 1
    while frontier:
        yield size, frontier
        known = len(seen)
        nxt = []
        for state in frontier:
            for nb in map(state.translate, tables):
                if nb not in seen:
                    nxt.append(nb)
                    if orbit is None:
                        seen.add(nb)
                    else:
                        seen.update(orbit(nb))
        frontier = nxt
        size = len(seen) - known


def bfs_distances(n: int, generator_set: str, force: bool = False) -> dict[Images, int]:
    """Exact sorting distance of every group element, by BFS from identity."""
    tables, orbit = _bfs_moves(n, generator_set, force)
    dist = {}
    for d, (_, level) in enumerate(_bfs_levels(n, tables, orbit)):
        for state in level:
            for image in (state,) if orbit is None else orbit(state):
                dist[tuple([code - n for code in image])] = d
    return dist


def bfs_level_sizes(n: int, generator_set: str, force: bool = False) -> dict[int, int]:
    """The number of group elements at each BFS distance from the identity."""
    levels = _bfs_levels(n, *_bfs_moves(n, generator_set, force))
    return {d: size for d, (size, _) in enumerate(levels)}


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
        return DistributionTable(n, metric, _closed_form_counts(n, metric))
    if metric in BOUND_METRICS:
        return bound_distribution(n, metric, force=force)
    if metric in GENERATOR_SETS:
        sizes = bfs_level_sizes(n, metric, force)
        return DistributionTable(n, metric, sizes)
    raise ValueError(f"unknown metric {metric!r}")


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


def _closed_form_counts(n: int, metric: str) -> dict[int, int]:
    # {value(n, c): count} over the nonzero coefficients of the closed-form
    # row, for a metric whose weight is c itself.
    signed, _, value = _METRICS[metric]
    return {value(n, c): v for c, v in enumerate(_cycle_row(n, signed).coeffs) if v}


def compare_to_shifted(n: int, metric: str, force: bool = False) -> ComparisonResult:
    """Fit a shifted cycle-count table to a BFS distance distribution.

    The offset minimises the total variation between the two series (both
    carry the full group mass, so no normalisation is needed); ties break
    toward the smaller offset.
    """
    dist = bfs_level_sizes(n, metric, force)
    # Offset m shifts the cycle-count index, and so the distance, by m/step;
    # the unsigned table has no mass at an odd offset.
    signed = GENERATOR_SETS[metric].signed
    step = 1 if signed else 2
    table = _closed_form_counts(n, "dcj" if signed else "bid")

    def shifted_counts(m: int) -> dict[int, int]:
        return {} if m % step else {k + m // step: v for k, v in table.items()}

    def total_variation(m: int) -> int:
        shifted = shifted_counts(m)
        return sum(abs(dist.get(k, 0) - shifted.get(k, 0)) for k in set(dist) | set(shifted))

    # min keeps the first minimum, so a tie goes to the smaller offset.
    best_m = min(range(-(n + 1), n + 2), key=total_variation)
    shifted = shifted_counts(best_m)
    keys = sorted(set(dist) | set(shifted))
    rows = tuple((k, dist.get(k, 0), shifted.get(k, 0)) for k in keys)
    return ComparisonResult(n, metric, best_m, sum(abs(d - s) for _, d, s in rows), rows)
