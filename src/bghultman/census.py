"""Exhaustive censuses producing exact distribution tables.

One engine serves every group census: it checks n and the size guard, then
tallies key(images) over S_n or the signed group, where key is a statistic
of one permutation (cycle count, odd-cycle count, or a distance bound from
the distances module).  With jobs > 1 the enumeration splits by first image
into disjoint ranges run in a process pool, and the partial tallies merge
by per-key addition; exact integer counts make the merge order irrelevant,
so parallel and sequential runs produce identical tables.  The matching
census walks perfect matchings instead and stays sequential.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping

from . import bpgraph, perm
from .hultman import MomentPair
from .perm import GuardError

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

    def support(self) -> list[int]:
        return sorted(self.counts)


def _check_size(n: int, guard: int, force: bool, what: str) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > guard and not force:
        raise GuardError(
            f"n={n} exceeds the {what} guard ({guard}); pass force=True to run anyway"
        )


def _odd_cycle_count(images: tuple[int, ...]) -> int:
    return sum(length % 2 for length in bpgraph.cycle_lengths_images(images))


def _tally(
    key: Callable[[tuple[int, ...]], int], n: int, signed: bool, first: int | None
) -> Counter[int]:
    stream = perm.iter_images_signed(n, first) if signed else perm.iter_images_unsigned(n, first)
    return Counter(map(key, stream))


def _run_census(
    n: int,
    signed: bool,
    key: Callable[[tuple[int, ...]], int],
    statistic: str,
    jobs: int,
    force: bool,
) -> DistributionTable:
    # ``key`` goes to pool workers, so it must be module-level or a partial
    # of a module-level function; lambdas and closures do not pickle.
    _check_size(n, SIGNED_CENSUS_GUARD if signed else UNSIGNED_CENSUS_GUARD, force, "census")
    if jobs <= 1 or n == 0:
        counts = _tally(key, n, signed, None)
    else:
        task = partial(_tally, key, n, signed)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            counts = sum(pool.map(task, perm.first_values(n, signed)), Counter())
    return DistributionTable(n, statistic, dict(counts))


def hultman_census(n: int, jobs: int = 1, force: bool = False) -> DistributionTable:
    """Counts of breakpoint-graph cycle numbers over all of S_n."""
    return _run_census(n, False, bpgraph.cycle_count_images, "unsigned_cycles", jobs, force)


def signed_hultman_census(n: int, jobs: int = 1, force: bool = False) -> DistributionTable:
    """Counts of breakpoint-graph cycle numbers over all signed permutations."""
    return _run_census(n, True, bpgraph.cycle_count_images, "signed_cycles", jobs, force)


def odd_hultman_census(n: int, jobs: int = 1, force: bool = False) -> DistributionTable:
    """Counts of odd-length breakpoint-graph cycles over S_n.

    No closed form is known for these numbers; the census is the only
    implementation by design, not a placeholder.
    """
    return _run_census(n, False, _odd_cycle_count, "unsigned_odd_cycles", jobs, force)


def matching_census(n: int, force: bool = False) -> dict[tuple[int, int], int]:
    """Bivariate cycle census over perfect matchings of 0..2n+1.

    For each matching tau, tallies the pair (cycles of grey union tau,
    cycles of tau union shifted-grey).  The slice with second coordinate 1
    is exactly the signed cycle-count distribution for n, since those tau
    are the black matchings of valid breakpoint graphs.
    """
    _check_size(n, MATCHING_CENSUS_GUARD, force, "matching census")
    grey = bpgraph.grey_matching(n).partner
    shifted = bpgraph.grey_complement_matching(n).partner
    walk = bpgraph._union_lengths
    pairs = (
        (len(walk(grey, tau)), len(walk(tau, shifted)))
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
