"""Verification suites: closed forms, censuses and the BFS oracle checked against each other.

A suite is a generator of ``(name, ok, detail)`` checks up to a size limit
``max_n``; ``hultman verify`` prints one PASS or FAIL line per check.
``SUITES`` maps each suite name to its generator and its default limit.

Most checks come from one table, ``ROUTES``: per suite, each quantity has a
reference, a stream ``top -> rows for n = 0..top`` and a reduction
``row -> value``, and its routes, each ``(name, sizes, n -> value)`` with
sizes ascending from 0.  One loop walks each reference stream once, reduces
a row only at a size where some route runs, and compares every route with
``==`` at each of its sizes up to ``max_n``.  It gives one check per route,
and a FAIL names the first n that disagreed.  A suite's default ``max_n``
is the largest size of its routes.  table1 and the lemmas run to ``max_n``
or their own limit; the other checks keep fixed sizes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import partial
from math import log
from typing import Callable, Iterator

from . import bpgraph, census, distances, golden, perm
from .hultman import (
    MomentPair,
    new_formula_row,
    r_abs_sum,
    r_sum,
    signed_gf,
    signed_hultman_special,
    signed_mean,
    signed_moments,
    signed_rows,
    sury_identity_check,
    unsigned_gf,
    unsigned_mean,
    unsigned_moments,
    unsigned_rows,
)

__all__ = ["EULER_GAMMA", "ROUTES", "SUITES"]

EULER_GAMMA = 0.5772156649

Checks = Iterator[tuple[str, bool, str]]


def _counts(row) -> dict[int, int]:
    return {k: c for k, c in enumerate(row.coeffs) if c}


def _moments(row) -> MomentPair:
    # The mean and variance of the distribution a generating function counts,
    # from its value and first two derivatives at x = 1.
    d = row.derivative()
    total, d1, d2 = row.evaluate(1), d.evaluate(1), d.derivative().evaluate(1)
    mean = Fraction(d1, total)
    return MomentPair(mean, mean + Fraction(d2, total) - mean * mean)


def _bfs(gset: str, metric: str, n: int):
    # A BFS route of the bounds suite.  The block-interchange distance is
    # (n+1-c)/2 (Christie 1996), bid itself, so its BFS levels are bid's
    # distribution.  Any other set's distance bounds the metric from above,
    # and min(metric, distance) over the group tallies like the metric alone
    # exactly when the BFS reached every element and the metric never
    # exceeds the distance: min only lowers values, so equal multisets force
    # equal sums.
    if gset == "block_interchange":
        return distances.bfs_level_sizes(n, gset)
    return Counter(
        min(distances.metric_value(images, metric), d)
        for images, d in distances.bfs_distances(n, gset).items()
    )


# The sizes of a census route, unsigned then signed: every n to the guard.
_CENSUS_SIZES = (range(census.UNSIGNED_CENSUS_GUARD + 1), range(census.SIGNED_CENSUS_GUARD + 1))

# Each metric's BFS routes, generator set -> largest n; a metric with no row
# here stops the import, so a new one cannot skip the table.
_BFS_ROUTES = {
    "bid": {"block_interchange": distances.BFS_UNSIGNED_GUARD, "transposition": 6},
    "dcj": {},
    "srd_lower": {"signed_reversal": 5},
    "td_lower": {"transposition": 6},
    "ptd_lower": {"prefix_transposition": 6},
    "psrd_lower": {"prefix_signed_reversal": 5},
}


def _bounds(metric: str):
    # A metric's row of the bounds suite: its census tally is the reference,
    # and cycle_row gives a closed_form route wherever it gives the table.
    row = distances.METRICS[metric]
    routes = [
        ("closed_form", _CENSUS_SIZES[row.signed],
         lambda n: distances.distance_distribution(n, metric).counts)
    ] if row.closed_form else []
    routes += [
        (f"{gset}_bfs", range(top + 1), partial(_bfs, gset, metric))
        for gset, top in _BFS_ROUTES[metric].items()
    ]
    return (
        lambda top: range(top + 1), lambda n: distances.bound_distribution(n, metric).counts,
        routes,
    )


# Per suite, quantity -> (reference stream, reduction, routes); see the
# module docstring.
ROUTES = {
    "formulas": {
        "unsigned_cycles": (unsigned_rows, _counts, [
            ("census", _CENSUS_SIZES[0], lambda n: census.hultman_census(n).counts),
            ("falling_factorial", range(41), lambda n: _counts(new_formula_row(n))),
        ]),
        "signed_cycles": (signed_rows, _counts, [
            ("census", _CENSUS_SIZES[1], lambda n: census.signed_hultman_census(n).counts),
            ("hook_sum", range(41), lambda n: _counts(signed_gf(n))),
            # The matchings whose union with the shifted grey matching is one
            # cycle are the black matchings of valid breakpoint graphs.
            ("matching_slice", range(6),
             lambda n: {i: v for (i, j), v in census.matching_census(n).items() if j == 1}),
        ]),
    },
    "bounds": {metric: _bounds(metric) for metric in distances.METRICS},
    "moments": {
        "unsigned_cycles": (unsigned_rows, _moments, [
            ("formula", range(121), unsigned_moments),
            ("census", _CENSUS_SIZES[0], lambda n: census.moments_from_table(
                census.hultman_census(n), perm.group_order(n, False))),
            ("generating_function", range(13), lambda n: _moments(unsigned_gf(n))),
        ]),
        "signed_cycles": (signed_rows, _moments, [
            ("formula", (*range(121), 300), signed_moments),
            ("census", _CENSUS_SIZES[1], lambda n: census.moments_from_table(
                census.signed_hultman_census(n), perm.group_order(n, True))),
            ("generating_function", range(13), lambda n: _moments(signed_gf(n))),
        ]),
    },
}


def _route_checks(suite: str, max_n: int) -> Checks:
    # The one loop that compares routes.  Each quantity's reference stream is
    # walked once, to the largest size at which one of its routes runs; a row
    # is reduced only at a size where some route runs, and each route is
    # compared at its sizes up to max_n until it first disagrees.  Every
    # route's sizes start at 0, so each runs at some size.
    for quantity, (stream, reduce, routes) in ROUTES[suite].items():
        runs = [(name, [n for n in sizes if n <= max_n], value) for name, sizes, value in routes]
        used = {n for _, sizes, _ in runs for n in sizes}
        bad = {}
        for n, row in enumerate(stream(max(used))):
            if n not in used:
                continue
            expected = reduce(row)
            for name, sizes, value in runs:
                if n in sizes and name not in bad and value(n) != expected:
                    bad[name] = n
        for name, sizes, _ in runs:
            # Sizes with gaps, as n <= 120 and n = 300, say how many ran.
            gaps = f"{len(sizes)} sizes, " * (len(sizes) <= sizes[-1])
            detail = f"{name} equals the reference for {gaps}n<={sizes[-1]}"
            if name in bad:
                detail = f"{name} differs from the reference at n={bad[name]}"
            yield f"{suite}.{quantity}_{name}", name not in bad, detail


def table1(max_n: int) -> Checks:
    for n, row in enumerate(signed_rows(min(max_n, 11))):
        if n == 0:
            continue
        expected = [golden.golden_value(n, k) for k in range(1, n + 2)]
        got = [row.coefficient(k) for k in range(1, n + 2)]
        yield f"table1.row_n{n}", got == expected, "signed counts match the embedded reference row"


def formulas(max_n: int) -> Checks:
    yield from _route_checks("formulas", max_n)
    ok = all(
        row.evaluate(1) == perm.group_order(n, rows is signed_rows)
        for rows in (unsigned_rows, signed_rows)
        for n, row in enumerate(rows(25))
    )
    yield "formulas.totals", ok, "rows sum to n! and 2^n*n! for n<=25"
    ok = all(
        row.coefficient(k) == signed_hultman_special(n, k)
        for n, row in enumerate(signed_rows(30))
        for k in (n + 1, n, n - 1)
        if min(n, k) >= 1
    )
    yield "formulas.special_cases", ok, "top three k values match for n<=30"


def lemmas(max_n: int) -> Checks:
    for n in range(min(max_n, 5) + 1):
        ok_valid = True
        ok_round = True
        seen = set()
        for pi in perm.enumerate_signed(n):
            config = bpgraph.breakpoint_graph(pi)
            if not bpgraph.is_valid_breakpoint_graph(config):
                ok_valid = False
                break
            if bpgraph.recover_permutation(config) != pi:
                ok_round = False
                break
            seen.add(config.black)
        yield f"lemmas.valid_n{n}", ok_valid, "every breakpoint graph has a hamiltonian complement"
        yield f"lemmas.roundtrip_n{n}", ok_round, "recovery inverts construction"
        ok = len(seen) == perm.group_order(n, True)
        yield f"lemmas.distinct_n{n}", ok, "black matchings are pairwise distinct"
    # relabel_m{m} checks the matchings at n = m - 1.
    for m in range(1, min(max_n, 3) + 2):
        mu = bpgraph.mu_relabeling(m)
        grey = bpgraph.grey_matching(m - 1)
        eps = bpgraph.identity_matching(m)
        fixed = bpgraph.conjugate_matching(bpgraph.grey_complement_matching(m - 1), mu)
        ok = (
            bpgraph.conjugate_matching(grey, mu) == eps
            and bpgraph.union_cycle_count(eps, fixed) == 1
            and all(
                bpgraph.union_cycle_count(grey, tau)
                == bpgraph.union_cycle_count(eps, bpgraph.conjugate_matching(tau, mu))
                for tau in bpgraph.iter_partner_tuples(m)
            )
        )
        yield f"lemmas.relabel_m{m}", ok, "conjugation preserves union cycle counts"


def moments(max_n: int) -> Checks:
    yield from _route_checks("moments", max_n)
    ok = all(
        abs(r_sum(n)) <= r_abs_sum(n) <= Fraction(2) * (1 - Fraction(1, 2**n)) / (n + 2)
        for n in range(0, 31)
    )
    yield "moments.r_sum_bound", ok, "correction coefficients within the stated bound"
    ok = all(lhs == rhs for lhs, rhs in map(sury_identity_check, range(0, 51)))
    yield "moments.alternating_identity", ok, "both sides equal for n<=50"
    mean_u = float(unsigned_mean(1000))
    mean_s = float(signed_mean(1000))
    ok = abs(mean_u - (log(1000) + EULER_GAMMA)) <= 0.05
    yield "moments.unsigned_asymptotic", ok, "n=1000 mean within 0.05 of log(n)+gamma"
    ok = abs(mean_s - (log(1000) / 2 + EULER_GAMMA / 2 + log(2))) <= 0.05
    yield "moments.signed_asymptotic", ok, "n=1000 mean within 0.05 of log(n)/2+gamma/2+log(2)"


def _largest(suite: str) -> int:
    return max(sizes[-1] for *_, routes in ROUTES[suite].values() for _, sizes, _ in routes)


SUITES: dict[str, tuple[Callable[[int], Checks], int]] = {
    "table1": (table1, 11),
    "formulas": (formulas, _largest("formulas")),
    "lemmas": (lemmas, 4),
    "bounds": (partial(_route_checks, "bounds"), _largest("bounds")),
    "moments": (moments, _largest("moments")),
}
