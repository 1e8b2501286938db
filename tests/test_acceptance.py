"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, log

import pytest

from bghultman import census, distances, golden
from bghultman.cli import main
from bghultman.hultman import (
    hultman_bona_flynn,
    hultman_new_formula,
    r_abs_sum,
    signed_hultman,
    signed_hultman_special,
    signed_mean,
    signed_moments,
    sury_identity_check,
    unsigned_mean,
    unsigned_moments,
)

EULER_GAMMA = 0.5772156649


@contextmanager
def reported(num, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


@pytest.fixture(scope="module")
def unsigned_tables():
    return {n: census.hultman_census(n) for n in range(0, 10)}


@pytest.fixture(scope="module")
def signed_tables():
    return {n: census.signed_hultman_census(n) for n in range(0, 8)}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, _ = capsys.readouterr()
    return code, out


def test_criterion_01_table1(capsys):
    with reported(1, "CLI table --signed --n 11 reproduces all 77 reference values"):
        start = time.time()
        code, out = run_cli(capsys, "table", "--signed", "--n", "11")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        got = {(int(n), int(k)): int(v) for n, k, v in rows if int(n) >= 1}
        expected = {
            (n, k): golden.golden_value(n, k)
            for n in range(1, 12)
            for k in range(1, n + 2)
        }
        assert got == expected and len(expected) == 77
        assert got[(11, 1)] == 20661458688
        assert got[(8, 3)] == 2325740
        assert time.time() - start < 5


def test_criterion_02_unsigned_formula_agreement():
    with reported(2, "both unsigned closed forms agree for 1 <= n <= 40, all k"):
        start = time.time()
        for n in range(1, 41):
            for k in range(1, n + 2):
                assert hultman_new_formula(n, k) == hultman_bona_flynn(n, k)
        assert time.time() - start < 30


def test_criterion_03_census_oracles(unsigned_tables, signed_tables):
    with reported(3, "censuses equal closed forms (unsigned n<=9, signed n<=7)"):
        for n, table in unsigned_tables.items():
            assert table.total() == factorial(n)
            for k in range(1, n + 2):
                assert table.count(k) == hultman_bona_flynn(n, k)
        for n, table in signed_tables.items():
            assert table.total() == 2**n * factorial(n)
            for k in range(1, n + 2):
                assert table.count(k) == signed_hultman(n, k)


def test_criterion_03_optional_signed_n8():
    with reported(3, "signed census at n = 8"):
        table = census.signed_hultman_census(8)
        assert table.total() == 2**8 * factorial(8)
        for k in range(1, 10):
            assert table.count(k) == signed_hultman(8, k)


def test_criterion_04_matching_census():
    with reported(4, "hamiltonian matching slice equals signed rows for n <= 5"):
        for n in range(0, 6):
            pairs = census.matching_census(n)
            row = {i: v for (i, j), v in pairs.items() if j == 1}
            for k in range(1, n + 2):
                assert row.get(k, 0) == signed_hultman(n, k)
            assert sum(row.values()) == 2**n * factorial(n)


def test_criterion_05_moments(unsigned_tables, signed_tables):
    with reported(5, "closed-form moments equal census moments exactly for n <= 7"):
        for n in range(1, 8):
            assert (
                census.moments_from_table(unsigned_tables[n], factorial(n))
                == unsigned_moments(n)
            )
            assert (
                census.moments_from_table(signed_tables[n], 2**n * factorial(n))
                == signed_moments(n)
            )
        assert unsigned_moments(2).mean == 2
        assert signed_moments(1).mean == Fraction(3, 2)
        assert signed_moments(1).variance == Fraction(1, 4)


def test_criterion_06_sury_identity():
    with reported(6, "alternating inverse-binomial identity holds for 0 <= n <= 50"):
        for n in range(0, 51):
            lhs, rhs = sury_identity_check(n)
            assert lhs == rhs


def test_criterion_07_special_cases():
    with reported(7, "top-three special cases match the general signed formula, n <= 30"):
        from bghultman.exactmath import binomial

        for n in range(1, 31):
            assert signed_hultman(n, n + 1) == signed_hultman_special(n, n + 1) == 1
            assert (
                signed_hultman(n, n)
                == signed_hultman_special(n, n)
                == binomial(n + 1, 2)
            )
            expected = 5 * binomial(n + 1, 4) + 4 * binomial(n + 1, 3)
            assert signed_hultman(n, n - 1) == expected
            if n >= 1:
                assert signed_hultman_special(n, n - 1) == expected


def test_criterion_08_r_sum_bound():
    with reported(8, "sum of |r_n(a, b)| within 2(1 - 2^-n)/(n+2) for n <= 30"):
        for n in range(0, 31):
            bound = Fraction(2) * (1 - Fraction(1, 2**n)) / (n + 2)
            assert r_abs_sum(n) <= bound


def test_criterion_09_distance_coherence(unsigned_tables, signed_tables):
    with reported(9, "distance tables cohere: shifts, domination, group orders"):
        start = time.time()
        # bid and dcj distributions are the reversed cycle tables (n <= 7).
        for n in range(0, 8):
            bid_dist = distances.distance_distribution(n, "bid")
            assert bid_dist.counts == {
                k: v
                for k, v in (
                    ((n + 1 - c) // 2, unsigned_tables[n].count(c))
                    for c in range(n + 1, 0, -2)
                )
                if v
            }
            dcj_dist = distances.distance_distribution(n, "dcj")
            assert dcj_dist.counts == {
                n + 1 - c: v
                for c in range(1, n + 2)
                if (v := signed_tables[n].count(c))
            }
        # The per-permutation tally route agrees with the closed forms.
        for n in range(0, 7):
            assert distances.bound_distribution(n, "bid") == distances.distance_distribution(n, "bid")
        for n in range(0, 6):
            assert distances.bound_distribution(n, "dcj") == distances.distance_distribution(n, "dcj")
        # Bounds never exceed exact BFS distances; BFS covers the group.
        for n in range(0, 7):
            td_bfs = distances.bfs_distances(n, "transposition")
            ptd_bfs = distances.bfs_distances(n, "prefix_transposition")
            assert len(td_bfs) == len(ptd_bfs) == factorial(n)
            for images, d in td_bfs.items():
                assert distances.metric_value(images, "td_lower") <= d
                assert distances.metric_value(images, "bid") <= d
            for images, d in ptd_bfs.items():
                assert distances.metric_value(images, "ptd_lower") <= d
        for n in range(0, 6):
            srd_bfs = distances.bfs_distances(n, "signed_reversal")
            psrd_bfs = distances.bfs_distances(n, "prefix_signed_reversal")
            assert len(srd_bfs) == len(psrd_bfs) == 2**n * factorial(n)
            for images, d in srd_bfs.items():
                assert distances.metric_value(images, "srd_lower") <= d
            for images, d in psrd_bfs.items():
                assert distances.metric_value(images, "psrd_lower") <= d
        assert time.time() - start < 300


def test_criterion_10_compare_substitute(capsys):
    description = (
        "large-n exact-distance plots are out of desk reach; substituted by the "
        "small-n shift/domination checks plus offset fitting at n <= 6"
    )
    with reported(10, description):
        fitted = []
        for metric, n, group in (
            ("transposition", 5, factorial(5)),
            ("prefix_transposition", 6, factorial(6)),
            ("signed_reversal", 5, 2**5 * factorial(5)),
            ("prefix_signed_reversal", 5, 2**5 * factorial(5)),
        ):
            code, out = run_cli(
                capsys, "compare", "--metric", metric, "--n", str(n), "--format", "json"
            )
            assert code == 0
            payload = json.loads(out)
            rows = payload["rows"]
            assert sum(int(r["distance"]) for r in rows) == group
            assert sum(int(r["shifted"]) for r in rows) == group
            result = distances.compare_to_shifted(n, metric)
            assert result.offset == payload["offset"]
            fitted.append(f"  compare {metric} n={n}: best offset {result.offset}")
        assert distances.compare_to_shifted(5, "transposition").offset == 0
        assert distances.compare_to_shifted(5, "signed_reversal").offset == 0
        print("\n".join(fitted))


def test_criterion_11_asymptotics():
    with reported(11, "n = 1000 means within 0.05 of their asymptotic forms"):
        start = time.time()
        mean_u = float(unsigned_mean(1000))
        assert abs(mean_u - (log(1000) + EULER_GAMMA)) <= 0.05
        mean_s = float(signed_mean(1000))
        assert abs(mean_s - (log(1000) / 2 + EULER_GAMMA / 2 + log(2))) <= 0.05
        assert time.time() - start < 10


def test_criterion_12_determinism(capsys):
    with reported(12, "census and BFS output is byte-identical for jobs=1 and jobs=8"):
        for argv in (
            ["census", "--n", "6"],
            ["census", "--signed", "--n", "4"],
            ["census", "--n", "6", "--statistic", "odd"],
            ["dist", "--metric", "td_lower", "--n", "6"],
        ):
            _, seq = run_cli(capsys, *argv, "--jobs", "1")
            _, par = run_cli(capsys, *argv, "--jobs", "8")
            assert seq == par, argv
        _, first = run_cli(capsys, "dist", "--metric", "signed_reversal", "--n", "4", "--jobs", "1")
        _, second = run_cli(capsys, "dist", "--metric", "signed_reversal", "--n", "4", "--jobs", "8")
        assert first == second
