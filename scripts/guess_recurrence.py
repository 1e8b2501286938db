#!/usr/bin/env python3
"""Guess a linear recurrence in n for the Hultman generating functions.

Looks for polynomials c_i(n, x), i = 0..order, of degree <= dn in n and
<= dx in x, with

    c_0 * P_n = c_1 * P_{n-1} + ... + c_order * P_{n-order}

for every n from order to max_n, where P_n is hultman.signed_gf(n) or
hultman.unsigned_gf(n).  Each pair (n, power of x) is one linear equation in
the unknown coefficients of the c_i.  The rank is computed modulo the prime
2^61 - 1; when the null space is one-dimensional, the null vector is solved
exactly in Fractions from the independent equations and printed in integers,
one line per c_i and power of x, as a Python expression in n.  A recurrence
found this way holds for the rows it was fitted to: it is a guess, to be
checked on further rows or proved.

The default run re-derives the recurrence behind hultman.signed_rows.

Usage: python scripts/guess_recurrence.py [--gf signed|unsigned]
           [--order 4] [--degrees 5 4] [--max-n 16]
"""

import argparse
import sys
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bghultman.hultman import signed_gf, unsigned_gf

PRIME = 2**61 - 1


def equations(rows, order, dn, dx):
    # Column (i, a, b) holds the coefficient of n^a x^b in c_i; c_i for
    # i >= 1 enters with a minus sign, so the equations say sum = 0.
    eqs = []
    for n in range(order, len(rows)):
        top = max(rows[n - i].degree for i in range(order + 1)) + dx
        for k in range(top + 1):
            eqs.append([
                (-1 if i else 1) * n**a * rows[n - i].coefficient(k - b)
                for i in range(order + 1) for a in range(dn + 1) for b in range(dx + 1)
            ])
    return eqs


def independent(eqs):
    """Indices of a maximal set of equations independent modulo PRIME."""
    basis, keep = {}, []  # pivot column -> reduced row with pivot 1
    for r, eq in enumerate(eqs):
        v = [c % PRIME for c in eq]
        for col, row in basis.items():
            if v[col]:
                v = [(x - v[col] * y) % PRIME for x, y in zip(v, row)]
        piv = next((c for c, x in enumerate(v) if x), None)
        if piv is not None:
            inv = pow(v[piv], -1, PRIME)
            basis[piv] = [x * inv % PRIME for x in v]
            keep.append(r)
    return keep


def null_vector(eqs):
    """The null vector of integer rows of rank one below full, in lowest integers.

    Gauss-Jordan in integers, each row divided by its content as it goes;
    the vector is read off in Fractions with the one free column set to 1.
    """
    m, pivots = [list(eq) for eq in eqs], []
    for c in range(len(m[0])):
        p = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if p is None:
            continue
        r = len(pivots)
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                row = [m[r][c] * x - m[i][c] * y for x, y in zip(m[i], m[r])]
                g = reduce(gcd, row)
                m[i] = [x // g for x in row]
        pivots.append(c)
    (free,) = set(range(len(m[0]))) - set(pivots)
    vec = [Fraction(0)] * len(m[0])
    vec[free] = Fraction(1)
    for row, c in zip(m, pivots):
        vec[c] = Fraction(-row[free], row[c])
    scale = lcm(*(v.denominator for v in vec))
    ints = [int(v * scale) for v in vec]
    g = reduce(gcd, ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return [v // g for v in ints]


def in_n(coeffs):
    terms = [f"{c}*n**{a}" if a > 1 else f"{c}*n" if a else f"{c}" for a, c in enumerate(coeffs) if c]
    return " + ".join(reversed(terms)).replace("+ -", "- ") or "0"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--gf", choices=("signed", "unsigned"), default="signed")
    parser.add_argument("--order", type=int, default=4)
    parser.add_argument("--degrees", type=int, nargs=2, default=(5, 4), metavar=("DN", "DX"))
    parser.add_argument("--max-n", type=int, default=16)
    args = parser.parse_args()
    (dn, dx), order = args.degrees, args.order

    gf = signed_gf if args.gf == "signed" else unsigned_gf
    eqs = equations([gf(n) for n in range(args.max_n + 1)], order, dn, dx)
    keep = independent(eqs)
    unknowns = len(eqs[0])
    print(f"{args.gf} order {order}, degrees ({dn}, {dx}): {len(eqs)} equations, "
          f"{unknowns} unknowns, rank {len(keep)}")
    if len(keep) != unknowns - 1:
        print(f"no unique recurrence: null space of dimension {unknowns - len(keep)}")
        return 1
    vec = null_vector([eqs[r] for r in keep])
    print("c_0 * P_n = c_1 * P_{n-1} + ...; c_i[x^b] is the coefficient of x^b in c_i")
    for i in range(order + 1):
        for b in range(dx + 1):
            coeffs = [vec[(i * (dn + 1) + a) * (dx + 1) + b] for a in range(dn + 1)]
            print(f"c_{i}[x^{b}] = {in_n(coeffs)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
