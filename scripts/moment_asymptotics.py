#!/usr/bin/env python3
"""Tabulate exact cycle-count moments against their asymptotic forms.

The exact means approach log(n) + gamma (unsigned) and
log(n)/2 + gamma/2 + log(2) (signed); variances behave the same way with
pi^2/6 (resp. pi^2/8) subtracted.  This prints the exact values, the
asymptotes, and the gaps, so the convergence rate is visible at a glance.

Usage: python scripts/moment_asymptotics.py [--sizes 10 30 100 300 1000]
"""

import argparse
import sys
from math import log, pi
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bghultman.hultman import signed_mean, signed_variance, unsigned_mean, unsigned_variance
from bghultman.verify import EULER_GAMMA

VARIANCE_CUTOFF = 120  # exact signed variance is quadratic in n; keep it desk-sized


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[10, 30, 100, 300, 1000])
    args = parser.parse_args()

    print(f"{'n':>6} {'statistic':<18} {'exact':>12} {'asymptote':>12} {'gap':>10}")
    for n in args.sizes:
        rows = [
            ("unsigned mean", float(unsigned_mean(n)), log(n) + EULER_GAMMA),
            ("signed mean", float(signed_mean(n)), log(n) / 2 + EULER_GAMMA / 2 + log(2)),
        ]
        if n <= VARIANCE_CUTOFF:
            rows.append(
                ("unsigned variance", float(unsigned_variance(n)), log(n) + EULER_GAMMA - pi**2 / 6)
            )
            rows.append(
                (
                    "signed variance",
                    float(signed_variance(n)),
                    log(n) / 2 + EULER_GAMMA / 2 + log(2) - pi**2 / 8,
                )
            )
        for label, exact, approx in rows:
            print(f"{n:>6} {label:<18} {exact:>12.6f} {approx:>12.6f} {exact - approx:>10.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
