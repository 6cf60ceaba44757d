#!/usr/bin/env python3
"""Exercise the three sufficient stability criteria on constructed inputs.

Generates coefficient sequences satisfying each hypothesis family (strict
weighted Newton for degrees <= 4, the full quintic hypothesis, and the
alpha-square ratio decay for degrees 5..10) and counts the ones that the
exact Routh-Hurwitz minor test does not find stable.  A sound
implementation reports zero.
"""

import argparse
import random
import sys
from fractions import Fraction

from conestab import (UniPoly, alpha_criterion, clc_d_le_4_criterion,
                      quintic_criterion, routh_hurwitz_stable)


def strict_newton_poly(rng, d):
    a = [Fraction(rng.randint(5, 25), 10)]
    r = Fraction(rng.randint(8, 25), 10)
    for k in range(1, d + 1):
        a.append(a[-1] * r)
        r = r * Fraction(k, k + 1) * Fraction(rng.randint(50, 97), 100)
    return UniPoly(tuple(a))


def alpha_square_poly(rng, d):
    a = [Fraction(rng.randint(3, 30), 10)]
    r = Fraction(rng.randint(3, 30), 10)
    for _ in range(d):
        a.append(a[-1] * r)
        r = r * 100 / (147 * (1 + Fraction(rng.randint(1, 100), 100)))
    return UniPoly(tuple(a))


def sweep(label, count, make, criterion):
    # a str seed is hashed by random itself, the same in every process
    rng = random.Random(f"sufficiency_sweep/{label}")
    kept = 0
    counterexamples = 0
    attempts = 0
    while kept < count and attempts < 50 * count:
        attempts += 1
        p = make(rng)
        if criterion(p).status != "holds":
            continue
        kept += 1
        if routh_hurwitz_stable(p).status != "holds":
            counterexamples += 1
            print(f"  COUNTEREXAMPLE: {list(p.coeffs)}")
    print(f"{label}: {kept} satisfying instances, "
          f"{counterexamples} counterexamples")
    return counterexamples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=10000)
    args = ap.parse_args(argv)

    bad = 0
    bad += sweep("strict-newton d<=4", args.count,
                 lambda rng: strict_newton_poly(rng, rng.randint(1, 4)),
                 clc_d_le_4_criterion)
    bad += sweep("quintic hypothesis", args.count,
                 lambda rng: strict_newton_poly(rng, 5),
                 quintic_criterion)
    bad += sweep("alpha-square d in 5..10", args.count,
                 lambda rng: alpha_square_poly(rng, rng.randint(5, 10)),
                 lambda p: alpha_criterion(p, "square"))
    print("total counterexamples:", bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
