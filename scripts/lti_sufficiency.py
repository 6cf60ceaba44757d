#!/usr/bin/env python3
"""Check the sufficient criteria through dx/dt = A x.

Takes the criterion-satisfying polynomials that sufficiency_sweep.py
builds (strict weighted Newton for degrees <= 4, the quintic hypothesis,
alpha-square ratio decay for degrees 5..10), makes each monic with roots
of modulus near 1, and realizes it as the exact rational matrix
A = P C P^-1, with C its companion matrix and P a random unimodular
integer matrix.  ``lti_report(A)`` must return p exactly as the
characteristic polynomial, find the criterion holding, conclude "stable"
and agree with the eigenvalue ground truth.

A fourth family goes from forms to systems: a product of d linear forms
with positive int coefficients in n variables, which is Lorentzian on the
orthant (Branden-Huh), restricted along an int interior line x0 + t v and
realized the same way from its monic restriction, unscaled so that the
coefficients still match.  ``restriction_realization_check`` must hold,
and where a criterion implies stability ``lti_report(A)`` must conclude
"stable".  Exits 1 on any counterexample.
"""

import argparse
import math
import random
import sys
from collections import Counter
from fractions import Fraction

from sufficiency_sweep import alpha_square_poly, strict_newton_poly

from conestab import (Cone, MultiForm, SquareMatrix, UniPoly, lti_report,
                      restrict_line, restriction_realization_check)


def balanced(p):
    """Monic p(lam t) / lam^d, with lam a power of two near the geometric
    mean of the roots' moduli.  The criteria and stability are invariant
    under t -> lam t; without it the float eigenvalues of a realized
    degree-10 alpha-square polynomial can come out with the wrong sign."""
    d = p.degree
    lam = Fraction(2) ** round(math.log2(p.coeff(0) / p.leading) / d)
    return UniPoly(tuple(c * lam ** (k - d) / p.leading
                         for k, c in enumerate(p.coeffs)))


def realize(rng, p):
    """P C P^-1 for the companion matrix C of monic p, with P a product of
    random elementary integer row operations, so P^-1 is integer too."""
    d = p.degree
    a = [[0] * d for _ in range(d)]
    for i in range(1, d):
        a[i][i - 1] = 1
    for i in range(d):
        a[i][d - 1] = -p.coeff(i)
    for _ in range(2 * d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        k = rng.choice([-2, -1, 1, 2])
        # E A E^-1 with E = I + k e_ij: row i += k row j, col j -= k col i
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[j] -= k * row[i]
    return SquareMatrix.from_rows(a)


def sweep(label, count, make, criterion):
    rng = random.Random(f"lti_sufficiency/{label}")
    kept = bad = attempts = 0
    while kept < count and attempts < 50 * count:
        attempts += 1
        p = balanced(make(rng))
        rep = lti_report(realize(rng, p))
        verdict = getattr(rep, criterion)
        if verdict is None or verdict.status != "holds":
            continue
        kept += 1
        if (rep.char_poly.coeffs != p.coeffs or rep.conclusion != "stable"
                or rep.eigen_stable.status != "holds"):
            bad += 1
            print(f"  COUNTEREXAMPLE: {list(p.coeffs)}: chi "
                  f"{list(rep.char_poly.coeffs)}, {rep.conclusion}, "
                  f"eigenvalues {rep.eigen_stable.status}")
    print(f"{label}: {kept} realized systems satisfying the criterion, "
          f"{bad} counterexamples")
    return bad


def linear_form_product(rows):
    """The form prod_r (sum_i rows[r][i] x_i)."""
    n = len(rows[0])
    terms = {(0,) * n: 1}
    for row in rows:
        nxt = {}
        for exp, c in terms.items():
            for i, a in enumerate(row):
                e = list(exp)
                e[i] += 1
                nxt[tuple(e)] = nxt.get(tuple(e), 0) + c * a
        terms = nxt
    return MultiForm(n, len(rows), terms)


def realization_sweep(label, count):
    rng = random.Random(f"lti_sufficiency/{label}")
    implied = Counter()
    bad = 0
    for _ in range(count):
        n, d = rng.randint(2, 4), rng.randint(1, 8)
        f = linear_form_product([[rng.randint(1, 9) for _ in range(n)]
                                 for _ in range(d)])
        x0, v = ([rng.randint(1, 9) for _ in range(n)] for _ in range(2))
        A = realize(rng, restrict_line(f, x0, v).monic())
        check = restriction_realization_check(f, Cone.orthant(n), x0, v, A)
        stable = check.is_holds and check.witness["implied_stable"]
        if stable:
            implied[check.witness["criterion"]] += 1
        if not check.is_holds or (stable
                                  and lti_report(A).conclusion != "stable"):
            bad += 1
            print(f"  COUNTEREXAMPLE: {f.terms} along {x0} + t {v}: "
                  f"{check.status}, witness {check.witness}")
    by_criterion = ", ".join(f"{k} {c}" for k, c in sorted(implied.items()))
    print(f"{label}: {count} realized restrictions, stability implied by "
          f"{by_criterion or 'no criterion'}, {bad} counterexamples")
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=2000)
    args = ap.parse_args(argv)

    bad = 0
    bad += sweep("strict-newton d<=4", args.count,
                 lambda rng: strict_newton_poly(rng, rng.randint(1, 4)),
                 "clc_d_le_4")
    bad += sweep("quintic hypothesis", args.count,
                 lambda rng: strict_newton_poly(rng, 5), "quintic")
    bad += sweep("alpha-square d in 5..10", args.count,
                 lambda rng: alpha_square_poly(rng, rng.randint(5, 10)),
                 "alpha_square")
    bad += realization_sweep("linear-form products n in 2..4, d in 1..8",
                             args.count)
    print("total counterexamples:", bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
