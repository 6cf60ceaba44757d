#!/usr/bin/env python3
"""Sweep exact forms of degree 3 and 4 over polyhedral cones, labelled by
the exact Lorentzian decision over the extreme rays, and tabulate what the
sampled checks make of them.

Families: elementary symmetric forms e_k; products of linear forms inside
the dual cone; such products plus one small term; sparse forms with small
int coefficients; determinantal forms det(sum_i l_i(x) B_i B_i^T), with
small int B_i of 3 or 4 rows and l_i = x_i on the orthant, l_i inside the
dual cone elsewhere.  Cones: the orthant, a simplicial cone drawn per
form, and the pyramid over a cross-polytope (the square pyramid in R^3),
in R^3, and for e_k and determinantal forms in R^3 or R^4, so that e_3
and e_4 are drawn.

Each form's label is ``lorentzian_sample_check``, which decides these
inputs exactly.  Three families are Lorentzian by construction, not by
that decision: e_k on the orthant, and products of linear forms and
determinantal forms on every cone, because f o G is a product of linear
forms with positive coefficients or det(sum_j y_j C_j) with positive
semidefinite C_j, real stable (Borcea-Branden, Duke Math. J. 143, 2008)
and hence Lorentzian (Branden-Huh, Ann. Math. 192, 2020).  A label other
than ``holds`` on them is a disagreement with the construction.

The sampled checks are the sampled reductions that
``lorentzian_sample_check`` ran on such inputs before it decided them
exactly (``forms._sampled_reductions``), ``clc_necessary``,
``hessian_signature`` and ``hurwitz_over_cone``.  The first three are
necessary conditions for a K-Lorentzian form, and ``conestab form`` reads
the last two as implied by a ``holds`` label (``forms.implied_checks``);
``hurwitz_over_cone`` is implied, and swept, only where the label is a
strictly Lorentzian ``holds`` of degree <= 4 over the orthant or a
simplicial cone.  A ``fails`` where the label implies the check is a
false refutation, and a ``fails`` label that the check does not refute is
a miss.

    python scripts/forms_sweep.py --count 100 --trials 8 50

Exits 1 when any check refutes a form whose label implies it, or when a
label disagrees with the construction.
"""

import argparse
import itertools
import random
import sys
from collections import Counter

from lti_sufficiency import linear_form_product

from conestab import (Cone, MultiForm, clc_necessary_check,
                      hessian_signature_check, hurwitz_over_cone_check,
                      lorentzian_sample_check)
from conestab.forms import _sampled_reductions, implied_checks
from conestab.numerics import DEFAULT_TOL

FAMILIES = ("e_k", "product", "perturbed", "sparse", "determinantal")
CONE_KINDS = ("orthant", "simplicial", "pyramid")
CHECKS = {
    "reductions": lambda f, K, trials, seed: _sampled_reductions(
        f, K, trials, seed, DEFAULT_TOL),
    "clc_necessary": clc_necessary_check,
    "hessian_signature": hessian_signature_check,
    "hurwitz_over_cone": hurwitz_over_cone_check,
}


def random_cone(rng, kind, n):
    if kind == "orthant":
        return Cone.orthant(n)
    if kind == "pyramid":  # the rays e_n +- e_i, i < n
        return Cone.polyhedral([[s * (k == i) + (k == n - 1)
                                 for k in range(n)]
                                for i in range(n - 1) for s in (1, -1)])
    # triangular generators with a positive diagonal are independent
    return Cone.polyhedral([[rng.randint(-1, 3) if i > j else 2 * (i == j)
                             for i in range(n)] for j in range(n)])


def dual_interior(rng, K):
    """A positive combination of K's facet normals: a linear form that is
    positive on K without 0."""
    weights = [rng.randint(1, 3) for _ in K.facet_normals]
    return [sum(w * h[i] for w, h in zip(weights, K.facet_normals))
            for i in range(K.n)]


def determinant(entries) -> MultiForm:
    """det of the s x s matrix whose entry (k, l) is the linear form with
    coefficients entries[k][l], by Leibniz's formula."""
    s, n = len(entries), len(entries[0][0])
    total = MultiForm(n, s, {})
    for perm in itertools.permutations(range(s)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        total = total + linear_form_product(
            [entries[k][perm[k]] for k in range(s)]).scale(sign)
    return total


def determinantal_form(rng, kind, K):
    """det(sum_i l_i(x) B_i B_i^T), B_i of s = 3 or 4 rows, rank 1 to s."""
    s = rng.randint(3, 4)
    if kind == "orthant":
        lines = [[int(i == j) for j in range(K.n)] for i in range(K.n)]
    else:
        lines = [dual_interior(rng, K) for _ in range(K.n)]
    grams = []
    for _ in lines:
        r = rng.randint(1, s)
        B = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(s)]
        grams.append([[sum(x * y for x, y in zip(a, b)) for b in B]
                      for a in B])
    return determinant([[[sum(l[j] * P[k][m] for l, P in zip(lines, grams))
                          for j in range(K.n)] for m in range(s)]
                        for k in range(s)])


def random_form(rng, family, kind, K):
    if family == "determinantal":
        return determinantal_form(rng, kind, K)
    n, d = K.n, rng.randint(3, min(4, K.n) if family == "e_k" else 4)
    if family == "e_k":
        return MultiForm(n, d, {tuple(int(i in S) for i in range(n)): 1
                                for S in itertools.combinations(range(n), d)})
    exps = [e for e in itertools.product(range(d + 1), repeat=n)
            if sum(e) == d]
    if family == "sparse":
        return MultiForm(n, d, {e: rng.randint(-1, 4)
                                for e in rng.sample(exps, rng.randint(1, 6))})
    f = linear_form_product([dual_interior(rng, K) for _ in range(d)])
    if family == "perturbed":
        f = f + MultiForm(n, d, {rng.choice(exps): rng.randint(-6, 6)})
    return f


def lorentzian_by_construction(family, kind) -> bool:
    return family in ("product", "determinantal") or (
        family == "e_k" and kind == "orthant")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=40,
                    help="forms per family and cone kind")
    ap.add_argument("--trials", type=int, nargs="+", default=[8, 50],
                    help="trial counts of the sampled checks")
    ap.add_argument("--seed", type=int, default=28)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    labels = Counter()
    constructed = Counter()  # family -> forms Lorentzian by construction
    disagree = Counter()
    outcomes = Counter()  # (check, trials, label, sampled status)
    for family, kind in itertools.product(FAMILIES, CONE_KINDS):
        for i in range(args.count):
            K = random_cone(rng, kind, rng.randint(3, 4) if family in (
                "e_k", "determinantal") else 3)
            f = random_form(rng, family, kind, K)
            if f.is_zero:
                continue
            report = lorentzian_sample_check(f, K)
            label = report.verdict.status
            assert label in ("holds", "fails"), (f, K, label)
            labels[family, label] += 1
            if lorentzian_by_construction(family, kind):
                constructed[family] += 1
                disagree[family] += label != "holds"
            hurwitz = "hurwitz-over-cone" in implied_checks(f, report)
            for (name, check), trials in itertools.product(CHECKS.items(),
                                                           args.trials):
                # Hurwitz stability is necessary only where it is implied
                if name == "hurwitz_over_cone" and not hurwitz:
                    continue
                status = check(f, K, trials=trials,
                               seed=[args.seed, i]).verdict.status
                outcomes[name, trials, label, status] += 1
    print("labels: " + ", ".join(
        f"{family} {labels[family, 'holds']} holds / "
        f"{labels[family, 'fails']} fails" for family in FAMILIES))
    print("Lorentzian by construction: " + ", ".join(
        f"{family} {constructed[family]}, {disagree[family]} disagree"
        for family in constructed))
    print(f"{'check':<18} {'trials':>6} {'holds':>6} "
          f"{'false refutations':>17} {'fails':>6} {'refuted':>8} "
          f"{'missed':>7}")
    false = 0
    for name, trials in itertools.product(CHECKS, args.trials):
        held, failed = ({s: outcomes[name, trials, label, s]
                         for s in ("holds-sampled", "unknown", "fails")}
                        for label in ("holds", "fails"))
        if name == "hurwitz_over_cone":  # not run on fails labels
            fails = refuted = misses = "-"
        else:
            fails, refuted = sum(failed.values()), failed["fails"]
            misses = failed["holds-sampled"] + failed["unknown"]
        false += held["fails"]
        print(f"{name:<18} {trials:>6} {sum(held.values()):>6} "
              f"{held['fails']:>17} {fails:>6} {refuted:>8} {misses:>7}")
    disagreements = sum(disagree.values())
    print(f"{disagreements} decisions disagree with the construction")
    print(f"{false} false refutations")
    return 1 if false or disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
