#!/usr/bin/env python3
"""Sweep exact forms of degree 3 and 4 over polyhedral cones, labelled by
the exact Lorentzian decision over the extreme rays, and tabulate what the
sampled checks make of them.

Families: elementary symmetric forms e_k; products of linear forms inside
the dual cone; such products plus one small term; sparse forms with small
int coefficients.  Cones: the orthant, a simplicial cone drawn per form,
and the pyramid over a cross-polytope (the square pyramid in R^3), in R^3,
and for e_k in R^3 or R^4, so that e_3 and e_4 are drawn.

Each form's label is ``lorentzian_sample_check``, which decides these
inputs exactly.  Per sampled check, a ``fails`` on a form labelled
``holds`` is a false refutation, and a ``fails`` label that the check
does not refute is a miss.  The checks are the sampled reductions that
``lorentzian_sample_check`` ran on such inputs before it decided them
exactly (``forms._sampled_reductions``), ``clc_necessary`` and
``hessian_signature``: each is a necessary condition for a K-Lorentzian
form, so a false refutation is a defect.  ``hurwitz_over_cone`` is not
swept: a Lorentzian form need not be stable.

    python scripts/forms_sweep.py --count 100 --trials 8 50

Exits 1 when any check refutes a form labelled ``holds``.
"""

import argparse
import itertools
import random
import sys
from collections import Counter

from lti_sufficiency import linear_form_product

from conestab import (Cone, MultiForm, clc_necessary_check,
                      hessian_signature_check, lorentzian_sample_check)
from conestab.forms import _sampled_reductions
from conestab.numerics import DEFAULT_TOL

FAMILIES = ("e_k", "product", "perturbed", "sparse")
CONE_KINDS = ("orthant", "simplicial", "pyramid")
CHECKS = {
    "reductions": lambda f, K, trials, seed: _sampled_reductions(
        f, K, trials, seed, DEFAULT_TOL),
    "clc_necessary": lambda f, K, trials, seed: clc_necessary_check(
        f, K, trials=trials, seed=seed),
    "hessian_signature": lambda f, K, trials, seed: hessian_signature_check(
        f, K, trials=trials, seed=seed),
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


def random_form(rng, family, K):
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
    outcomes = Counter()  # (check, trials, label, sampled status)
    for family, kind in itertools.product(FAMILIES, CONE_KINDS):
        for i in range(args.count):
            K = random_cone(rng, kind,
                            rng.randint(3, 4) if family == "e_k" else 3)
            f = random_form(rng, family, K)
            if f.is_zero:
                continue
            label = lorentzian_sample_check(f, K).verdict.status
            assert label in ("holds", "fails"), (f, K, label)
            labels[family, label] += 1
            for (name, check), trials in itertools.product(CHECKS.items(),
                                                           args.trials):
                status = check(f, K, trials, [args.seed, i]).verdict.status
                outcomes[name, trials, label, status] += 1
    print("labels: " + ", ".join(
        f"{family} {labels[family, 'holds']} holds / "
        f"{labels[family, 'fails']} fails" for family in FAMILIES))
    print(f"{'check':<18} {'trials':>6} {'holds':>6} "
          f"{'false refutations':>17} {'fails':>6} {'refuted':>8} "
          f"{'missed':>7}")
    false = 0
    for name, trials in itertools.product(CHECKS, args.trials):
        held, failed = ({s: outcomes[name, trials, label, s]
                         for s in ("holds-sampled", "unknown", "fails")}
                        for label in ("holds", "fails"))
        false += held["fails"]
        print(f"{name:<18} {trials:>6} {sum(held.values()):>6} "
              f"{held['fails']:>17} {sum(failed.values()):>6} "
              f"{failed['fails']:>8} "
              f"{failed['holds-sampled'] + failed['unknown']:>7}")
    print(f"{false} false refutations")
    return 1 if false else 0


if __name__ == "__main__":
    sys.exit(main())
