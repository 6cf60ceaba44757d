"""Acceptance suite: one test per criterion, each printing a pass line.

Everything runs at desk scale.  Exact arithmetic is used wherever the
criterion demands zero tolerance on verdicts.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import networkx as nx
import numpy as np
from conestab import (Cone, MultiForm, SquareMatrix, UniPoly,
                      alpha_constant, alpha_criterion, clc_d_le_4_criterion,
                      hessian_signature_check, is_univariate_clc, lti_report,
                      matrix_k_irreducible, matrix_k_nonnegative,
                      perron_frobenius_check, quintic_criterion, restrict_line,
                      root_oracle_verdict, routh_hurwitz_stable,
                      stability_report)

from conftest import poly_from_roots
from test_forms import power_of_sum, elementary_symmetric_2
from test_lti import companion_of, signed_permutation

UNSTABLE_QUINTIC = UniPoly((5, 14, Fraction(25, 2), Fraction(36, 5), 3, 1))
STABLE_QUINTIC = UniPoly((5, 25, 50, 30, 10, 3))

CLI = [sys.executable, "-m", "conestab.cli"]


def done(name):
    print(f"\nACCEPTANCE PASS: {name}")


def test_criterion_01_quintic_regression():
    clc = is_univariate_clc(UNSTABLE_QUINTIC)
    assert clc.status == "holds"
    assert clc.margin == 0 and clc.witness == ("weighted-newton", 4)
    assert routh_hurwitz_stable(UNSTABLE_QUINTIC).status == "fails"

    assert routh_hurwitz_stable(STABLE_QUINTIC).status == "holds"
    assert is_univariate_clc(STABLE_QUINTIC).status == "fails"
    done("1: quintic example regression (exact, zero tolerance)")


def test_criterion_02_cubic_product_regression():
    cubic = UniPoly((3, 7, 7, 4))
    assert is_univariate_clc(cubic).status == "holds"
    factor = UniPoly((1, 1, 1))
    assert is_univariate_clc(factor).status == "fails"
    assert (factor * UniPoly((3, 4))).coeffs == (3, 7, 7, 4)
    done("2: cubic example regression and exact product")


def test_criterion_03_alpha_constant():
    a = alpha_constant()
    assert abs(a ** 3 - a ** 2 - 2 * a - 1) <= 1e-12
    assert abs(a - 2.1479) <= 5e-4
    done("3: alpha constant residual and value")


def _agreement_polynomial(rng):
    # constant terms are kept nonzero: an exact root at the origin sits on
    # the boundary every tolerance band is meant to exclude
    kind = rng.random()
    if kind < 0.4:
        d = rng.randint(1, 10)
        head = rng.choice([k for k in range(-9, 10) if k])
        return UniPoly(tuple([head] + [rng.randint(-9, 9) for _ in range(d - 1)]
                             + [rng.randint(1, 9)]))
    if kind < 0.8:
        n_real = rng.randint(0, 3)
        n_pairs = rng.randint(0 if n_real else 1, 3)
        p = poly_from_roots([-rng.randint(1, 9) for _ in range(n_real)], [])
        for _ in range(n_pairs):
            p = p * UniPoly((rng.randint(1, 9), rng.randint(1, 9), 1))
        return p
    d = rng.randint(1, 10)
    return UniPoly(tuple(rng.randint(1, 20) for _ in range(d + 1)))


def test_criterion_04_decider_oracle_agreement():
    rng = random.Random(404)
    qualifying = 0
    for _ in range(10000):
        p = _agreement_polynomial(rng)
        if p.degree is None or p.degree < 1:
            continue
        rep = stability_report(p)
        margins = rep.minor_margins[:p.degree - 1]
        if margins and min(abs(m) for m in margins) <= 1e-7:
            continue
        qualifying += 1
        oracle = rep.root_oracle.status
        assert oracle in ("holds", "fails"), (p.coeffs, oracle)
        for name, verdict in [
                ("routh_hurwitz", rep.routh_hurwitz),
                ("lc1", rep.lienard_chipart[1]),
                ("lc2", rep.lienard_chipart[2]),
                ("lc3", rep.lienard_chipart[3]),
                ("lc4", rep.lienard_chipart[4]),
                ("hermite_biehler", rep.hermite_biehler),
                ("degree_reduction", rep.degree_reduction)]:
            assert verdict.status == oracle, (name, p.coeffs, verdict, oracle)
    assert qualifying > 9000
    done(f"4: decider/oracle agreement on {qualifying} clear-margin instances")


def _strict_newton_rational(rng, d):
    a = [Fraction(rng.randint(5, 25), 10)]
    r = Fraction(rng.randint(8, 25), 10)
    for k in range(1, d + 1):
        a.append(a[-1] * r)
        r = r * Fraction(k, k + 1) * Fraction(rng.randint(50, 97), 100)
    return UniPoly(tuple(a))


def test_criterion_05a_clc_low_degree_sufficiency():
    rng = random.Random(505)
    for _ in range(10000):
        p = _strict_newton_rational(rng, rng.randint(1, 4))
        assert clc_d_le_4_criterion(p).status == "holds"
        assert root_oracle_verdict(p).status == "holds", p.coeffs
    done("5a: 10000 strict-CLC polynomials of degree <= 4 are all stable")


def test_criterion_05b_quintic_sufficiency():
    rng = random.Random(506)
    kept = 0
    while kept < 10000:
        p = _strict_newton_rational(rng, 5)
        if quintic_criterion(p).status != "holds":
            continue
        kept += 1
        assert root_oracle_verdict(p).status == "holds", p.coeffs
    done("5b: 10000 quintics meeting the full hypothesis are all stable")


def test_criterion_05c_alpha_square_sufficiency():
    # ratio decay by a rational factor 1.47(1+u) whose square clears the
    # upper bisection bracket of alpha, built exactly so the criterion's
    # conservative rational comparison decides with zero tolerance
    rng = random.Random(507)
    for _ in range(10000):
        d = rng.randint(5, 10)
        a = [Fraction(rng.randint(3, 30), 10)]
        r = Fraction(rng.randint(3, 30), 10)
        for _ in range(d):
            a.append(a[-1] * r)
            r = r * 100 / (147 * (1 + Fraction(rng.randint(1, 100), 100)))
        p = UniPoly(tuple(a))
        assert alpha_criterion(p, "square").status == "holds", p.coeffs
        assert root_oracle_verdict(p).status == "holds", p.coeffs
    done("5c: 10000 alpha-square polynomials of degree 5..10 are all stable")


def test_criterion_06_restriction_exactness():
    rng = random.Random(606)
    for _ in range(1000):
        n = rng.randint(1, 4)
        d = rng.randint(1, 5)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = [0] * n
            for _ in range(d):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + Fraction(
                rng.randint(-9, 9), rng.randint(1, 4))
        f = MultiForm(n, d, terms)
        x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(n))
        v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(n))
        p = restrict_line(f, x, v)
        g = f
        for k in range(d + 1):
            assert g.eval(x) == math.factorial(k) * p.coeff(k)
            if k < d:
                g = g.dir_derivative(v)
    done("6: 1000 rational restrictions, substitution matches the derivative "
         "identities a_k = D_v^k f(x) / k! exactly")


def test_criterion_07_cone_theory_cross_checks():
    # n >= 2: the 1x1 zero matrix is vacuously irreducible under the power
    # characterization yet has spectral radius 0, so the Perron sweep is
    # meaningful only from dimension 2 up
    rng = random.Random(707)
    cones = {n: Cone.orthant(n) for n in range(2, 9)}
    irreducible_checked = 0
    for _ in range(1000):
        n = rng.randint(2, 8)
        K = cones[n]
        # mixed-sign pattern drives the entrywise equivalence ...
        A = SquareMatrix.from_rows(
            [[rng.choice([0, 0, -1, 1, 2, 5]) for _ in range(n)]
             for _ in range(n)])
        entrywise = all(A[i, j] >= 0 for i in range(n) for j in range(n))
        assert (matrix_k_nonnegative(A, K).status == "holds") == entrywise
        # ... and a nonnegative pattern drives the connectivity equivalence
        B = SquareMatrix.from_rows(
            [[rng.choice([0, 0, 1, 3]) for _ in range(n)] for _ in range(n)])
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for i in range(n):
            for j in range(n):
                if B[i, j] != 0:
                    g.add_edge(j, i)
        connected = nx.is_strongly_connected(g)
        verdict = matrix_k_irreducible(B, K)
        assert (verdict.status == "holds") == connected
        if connected:
            rep = perron_frobenius_check(B, K)
            assert rep.perron.rho_positive
            assert rep.perron.simple
            assert rep.perron.eigenvector_interior
            irreducible_checked += 1
    assert irreducible_checked > 100
    done(f"7: orthant cross-checks, {irreducible_checked} irreducible instances "
         "all carry interior eigenvectors")


def test_criterion_08_hessian_signature_branches():
    K = Cone.orthant(3)
    e2 = elementary_symmetric_2()
    rep = hessian_signature_check(e2, K, trials=100, seed=808)
    assert rep.verdict.status == "holds-sampled"
    assert rep.details["tallies"]["nonsingular_irreducible"] == 100
    cube = power_of_sum(3, 3)
    rep2 = hessian_signature_check(cube, K, trials=100, seed=808)
    assert rep2.verdict.status == "holds-sampled"
    assert rep2.details["tallies"]["singular_nonnegative"] == 100
    done("8: Hessian signature, both dichotomy branches at 100/100 points")


def test_criterion_09_lti_soundness():
    rng = random.Random(909)
    # 700 exact spectra via companions conjugated by signed permutations
    for _ in range(700):
        side = rng.choice([-1, 1])
        reals = [side * Fraction(rng.randint(5, 300), 100)
                 for _ in range(rng.randint(0, 2))]
        pairs = [(side * Fraction(rng.randint(5, 300), 100),
                  Fraction(rng.randint(1, 300), 100))
                 for _ in range(rng.randint(0, 2))]
        if not reals and not pairs:
            reals = [side * Fraction(rng.randint(5, 300), 100)]
        chi = poly_from_roots(reals, pairs)
        P = signed_permutation(rng, chi.degree)
        A = P.transpose() @ companion_of(chi) @ P
        rep = lti_report(A)
        stable = side < 0
        assert rep.conclusion == ("stable" if stable else "unstable")
        assert (rep.routh_hurwitz.status == "holds") == stable
        if not stable:
            for crit in (rep.clc_d_le_4, rep.quintic, rep.alpha_product,
                         rep.alpha_square):
                assert crit is None or crit.status != "holds"
    # 300 float spectra via Householder conjugation of block-diagonal forms
    for _ in range(300):
        side = rng.choice([-1, 1])
        blocks = []
        n_real = rng.randint(0, 2)
        n_pair = rng.randint(0 if n_real else 1, 2)
        for _ in range(n_real):
            blocks.append([[side * rng.uniform(0.1, 3.0)]])
        for _ in range(n_pair):
            re = side * rng.uniform(0.1, 3.0)
            im = rng.uniform(0.1, 3.0)
            blocks.append([[re, im], [-im, re]])
        n = sum(len(b) for b in blocks)
        D = np.zeros((n, n))
        at = 0
        abscissa = -math.inf
        for b in blocks:
            k = len(b)
            D[at:at + k, at:at + k] = b
            abscissa = max(abscissa, b[0][0])
            at += k
        w = np.array([rng.gauss(0, 1) for _ in range(n)])
        w /= np.linalg.norm(w)
        H = np.eye(n) - 2 * np.outer(w, w)
        A = SquareMatrix.from_numpy(H @ D @ H.T)
        rep = lti_report(A)
        if rep.routh_hurwitz.status != "unknown":
            margins = [abs(m) for m in
                       stability_report(rep.char_poly).minor_margins[:n - 1]]
            if not margins or min(margins) > 1e-6:
                assert (rep.routh_hurwitz.status == "holds") == (abscissa < 0)
        if abscissa >= 0:
            for crit in (rep.clc_d_le_4, rep.quintic, rep.alpha_product,
                         rep.alpha_square):
                assert crit is None or crit.status != "holds"
    done("9: 1000 constructed-spectrum systems, no unsound verdict or criterion")


def test_criterion_10_cli_determinism(tmp_path):
    cone_file = tmp_path / "cone.json"
    cone_file.write_text(json.dumps({"type": "orthant", "n": 3}))
    runs = [
        (["unipoly", "--seed", "5"],
         {"coeffs": [5, 25, 50, 30, 10, 3]}),
        (["form", "--seed", "5", "--trials", "60"],
         {"n": 3, "d": 2, "terms": [{"exp": [1, 1, 0], "coef": 1},
                                    {"exp": [1, 0, 1], "coef": 1},
                                    {"exp": [0, 1, 1], "coef": 1}]}),
        (["form", "--seed", "5", "--trials", "40", "--cone", str(cone_file)],
         {"n": 3, "d": 3, "terms": [{"exp": [1, 1, 1], "coef": 6},
                                    {"exp": [3, 0, 0], "coef": 1},
                                    {"exp": [0, 3, 0], "coef": 1},
                                    {"exp": [0, 0, 3], "coef": 1}]}),
        (["matrix", "--seed", "5"], {"rows": [[-1, 0], [1, -2]]}),
        (["matrix", "--seed", "5", "--cone", str(cone_file)],
         {"rows": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}),
        (["restrict", "--seed", "5"],
         {"form": {"n": 2, "d": 2, "terms": [{"exp": [2, 0], "coef": 1},
                                             {"exp": [1, 1], "coef": 2},
                                             {"exp": [0, 2], "coef": 1}]},
          "x": [1, 1], "v": [1, 1]}),
    ]
    for args, payload in runs:
        outs = []
        for _ in range(2):
            proc = subprocess.run(CLI + args, input=json.dumps(payload),
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (args, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], args
    done("10: byte-identical CLI reruns for every subcommand")
