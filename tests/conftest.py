"""Shared generators and independent oracles for the test suite."""

import math
import random
from fractions import Fraction

import pytest

from conestab import MultiForm, SquareMatrix, UniPoly


def rand_fraction(rng: random.Random, lo=-9, hi=9, max_den=5, nonzero=False):
    while True:
        num = rng.randint(lo, hi)
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.randint(1, max_den))


def rand_int_matrix(rng: random.Random, n: int, lo=-9, hi=9) -> SquareMatrix:
    return SquareMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def rand_fraction_matrix(rng: random.Random, n: int) -> SquareMatrix:
    return SquareMatrix.from_rows(
        [[rand_fraction(rng) for _ in range(n)] for _ in range(n)])


def cofactor_det(rows):
    """Brute-force cofactor expansion; the independent determinant oracle."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def poly_from_roots(real_roots, complex_pairs):
    """Monic polynomial with the given real roots and complex-conjugate
    pairs (given as (re, im)); exact when inputs are rational."""
    p = UniPoly((1,))
    for r in real_roots:
        p = p * UniPoly((-r, 1))
    for re, im in complex_pairs:
        p = p * UniPoly((re * re + im * im, -2 * re, 1))
    return p


def form_through_line(coeffs):
    """A bivariate form f with f((1, 1) + t (1, 2)) = sum_k coeffs[k] t^k:
    sum_k coeffs[k] x1^(d-k) x2^k, which restricts to the polynomial along
    x = (1, 0), v = (0, 1), pulled back through y -> (2y1 - y2, y2 - y1)."""
    d = len(coeffs) - 1

    def binom_pow(c0, c1, e):
        return {(e - j, j): math.comb(e, j) * c0 ** (e - j) * c1 ** j
                for j in range(e + 1)}

    terms = {}
    for k, a in enumerate(coeffs):
        for (e1, e2), ca in binom_pow(2, -1, d - k).items():
            for (f1, f2), cb in binom_pow(-1, 1, k).items():
                key = (e1 + f1, e2 + f2)
                terms[key] = terms.get(key, 0) + a * ca * cb
    return MultiForm(2, d, terms)


@pytest.fixture
def rng():
    return random.Random(20260809)
