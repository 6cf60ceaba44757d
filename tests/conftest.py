"""Shared generators and independent oracles for the test suite."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

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


# exact coefficients, one kind per polynomial: Fractions with zeros and
# negatives, ints mixed with Fractions, and positive Fractions with large
# denominators
RATIONAL_COEFFS = {
    "signed": st.one_of(st.just(0), st.fractions(-50, 50, max_denominator=30)),
    "mixed": st.one_of(st.integers(-5, 10 ** 6),
                       st.fractions(-3, 1000, max_denominator=60)),
    "large": st.fractions(0, 10 ** 6, max_denominator=10 ** 15),
}
# roots and quadratic coefficients below 1 give coefficient products below
# 1, where a row's scale is its floor
# small exact matrix entries: ints and Fractions of denominator <= 4
EXACT_SCALARS = st.one_of(st.integers(-6, 6),
                          st.fractions(-6, 6, max_denominator=4))
POSITIVE_FRACTION = st.one_of(st.fractions(0, 1, max_denominator=50),
                              st.fractions(0, 100, max_denominator=50)
                              ).filter(bool)


@st.composite
def rational_polys(draw, min_degree=1, max_degree=14):
    """Exact polynomials of degree ``min_degree``..``max_degree``: random
    coefficients of one ``RATIONAL_COEFFS`` kind, or a product of factors
    t + r (real-rooted, so the Newton hypothesis can hold) or of
    t^2 + b t + c (stable, so every minor and reduction round runs), with
    positive Fractions r, b and c."""
    kind = draw(st.sampled_from((*RATIONAL_COEFFS, "linear", "quadratic")))
    d = draw(st.integers(min_degree, max_degree))
    if kind in RATIONAL_COEFFS:
        coeff = RATIONAL_COEFFS[kind]
        coeffs = draw(st.lists(coeff, min_size=d, max_size=d))
        return UniPoly((*coeffs, draw(coeff.filter(bool))))
    p = UniPoly((1,))
    quadratics = d // 2 if kind == "quadratic" else 0
    for _ in range(quadratics):
        p = p * UniPoly((draw(POSITIVE_FRACTION), draw(POSITIVE_FRACTION), 1))
    for _ in range(d - 2 * quadratics):
        p = p * UniPoly((draw(POSITIVE_FRACTION), 1))
    return p


# The coefficient rows as they ran in Fraction arithmetic, every row at
# its default scale: references for the int rows that replaced them.

def reference_require_positive_coeffs(led, p):
    ok = True
    for k, a in enumerate(p.coeffs):
        ok = led.require(a, 0, witness=("coefficient", k), strict=True) and ok
    return ok


def reference_require_clc(led, p):
    reference_require_positive_coeffs(led, p)
    a = p.coeffs
    for i in range(1, p.degree):
        led.require(i * a[i] * a[i], (i + 1) * a[i - 1] * a[i + 1],
                    witness=("weighted-newton", i))


def reference_require_quintic_cross(led, p):
    a = p.coeffs
    led.require((a[1] * a[2] - a[0] * a[3]) * (a[3] * a[4] - a[2] * a[5]),
                (a[1] * a[4] - a[0] * a[5]) ** 2, witness=("quintic-cross",))


def assert_same_verdict(got, expected):
    """Equal verdicts, with margins of the same type."""
    assert got == expected
    assert type(got.margin) is type(expected.margin)


@pytest.fixture
def rng():
    return random.Random(20260809)
