import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conestab import (UniPoly, WrongDegree, ZeroPolynomial, alpha_constant,
                      alpha_criterion, clc_d_le_4_criterion,
                      degree_reduction_stable, degree_reduction_step,
                      hermite_biehler_stable, hurwitz_matrix,
                      leading_minors, lienard_chipart_stable,
                      quintic_criterion,
                      root_oracle_verdict, routh_hurwitz_stable,
                      stability_report)
from conestab import SquareMatrix, determinant, hurwitz, lti_report, numerics
from conestab.cli import jsonable
from conestab.hurwitz import _alpha_bracket
from conestab.numerics import DEFAULT_TOL
from conestab.sequences import is_univariate_clc, quintic_cross_inequality
from conestab.verdict import (FAILS, HOLDS, UNKNOWN, InequalityLedger,
                              Verdict)

from conftest import (assert_same_verdict, poly_from_roots, rational_polys,
                      reference_require_clc, reference_require_positive_coeffs,
                      reference_require_quintic_cross)

UNSTABLE_QUINTIC = UniPoly((5, 14, Fraction(25, 2), Fraction(36, 5), 3, 1))
STABLE_QUINTIC = UniPoly((5, 25, 50, 30, 10, 3))


def random_signed_poly(rng, dmax=8):
    d = rng.randint(1, dmax)
    coeffs = [rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 9)]
    return UniPoly(tuple(coeffs))


def random_positive_poly(rng, dmax=8):
    d = rng.randint(1, dmax)
    return UniPoly(tuple(rng.randint(1, 20) for _ in range(d + 1)))


# int, Fraction and float coefficients; floats with a binary fraction make
# exact equalities, which a float ledger reads as indeterminate
COEFF = st.one_of(st.integers(-4, 40),
                  st.fractions(-4, 40, max_denominator=6),
                  st.integers(-16, 160).map(lambda k: k / 4))


@st.composite
def polys(draw, min_degree=1, max_degree=7):
    d = draw(st.integers(min_degree, max_degree))
    coeffs = draw(st.lists(COEFF, min_size=d, max_size=d))
    return UniPoly((*coeffs, draw(COEFF.filter(bool))))


def conjunction(verdicts):
    """Reference conjunction of ledger verdicts, all with a margin: the
    least margin; the witness of the first failure, else of the first
    unknown, else of the first verdict with the least margin."""
    margin = min(v.margin for v in verdicts)
    for status in (FAILS, UNKNOWN):
        for v in verdicts:
            if v.status == status:
                return Verdict(status, margin=margin, witness=v.witness)
    binding = min(verdicts, key=lambda v: v.margin)
    return Verdict(HOLDS, margin=margin, witness=binding.witness)


def reference_routh_hurwitz(p):
    """The Routh-Hurwitz decider's own loops, before the shared minor
    chain."""
    p = hurwitz._positive_leading(p)
    led = InequalityLedger(DEFAULT_TOL)
    ok = True
    for k, a in enumerate(p.coeffs):
        ok = led.require(a, 0, witness=("coefficient", k), strict=True) and ok
    if not ok:
        return led.verdict()
    _, scaled = hurwitz._minor_data(p)
    for k, (minor, scale) in enumerate(scaled[:p.degree - 1]):
        if not led.require(minor, 0, witness=("minor", k + 1),
                           strict=True, scale=scale):
            break
    return led.verdict()


def reference_lienard_chipart(p, variant):
    """The Lienard-Chipart decider's own loops, before the shared minor
    chain."""
    p = hurwitz._positive_leading(p)
    d = p.degree
    led = InequalityLedger(DEFAULT_TOL)
    led.require(p.coeff(0), 0, witness=("coefficient", 0), strict=True)
    if variant in (1, 2):
        idxs = range(d, -1, -2)
    else:
        idxs = [d] + list(range(d - 1, -1, -2))
    for k in idxs:
        led.require(p.coeff(k), 0, witness=("coefficient", k), strict=True)
    if led.has_violation:
        return led.verdict()
    _, scaled = hurwitz._minor_data(p)
    start = 1 if variant in (1, 3) else 2
    for k in range(start, d + 1, 2):
        minor, scale = scaled[k - 1]
        if not led.require(minor, 0, witness=("minor", k),
                           strict=True, scale=scale):
            break
    return led.verdict()


def reference_alpha_criterion(p, mode):
    """The exact alpha-ratio test with alpha as the Fraction of its upper
    bracket in every row."""
    led = InequalityLedger(DEFAULT_TOL)
    if not reference_require_positive_coeffs(led, p):
        return led.verdict()
    alpha, a = _alpha_bracket()[1], p.coeffs
    for k in range(1, p.degree):
        if mode == "product":
            led.require(a[k] * a[k + 1], alpha * a[k - 1] * p.coeff(k + 2),
                        witness=("alpha-product", k))
        else:
            led.require((a[k] * a[k]) ** 2,
                        alpha * a[k - 1] ** 2 * a[k + 1] ** 2,
                        witness=("alpha-square", k))
    return led.verdict()


def reference_degree_reduction(p):
    """Degree reduction through ``degree_reduction_step``, with Fraction
    coefficients from the first round on."""
    p = hurwitz._positive_leading(p)
    led = InequalityLedger(DEFAULT_TOL)
    rounds = 0
    while True:
        for k, a in enumerate(p.coeffs):
            led.require(a, 0, witness=("round", rounds, "coefficient", k),
                        strict=True)
        if led.has_violation or led.indeterminate is not None or p.degree <= 2:
            return led.verdict()
        p = degree_reduction_step(p)
        rounds += 1


def reference_quintic_criterion(p):
    """The quintic criterion with Fraction rows."""
    led = InequalityLedger(DEFAULT_TOL, strict=True)
    reference_require_clc(led, p)
    reference_require_quintic_cross(led, p)
    return led.verdict()


def reference_lti_fields(chi):
    """The coefficient verdicts of ``lti_report`` on the characteristic
    polynomial chi, from the Fraction-row references."""
    d = chi.degree
    clc = InequalityLedger(DEFAULT_TOL, strict=True)
    reference_require_clc(clc, chi)
    return {
        "routh_hurwitz": reference_routh_hurwitz(chi),
        "clc_d_le_4": clc.verdict() if d <= 4 else None,
        "quintic": reference_quintic_criterion(chi) if d == 5 else None,
        "alpha_product": (reference_alpha_criterion(chi, "product")
                          if d >= 5 else None),
        "alpha_square": (reference_alpha_criterion(chi, "square")
                         if d >= 5 else None),
    }


@st.composite
def rational_matrices(draw):
    """The ``lti`` benchmark's mix: n = 2-12, entries of denominator at
    most 4, shifted by a multiple of 1/4 of the identity."""
    n = draw(st.integers(2, 12))
    shift = Fraction(draw(st.integers(0, 4 * n)), 4)
    entry = st.fractions(-6, 6, max_denominator=4)
    return SquareMatrix.from_rows(
        [[draw(entry) - shift * (i == j) for j in range(n)] for i in range(n)])


def reference_scaled_minors(H, minors):
    """``_scaled_minors`` with every row-prefix norm from
    ``np.linalg.norm``."""
    cap = hurwitz._BOUND_MAX_EXP
    pre = [max(0, max((abs(v.numerator).bit_length() - v.denominator.bit_length()
                       for v in r if not isinstance(v, float)), default=0) - cap)
           for r in H.rows]
    A = np.array([[float(Fraction(v) / 2 ** s) if s else float(v) for v in r]
                  for r, s in zip(H.rows, pre)])
    _, row_exp = np.frexp(np.max(np.abs(A), axis=1))
    A = np.ldexp(A, -row_exp[:, None])
    row_exp = [int(e) + s for e, s in zip(row_exp, pre)]
    out = []
    for k in range(1, H.n + 1):
        frac, exp = 1.0, 0
        for i in range(k):
            frac, e = math.frexp(frac * float(np.linalg.norm(A[i, :k])))
            exp += e + row_exp[i]
        m = minors[k - 1]
        shift = (max(0, exp - cap)
                 if frac and not isinstance(m, float) else 0)
        if shift:
            m = Fraction(m) / 2 ** shift
        exp -= shift
        bound = math.inf if frac and exp > 1024 else math.ldexp(frac, exp)
        out.append((m, max(bound, 1.0)))
    return out


@st.composite
def exact_polys(draw, max_degree=14):
    """Degree 1-14: int coefficients with zeros and negatives, Fraction
    coefficients, or a product of quadratics t^2 + b t + c with positive
    int b and c, which is stable and so runs every reduction round."""
    kind = draw(st.sampled_from(("int", "fraction", "stable")))
    if kind == "stable":
        p = UniPoly((1,))
        for _ in range(draw(st.integers(1, max_degree // 2))):
            p = p * UniPoly((draw(st.integers(1, 60)),
                             draw(st.integers(1, 60)), 1))
        return p
    coeff = (st.integers(-3, 10 ** 6) if kind == "int"
             else st.fractions(-3, 1000, max_denominator=60))
    d = draw(st.integers(1, max_degree))
    coeffs = draw(st.lists(coeff, min_size=d, max_size=d))
    return UniPoly((*coeffs, draw(coeff.filter(bool))))


# one kind of entry per polynomial: Fractions, floats over the whole float
# range, or ints of 1000 bits and more
MINOR_ENTRIES = [
    st.fractions(-100, 100, max_denominator=1000),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    st.integers(2 ** 1000, 2 ** 1100).flatmap(
        lambda v: st.sampled_from((v, -v)))]


class TestHurwitzMatrix:
    def test_cubic_layout(self):
        H = hurwitz_matrix(UniPoly((1, 2, 3, 4)))
        assert H.rows == ((2, 4, 0), (1, 3, 0), (0, 2, 4))

    def test_quintic_first_row(self):
        H = hurwitz_matrix(UniPoly((1, 2, 3, 4, 5, 6)))
        assert H.rows[0] == (2, 4, 6, 0, 0)

    def test_degree_one(self):
        assert hurwitz_matrix(UniPoly((3, 7))).rows == ((7,),)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            hurwitz_matrix(UniPoly(()))


class TestRouthHurwitz:
    def test_stable_quintic(self):
        assert routh_hurwitz_stable(STABLE_QUINTIC).status == "holds"

    def test_unstable_quintic(self):
        assert routh_hurwitz_stable(UNSTABLE_QUINTIC).status == "fails"

    def test_degree_two_positive_coefficients_suffice(self):
        assert routh_hurwitz_stable(UniPoly((2, 3, 1))).status == "holds"

    def test_negative_leading_coefficient_normalized(self):
        p = UniPoly((-2, -3, -1))
        assert routh_hurwitz_stable(p).status == "holds"

    def test_exact_mode_never_unknown(self, rng):
        for _ in range(300):
            p = random_signed_poly(rng)
            assert routh_hurwitz_stable(p).status in ("holds", "fails")

    def test_float_boundary_is_unknown(self):
        # minor Delta_2 = a1 a2 - a0 a3 = 0 held exactly; as floats the
        # verdict must refuse to decide rather than guess
        exact = UniPoly((1, 2, 3, 6))
        assert routh_hurwitz_stable(exact).status == "fails"
        floaty = UniPoly((1.0, 2.0, 3.0, 6.0))
        assert routh_hurwitz_stable(floaty).status == "unknown"


class TestInequalityLedger:
    def test_exact_slack_beyond_float_range(self):
        # an exact slack is signed exactly; its scale is never cast to float
        led = InequalityLedger()
        assert led.require(10**400, 10**400 - 1, witness="a")
        assert not led.require(Fraction(-(10**400), 3), witness="b")
        v = led.verdict()
        assert v.status == "fails" and v.witness == "b"
        assert v.margin == -1

    def test_exact_zero_slack_is_strict_violation(self):
        led = InequalityLedger(strict=True)
        assert not led.require(10**400, 10**400)
        assert led.verdict().margin == 0


class TestLienardChipart:
    def test_both_showcase_quintics_all_variants(self):
        for variant in (1, 2, 3, 4):
            assert lienard_chipart_stable(STABLE_QUINTIC, variant).status == "holds"
            assert lienard_chipart_stable(UNSTABLE_QUINTIC, variant).status == "fails"

    def test_degree_one_every_variant(self):
        for variant in (1, 2, 3, 4):
            assert lienard_chipart_stable(UniPoly((1, 1)), variant).status == "holds"

    def test_variants_mutually_agree(self, rng):
        for _ in range(1000):
            p = random_signed_poly(rng)
            statuses = {lienard_chipart_stable(p, v).status for v in (1, 2, 3, 4)}
            assert len(statuses) == 1

    def test_agrees_with_routh_hurwitz(self, rng):
        for _ in range(500):
            p = random_signed_poly(rng)
            rh = routh_hurwitz_stable(p).status
            for v in (1, 2, 3, 4):
                assert lienard_chipart_stable(p, v).status == rh

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            lienard_chipart_stable(UniPoly((1, 1)), 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coefficient_is_indeterminate_in_every_variant(self,
                                                                     bad):
        # variants 3 and 4 require a_4, a_3 and a_1 of a quartic, not a_2,
        # yet a_2 sits in the Hurwitz matrix; no variant builds it
        p = UniPoly((1.0, 1.0, bad, 1.0, 1.0))
        for variant in (1, 2, 3, 4):
            verdict = lienard_chipart_stable(p, variant)
            assert verdict.status == UNKNOWN
            assert verdict.witness == ("coefficient", 2)
        assert routh_hurwitz_stable(p).witness == ("coefficient", 2)


class TestHermiteBiehler:
    def test_degree_two(self):
        assert hermite_biehler_stable(UniPoly((2, 3, 1))).status == "holds"

    def test_unstable_quintic_fails_interlacing(self):
        assert hermite_biehler_stable(UNSTABLE_QUINTIC).status == "fails"

    def test_agreement_with_routh_hurwitz_positive_coefficients(self, rng):
        checked = 0
        for _ in range(1000):
            p = random_positive_poly(rng)
            hb = hermite_biehler_stable(p)
            if hb.status == "unknown":
                continue
            assert hb.status == routh_hurwitz_stable(p).status
            checked += 1
        assert checked > 950

    def test_nonpositive_coefficient_fails(self):
        assert hermite_biehler_stable(UniPoly((1, -1, 1, 1))).status == "fails"


class TestDegreeReduction:
    def test_quartic_step_reproduces_cubic_coefficients(self, rng):
        for _ in range(50):
            a = [Fraction(rng.randint(1, 30), rng.randint(1, 4))
                 for _ in range(5)]
            g = degree_reduction_step(UniPoly(tuple(a)))
            assert g.coeff(3) == a[3]
            assert g.coeff(2) == a[2] - a[4] / a[3] * a[1]
            assert g.coeff(1) == a[1]
            assert g.coeff(0) == a[0]

    def test_degree_two_base_case(self):
        assert degree_reduction_stable(UniPoly((2, 3, 1))).status == "holds"

    def test_showcase_quintics(self):
        assert degree_reduction_stable(STABLE_QUINTIC).status == "holds"
        assert degree_reduction_stable(UNSTABLE_QUINTIC).status == "fails"

    def test_agreement_with_routh_hurwitz(self, rng):
        for _ in range(1000):
            p = random_positive_poly(rng)
            assert degree_reduction_stable(p).status == \
                routh_hurwitz_stable(p).status

    def test_step_needs_degree_three(self):
        with pytest.raises(WrongDegree):
            degree_reduction_step(UniPoly((1, 2, 3)))


class TestClcDLe4Criterion:
    def test_product_example(self):
        # k=1: 49 > 42; k=2: 98 > 84; and the root oracle agrees
        p = UniPoly((3, 7, 7, 4))
        assert clc_d_le_4_criterion(p).status == "holds"
        assert root_oracle_verdict(p).status == "holds"

    def test_non_clc_quadratic(self):
        assert clc_d_le_4_criterion(UniPoly((1, 1, 1))).status == "fails"

    def test_degree_one_vacuous(self):
        assert clc_d_le_4_criterion(UniPoly((1, 2))).status == "holds"

    def test_degree_gate(self):
        with pytest.raises(WrongDegree):
            clc_d_le_4_criterion(UniPoly((1, 1, 1, 1, 1, 1)))
        with pytest.raises(WrongDegree):
            clc_d_le_4_criterion(UniPoly((1,)))


class TestQuinticCriterion:
    def test_clc_quintic_fails_on_newton_equality(self):
        v = quintic_criterion(UNSTABLE_QUINTIC)
        assert v.status == "fails"
        assert v.witness == ("weighted-newton", 4)

    def test_scaling_invariance(self, rng):
        for _ in range(30):
            p = UniPoly(tuple(Fraction(rng.randint(1, 40), rng.randint(1, 4))
                              for _ in range(6)))
            c = Fraction(rng.randint(1, 7))
            assert quintic_criterion(p).status == quintic_criterion(p.scale(c)).status

    def test_satisfying_quintics_are_stable(self, rng):
        found = 0
        for _ in range(500):
            a = [Fraction(rng.randint(5, 20), 10)]
            r = Fraction(rng.randint(8, 20), 10)
            for k in range(1, 6):
                a.append(a[-1] * r)
                r = r * Fraction(k, k + 1) * Fraction(rng.randint(50, 97), 100)
            p = UniPoly(tuple(a))
            if quintic_criterion(p).status == "holds":
                found += 1
                assert root_oracle_verdict(p).status == "holds"
        assert found > 400


class TestOneLedgerPerVerdict:
    """The single ledgers of the quintic criterion and of the minor chain
    give the verdicts of the separate ledgers they replace."""

    # (10, 40, 75, 90, 75, 48): weighted Newton row 2 and the cross
    # inequality both have margin 1/25, and it is the least; (3, 12, 4, 6,
    # 8, 2) ties two violations at -23/27
    @example(UniPoly((10, 40, 75, 90, 75, 48)))
    @example(UniPoly((Fraction(2), 8, 15, 18, 15, Fraction(48, 5))))
    @example(UniPoly((10.0, 40.0, 75.0, 90.0, 75.0, 48.0)))
    @example(UniPoly((3, 12, 4, 6, 8, 2)))
    # float weighted Newton row 2 is an equality (unknown) beside a
    # holding and a failing cross inequality; then a failing row 3 beside
    # an unknown cross inequality
    @example(UniPoly((0.25, 5.5, 8.25, 8.25, 1.75, 0.25)))
    @example(UniPoly((0.25, 5.5, 8.25, 8.25, 6.0, 3.25)))
    @example(UniPoly((0.25, 5.5, 8.25, 8.25, 8.0, 2.75)))
    @given(polys(5, 5))
    @settings(max_examples=300, deadline=None)
    def test_quintic_criterion_is_the_conjunction(self, p):
        expected = conjunction([is_univariate_clc(p, True),
                                quintic_cross_inequality(p)])
        got = quintic_criterion(p)
        assert got == expected
        assert type(got.margin) is type(expected.margin)

    def test_tied_margins_bind_at_the_weighted_newton_row(self):
        v = quintic_criterion(UniPoly((10, 40, 75, 90, 75, 48)))
        assert v == Verdict(HOLDS, margin=Fraction(1, 25),
                            witness=("weighted-newton", 2))

    @given(st.one_of(polys(), rational_polys()))
    @settings(max_examples=400, deadline=None)
    def test_minor_chains_match_the_separate_loops(self, p):
        assert_same_verdict(routh_hurwitz_stable(p),
                            reference_routh_hurwitz(p))
        for variant in (1, 2, 3, 4):
            assert_same_verdict(lienard_chipart_stable(p, variant),
                                reference_lienard_chipart(p, variant))

    # a_0 below 1: its row's scale is the floor den, as at the default
    # scale of a_0 > 0, so the margin is a_0 itself
    @pytest.mark.parametrize("coeffs", [
        (Fraction(1, 2), 1, 1), (Fraction(1, 3), 2, Fraction(5, 2))])
    def test_minor_chains_keep_the_coefficient_floor(self, coeffs):
        p = UniPoly(coeffs)
        assert routh_hurwitz_stable(p) == Verdict(
            HOLDS, margin=coeffs[0], witness=("coefficient", 0))
        for variant in (1, 2, 3, 4):
            assert_same_verdict(lienard_chipart_stable(p, variant),
                                reference_lienard_chipart(p, variant))

    @pytest.mark.parametrize("decider", [
        routh_hurwitz_stable, hermite_biehler_stable, degree_reduction_stable,
        root_oracle_verdict, lambda p: lienard_chipart_stable(p, 3)])
    def test_stability_needs_degree_one(self, decider):
        for p in (UniPoly((0,)), UniPoly((2,)), UniPoly((-1.5,))):
            with pytest.raises(ZeroPolynomial):
                decider(p)


class TestExactPathsMatchFractionReferences:
    """The int arithmetic of the exact coefficient rows, and the
    dot-product Hadamard bounds, give the verdicts, margins and bounds of
    the Fraction and ``np.linalg.norm`` code they replaced."""

    @example(UniPoly((1, 1, _alpha_bracket()[1], _alpha_bracket()[1] ** 2)))
    @given(st.one_of(exact_polys(), rational_polys()))
    @settings(max_examples=400, deadline=None)
    def test_alpha_criterion(self, p):
        for mode in ("product", "square"):
            assert_same_verdict(alpha_criterion(p, mode),
                                reference_alpha_criterion(p, mode))

    @example(UniPoly((0, 1, 1)))
    @example(STABLE_QUINTIC)
    @example(UNSTABLE_QUINTIC)
    @given(st.one_of(exact_polys(), rational_polys()))
    @settings(max_examples=400, deadline=None)
    def test_degree_reduction(self, p):
        assert_same_verdict(degree_reduction_stable(p),
                            reference_degree_reduction(p))

    @example(UNSTABLE_QUINTIC)
    @example(UniPoly((Fraction(2), 8, 15, 18, 15, Fraction(48, 5))))
    @given(rational_polys(5, 5))
    @settings(max_examples=300, deadline=None)
    def test_quintic_criterion_on_rationals(self, p):
        assert_same_verdict(quintic_criterion(p),
                            reference_quintic_criterion(p))

    @given(rational_matrices())
    @settings(max_examples=100, deadline=None)
    def test_lti_report_on_rational_matrices(self, A):
        report = lti_report(A)
        expected = reference_lti_fields(report.char_poly)
        for key, verdict in expected.items():
            got = getattr(report, key)
            if verdict is None:
                assert got is None, key
            else:
                assert_same_verdict(got, verdict)
        assert jsonable(report) == jsonable(
            dataclasses.replace(report, **expected))

    @given(st.sampled_from(MINOR_ENTRIES).flatmap(
        lambda entry: st.lists(entry, min_size=2, max_size=11))
        .filter(lambda c: c[-1] != 0))
    @settings(max_examples=150, deadline=None)
    def test_scaled_minors_bounds(self, coeffs):
        assert_minor_data_matches_hurwitz_matrix(UniPoly(tuple(coeffs)))


def reference_leading_minors(H):
    """Delta_k of an exact H as the determinant of its k-th leading block,
    in the ring of all of H's entries, as the Bareiss sweep gives it; a
    float H keeps ``leading_minors``, whose float path is LU per block."""
    if not H.is_exact:
        return leading_minors(H)
    ring = int if all(isinstance(v, int) for r in H.rows for v in r) else Fraction
    return [ring(determinant(H.leading_block(k))) for k in range(1, H.n + 1)]


def routh_stalls(p) -> bool:
    """Does a zero minor stall the Routh recurrence on p's Hurwitz matrix,
    that is, does it return a zero before Delta_d?"""
    (first, second), _ = numerics._integer_rows(hurwitz_matrix(p).rows[:2])
    minors = numerics._routh_minors(first, second)
    return len(minors) < len(first) and minors[-1] == 0


def assert_minor_data_matches_hurwitz_matrix(p):
    """``_minor_data(p)`` against the block determinants of the d x d
    Hurwitz matrix and their Hadamard scales, in value, type and float
    bits."""
    H = hurwitz_matrix(p)
    expected = reference_leading_minors(H)
    minors, scaled = hurwitz._minor_data(p)
    assert minors == expected
    assert [type(m) for m in minors] == [type(m) for m in expected]
    reference = reference_scaled_minors(H, expected)
    assert [m for m, _ in scaled] == [m for m, _ in reference]
    assert [type(m) for m, _ in scaled] == [type(m) for m, _ in reference]
    assert [b.hex() for _, b in scaled] == [b.hex() for _, b in reference]


# (1 + t^2)(1 + t) = 1 + t + t^2 + t^3, whose Delta_2 = 0 stalls the
# recurrence; two degree-8 polynomials, int and rational, with
# Delta_2 = a_1 a_2 - a_0 a_3 = 0; degree 2 with Delta_1 = a_1 = 0
STALLED = [UniPoly((1, 1, 1, 1)),
           UniPoly((2, 3, 4, 6, 1, 5, 2, 7, 1)),
           UniPoly((Fraction(2, 3), 1, 1, Fraction(3, 2), 5, 2, 4, 3, 1)),
           UniPoly((1, 0, 1))]


class TestHurwitzMinorsFromCoefficients:
    """The minors of ``_minor_data`` against the block determinants of the
    d x d Hurwitz matrix."""

    @example(UniPoly((1, 2, 3, 4)))
    @example(STABLE_QUINTIC)
    @example(UNSTABLE_QUINTIC)
    @given(st.one_of(exact_polys(), rational_polys()))
    @settings(max_examples=400, deadline=None)
    def test_exact_polys(self, p):
        assert_minor_data_matches_hurwitz_matrix(p)

    @pytest.mark.parametrize("p", STALLED, ids=str)
    def test_stalled_recurrence_falls_back(self, p):
        assert routh_stalls(p)
        assert_minor_data_matches_hurwitz_matrix(p)

    def test_stall_keeps_block_determinants(self):
        # the minors after Delta_2 = 0 are the blocks' own determinants,
        # not zeros of a stopped sweep
        assert hurwitz._minor_data(STALLED[1])[0] == [
            3, 0, 21, -49, -164, -489, -3413, -3413]

    @pytest.mark.parametrize("coeffs, expected", [
        ((Fraction(1, 2), 3), [3]),
        ((5, Fraction(7, 2)), [Fraction(7, 2)]),
        ((1, 2, 3), [2, 6]),
        ((Fraction(1, 3), 2, Fraction(5, 2)), [Fraction(2), Fraction(5)]),
    ])
    def test_low_degrees(self, coeffs, expected):
        p = UniPoly(coeffs)
        minors = hurwitz._minor_data(p)[0]
        assert ([(m, type(m)) for m in minors]
                == [(m, type(m)) for m in expected])
        assert_minor_data_matches_hurwitz_matrix(p)


class TestAlpha:
    def test_value(self):
        assert abs(alpha_constant() - 2.1479) <= 5e-4

    def test_defining_residual(self):
        a = alpha_constant()
        assert abs(a ** 3 - a ** 2 - 2 * a - 1) <= 1e-12

    def test_sign_change_brackets_the_root(self):
        cubic = lambda t: t ** 3 - t ** 2 - 2 * t - 1
        assert cubic(2.1) < 0 < cubic(2.2)
        assert 2.1 < alpha_constant() < 2.2

    def test_rational_bracket_is_tight_and_ordered(self):
        lo, hi = _alpha_bracket()
        assert lo < hi and hi - lo <= Fraction(1, 10 ** 14)
        assert lo ** 3 - lo ** 2 - 2 * lo - 1 < 0 < hi ** 3 - hi ** 2 - 2 * hi - 1

    def test_rational_bracket_is_the_bisection_of_2_3(self):
        lo, hi = Fraction(2), Fraction(3)
        while hi - lo > Fraction(1, 10 ** 14):
            mid = (lo + hi) / 2
            if mid ** 3 - mid ** 2 - 2 * mid - 1 > 0:
                hi = mid
            else:
                lo = mid
        assert _alpha_bracket() == (lo, hi)


class TestAlphaCriterion:
    def test_square_mode_implies_product_mode(self):
        rng = random.Random(11)
        for _ in range(10000):
            d = rng.randint(2, 9)
            a = [rng.uniform(0.1, 10)]
            for _ in range(d):
                a.append(a[-1] * rng.uniform(0.05, 1.5))
            p = UniPoly(tuple(a))
            sq = alpha_criterion(p, "square")
            if sq.status == "holds":
                assert alpha_criterion(p, "product").status == "holds"

    def test_geometric_coefficients_fail_square_mode(self):
        p = UniPoly(tuple(Fraction(3, 2) ** k for k in range(7)))
        assert alpha_criterion(p, "square").status == "fails"

    def test_steep_factorial_cubed_sequence(self):
        p = UniPoly(tuple(Fraction(1, math.factorial(k) ** 3) for k in range(9)))
        assert alpha_criterion(p, "square").status == "holds"
        assert root_oracle_verdict(p).status == "holds"

    def test_top_boundary_comparison_is_vacuous(self):
        # k = d-1 compares against a_{d+1} = 0, so steep low-order decay
        # is all that matters
        p = UniPoly((1, Fraction(1, 10), Fraction(1, 1000)))
        assert alpha_criterion(p, "product").status == "holds"

    def test_exact_conservative_boundary(self):
        # exactly alpha-ratio geometric data fails the conservative exact
        # comparison instead of silently passing
        lo, hi = _alpha_bracket()
        p = UniPoly((1, 1, hi, hi ** 2))
        v = alpha_criterion(p, "product")
        assert v.status in ("holds", "fails")  # never unknown in exact mode

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            alpha_criterion(UniPoly((1, 1)), "cubic")


class TestStabilityReport:
    def test_consistency_on_showcase_quintics(self):
        for p in (STABLE_QUINTIC, UNSTABLE_QUINTIC):
            rep = stability_report(p)
            assert rep.consistent
            assert rep.quintic is not None
            assert rep.clc_d_le_4 is None

    def test_deciders_agree_with_oracle(self, rng):
        for _ in range(300):
            p = random_signed_poly(rng)
            rep = stability_report(p)
            margins = [abs(m) for m in rep.minor_margins[:p.degree - 1]]
            if margins and min(margins) < 1e-7:
                continue
            oracle = rep.root_oracle.status
            if oracle == "unknown":
                continue
            for decider in rep.deciders:
                if decider.status != "unknown":
                    assert decider.status == oracle

    def test_minors_match_module_values(self):
        rep = stability_report(UniPoly((1, 2, 3, 4)))
        assert rep.minors == [2, 2, 8]

    @given(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=2, max_size=11)
           .filter(lambda c: c[-1] > 0))
    @settings(max_examples=150, deadline=None)
    def test_margins_are_the_plain_float_ratio(self, coeffs):
        # the reference: float Hadamard bounds and float(minor) / bound, which
        # cannot overflow at these sizes
        p = UniPoly(tuple(coeffs))
        H = hurwitz_matrix(p)
        minors = leading_minors(H)
        A = H.to_numpy()
        plain = []
        for k in range(1, H.n + 1):
            prod = 1.0
            for i in range(k):
                prod *= float(np.linalg.norm(A[i, :k]))
            plain.append(float(minors[k - 1]) / max(prod, 1.0))
        assert stability_report(p).minor_margins == plain

    @pytest.mark.parametrize("coeffs", [(1, 10 ** 200, 10 ** 200, 1),
                                        (10 ** 300, 10 ** 300, 1),
                                        (3, 10 ** 250, 7, 10 ** 280, 5)])
    def test_huge_exact_minors_keep_exact_verdicts(self, coeffs):
        p = UniPoly(coeffs)
        rep = stability_report(p)
        assert all(abs(m) <= 1 + 1e-12 for m in rep.minor_margins)
        assert rep.routh_hurwitz.status in ("holds", "fails")
        for v in rep.lienard_chipart.values():
            assert v.status == rep.routh_hurwitz.status
        assert rep.routh_hurwitz.status == degree_reduction_stable(p).status


class TestProductClosure:
    def test_product_stable_iff_both_factors_stable(self, rng):
        for _ in range(1000):
            p = random_positive_poly(rng, dmax=5)
            q = random_positive_poly(rng, dmax=5)
            both = (routh_hurwitz_stable(p).status == "holds"
                    and routh_hurwitz_stable(q).status == "holds")
            assert (routh_hurwitz_stable(p * q).status == "holds") == both


class TestConstructedSpectra:
    def test_poly_from_roots_verdicts(self, rng):
        for _ in range(200):
            stable_side = rng.random() < 0.5
            reals = [Fraction(rng.randint(1, 40), 10) * (1 if stable_side else -1)
                     for _ in range(rng.randint(0, 2))]
            pairs = [(Fraction(rng.randint(1, 30), 10) * (1 if stable_side else -1),
                      Fraction(rng.randint(1, 30), 10))
                     for _ in range(rng.randint(0, 2))]
            if not reals and not pairs:
                continue
            p = poly_from_roots([-r for r in reals], [(-re, im) for re, im in pairs])
            expected = "holds" if stable_side else "fails"
            assert routh_hurwitz_stable(p).status == expected
