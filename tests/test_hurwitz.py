import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conestab import (UniPoly, WrongDegree, ZeroPolynomial, alpha_constant,
                      alpha_criterion, clc_d_le_4_criterion,
                      degree_reduction_stable, degree_reduction_step,
                      hermite_biehler_stable, hurwitz_matrix,
                      leading_minors, lienard_chipart_stable,
                      quintic_criterion,
                      root_oracle_verdict, routh_hurwitz_stable,
                      stability_report)
from conestab.hurwitz import _alpha_bracket
from conestab.verdict import InequalityLedger

from conftest import poly_from_roots

UNSTABLE_QUINTIC = UniPoly((5, 14, Fraction(25, 2), Fraction(36, 5), 3, 1))
STABLE_QUINTIC = UniPoly((5, 25, 50, 30, 10, 3))


def random_signed_poly(rng, dmax=8):
    d = rng.randint(1, dmax)
    coeffs = [rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 9)]
    return UniPoly(tuple(coeffs))


def random_positive_poly(rng, dmax=8):
    d = rng.randint(1, dmax)
    return UniPoly(tuple(rng.randint(1, 20) for _ in range(d + 1)))


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
