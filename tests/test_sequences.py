import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conestab import (Inapplicable, UniPoly, WrongDegree, is_log_concave,
                      is_ultra_log_concave, is_univariate_clc,
                      newton_chain_report, quintic_cross_inequality)
from conestab.numerics import DEFAULT_TOL
from conestab.sequences import _FAMILIES
from conestab.verdict import FAILS, InequalityLedger, Verdict

from conftest import (assert_same_verdict, rational_polys,
                      reference_require_clc, reference_require_quintic_cross)

UNSTABLE_QUINTIC = UniPoly((5, 14, Fraction(25, 2), Fraction(36, 5), 3, 1))
STABLE_QUINTIC = UniPoly((5, 25, 50, 30, 10, 3))


def newton_strict_sequence(rng, length):
    """Positive sequence satisfying k*a_k^2 > (k+1)*a_{k-1}*a_{k+1} strictly,
    built through the equivalent ratio recursion r_{k+1} < r_k * k/(k+1) and
    rescaled to geometric mean 1 so slacks stay clear of the absolute
    tolerance floor."""
    a = [rng.uniform(0.5, 2.0)]
    r = rng.uniform(0.8, 2.0)
    for k in range(1, length):
        a.append(a[-1] * r)
        r = r * (k / (k + 1)) * rng.uniform(0.7, 0.98)
    mid = math.sqrt(a[0] * a[-1])
    return [x / mid for x in a]


def reference_is_univariate_clc(p, strict):
    """``is_univariate_clc`` of a nonzero p with Fraction rows."""
    led = InequalityLedger(DEFAULT_TOL, strict=strict)
    reference_require_clc(led, p)
    return led.verdict()


def reference_quintic_cross_inequality(p):
    led = InequalityLedger(DEFAULT_TOL, strict=True)
    reference_require_quintic_cross(led, p)
    return led.verdict()


def reference_newton_chain_report(seq):
    """``newton_chain_report`` with Fraction rows, as the pair
    (hypothesis, families)."""
    a = list(seq)
    d = len(a) - 1
    hyp = InequalityLedger(DEFAULT_TOL)
    for k, v in enumerate(a):
        hyp.require(v, 0, witness=("entry", k), strict=True)
    for k in range(1, d):
        hyp.require(k * a[k] * a[k], (k + 1) * a[k - 1] * a[k + 1],
                    witness=("hypothesis", k))
    hv = hyp.verdict()
    if not hv.is_holds:
        raise Inapplicable("Newton hypothesis does not hold",
                           witness=hv.witness)
    families = {}
    for name, strict, rows in _FAMILIES:
        led = InequalityLedger(DEFAULT_TOL, strict=strict)
        for lhs, rhs, witness in rows(a, d):
            led.require(lhs, rhs, witness=witness)
        families[name] = led.verdict()
    return hv, families


class TestIntRowsMatchFractionReferences:
    """The coefficient rows on ints over the lcm denominator give the
    verdicts and margins of the Fraction rows they replaced."""

    @given(rational_polys())
    @settings(max_examples=300, deadline=None)
    def test_is_univariate_clc(self, p):
        for strict in (False, True):
            assert_same_verdict(is_univariate_clc(p, strict),
                                reference_is_univariate_clc(p, strict))

    def test_weighted_newton_rows_keep_the_square_floor(self):
        # both sides of row 1 are below 1, so its scale is the floor: den^2
        # on the cleared ints, 1 on the plain coefficients
        p = UniPoly((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
        for strict in (False, True):
            v = is_univariate_clc(p, strict)
            assert v == Verdict(FAILS, margin=Fraction(-1, 4),
                                witness=("weighted-newton", 1))
            assert_same_verdict(v, reference_is_univariate_clc(p, strict))

    @example(UNSTABLE_QUINTIC)
    @given(rational_polys(5, 5))
    @settings(max_examples=200, deadline=None)
    def test_quintic_cross_inequality(self, p):
        assert_same_verdict(quintic_cross_inequality(p),
                            reference_quintic_cross_inequality(p))

    @example(UniPoly(tuple(Fraction(24, math.factorial(k)) for k in range(5))))
    # (t + 1/2)(t + 1/10): the top-anchor row is below 1, at its floor
    @example(UniPoly((Fraction(1, 20), Fraction(3, 5), 1)))
    @given(rational_polys())
    @settings(max_examples=300, deadline=None)
    def test_newton_chain_report(self, p):
        try:
            hv, families = reference_newton_chain_report(p.coeffs)
        except Inapplicable as expected:
            with pytest.raises(Inapplicable) as got:
                newton_chain_report(p.coeffs)
            assert got.value.witness == expected.witness
            return
        report = newton_chain_report(p.coeffs)
        assert_same_verdict(report.hypothesis, hv)
        assert report.families.keys() == families.keys()
        for name, verdict in families.items():
            assert_same_verdict(report.families[name], verdict)


class TestIsLogConcave:
    def test_equality_chain(self):
        assert is_log_concave([1, 1, 1]).status == "holds"
        assert is_log_concave([1, 1, 1], strict=True).status == "fails"

    def test_geometric_sequence_has_zero_margin(self):
        v = is_log_concave([1, 2, 4])
        assert v.status == "holds"
        assert v.margin == 0
        assert v.witness == ("log-concavity", 1)

    def test_binomial_row(self):
        assert is_log_concave([1, 4, 6, 4, 1]).status == "holds"

    def test_nonpositive_entry_fails(self):
        v = is_log_concave([1, 0, 1])
        assert v.status == "fails"
        assert v.witness == ("entry", 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_log_concave([])

    @given(st.lists(st.fractions(min_value=Fraction(1, 10), max_value=9,
                                 max_denominator=10), min_size=1, max_size=8),
           st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7))
    @settings(max_examples=150)
    def test_scale_invariance(self, seq, c):
        assert is_log_concave(seq).status == \
            is_log_concave([c * a for a in seq]).status


class TestIsUltraLogConcave:
    def test_binomial_row_is_the_equality_case(self):
        v = is_ultra_log_concave([1, 3, 3, 1])
        assert v.status == "holds" and v.margin == 0
        assert is_ultra_log_concave([1, 3, 3, 1], strict=True).status == "fails"

    def test_flat_sequence_fails(self):
        # n = 2: (1 / C(2,1))^2 = 1/4 < 1*1
        v = is_ultra_log_concave([1, 1, 1])
        assert v.status == "fails"
        assert v.witness == ("ultra-log-concavity", 1)

    def test_matches_univariate_clc_on_homogenization_weights(self, rng):
        # ULC of {a_k / (d-k)!} is exactly the weighted univariate condition
        for _ in range(300):
            d = rng.randint(2, 8)
            coeffs = [Fraction(rng.randint(1, 40), rng.randint(1, 6))
                      for _ in range(d + 1)]
            p = UniPoly(tuple(coeffs))
            weights = [c / math.factorial(d - k) for k, c in enumerate(coeffs)]
            assert is_univariate_clc(p).status == \
                is_ultra_log_concave(weights).status

    def test_showcase_quintic_equivalence(self):
        coeffs = UNSTABLE_QUINTIC.coeffs
        weights = [Fraction(c) / math.factorial(5 - k)
                   for k, c in enumerate(coeffs)]
        assert is_ultra_log_concave(weights).status == \
            is_univariate_clc(UNSTABLE_QUINTIC).status == "holds"


class TestIsUnivariateClc:
    def test_product_example_holds(self):
        assert is_univariate_clc(UniPoly((3, 7, 7, 4))).status == "holds"

    def test_factor_fails(self):
        v = is_univariate_clc(UniPoly((1, 1, 1)))
        assert v.status == "fails"
        assert v.witness == ("weighted-newton", 1)

    def test_unstable_quintic_holds_with_equality_at_4(self):
        v = is_univariate_clc(UNSTABLE_QUINTIC)
        assert v.status == "holds"
        assert v.margin == 0
        assert v.witness == ("weighted-newton", 4)
        strict = is_univariate_clc(UNSTABLE_QUINTIC, strict=True)
        assert strict.status == "fails"
        assert strict.witness == ("weighted-newton", 4)

    def test_stable_quintic_fails(self):
        v = is_univariate_clc(STABLE_QUINTIC)
        assert v.status == "fails"
        assert v.witness == ("weighted-newton", 4)

    def test_zero_polynomial_convention(self):
        assert is_univariate_clc(UniPoly(())).status == "holds"
        assert is_univariate_clc(UniPoly(()), strict=True).status == "fails"

    def test_reversal_duality(self, rng):
        # CLC of p is equivalent to the reverse-indexed weighted condition
        # (d-i)*a_i^2 >= (d-i+1)*a_{i-1}*a_{i+1} on reverse(p)
        for _ in range(1000):
            d = rng.randint(1, 7)
            p = UniPoly(tuple(Fraction(rng.randint(1, 30), rng.randint(1, 4))
                              for _ in range(d + 1)))
            r = p.reverse()
            b = r.coeffs
            reversed_weighted = all(
                (d - i) * b[i] ** 2 >= (d - i + 1) * b[i - 1] * b[i + 1]
                for i in range(1, d))
            assert (is_univariate_clc(p).status == "holds") == reversed_weighted


class TestQuinticCrossInequality:
    def test_wrong_degree(self):
        with pytest.raises(WrongDegree):
            quintic_cross_inequality(UniPoly((1, 2, 3)))

    def test_unstable_quintic_fails_it(self):
        # (42 - 5)^2 = 1369 against (175-36)(108/5 - 25/2) = 139 * 91/10
        v = quintic_cross_inequality(UNSTABLE_QUINTIC)
        assert v.status == "fails"
        assert (Fraction(42 - 5)) ** 2 > Fraction(139) * Fraction(91, 10)

    def test_small_leading_coefficient_approaches_limit(self):
        a = [Fraction(x) for x in (1, 10, 40, 80, 60)]
        eps = Fraction(1, 10 ** 12)
        p = UniPoly(tuple(a + [eps]))
        limit_holds = (a[1] * a[4]) ** 2 < (a[1] * a[2] - a[0] * a[3]) * a[3] * a[4]
        assert (quintic_cross_inequality(p).status == "holds") == limit_holds

    def test_scale_invariance(self, rng):
        for _ in range(50):
            coeffs = tuple(Fraction(rng.randint(1, 50), rng.randint(1, 5))
                           for _ in range(6))
            p = UniPoly(coeffs)
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert quintic_cross_inequality(p).status == \
                quintic_cross_inequality(p.scale(c)).status


class TestNewtonChainReport:
    def test_equality_case_holds_everywhere(self):
        # a_k = 24 / k! meets the hypothesis with equality at every index
        seq = [Fraction(24, math.factorial(k)) for k in range(5)]
        report = newton_chain_report(seq)
        assert report.hypothesis.status == "holds"
        assert report.hypothesis.margin == 0
        for name, verdict in report.families.items():
            assert verdict.status == "holds", name
        for name in ("neighbor_product", "square_gap_two", "product_gap_two",
                     "top_anchor"):
            assert report.families[name].margin == 0, name

    def test_strongly_log_concave_sequence(self):
        report = newton_chain_report([1, 10, 40, 80])
        for name, verdict in report.families.items():
            assert verdict.is_holds, name

    def test_hypothesis_violation_is_inapplicable_with_witness(self):
        # equality case, then bump a_3 so the hypothesis breaks at k = 2
        seq = [Fraction(24, math.factorial(k)) for k in range(5)]
        seq[3] *= 2
        with pytest.raises(Inapplicable) as exc:
            newton_chain_report(seq)
        assert exc.value.witness == ("hypothesis", 2)

    def test_nonpositive_entry_is_inapplicable(self):
        with pytest.raises(Inapplicable):
            newton_chain_report([1, -1, 1])

    def test_implication_sweep(self):
        # strict hypothesis always propagates to every derived family
        rng = random.Random(7)
        for _ in range(10000):
            seq = newton_strict_sequence(rng, rng.randint(3, 9))
            report = newton_chain_report(seq)
            assert report.hypothesis.status == "holds"
            for name, verdict in report.families.items():
                assert verdict.status == "holds", (name, seq)

    def test_scale_invariance(self, rng):
        for _ in range(100):
            seq = [Fraction(rng.randint(1, 99), rng.randint(1, 9))
                   for _ in range(4)]
            c = Fraction(rng.randint(1, 9))
            try:
                r1 = newton_chain_report(seq)
                statuses1 = {k: v.status for k, v in r1.families.items()}
            except Inapplicable:
                with pytest.raises(Inapplicable):
                    newton_chain_report([c * a for a in seq])
                continue
            r2 = newton_chain_report([c * a for a in seq])
            assert statuses1 == {k: v.status for k, v in r2.families.items()}
