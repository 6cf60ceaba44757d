from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conestab import (UniPoly, ZeroPolynomial, hb_parts, root_oracle_verdict,
                      routh_hurwitz_stable)
from conestab.cli import jsonable
from conestab.unipoly import unipoly_from_json

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys = st.lists(fractions, min_size=0, max_size=7).map(
    lambda cs: UniPoly(tuple(cs)))


class TestStructure:
    def test_trailing_zeros_stripped(self):
        assert UniPoly((1, 2, 0, 0)).coeffs == (1, 2)

    def test_zero_polynomial_degree_sentinel(self):
        p = UniPoly((0, 0))
        assert p.is_zero and p.degree is None

    def test_degree(self):
        assert UniPoly((1, 2, 3)).degree == 2


class TestEval:
    def test_zero_polynomial(self):
        assert UniPoly(()).eval(17) == 0

    def test_simple(self):
        assert UniPoly((1, 2, 1)).eval(1) == 4

    def test_product_example(self):
        # 3+7t+7t^2+4t^3 = (1+t+t^2)(3+4t), so at t=1 both sides give 3*7
        p = UniPoly((3, 7, 7, 4))
        assert p.eval(1) == 21 == (1 + 1 + 1) * (3 + 4)

    def test_exact_on_rationals(self):
        p = UniPoly((Fraction(1, 3), Fraction(1, 2)))
        assert p.eval(Fraction(2)) == Fraction(4, 3)


class TestDerivative:
    def test_first(self):
        assert UniPoly((1, 1, 1)).derivative().coeffs == (1, 2)

    def test_order_beyond_degree_is_zero(self):
        assert UniPoly((5, 1, 2)).derivative(3).is_zero

    def test_second_matches_iterated_first(self, rng):
        for _ in range(50):
            p = UniPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 8))))
            assert p.derivative(2).coeffs == p.derivative().derivative().coeffs

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            UniPoly((1,)).derivative(-1)


class TestReverse:
    def test_simple(self):
        assert UniPoly((1, 2, 3)).reverse().coeffs == (3, 2, 1)

    def test_involution_when_constant_term_nonzero(self, rng):
        for _ in range(50):
            coeffs = [rng.randint(1, 9)] + [rng.randint(-9, 9)
                                            for _ in range(rng.randint(0, 6))]
            p = UniPoly(tuple(coeffs))
            assert p.reverse().reverse().coeffs == p.coeffs

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            UniPoly(()).reverse()

    def test_reverse_preserves_hurwitz_verdict_of_stable_quintic(self):
        p = UniPoly((5, 25, 50, 30, 10, 3))
        assert root_oracle_verdict(p).status == root_oracle_verdict(p.reverse()).status


class TestMultiply:
    def test_product_example(self):
        assert (UniPoly((1, 1, 1)) * UniPoly((3, 4))).coeffs == (3, 7, 7, 4)

    def test_multiplicative_identity(self):
        p = UniPoly((2, 0, 5))
        assert (p * UniPoly((1,))).coeffs == p.coeffs

    def test_matches_pointwise_evaluation(self, rng):
        for _ in range(30):
            p = UniPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6))))
            q = UniPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6))))
            prod = p * q
            for t in range(-3, 4):
                assert prod.eval(t) == p.eval(t) * q.eval(t)

    @given(polys, polys)
    def test_commutative(self, p, q):
        assert (p * q).coeffs == (q * p).coeffs

    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_associative(self, p, q, r):
        assert ((p * q) * r).coeffs == (p * (q * r)).coeffs

    @given(polys, polys)
    def test_product_rule(self, p, q):
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        assert lhs.coeffs == rhs.coeffs


class TestHbParts:
    def test_cubic(self):
        f_e, f_o = hb_parts(UniPoly((1, 2, 3, 4)))
        assert f_e.coeffs == (1, -3)
        assert f_o.coeffs == (2, -4)

    def test_constant(self):
        f_e, f_o = hb_parts(UniPoly((9,)))
        assert f_e.coeffs == (9,)
        assert f_o.is_zero

    def test_stable_quintic(self):
        f_e, f_o = hb_parts(UniPoly((5, 25, 50, 30, 10, 3)))
        assert f_e.coeffs == (5, -50, 10)
        assert f_o.coeffs == (25, -30, 3)


class TestReverseHurwitzInvariance:
    def test_on_random_polynomials(self, rng):
        # t^d p(1/t) has the reciprocal root set, which preserves stability
        agree = 0
        for _ in range(1000):
            d = rng.randint(1, 7)
            coeffs = [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(d)]
            p = UniPoly(tuple(coeffs))
            if p.degree < 1:
                continue
            v1 = routh_hurwitz_stable(p).status
            v2 = routh_hurwitz_stable(p.reverse()).status
            assert v1 == v2
            agree += 1
        assert agree > 900


class TestJson:
    def test_round_trip(self):
        p = UniPoly((Fraction(1, 2), 3, Fraction(25, 2)))
        assert unipoly_from_json(jsonable(p)).coeffs == p.coeffs

    def test_decimal_strings_and_numbers(self):
        p = unipoly_from_json({"coeffs": [5, "12.5", 7.2]})
        assert p.coeffs == (5, Fraction(25, 2), Fraction(36, 5))
