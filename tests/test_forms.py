import math
from fractions import Fraction

import pytest

from conestab import cones, forms
from conestab import (Cone, DimensionMismatch, MultiForm, SquareMatrix,
                      clc_necessary_check, hessian_signature_check,
                      hurwitz_over_cone_check, is_log_concave,
                      lorentzian_sample_check, quadratic_lorentzian_check,
                      quadratic_matrix, restrict_line, sym_eigs,
                      verify_sum_condition)


def elementary_symmetric_2(n=3):
    terms = {}
    for i in range(n):
        for j in range(i + 1, n):
            e = [0] * n
            e[i] = e[j] = 1
            terms[tuple(e)] = 1
    return MultiForm(n, 2, terms)


def power_of_sum(n, d, coeff=1):
    """(x_1 + ... + x_n)^d via multinomials."""
    terms = {}

    def rec(prefix, remaining, slots):
        if slots == 1:
            e = prefix + (remaining,)
            terms[e] = coeff * math.factorial(d) // math.prod(
                math.factorial(k) for k in e)
            return
        for k in range(remaining + 1):
            rec(prefix + (k,), remaining - k, slots - 1)

    rec((), d, n)
    return MultiForm(n, d, terms)


def random_sparse_form(rng, n, d, nterms=5):
    terms = {}
    for _ in range(nterms):
        e = [0] * n
        for _ in range(d):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + Fraction(
            rng.randint(-9, 9), rng.randint(1, 4))
    return MultiForm(n, d, terms)


class TestMultiFormBasics:
    def test_eval(self):
        sq = MultiForm(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert sq.eval((1, 1)) == 4

    def test_elementary_symmetric(self):
        assert elementary_symmetric_2().eval((1, 1, 1)) == 3

    def test_homogeneity_violation_rejected(self):
        with pytest.raises(ValueError):
            MultiForm(2, 2, {(1, 0): 1})

    def test_zero_coefficients_dropped(self):
        f = MultiForm(2, 2, {(2, 0): 0, (1, 1): 3})
        assert (2, 0) not in f.terms

    def test_homogeneity_scaling(self, rng):
        for _ in range(50):
            f = random_sparse_form(rng, 3, 4)
            x = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(3))
            c = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            assert f.eval(tuple(c * xi for xi in x)) == c ** 4 * f.eval(x)


class TestDirDerivative:
    def test_product_term(self):
        f = MultiForm(2, 2, {(1, 1): 1})
        df = f.dir_derivative((1, 1))
        assert df.terms == {(1, 0): 1, (0, 1): 1}

    def test_iterated_to_constant(self):
        # D_v^d f = d! * f(v) for a degree-d form
        sq = MultiForm(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        g = sq.dir_derivative((1, 1)).dir_derivative((1, 1))
        assert g.eval((0, 0)) == 2 * (1 + 1) ** 2 == 8

    def test_linearity(self, rng):
        for _ in range(40):
            f = random_sparse_form(rng, 3, 3)
            u = tuple(rng.randint(-3, 3) for _ in range(3))
            v = tuple(rng.randint(-3, 3) for _ in range(3))
            uv = tuple(a + b for a, b in zip(u, v))
            lhs = f.dir_derivative(uv)
            rhs = f.dir_derivative(u) + f.dir_derivative(v)
            assert lhs == rhs


class TestHessian:
    def test_elementary_symmetric_constant_hessian(self):
        H = elementary_symmetric_2().hessian_at((5, -1, Fraction(1, 2)))
        assert H.rows == ((0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_square_of_sum(self):
        sq = MultiForm(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        H = sq.hessian_at((0, 0))
        assert H.rows == ((2, 2), (2, 2))
        vals, _ = sym_eigs(H)
        assert vals == pytest.approx([4.0, 0.0])

    def test_matches_finite_differences(self, rng):
        h = 1e-4
        for _ in range(10):
            f = random_sparse_form(rng, 3, 3)
            a = tuple(rng.uniform(0.5, 2.0) for _ in range(3))
            H = f.hessian_at(a)

            def fd(i, j):
                def shift(eps_i, eps_j):
                    p = list(a)
                    p[i] += eps_i
                    p[j] += eps_j
                    return float(f.eval(tuple(p)))
                return (shift(h, h) - shift(h, -h) - shift(-h, h)
                        + shift(-h, -h)) / (4 * h * h)

            for i in range(3):
                for j in range(3):
                    ref = fd(i, j)
                    assert float(H[i, j]) == pytest.approx(
                        ref, rel=1e-5, abs=1e-4)


class TestRestrictLine:
    def test_square_of_sum(self):
        sq = MultiForm(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert restrict_line(sq, (1, 1), (1, 1)).coeffs == (4, 8, 4)

    def test_elementary_symmetric(self):
        p = restrict_line(elementary_symmetric_2(), (1, 1, 1), (1, 1, 1))
        assert p.coeffs == (3, 6, 3)

    def test_dual_methods_agree_exactly(self, rng):
        for _ in range(100):
            n = rng.randint(1, 4)
            d = rng.randint(1, 5)
            f = random_sparse_form(rng, n, d)
            x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(n))
            v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(n))
            restrict_line(f, x, v)  # InternalMismatch would raise

    def test_derivative_restriction_commutation(self, rng):
        # k-th t-derivative of the restriction at 0 equals D_v^k f(x)
        for _ in range(30):
            n = rng.randint(2, 4)
            d = rng.randint(1, 5)
            f = random_sparse_form(rng, n, d)
            x = tuple(Fraction(rng.randint(1, 4)) for _ in range(n))
            v = tuple(Fraction(rng.randint(1, 4)) for _ in range(n))
            p = restrict_line(f, x, v)
            g = f
            for k in range(d + 1):
                assert p.derivative(k).eval(0) == g.eval(x)
                if k < d:
                    g = g.dir_derivative(v)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            restrict_line(elementary_symmetric_2(), (1, 1), (1, 1, 1))


class TestQuadraticLorentzian:
    def test_all_ones_matrix(self):
        J = SquareMatrix.from_rows([[1, 1, 1]] * 3)
        rep = quadratic_lorentzian_check(J, Cone.orthant(3))
        assert rep.verdict.status == "holds"

    def test_identity_fails(self):
        rep = quadratic_lorentzian_check(SquareMatrix.identity(2),
                                         Cone.orthant(2))
        assert rep.verdict.status == "fails"
        assert rep.verdict.witness == ("positive-eigenvalues", 2)

    def test_off_diagonal_flip(self):
        rep = quadratic_lorentzian_check(
            SquareMatrix.from_rows([[0, 1], [1, 0]]), Cone.orthant(2))
        assert rep.verdict.status == "holds"
        assert rep.details["k_nonnegative"].status == "holds"

    def test_dichotomy_branches(self):
        # J is singular and nonnegative; J - I is nonsingular and irreducible
        J = SquareMatrix.from_rows([[1, 1], [1, 1]])
        rep = quadratic_lorentzian_check(J, Cone.orthant(2))
        assert rep.details["dichotomy_branch"] == "singular-nonnegative"
        assert rep.verdict.status == "holds"
        JmI = SquareMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        rep2 = quadratic_lorentzian_check(JmI, Cone.orthant(3))
        assert rep2.details["dichotomy_branch"] == "nonsingular-irreducible"
        assert rep2.details["dichotomy"].status == "holds"

    def test_second_order_sampled_label(self):
        Q = SquareMatrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
        rep = quadratic_lorentzian_check(Q, Cone.second_order(3), trials=50)
        assert rep.verdict.status == "holds-sampled"


class TestLorentzianSampleCheck:
    def test_elementary_symmetric_holds_exactly_at_degree_two(self):
        rep = lorentzian_sample_check(elementary_symmetric_2(), Cone.orthant(3),
                                      trials=20, seed=1)
        assert rep.verdict.status == "holds"

    def test_sum_of_squares_fails_immediately(self):
        f = MultiForm(2, 2, {(2, 0): 1, (0, 2): 1})
        rep = lorentzian_sample_check(f, Cone.orthant(2), trials=20, seed=1)
        assert rep.verdict.status == "fails"

    def test_power_of_sum_holds_sampled(self):
        for d in (3, 4, 5):
            f = power_of_sum(2, d)
            rep = lorentzian_sample_check(f, Cone.orthant(2), trials=15, seed=2)
            assert rep.verdict.status == "holds-sampled", d

    def test_linear_form_degenerate_case(self):
        f = MultiForm(2, 1, {(1, 0): 1, (0, 1): 2})
        rep = lorentzian_sample_check(f, Cone.orthant(2))
        assert rep.verdict.status == "holds"
        g = MultiForm(2, 1, {(1, 0): -1, (0, 1): 2})
        rep2 = lorentzian_sample_check(g, Cone.orthant(2))
        assert rep2.verdict.status == "fails"


class TestClcNecessaryCheck:
    def test_power_of_sum_holds_sampled(self):
        f = power_of_sum(2, 4)
        rep = clc_necessary_check(f, Cone.orthant(2), trials=50, seed=3)
        assert rep.verdict.status == "holds-sampled"

    def test_sum_of_squares_is_log_concave_at_the_diagonal_point(self):
        # the spot where the necessary condition cannot distinguish: the
        # restriction along x = v = (1,1) is 2+4t+2t^2 with weighted
        # sequence {2,4,4}, which is log-concave ...
        f = MultiForm(2, 2, {(2, 0): 1, (0, 2): 1})
        p = restrict_line(f, (1, 1), (1, 1))
        assert p.coeffs == (2, 4, 2)
        weighted = [math.factorial(k) * p.coeff(k) for k in range(3)]
        assert weighted == [2, 4, 4]
        assert is_log_concave(weighted).status == "holds"
        # ... while the Lorentzian check refutes outright
        assert lorentzian_sample_check(f, Cone.orthant(2),
                                       trials=5, seed=0).verdict.status == "fails"

    def test_negative_top_coefficient_fails_positivity(self):
        f = MultiForm(2, 3, {(3, 0): -2, (2, 1): 3, (1, 2): 3, (0, 3): 1})
        rep = clc_necessary_check(f, Cone.orthant(2), trials=200, seed=5)
        assert rep.verdict.status == "fails"

    def test_refuted_by_clc_refuted_by_lorentzian(self):
        # necessity ordering on a constructed refutable form
        f = MultiForm(2, 3, {(3, 0): -2, (2, 1): 3, (1, 2): 3, (0, 3): 1})
        K = Cone.orthant(2)
        clc = clc_necessary_check(f, K, trials=200, seed=6)
        lor = lorentzian_sample_check(f, K, trials=200, seed=6)
        assert clc.verdict.status == "fails"
        assert lor.verdict.status == "fails"


class TestHessianSignatureCheck:
    def test_elementary_symmetric_nonsingular_branch(self):
        rep = hessian_signature_check(elementary_symmetric_2(), Cone.orthant(3),
                                      trials=25, seed=7)
        assert rep.verdict.status == "holds-sampled"
        assert rep.details["tallies"]["nonsingular_irreducible"] == 25

    def test_cube_of_sum_singular_branch(self):
        rep = hessian_signature_check(power_of_sum(3, 3), Cone.orthant(3),
                                      trials=25, seed=7)
        assert rep.verdict.status == "holds-sampled"
        assert rep.details["tallies"]["singular_nonnegative"] == 25

    def test_diagonal_cubic_fails(self):
        f = MultiForm(2, 3, {(3, 0): 1, (0, 3): 1})
        rep = hessian_signature_check(f, Cone.orthant(2), trials=10, seed=7)
        assert rep.verdict.status == "fails"
        assert rep.verdict.witness["positive_count"] == 2


def count_cone_matrix_checks(monkeypatch) -> dict:
    """Count calls of matrix_k_nonnegative / matrix_k_positive through every
    module that binds them."""
    calls = {}
    for name in ("matrix_k_nonnegative", "matrix_k_positive"):
        calls[name] = 0
        original = getattr(cones, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (cones, forms):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


class TestConeMatrixVerdictsComputedOnce:
    def test_hessian_check_one_verdict_of_each_per_trial(self, monkeypatch):
        # -x1^2 - x2^2 - x3^2 + x4^2: a constant nonsingular Hessian
        f = MultiForm(4, 2, {(2, 0, 0, 0): -1, (0, 2, 0, 0): -1,
                             (0, 0, 2, 0): -1, (0, 0, 0, 2): 1})
        calls = count_cone_matrix_checks(monkeypatch)
        trials = 3
        rep = hessian_signature_check(f, Cone.second_order(4), trials=trials,
                                      seed=5)
        assert rep.verdict.status == "holds-sampled"
        assert rep.details["tallies"]["nonsingular_irreducible"] == trials
        assert calls == {"matrix_k_nonnegative": trials,
                         "matrix_k_positive": trials}

    @pytest.mark.parametrize("Q, K", [
        (SquareMatrix.from_rows([[-1, 0, 0, 0], [0, -1, 0, 0],
                                 [0, 0, -1, 0], [0, 0, 0, 1]]),
         Cone.second_order(4)),
        (SquareMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
         Cone.orthant(3)),
    ])
    def test_quadratic_dichotomy_reuses_k_nonnegativity(self, monkeypatch,
                                                         Q, K):
        calls = count_cone_matrix_checks(monkeypatch)
        rep = quadratic_lorentzian_check(Q, K, trials=20, seed=3)
        assert rep.details["dichotomy_branch"] == "nonsingular-irreducible"
        assert rep.details["dichotomy"].is_holds
        assert calls == {"matrix_k_nonnegative": 1, "matrix_k_positive": 1}


class TestHurwitzOverCone:
    def test_cube_of_sum(self):
        rep = hurwitz_over_cone_check(power_of_sum(2, 3), Cone.orthant(2),
                                      trials=30, seed=8)
        assert rep.verdict.status == "holds-sampled"

    def test_elementary_symmetric(self):
        rep = hurwitz_over_cone_check(elementary_symmetric_2(), Cone.orthant(3),
                                      trials=30, seed=8)
        assert rep.verdict.status == "holds-sampled"

    def test_embedded_unstable_quintic_is_refuted(self):
        # homogenize the unstable quintic over x1^(5-k) x2^k, then pull back
        # through y -> (2y1 - y2, y2 - y1) so the line x=(1,0), v=(0,1) that
        # reproduces the quintic exactly moves to the interior pair
        # x=(1,1), v=(1,2)
        from conestab import routh_hurwitz_stable
        a = (5, 14, Fraction(25, 2), Fraction(36, 5), 3, 1)
        terms = {}

        def binom_pow(c0, c1, e):
            return {(e - j, j): math.comb(e, j) * c0 ** (e - j) * c1 ** j
                    for j in range(e + 1)}

        for k in range(6):
            for (e1, e2), ca in binom_pow(2, -1, 5 - k).items():
                for (f1, f2), cb in binom_pow(-1, 1, k).items():
                    key = (e1 + f1, e2 + f2)
                    terms[key] = terms.get(key, 0) + a[k] * ca * cb
        g = MultiForm(2, 5, terms)
        anchor = restrict_line(g, (1, 1), (1, 2))
        assert anchor.coeffs == a
        assert routh_hurwitz_stable(anchor).status == "fails"
        rep = hurwitz_over_cone_check(g, Cone.orthant(2), trials=100, seed=9)
        assert rep.verdict.status == "fails"
        assert "x" in rep.verdict.witness and "v" in rep.verdict.witness


class TestVerifySumCondition:
    def test_same_form_same_direction(self):
        f = power_of_sum(2, 3)
        assert verify_sum_condition(f, f, (1, 0), (1, 0))

    def test_distinct_derivatives(self):
        f = MultiForm(2, 2, {(2, 0): 1})
        g = MultiForm(2, 2, {(0, 2): 1})
        assert not verify_sum_condition(f, g, (1, 0), (0, 1))

    def test_constructed_match(self):
        # D_{e2}(x1^2 + x1 x2) = x1 = D_{e2}(x1 x2)
        f = MultiForm(2, 2, {(2, 0): 1, (1, 1): 1})
        g = MultiForm(2, 2, {(1, 1): 1})
        assert verify_sum_condition(f, g, (0, 1), (0, 1))
        # but not against x1 x2 + x2^2, whose e2-derivative is x1 + 2 x2
        g2 = MultiForm(2, 2, {(1, 1): 1, (0, 2): 1})
        assert not verify_sum_condition(f, g2, (0, 1), (0, 1))

    def test_zero_derivative_rejected(self):
        f = MultiForm(2, 2, {(2, 0): 1})
        assert not verify_sum_condition(f, f, (0, 1), (0, 1))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify_sum_condition(power_of_sum(2, 2), power_of_sum(2, 3),
                                 (1, 1), (1, 1))


class TestQuadraticMatrixExtraction:
    def test_round_trip_with_evaluation(self, rng):
        for _ in range(30):
            n = rng.randint(2, 4)
            rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)]
                    for _ in range(n)]
            Q = SquareMatrix.from_rows(rows).symmetrized()
            terms = {}
            for i in range(n):
                for j in range(n):
                    e = [0] * n
                    e[i] += 1
                    e[j] += 1
                    terms[tuple(e)] = terms.get(tuple(e), 0) + Q[i, j]
            f = MultiForm(n, 2, terms)
            Q2 = quadratic_matrix(f)
            assert Q2.rows == Q.rows
