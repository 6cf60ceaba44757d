import math
from fractions import Fraction

import pytest

from conestab import (Cone, DegreeMismatch, MultiForm, NotInterior,
                      SquareMatrix, UniPoly, alpha_criterion, char_poly,
                      is_univariate_clc, lti_report, restrict_line,
                      restriction_realization_check, routh_hurwitz_stable)

from conestab.verdict import HOLDS, Verdict

from conftest import form_through_line, poly_from_roots


def companion_of(p: UniPoly) -> SquareMatrix:
    """Companion matrix (last-column layout) of a monic polynomial."""
    monic = p.monic()
    n = monic.degree
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -monic.coeff(i)
    return SquareMatrix.from_rows(rows)


def signed_permutation(rng, n) -> SquareMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice([1, -1])
    return SquareMatrix.from_rows(rows)


class TestLtiReport:
    def test_stable_diagonal(self):
        rep = lti_report(SquareMatrix.from_rows([[-1, 0], [0, -2]]))
        assert rep.char_poly.coeffs == (2, 3, 1)
        assert rep.conclusion == "stable"
        assert rep.routh_hurwitz.status == "holds"
        assert rep.eigen_stable.status == "holds"
        assert rep.clc_d_le_4.status == "holds"

    def test_unstable_flip(self):
        rep = lti_report(SquareMatrix.from_rows([[0, 1], [1, 0]]))
        assert rep.char_poly.coeffs == (-1, 0, 1)
        assert rep.routh_hurwitz.status == "fails"
        assert rep.conclusion == "unstable"
        assert rep.spectral_abscissa == pytest.approx(1.0)

    @pytest.mark.parametrize("one", [1, 1.0])
    def test_undecided_eigenvalue_names_its_witness(self, one):
        # eigenvalues 0 and -2, exact and float: the zero sits in the
        # tolerance band, and the report names it
        rep = lti_report(SquareMatrix.from_rows([[0, 0], [3 * one, -2]]))
        assert rep.eigen_stable.status == "unknown"
        assert rep.eigen_stable.margin == 0.0
        assert rep.eigen_stable.witness == ("eigenvalue", 0j)

    def test_companion_of_stable_quintic(self):
        stable = UniPoly((5, 25, 50, 30, 10, 3))
        A = companion_of(stable)
        rep = lti_report(A)
        assert rep.routh_hurwitz.status == "holds"
        assert rep.conclusion == "stable"
        # the same polynomial is not completely log-concave
        assert is_univariate_clc(rep.char_poly).status == "fails"
        assert rep.quintic is not None and rep.alpha_square is not None

    def test_degree_gating(self):
        rep3 = lti_report(SquareMatrix.from_rows(
            [[-1, 0, 0], [0, -2, 0], [0, 0, -3]]))
        assert rep3.clc_d_le_4 is not None
        assert rep3.quintic is None and rep3.alpha_square is None
        rep6 = lti_report(SquareMatrix.identity(6).scale(-1))
        assert rep6.clc_d_le_4 is None and rep6.quintic is None
        assert rep6.alpha_product is not None

    def test_exact_char_poly_on_integer_matrix(self, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            A = SquareMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            chi = char_poly(A)
            assert chi.is_exact and chi.leading == 1

    def test_triangular_rational_eigenvalue_is_exact_root(self, rng):
        for _ in range(20):
            n = rng.randint(2, 5)
            diag = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(n)]
            rows = [[diag[i] if i == j else
                     (Fraction(rng.randint(-3, 3)) if j > i else 0)
                     for j in range(n)] for i in range(n)]
            chi = char_poly(SquareMatrix.from_rows(rows))
            for lam in diag:
                assert chi.eval(lam) == 0


    @pytest.mark.parametrize("rows,conclusion", [
        # trace -3 and det 2 + 10^400: stable
        ([[-1, 1], [-10**400, -2]], "stable"),
        # trace 1: unstable
        ([[3, 1], [-10**400, -2]], "unstable"),
        ([[Fraction(1, 3), 10**400], [-1, -1]], "stable"),
    ])
    def test_entries_beyond_float_range_decide_exactly(self, rows,
                                                         conclusion):
        rep = lti_report(SquareMatrix.from_rows(rows))
        assert rep.eigenvalues is None and rep.spectral_abscissa is None
        assert rep.eigen_stable.status == "unknown"
        assert "beyond the float range" in rep.eigen_stable.note
        assert rep.routh_hurwitz.status == (
            "holds" if conclusion == "stable" else "fails")
        assert rep.conclusion == conclusion


class TestLtiSoundness:
    def test_exact_constructed_spectra(self, rng):
        # characteristic polynomials built from placed roots, conjugated by
        # signed permutations (exact orthogonal maps) to break structure
        for _ in range(250):
            side = rng.choice([-1, 1])
            margin = Fraction(rng.randint(5, 300), 100)
            reals = [side * (margin + Fraction(rng.randint(0, 200), 100))
                     for _ in range(rng.randint(0, 2))]
            pairs = [(side * (margin + Fraction(rng.randint(0, 200), 100)),
                      Fraction(rng.randint(1, 300), 100))
                     for _ in range(rng.randint(0, 2))]
            if not reals and not pairs:
                continue
            chi = poly_from_roots(reals, pairs)
            A = companion_of(chi)
            P = signed_permutation(rng, A.n)
            A = P.transpose() @ A @ P
            rep = lti_report(A)
            stable = side < 0
            assert (rep.routh_hurwitz.status == "holds") == stable
            assert rep.conclusion == ("stable" if stable else "unstable")
            if not stable:
                for crit in (rep.clc_d_le_4, rep.quintic,
                             rep.alpha_product, rep.alpha_square):
                    assert crit is None or crit.status != "holds"


class TestRealizationCheck:
    def test_square_of_sum_realization(self):
        f = MultiForm(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        A = SquareMatrix.from_rows([[-1, 0], [0, -1]])
        v = restriction_realization_check(f, Cone.orthant(2), (1, 1), (1, 1), A)
        assert v.status == "holds"
        assert v.witness["implied_stable"] is True
        assert v.witness["eigen_stable"] == "holds"

    def test_coefficient_mismatch_carries_index(self):
        f = MultiForm(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        A = SquareMatrix.from_rows([[-1, 0], [0, -2]])
        v = restriction_realization_check(f, Cone.orthant(2), (1, 1), (1, 1), A)
        assert v.status == "fails"
        assert v.witness == ("coefficient", 0)

    def test_not_interior_rejected(self):
        f = MultiForm(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        A = SquareMatrix.identity(2).scale(-1)
        with pytest.raises(NotInterior):
            restriction_realization_check(f, Cone.orthant(2), (1, 0), (1, 1), A)

    def test_direction_not_interior_rejected(self):
        f = MultiForm(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        A = SquareMatrix.identity(2).scale(-1)
        with pytest.raises(NotInterior):
            restriction_realization_check(f, Cone.orthant(2), (1, 1), (0, 1), A)

    def test_degree_mismatch_rejected(self):
        f = MultiForm(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        with pytest.raises(DegreeMismatch):
            restriction_realization_check(
                f, Cone.orthant(2), (1, 1), (1, 1),
                SquareMatrix.identity(3).scale(-1))

    def test_entries_beyond_float_range(self):
        # f(x0 + t v) = (t + 1)(t + N) for x0 = (1, 1), v = (1, 2), which is
        # det(tI - A); no float of N = 10^400 exists
        N = 10**400
        f = MultiForm(2, 2, {(2, 0): 2 * N - 1, (1, 1): 1 - N})
        A = SquareMatrix.from_rows([[-1, 0], [0, -N]])
        v = restriction_realization_check(f, Cone.orthant(2), (1, 1), (1, 2), A)
        assert v.status == "holds"
        assert v.witness["implied_stable"] is True
        assert v.witness["eigen_stable"] == "unknown"

    def test_degree_five_alpha_square_route(self):
        # (x1+x2)^5 restrictions satisfy the alpha-square inequalities:
        # the binomial ratio C(5,k)^2 / (C(5,k-1) C(5,k+1)) >= 2 > sqrt(alpha)
        terms = {(5 - k, k): math.comb(5, k) for k in range(6)}
        f = MultiForm(2, 5, terms)
        restriction = None
        x0, v0 = (1, 1), (1, 1)
        from conestab import restrict_line
        restriction = restrict_line(f, x0, v0)
        assert alpha_criterion(restriction, "square").status == "holds"
        A = companion_of(restriction)
        verdict = restriction_realization_check(f, Cone.orthant(2), x0, v0, A)
        assert verdict.status == "holds"
        assert verdict.witness["implied_stable"] is True
        assert routh_hurwitz_stable(restriction).status == "holds"

    def test_float_eigenvalues_do_not_refute_an_exact_char_poly(self):
        # chi = (t + 1)(t + 8)(t + 64)(t + 512)(t + 4096) is exactly stable
        # and meets the quintic hypothesis; A is its companion matrix under
        # one integer similarity (row 4 += 2 row 0, column 0 -= 2 column 4),
        # and the float eigensolver here puts one of its roots at about +3.3
        chi = (1073741824, 1227096064, 155783680, 2434120, 4681, 1)
        A = SquareMatrix.from_rows([
            [2147483648, 0, 0, 0, -1073741824],
            [2454192129, 0, 0, 0, -1227096064],
            [311567360, 1, 0, 0, -155783680],
            [4868240, 0, 1, 0, -2434120],
            [4294976658, 0, 0, 1, -2147488329]])
        assert char_poly(A).coeffs == chi
        assert routh_hurwitz_stable(char_poly(A)).status == "holds"
        f = form_through_line(chi)
        assert restrict_line(f, (1, 1), (1, 2)).coeffs == chi
        verdict = restriction_realization_check(f, Cone.orthant(2), (1, 1),
                                                (1, 2), A)
        assert verdict.status == "holds"
        assert verdict.witness["implied_stable"] is True

    def test_float_realization_within_tolerance(self):
        # f(x0 + t v) = 4 (t + 1)^2; chi differs from t^2 + 2t + 1 by about
        # 1e-12 per coefficient, inside the default tolerance
        f = MultiForm(2, 2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})
        A = SquareMatrix.from_rows([[-1.0, 0.0], [0.0, -1.0 - 1e-12]])
        v = restriction_realization_check(f, Cone.orthant(2), (1, 1), (1, 1), A)
        assert v.status == "holds"
        assert v.witness["implied_stable"] is True
        assert v.witness["eigen_stable"] == "holds"

    def test_float_realization_beyond_tolerance(self):
        f = MultiForm(2, 2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})
        A = SquareMatrix.from_rows([[-1.0, 0.0], [0.0, -1.5]])
        v = restriction_realization_check(f, Cone.orthant(2), (1, 1), (1, 1), A)
        assert v.status == "fails"
        assert v.witness == ("coefficient", 0)

    def test_degree_five_quintic_fails_alpha_square_holds(self):
        # (1, 3, 6, 8, 6, 3) breaks the weighted Newton part of the quintic
        # hypothesis but meets the alpha-square inequalities
        coeffs = (1, 3, 6, 8, 6, 3)
        f = form_through_line(coeffs)
        A = companion_of(UniPoly(coeffs))
        v = restriction_realization_check(f, Cone.orthant(2), (1, 1), (1, 2), A)
        assert v.status == "holds"
        assert v.witness["implied_stable"] is True
        assert v.witness["criterion_verdict"].status == "holds"
        assert v.witness["criterion_verdict"].witness[0] == "alpha-square"

    def test_degree_six_power_of_sum(self):
        f = MultiForm(2, 6, {(6 - k, k): math.comb(6, k) for k in range(7)})
        A = SquareMatrix.identity(6).scale(-1)
        v = restriction_realization_check(f, Cone.orthant(2), (1, 1), (1, 1), A)
        assert v.status == "holds"
        assert v.witness["implied_stable"] is True
        assert v.witness["criterion_verdict"].witness[0] == "alpha-square"
        assert v.witness["eigen_stable"] == "holds"

    def test_restriction_degree_drop(self):
        # f(v) = 0 for f = x1^2 - x2^2 and v = (1, 1): the restriction
        # (2 + t)^2 - (1 + t)^2 = 3 + 2t has degree 1
        f = MultiForm(2, 2, {(2, 0): 1, (0, 2): -1})
        A = SquareMatrix.identity(2).scale(-1)
        v = restriction_realization_check(f, Cone.orthant(2), (2, 1), (1, 1), A)
        assert v.status == "fails"
        assert v.witness == ("degree", 1)

    @pytest.mark.parametrize("one,key", [(1, "minors"), (1.0, "eigen")])
    def test_implied_stability_refuted(self, monkeypatch, one, key):
        # chi = (t - 1)(t + 2) with a criterion forced to hold: the exact
        # minor test refutes an exact chi, the eigenvalues a float one
        monkeypatch.setattr("conestab.lti.clc_d_le_4_criterion",
                            lambda p, tol=None: Verdict(HOLDS))
        f = form_through_line((-2 * one, one, one))
        A = SquareMatrix.from_rows([[one, 0 * one], [0 * one, -2 * one]])
        v = restriction_realization_check(f, Cone.orthant(2), (1, 1), (1, 2), A)
        assert v.status == "fails"
        assert key in v.witness
        assert v.witness[key] is not None
