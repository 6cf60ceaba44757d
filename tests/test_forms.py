import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import numpy as np

from conestab import cli, cones, forms, hurwitz
from conestab import (Cone, DimensionMismatch, MultiForm, SquareMatrix,
                      UniPoly, clc_necessary_check, hessian_signature_check,
                      hurwitz_over_cone_check, is_log_concave,
                      lorentzian_sample_check, quadratic_lorentzian_check,
                      restrict_line, sym_eigs)
from conestab.numerics import DEFAULT_TOL, Tolerance, exact_div
from conestab.verdict import UNKNOWN, InequalityLedger, Verdict

from conftest import form_through_line


def elementary_symmetric(n, k):
    return MultiForm(n, k, {tuple(int(i in S) for i in range(n)): 1
                            for S in itertools.combinations(range(n), k)})


def elementary_symmetric_2(n=3):
    return elementary_symmetric(n, 2)


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


def restrict_by_derivatives(f, x, v):
    """Reference oracle for restrict_line: a_k = D_v^k f(x) / k!, by
    iterated directional derivatives."""
    coeffs = []
    g = f
    for k in range(f.d + 1):
        coeffs.append(exact_div(g.eval(x), math.factorial(k)))
        if k < f.d:
            g = g.dir_derivative(v)
    return UniPoly(tuple(coeffs))


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


EXACT_COORDS = st.one_of(st.integers(-5, 5),
                        st.fractions(-5, 5, max_denominator=4))
FLOAT_COORDS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False,
                         allow_subnormal=False)


@st.composite
def restriction_inputs(draw, coords):
    """A form with coefficients, and a point and direction with
    coordinates, drawn from ``coords``."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, 5))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        e = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), min_size=d,
                               max_size=d)):
            e[i] += 1
        terms[tuple(e)] = draw(coords)
    x = tuple(draw(coords) for _ in range(n))
    v = tuple(draw(coords) for _ in range(n))
    return MultiForm(n, d, terms), x, v


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
            assert (restrict_line(f, x, v).coeffs
                    == restrict_by_derivatives(f, x, v).coeffs)

    @given(restriction_inputs(EXACT_COORDS))
    @settings(max_examples=200, deadline=None)
    def test_substitution_matches_derivative_oracle_exactly(self, case):
        f, x, v = case
        assert (restrict_line(f, x, v).coeffs
                == restrict_by_derivatives(f, x, v).coeffs)

    @given(restriction_inputs(FLOAT_COORDS))
    @settings(max_examples=200, deadline=None)
    def test_substitution_matches_derivative_oracle_in_floats(self, case):
        f, x, v = case
        got = restrict_line(f, x, v)
        want = restrict_by_derivatives(f, x, v)
        # every coefficient is a sum of products; bound its rounding by the
        # same sum taken over absolute values, where nothing cancels
        size = restrict_line(
            MultiForm(f.n, f.d, {e: abs(c) for e, c in f.terms.items()}),
            tuple(abs(c) for c in x), tuple(abs(c) for c in v))
        for k in range(f.d + 1):
            assert abs(got.coeff(k) - want.coeff(k)) <= (
                1e-12 * size.coeff(k) + 1e-250), k

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
        # float coefficients take the sampled reductions
        for d in (3, 4, 5):
            f = power_of_sum(2, d).scale(1.0)
            rep = lorentzian_sample_check(f, Cone.orthant(2), trials=15, seed=2)
            assert rep.verdict.status == "holds-sampled", d

    def test_power_of_sum_holds_exactly(self):
        # int coefficients are decided over the extreme rays
        for d in (3, 4, 5):
            rep = lorentzian_sample_check(power_of_sum(2, d), Cone.orthant(2),
                                          trials=15, seed=2)
            assert rep.verdict.status == "holds", d
            # d^alpha of (x1 + x2)^d is a multiple of (x1 + x2)^2, whose
            # Hessian is singular
            assert rep.details == {"rays": 2, "quadratics": d - 1,
                                   "trials_run": 0, "strict": False}

    def test_linear_form_degenerate_case(self):
        f = MultiForm(2, 1, {(1, 0): 1, (0, 1): 2})
        rep = lorentzian_sample_check(f, Cone.orthant(2))
        assert rep.verdict.status == "holds"
        g = MultiForm(2, 1, {(1, 0): -1, (0, 1): 2})
        rep2 = lorentzian_sample_check(g, Cone.orthant(2))
        assert rep2.verdict.status == "fails"

    def test_linear_form_zero_on_the_soc_boundary_is_decided(self):
        # 2 x1 + 2 x2 is 0 on the boundary ray (-1, 1) of L^2; the int
        # boundary draws evaluate it to an exact 0, not a float in the band
        form = {"n": 2, "d": 1, "terms": [{"exp": [1, 0], "coef": 2},
                                          {"exp": [0, 1], "coef": 2}]}
        rep = cli.cmd_form(form, {"type": "second_order", "n": 2},
                           cli.RunConfig(trials=20, seed=14))
        verdict = rep["checks"]["lorentzian_sampled"]["verdict"]
        assert verdict["status"] == "holds-sampled"
        tag, (x1, x2) = verdict["witness"]
        assert tag == "point" and type(x1) is int and 2 * x1 + 2 * x2 == 0


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
    """Count the runs of the cone-matrix kernel ``cones._maps_into``, by
    the test each run decides: K-nonnegativity, or the K-positivity that
    K-positive and K-irreducible matrices (through (I + A)^(n-1)) share."""
    calls = {"matrix_k_nonnegative": 0, "matrix_k_positive": 0}
    original = cones._maps_into

    def counted(M, K, interior, *args):
        calls["matrix_k_positive" if interior
              else "matrix_k_nonnegative"] += 1
        return original(M, K, interior, *args)

    monkeypatch.setattr(cones, "_maps_into", counted)
    return calls


def diagonal_quadratic(coefs) -> MultiForm:
    n = len(coefs)
    return MultiForm(n, 2, {tuple(2 * (j == i) for j in range(n)): c
                            for i, c in enumerate(coefs)})


class TestConeMatrixVerdictsComputedOnce:
    @pytest.mark.parametrize("coefs, K, expected", [
        # -x1^2 - x2^2 - x3^2 + x4^2: a constant nonsingular Hessian,
        # K-irreducible over the second-order cone
        ((-1, -1, -1, 1), Cone.second_order(4), {}),
        # its negative diagonal is not K-nonnegative over the orthant
        ((-1, -1, -1, 1), Cone.orthant(4), {"matrix_k_nonnegative": 1}),
        # x1^2 - x2^2 - x3^2 - x4^2 maps the cone's axis out of the cone
        ((1, -1, -1, -1), Cone.second_order(4), {"matrix_k_nonnegative": 1}),
    ], ids=["holds", "orthant-refuted", "second-order-refuted"])
    def test_hessian_check_verdicts_only_for_the_refuting_trial(
            self, monkeypatch, coefs, K, expected):
        # a passing exact trial decides by sign and builds no cone-matrix
        # verdict; the refuting trial builds the kernel's, once
        calls = count_cone_matrix_checks(monkeypatch)
        trials = 3
        rep = hessian_signature_check(diagonal_quadratic(coefs), K,
                                      trials=trials, seed=5)
        if expected:
            assert rep.verdict.status == "fails"
            assert rep.details["trials_run"] == 1
            assert rep.details["tallies"]["nonsingular_irreducible"] == 0
        else:
            assert rep.verdict.status == "holds-sampled"
            assert rep.details["tallies"]["nonsingular_irreducible"] == trials
        assert calls == {"matrix_k_nonnegative": 0, "matrix_k_positive": 0,
                         **expected}

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


E3_4 = elementary_symmetric(4, 3)
# x1^3 - 3 x1 x2^2: a negative coefficient, and with float coefficients
# refuted at its first sampled reduction over the orthant
CUBIC = MultiForm(2, 3, {(3, 0): 1, (1, 2): -3})
CUBE_2, CUBE_3 = power_of_sum(2, 3), power_of_sum(3, 3)
LORENTZ_4 = MultiForm(4, 2, {(2, 0, 0, 0): -1, (0, 2, 0, 0): -1,
                             (0, 0, 2, 0): -1, (0, 0, 0, 2): 1})


class TestFormChecksComputeOnlyWhatTheyReport:
    @pytest.mark.parametrize("f, expected", [
        # float coefficients, so that the reductions are sampled
        (E3_4.scale(1.0), {"matrix_k_nonnegative": 0,
                           "matrix_k_positive": 0}),
        # the refuted reduction's report carries K-nonnegativity, which
        # fails, so irreducibility is not asked
        (CUBIC.scale(1.0), {"matrix_k_nonnegative": 1,
                            "matrix_k_positive": 0}),
    ])
    def test_dichotomy_only_for_the_refuted_reduction(self, monkeypatch,
                                                      f, expected):
        calls = count_cone_matrix_checks(monkeypatch)
        rep = lorentzian_sample_check(f, Cone.orthant(f.n), trials=20,
                                      seed=[3, 1])
        assert calls == expected
        if rep.verdict.is_fails:
            inner = rep.details["inner_details"]
            assert inner["k_nonnegative"].is_fails
            assert inner["dichotomy"].note == "not K-nonnegative"
        else:
            assert rep.details["trials_run"] == 20

    def test_one_probe_list_per_hessian(self, monkeypatch):
        drawn = 0
        original = cones.sample_cone

        def counted(*args, **kwargs):
            nonlocal drawn
            drawn += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cones, "sample_cone", counted)
        trials = 3
        # a seed no other test uses, so no probe list is already kept
        rep = hessian_signature_check(LORENTZ_4, Cone.second_order(4),
                                      trials=trials, seed=8117)
        assert rep.details["tallies"]["nonsingular_irreducible"] == trials
        # K-nonnegativity and K-positivity of (I + H)^3 share 32 probes
        assert drawn == trials * 32

    def test_form_enumerates_extreme_rays_once(self, monkeypatch):
        cone = {"type": "polyhedral", "n": 4,
                "generators": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                               [0, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 1]]}
        form = {"n": 4, "d": 3,
                "terms": [{"exp": list(e), "coef": c}
                          for e, c in E3_4.terms.items()]}
        rank_sweeps = 0
        original = cones._rank

        def counted(*args, **kwargs):
            nonlocal rank_sweeps
            rank_sweeps += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cones, "_rank", counted)
        cones.cone_from_json(cone)
        construction = rank_sweeps
        cli.cmd_form(form, cone, cli.RunConfig(trials=5, seed=0))
        # cmd_form builds the cone again, then one rank sweep per
        # generator decides which generators are extreme
        assert rank_sweeps == 2 * construction + len(cone["generators"])


O2, O3 = Cone.orthant(2), Cone.orthant(3)
WEDGE_3 = Cone.polyhedral([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1],
                           [1, 1, 2]])
LINEAR = MultiForm(2, 1, {(1, 0): 1, (0, 1): 2})
LINEAR_MIXED = MultiForm(2, 1, {(1, 0): -1, (0, 1): 2})
SUM_SQ = MultiForm(2, 2, {(2, 0): 1, (0, 2): 1})
NEG_DEF = MultiForm(2, 2, {(2, 0): -1, (0, 2): -1})
# -(x1 + x2)^2 and (x1 - x2)^2: singular Hessians
NEG_SQ = MultiForm(2, 2, {(2, 0): -1, (1, 1): -2, (0, 2): -1})
DIFF_SQ = MultiForm(2, 2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
DIAG_CUBIC = MultiForm(2, 3, {(3, 0): 1, (0, 3): 1})
# (x1 + x2)^2 x3: a singular Hessian with a structural zero entry, which
# is an exact 0 at the int sample points
SQ_X3 = MultiForm(3, 3, {(2, 0, 1): 1, (1, 1, 1): 2, (0, 2, 1): 1})
# float coefficients small enough that the reductions and line
# restrictions stay inside the tolerance band at int sample points of
# size about 10^3
TINY = MultiForm(2, 3, {(2, 1): 1e-21, (1, 2): 1e-21})
ZERO = MultiForm(2, 2, {})
# the same cubics with float coefficients take the sampled reductions
CUBIC_FLOAT, CUBE_2_FLOAT = CUBIC.scale(1.0), CUBE_2.scale(1.0)
# 3 x3^3 + x1^2 x3 over the square pyramid: the quadratic d^alpha (f o G)
# of the ray (1, 0, 1) has two positive eigenvalues
PYRAMID = Cone.polyhedral([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)])
PYRAMID_CUBIC = MultiForm(3, 3, {(0, 0, 3): 3, (2, 0, 1): 1})
# x1 x2 - x2^2 / 2e12: a nonsingular Hessian with one positive eigenvalue
# whose K-nonnegativity is undecided on its float band entry -1e-12
KN_BAND = MultiForm(2, 2, {(1, 1): 1, (0, 2): -0.5e-12})
E2 = elementary_symmetric_2()
LOR, CLC = "lorentzian_sample_check", "clc_necessary_check"
HES, HUR = "hessian_signature_check", "hurwitz_over_cone_check"
NONE_FOUND = "refutation sampled, none found"
QUAD = ("dichotomy", "dichotomy_branch", "eigenvalues", "k_nonnegative",
        "pairing", "singular")
HIT = ("inner", "v", "x")
TALLY = ("tallies", "trials_run")
RAYS = ("quadratics", "rays", "trials_run")
RAYS_HOLD = ("quadratics", "rays", "strict", "trials_run")
ZERO_CONVENTION = ("holds", "zero polynomial convention", 0, None,
                   ("trials_run",), None)
LINE = ("note", "trials_run")
BOUNDARY = ("boundary_note", "boundary_violations", "note", "trials_run")


def tallies(nonsingular, singular):
    return {"nonsingular_irreducible": nonsingular,
            "singular_nonnegative": singular}


# No input reaches the Hessian note "nonsingular Hessian is not
# K-irreducible", nor an indeterminate K-positivity of (I + H)^(n-1): on
# the orthant and the second-order cone a K-nonnegative nonsingular
# symmetric matrix with one positive eigenvalue is K-irreducible.  The
# Perron property of such a Hessian is the generalized Perron-Frobenius
# theorem, which the check relies on and which
# test_irreducible_hessians_have_the_perron_property re-checks.  A zero
# direction in strict mode is pinned by substituting sample_cone.
#
# name, (check, form, cone, strict), (status, note, trials_run, witness keys,
# detail keys, tallies); every check runs 8 trials at seed 0.  A dict
# witness is pinned by its sorted keys, a tuple witness by its tag.
BRANCHES = [
    # lorentzian_sample_check: degree <= 1 is nonnegativity on K
    ("lorentzian/linear/orthant", (LOR, LINEAR, O2, False),
     ("holds", None, None, "ray", ("degenerate_degree",), None)),
    ("lorentzian/linear-mixed/orthant", (LOR, LINEAR_MIXED, O2, False),
     ("fails", None, None, "ray", ("degenerate_degree",), None)),
    ("lorentzian/linear/soc", (LOR, LINEAR, Cone.second_order(2), False),
     ("holds-sampled", None, None, "point", ("degenerate_degree",), None)),
    # ... the zero form holds by convention at every degree and cone
    ("lorentzian/zero/orthant", (LOR, ZERO, O2, False), ZERO_CONVENTION),
    ("lorentzian/zero/soc", (LOR, ZERO, Cone.second_order(2), False),
     ZERO_CONVENTION),
    # ... degree 2 is the quadratic check
    ("lorentzian/sum-sq/orthant", (LOR, SUM_SQ, O2, False),
     ("fails", "more than one positive eigenvalue", None,
      "positive-eigenvalues", ("eigenvalues",), None)),
    ("lorentzian/neg-def/orthant", (LOR, NEG_DEF, O2, False),
     ("fails", None, None, "positive-eigenvalues", ("eigenvalues",), None)),
    ("lorentzian/neg-sq/orthant", (LOR, NEG_SQ, O2, False),
     ("unknown", None, None, "positive-eigenvalues", ("eigenvalues",), None)),
    ("lorentzian/diff-sq/orthant", (LOR, DIFF_SQ, O2, False),
     ("fails", None, None, "ray-pair", QUAD, None)),
    ("lorentzian/e2/orthant", (LOR, E2, O3, False),
     ("holds", None, None, None, QUAD, None)),
    ("lorentzian/diff-sq/soc", (LOR, DIFF_SQ, Cone.second_order(2), False),
     ("holds-sampled", "eigenvalue(s) inside the zero band treated as zero",
      None, None, QUAD, None)),
    ("lorentzian/lorentz4/soc", (LOR, LORENTZ_4, Cone.second_order(4), False),
     ("holds-sampled", None, None, None, QUAD, None)),
    # ... from degree 3 an exact form off the second-order cone is
    # decided over the extreme rays
    ("lorentzian/cubic/orthant", (LOR, CUBIC, O2, False),
     ("fails", "f o G has a negative coefficient", 0, "coefficient", RAYS,
      None)),
    ("lorentzian/diag-cubic/orthant", (LOR, DIAG_CUBIC, O2, False),
     ("fails", "the support of f o G is not M-convex", 0, "exchange", RAYS,
      None)),
    ("lorentzian/pyramid-cubic/pyramid", (LOR, PYRAMID_CUBIC, PYRAMID, False),
     ("fails", "a (d-2)-nd partial of f o G has more than one positive "
      "eigenvalue", 0, "alpha-positive-eigenvalues", RAYS, None)),
    ("lorentzian/cube2/orthant", (LOR, CUBE_2, O2, False),
     ("holds", "f o G is Lorentzian (Branden-Huh, Thm 2.25)", 0, None,
      RAYS_HOLD, None)),
    # ... and any other form samples reductions
    ("lorentzian/cubic-float/orthant", (LOR, CUBIC_FLOAT, O2, False),
     ("fails", None, 1, ("directions", "inner"),
      ("inner_details", "trials_run"), None)),
    ("lorentzian/tiny/orthant", (LOR, TINY, O2, False),
     ("unknown", "8/8 reductions indeterminate", 8, None, ("trials_run",),
      None)),
    ("lorentzian/cube2-float/orthant", (LOR, CUBE_2_FLOAT, O2, False),
     ("holds-sampled", NONE_FOUND, 8, None, ("trials_run",), None)),
    ("lorentzian/cube2/soc", (LOR, CUBE_2, Cone.second_order(2), False),
     ("holds-sampled", NONE_FOUND, 8, None, ("trials_run",), None)),
    # clc_necessary_check
    ("clc/cubic/orthant", (CLC, CUBIC, O2, False),
     ("fails", None, 1, HIT, ("trials_run",), None)),
    ("clc/tiny/orthant", (CLC, TINY, O2, False),
     ("unknown", "8/8 lines indeterminate", 8, None, LINE, None)),
    ("clc/cube2/orthant", (CLC, CUBE_2, O2, False),
     ("holds-sampled", NONE_FOUND, 8, None, LINE, None)),
    ("clc/cubic/orthant/strict", (CLC, CUBIC, O2, True),
     ("fails", None, 3, HIT, ("trials_run",), None)),
    ("clc/tiny/orthant/strict", (CLC, TINY, O2, True),
     ("unknown", "2/8 lines indeterminate", 8, None, BOUNDARY, None)),
    ("clc/e3-4/orthant/strict", (CLC, E3_4, Cone.orthant(4), True),
     ("holds-sampled", NONE_FOUND, 8, None, BOUNDARY, None)),
    ("clc/cube2/orthant/strict", (CLC, CUBE_2, O2, True),
     ("holds-sampled", NONE_FOUND, 8, None, LINE, None)),
    # hessian_signature_check: the zero form holds by convention
    ("hessian/zero/orthant", (HES, ZERO, O2, False), ZERO_CONVENTION),
    ("hessian/diag-cubic/orthant", (HES, DIAG_CUBIC, O2, False),
     ("fails", None, 1, ("eigenvalues", "point", "positive_count"), TALLY,
      tallies(0, 0))),
    ("hessian/neg-def/orthant", (HES, NEG_DEF, O2, False),
     ("fails", None, 1, ("eigenvalues", "point", "positive_count"), TALLY,
      tallies(0, 0))),
    ("hessian/diff-sq/orthant", (HES, DIFF_SQ, O2, False),
     ("fails", "singular Hessian is not K-nonnegative", 1, ("inner", "point"),
      TALLY, tallies(0, 0))),
    ("hessian/cubic/orthant", (HES, CUBIC, O2, False),
     ("fails", "nonsingular Hessian is not K-nonnegative", 1,
      ("inner", "point"), TALLY, tallies(0, 0))),
    # no positive eigenvalue, one in the zero band
    ("hessian/neg-sq/orthant", (HES, NEG_SQ, O2, False),
     ("unknown", "8/8 points indeterminate", 8, None, TALLY, tallies(0, 0))),
    # nonsingular, K-nonnegativity unknown: the branch is undecided
    ("hessian/kn-band/orthant", (HES, KN_BAND, O2, False),
     ("unknown", "8/8 points indeterminate", 8, None, TALLY, tallies(0, 0))),
    # singular and K-nonnegative, decided exactly at int points
    ("hessian/sq-x3/orthant", (HES, SQ_X3, O3, False),
     ("holds-sampled", NONE_FOUND, 8, None, TALLY, tallies(0, 8))),
    ("hessian/cube2/orthant", (HES, CUBE_2, O2, False),
     ("holds-sampled", NONE_FOUND, 8, None, TALLY, tallies(0, 8))),
    ("hessian/e2/orthant", (HES, E2, O3, False),
     ("holds-sampled", NONE_FOUND, 8, None, TALLY, tallies(8, 0))),
    ("hessian/lorentz4/soc", (HES, LORENTZ_4, Cone.second_order(4), False),
     ("holds-sampled", NONE_FOUND, 8, None, TALLY, tallies(8, 0))),
    # not self-dual: the signature alone
    ("hessian/cube3/wedge", (HES, CUBE_3, WEDGE_3, False),
     ("holds-sampled", NONE_FOUND, 8, None, TALLY, tallies(0, 0))),
    # hurwitz_over_cone_check
    ("hurwitz/cubic/orthant", (HUR, CUBIC, O2, False),
     ("fails", None, 1, HIT, ("trials_run",), None)),
    ("hurwitz/tiny/orthant", (HUR, TINY, O2, False),
     ("unknown", "8/8 lines indeterminate", 8, None, ("trials_run",), None)),
    # every restriction of the zero form is zero
    ("hurwitz/zero/orthant", (HUR, ZERO, O2, False),
     ("not-applicable", "every restriction of the zero form is 0", 0, None,
      ("trials_run",), None)),
    ("hurwitz/cube2/orthant", (HUR, CUBE_2, O2, False),
     ("holds-sampled", NONE_FOUND, 8, None, ("trials_run",), None)),
]


# the self-dual Hessian rows that tally nonsingular, K-irreducible points
IRREDUCIBLE_HESSIANS = [c for c in BRANCHES
                        if c[1][0] == HES and c[1][2].is_self_dual
                        and (c[2][5] or {}).get("nonsingular_irreducible")]


class TestFormCheckBranches:
    """One row per branch of the four sampled form checks that an input
    can reach."""

    @pytest.mark.parametrize("case, expected", [c[1:] for c in BRANCHES],
                             ids=[c[0] for c in BRANCHES])
    def test_branch(self, case, expected):
        check, f, K, strict = case
        kwargs = {"strict": True} if strict else {}
        rep = getattr(forms, check)(f, K, trials=8, seed=0, **kwargs)
        w = rep.verdict.witness
        witness = (tuple(sorted(w)) if isinstance(w, dict)
                   else w[0] if isinstance(w, tuple) else w)
        got = (rep.verdict.status, rep.verdict.note,
               rep.details.get("trials_run"), witness,
               tuple(sorted(rep.details)), rep.details.get("tallies"))
        assert got == expected

    @pytest.mark.parametrize("case", [c[1] for c in IRREDUCIBLE_HESSIANS],
                             ids=[c[0] for c in IRREDUCIBLE_HESSIANS])
    def test_irreducible_hessians_have_the_perron_property(self, case):
        # the float spectral oracle agrees with the theorem at every point
        # the check tallied as nonsingular and K-irreducible
        _, f, K, _ = case
        rng = cones._rng(0)
        for _ in range(8):
            H = f.hessian_at(cones.sample_interior(K, rng))
            perron = cones.perron_report(H, K)
            assert perron.rho_positive and perron.simple
            assert perron.eigenvector_interior

    def test_refuted_reduction_carries_the_dichotomy(self):
        rep = lorentzian_sample_check(CUBIC_FLOAT, O2, trials=8, seed=0)
        assert tuple(sorted(rep.details["inner_details"])) == QUAD
        assert (rep.details["inner_details"]["dichotomy"].note
                == "not K-nonnegative")

    def test_strict_zero_direction_is_skipped(self, monkeypatch):
        # sample_cone never draws the zero vector; a zero direction counts
        # neither as a refutation nor as indeterminate.  Each trial draws
        # its point x, then its direction v, from one generator.
        calls = itertools.count()
        monkeypatch.setattr(
            forms, "sample_cone",
            lambda K, rng: (0,) * K.n if next(calls) % 2 else (1,) * K.n)
        rep = clc_necessary_check(CUBIC, O2, trials=8, seed=0, strict=True)
        assert rep.verdict.status == "holds-sampled"
        assert rep.details == {
            "trials_run": 8,
            "note": "boundary coverage is sampled and incomplete"}


def product_of_linear_forms(rows):
    """The form prod_r (sum_i rows[r][i] x_i)."""
    n = len(rows[0])
    terms = {(0,) * n: 1}
    for row in rows:
        nxt = {}
        for exp, c in terms.items():
            for i, a in enumerate(row):
                e = list(exp)
                e[i] += 1
                nxt[tuple(e)] = nxt.get(tuple(e), 0) + c * a
        terms = nxt
    return MultiForm(n, len(rows), terms)


def form_checks(f, K, trials, seed):
    """Every check ``conestab form`` runs, by its report name."""
    checks = {"lorentzian_sampled": lorentzian_sample_check(
        f, K, trials=trials, seed=seed),
        "clc_necessary": clc_necessary_check(f, K, trials=trials, seed=seed)}
    if f.d >= 2:
        checks["hessian_signature"] = hessian_signature_check(
            f, K, trials=trials, seed=seed)
    if f.d >= 1:
        checks["hurwitz_over_cone"] = hurwitz_over_cone_check(
            f, K, trials=trials, seed=seed)
    return checks


@st.composite
def positive_linear_products(draw):
    """A product of 2..4 linear forms in 2..4 variables with positive int
    coefficients."""
    n = draw(st.integers(2, 4))
    row = st.lists(st.integers(1, 5), min_size=n, max_size=n)
    return product_of_linear_forms(draw(st.lists(row, min_size=2,
                                                 max_size=4)))


@st.composite
def orthants(draw, n):
    """The orthant of R^n, as identity cone data or as the polyhedral cone
    of the basis and up to three redundant 0/1 generators."""
    extra = draw(st.lists(st.lists(st.integers(0, 1), min_size=n,
                                   max_size=n).filter(any), max_size=3))
    if not extra:
        return Cone.orthant(n)
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    return Cone.polyhedral(basis + extra)


@st.composite
def small_forms(draw, n):
    d = draw(st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        e = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), min_size=d,
                               max_size=d)):
            e[i] += 1
        terms[tuple(e)] = draw(st.integers(-3, 3))
    return MultiForm(n, d, terms)


@st.composite
def forms_and_cones(draw):
    n = draw(st.integers(2, 3))
    cones_of_n = [Cone.orthant(n), Cone.second_order(n),
                  WEDGE_3 if n == 3 else Cone.polyhedral([(1, 0), (1, 2)])]
    return draw(small_forms(n)), draw(st.sampled_from(cones_of_n))


def positive_count(M):
    """The number of eigenvalues of the symmetric M above a relative zero
    band, by numpy's symmetric eigensolver, or None when none is above
    and one is inside it."""
    vals = np.linalg.eigvalsh(np.array([[float(v) for v in r] for r in M]))
    band = 1e-7 * max(1.0, max(abs(vals)))
    pos = int(sum(vals > band))
    return None if pos == 0 and max(vals) >= -band else pos


def inertia_positive_count(M):
    """The number of positive eigenvalues of the exact symmetric M, by
    Sylvester's law of inertia: symmetric elimination over Fractions, which
    keeps the inertia.  A nonzero diagonal entry p is a pivot (one
    eigenvalue of the sign of p) and leaves its Schur complement; with a
    zero diagonal, a nonzero entry (i, j) is first moved onto the
    diagonal by adding row and column j to row and column i, a
    congruence that makes (i, i) = 2 M_ij.  No characteristic polynomial
    is formed."""
    A = [[Fraction(v) for v in r] for r in M]
    pos = 0
    while A:
        n = len(A)
        p = next((k for k in range(n) if A[k][k] != 0), None)
        if p is None:
            ij = next(((i, j) for i in range(n) for j in range(n)
                       if A[i][j] != 0), None)
            if ij is None:  # the zero matrix
                return pos
            i, j = ij
            for r in A:
                r[i] += r[j]
            A[i] = [a + b for a, b in zip(A[i], A[j])]
            p = i
        pivot = A[p][p]
        pos += pivot > 0
        A = [[A[i][j] - A[i][p] * A[p][j] / pivot for j in range(n) if j != p]
             for i in range(n) if i != p]
    return pos


def exact_positive_count(M):
    """positive_count, counted exactly by inertia_positive_count when every
    entry of M is exact: a small positive eigenvalue of a large exact
    matrix may fall inside the float band."""
    if all(isinstance(v, (int, Fraction)) for r in M for v in r):
        return inertia_positive_count(M)
    return positive_count(M)


def image_outside(K, y):
    """y is outside the self-dual cone K."""
    if K.kind == "second_order":
        return y[-1] < 0 or y[-1] ** 2 < sum(c * c for c in y[:-1])
    return min(y) < 0


def ray_derivative(f, K, beta):
    """D_{g_1}^{beta_1} ... D_{g_m}^{beta_m} f over the extreme rays g_j of
    K: the form d^beta (f o G) o G^-1, by MultiForm.dir_derivative.  Its
    degree is d - |beta|; at |beta| = d it is the constant beta! c_beta of
    the coefficient c_beta of f o G."""
    for g, b in zip(cones.extreme_ray_reps(K), beta):
        for _ in range(b):
            f = f.dir_derivative(g)
    return f


def reverify_over_rays(f, K, w):
    """Re-derive a witness of the exact decision over the extreme rays by
    ray_derivative, and an eigenvalue count by inertia_positive_count."""
    def coefficient(beta):  # beta! c_beta
        return ray_derivative(f, K, beta).eval((0,) * f.n)

    if w[0] == "coefficient":
        beta, c = w[1:]
        assert c < 0 and coefficient(beta) == c * math.prod(
            map(math.factorial, beta))
    elif w[0] == "exchange":
        alpha, beta, i = w[1:]
        assert coefficient(alpha) != 0 and coefficient(beta) != 0
        assert alpha[i] > beta[i]
        for j in range(len(alpha)):
            if alpha[j] < beta[j]:
                swapped = list(alpha)
                swapped[i] -= 1
                swapped[j] += 1
                assert coefficient(swapped) == 0
    else:
        assert w[0] == "alpha-positive-eigenvalues"
        H = ray_derivative(f, K, w[1]).hessian_at((0,) * f.n).rows
        rays = cones.extreme_ray_reps(K)
        GHG = [[sum(gi[a] * H[a][b] * gj[b] for a in range(f.n)
                    for b in range(f.n)) for gj in rays] for gi in rays]
        assert exact_positive_count(GHG) == w[2]


def reverify(name, f, K, verdict):
    """Re-derive a ``fails`` witness without the code path that found it:
    values by MultiForm.eval and dir_derivative, line restrictions by
    iterated derivatives, and eigenvalue counts by numpy's eigvalsh, or by
    inertia_positive_count on exact matrices."""
    w = verdict.witness
    if name == "lorentzian_sampled":
        if f.d <= 1:
            assert f.eval(w[1]) < 0
            return
        if f.d >= 3 and isinstance(w, tuple):  # decided over the rays
            reverify_over_rays(f, K, w)
            return
        q, inner = f, w
        if f.d >= 3:
            for a in w["directions"]:
                q = q.dir_derivative(a)
            inner = w["inner"]
        if inner[0] == "positive-eigenvalues":
            assert (exact_positive_count(q.hessian_at((0,) * q.n).rows)
                    == inner[1])
        elif inner[0] == "ray-pair":
            gx, gy = inner[1:]
            both = tuple(a + b for a, b in zip(gx, gy))
            assert q.eval(both) - q.eval(gx) - q.eval(gy) < 0
        else:
            assert inner[0] == "interior-point" and q.eval(inner[1]) <= 0
    elif name == "hessian_signature":
        a = w["point"]
        if "positive_count" in w:
            assert (exact_positive_count(f.hessian_at(a).rows)
                    == w["positive_count"])
            return
        assert verdict.note.endswith("not K-nonnegative")
        # the K-nonnegativity witness: a ray of the orthant, or a point of
        # the second-order cone, that H maps out of K; the nonsingular
        # branch wraps it in the K-nonnegativity verdict
        inner = w["inner"]
        x = (inner.witness if isinstance(inner, Verdict) else inner)[1]

        def hx(i):
            e = tuple(int(j == i) for j in range(f.n))
            return f.dir_derivative(x).dir_derivative(e).eval(a)

        assert image_outside(K, [hx(i) for i in range(f.n)])
    else:
        p = restrict_by_derivatives(f, w["x"], w["v"])
        if name == "clc_necessary":
            b = [math.factorial(k) * p.coeff(k) for k in range(f.d + 1)]
            assert (min(b) <= 0 or any(b[k] ** 2 < b[k - 1] * b[k + 1]
                                       for k in range(1, f.d)))
        else:
            coeffs = [float(p.coeff(k)) for k in range(f.d + 1)]
            roots = np.roots(coeffs[::-1])
            scale = max(1.0, max(abs(roots)))
            assert (min(p.coeffs) <= 0
                    or max(r.real for r in roots) > -1e-7 * scale)


class TestFormCheckProperties:
    """Properties of the four form checks over drawn forms and cones."""

    # e_k(n) and products of positive linear forms are Lorentzian
    # (Branden-Huh, arXiv:1902.03719)
    @pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 6)
                                      for k in range(2, n + 1)])
    @seed(0)
    @given(data=st.data(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=6, deadline=None)
    def test_elementary_symmetric_forms_are_never_refuted(self, n, k, data,
                                                          seed):
        f = elementary_symmetric(n, k)
        K = data.draw(orthants(n))
        for name, rep in form_checks(f, K, trials=4, seed=seed).items():
            assert not rep.verdict.is_fails, (name, rep.verdict)

    # strict mode draws its boundary points as ints on these cones, so an
    # exact e_k(n) has no indeterminate line
    @pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 6)
                                      for k in range(2, n + 1)])
    @pytest.mark.parametrize("redundant", [False, True])
    def test_strict_clc_of_elementary_symmetric_forms_holds(self, n, k,
                                                            redundant):
        K = Cone.orthant(n)
        if redundant:
            K = Cone.polyhedral([*K.generators, (1,) * n,
                                 (1, 1) + (0,) * (n - 2)])
        for seed in range(5):
            rep = clc_necessary_check(elementary_symmetric(n, k), K,
                                      trials=100, seed=seed, strict=True)
            assert rep.verdict.status == "holds-sampled", (seed, rep.verdict)

    @seed(0)
    @given(positive_linear_products(), st.data(), st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_positive_linear_products_are_never_refuted(self, f, data, seed):
        K = data.draw(orthants(f.n))
        for name, rep in form_checks(f, K, trials=4, seed=seed).items():
            assert not rep.verdict.is_fails, (name, rep.verdict)

    @seed(0)
    @given(forms_and_cones(), st.integers(0, 2 ** 16))
    @settings(max_examples=150, deadline=None)
    def test_every_refutation_reverifies(self, case, seed):
        f, K = case
        reports = form_checks(f, K, trials=4, seed=seed)
        if "rays" in reports["lorentzian_sampled"].details:
            # decided over the extreme rays; the sampled reductions still
            # serve float forms on this cone
            reports["sampled_reductions"] = forms._sampled_reductions(
                f, K, 4, seed, DEFAULT_TOL)
        for name, rep in reports.items():
            if rep.verdict.is_fails:
                reverify("lorentzian_sampled" if name == "sampled_reductions"
                         else name, f, K, rep.verdict)

    @seed(0)
    @given(forms_and_cones(), st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_an_unknown_inner_verdict_never_refutes(self, case, seed):
        f, K = case
        undecided = Verdict(UNKNOWN)

        def undecided_quadratic(Q2, *args):
            return forms.FormReport("quadratic-lorentzian", undecided), 0

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forms, "matrix_k_nonnegative",
                       lambda *args, **kwargs: undecided)
            mp.setattr(forms, "is_log_concave",
                       lambda *args, **kwargs: undecided)
            mp.setattr(hurwitz, "routh_hurwitz_stable",
                       lambda *args, **kwargs: undecided)
            mp.setattr(forms, "_quadratic_verdict", undecided_quadratic)
            checks = form_checks(f, K, trials=4, seed=seed)
            if f.d == 2 and K.is_self_dual and not f.is_zero:
                details = checks["lorentzian_sampled"].details
                assert not details["dichotomy"].is_fails
            decided = "rays" in checks["lorentzian_sampled"].details
            if decided:
                # the sampled reductions still serve float forms on this
                # cone
                checks["sampled_reductions"] = forms._sampled_reductions(
                    f, K, 4, seed, DEFAULT_TOL)
        for name, rep in checks.items():
            if name == "lorentzian_sampled" and (f.d <= 1 or decided):
                # nonnegativity on K, and the exact decision over the
                # extreme rays of an int form, rest on no inner verdict
                continue
            if name == "hessian_signature" and rep.verdict.is_fails:
                # the eigenvalue count itself refutes
                assert "positive_count" in rep.verdict.witness
                continue
            assert not rep.verdict.is_fails, (name, rep.verdict)

    def test_undecided_k_nonnegativity_leaves_the_dichotomy_undecided(self):
        Q = SquareMatrix.from_rows([[0, 1], [1, -1e-12]])
        rep = quadratic_lorentzian_check(Q, O2)
        assert rep.details["k_nonnegative"].is_unknown
        assert rep.details["dichotomy"].status == "unknown"
        assert rep.details["dichotomy"].note == "K-nonnegativity undecided"


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
        # the line x=(1,1), v=(1,2) reproduces the unstable quintic exactly
        from conestab import routh_hurwitz_stable
        a = (5, 14, Fraction(25, 2), Fraction(36, 5), 3, 1)
        g = form_through_line(a)
        anchor = restrict_line(g, (1, 1), (1, 2))
        assert anchor.coeffs == a
        assert routh_hurwitz_stable(anchor).status == "fails"
        rep = hurwitz_over_cone_check(g, Cone.orthant(2), trials=100, seed=9)
        assert rep.verdict.status == "fails"
        assert "x" in rep.verdict.witness and "v" in rep.verdict.witness


class TestQuadraticMatrixExtraction:
    def test_round_trip_with_evaluation(self, rng):
        # f(x) = x^T Q x for a symmetric Q has the constant Hessian 2Q
        for _ in range(30):
            n = rng.randint(2, 4)
            Q = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    Q[i][j] = Q[j][i] = Fraction(rng.randint(-5, 5),
                                                 rng.randint(1, 3))
            terms = {}
            for i in range(n):
                for j in range(n):
                    e = [0] * n
                    e[i] += 1
                    e[j] += 1
                    terms[tuple(e)] = terms.get(tuple(e), 0) + Q[i][j]
            f = MultiForm(n, 2, terms)
            x = [rng.randint(-3, 3) for _ in range(n)]
            assert f.eval(x) == sum(x[i] * Q[i][j] * x[j]
                                    for i in range(n) for j in range(n))
            assert f.hessian_at((0,) * n).rows == tuple(
                tuple(2 * q for q in row) for row in Q)


def restrict_by_binomials(f, x, v) -> tuple:
    """The oracle of ``restrict_line``: every factor (x_i + t v_i)^e as its
    binomial terms C(e, j) x_i^(e-j) v_i^j, multiplied in by ``_conv``."""
    coeffs = [0] * (f.d + 1)
    for exp, c in f.terms.items():
        poly = [c]
        for xi, vi, e in zip(x, v, exp):
            if e == 0:
                continue
            factor = [math.comb(e, j) * xi ** (e - j) * vi ** j
                      for j in range(e + 1)]
            poly = forms._conv(poly, factor)
        for k, val in enumerate(poly):
            coeffs[k] = coeffs[k] + val
    return UniPoly(tuple(coeffs)).coeffs


def bits(values) -> list:
    """Each value's type and value, a float's as its hex (signed zeros
    differ, and every nan is alike)."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


MIXED_COORDS = st.one_of(EXACT_COORDS, FLOAT_COORDS,
                         st.sampled_from([0.0, -0.0, 0.25, Fraction(1, 2)]))


class TestRestrictLineLinearFactors:
    """Linear factors multiply the product in place; every coefficient
    keeps the value and type of the binomial loop."""

    def test_float_direction_makes_the_constant_term_a_float(self):
        # x1^2 + 3 x1 x2 at x = (1/2, 1), v = (1, 0.25): the factor of x2 is
        # 1 * 0.25^0 = 1.0, so the constant term is 1.75, not 7/4
        f = MultiForm(2, 2, {(2, 0): 1, (1, 1): 3})
        x, v = (Fraction(1, 2), 1), (1, 0.25)
        got = restrict_line(f, x, v).coeffs
        assert bits(got) == bits(restrict_by_binomials(f, x, v))
        assert type(got[0]) is float and got[0] == 1.75

    @given(restriction_inputs(MIXED_COORDS))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_binomial_loop(self, case):
        f, x, v = case
        assert (bits(restrict_line(f, x, v).coeffs)
                == bits(restrict_by_binomials(f, x, v)))


def pairing_by_loops(Q2, K, tol, trials, seed) -> Verdict:
    """The oracle of the pairing of ``_quadratic_verdict``: one ``_dot``
    per image Q2 x, and one per value x^T Q2 x or g_y^T Q2 g_x."""
    def dot(u, w):
        return sum(a * b for a, b in zip(u, w))

    def image(x):
        return tuple(dot(r, x) for r in Q2.rows)

    led = InequalityLedger(Tolerance(2 * tol.abs, tol.rel))
    if K.kind == "second_order":
        rng = cones._rng(seed)
        for _ in range(trials):
            x = cones.sample_interior(K, rng)
            led.require(dot(x, image(x)), 0, witness=("interior-point", x),
                        strict=True, scale=2 * sum(abs(c) for c in x) ** 2)
    else:
        reps = cones.extreme_ray_reps(K)
        for gx in reps:
            qx = image(gx)
            for gy in reps:
                val = dot(gy, qx)
                led.require(val, 0, witness=("ray-pair", gx, gy),
                            scale=max(abs(val), 2))
    return led.verdict()


def verdict_bits(v: Verdict) -> tuple:
    m = v.margin
    return (v.status, v.witness, type(m),
            m.hex() if isinstance(m, float) else m)


PAIRING_CONES = [
    Cone.orthant(3),
    # simplicial, with a generator matrix that is not symmetric
    Cone.polyhedral([(1, 0, 0), (1, 2, 0), (Fraction(1, 3), 1, 1)]),
    # (1, 1, 0) and (1, 1, 1) are redundant generators
    Cone.polyhedral([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)]),
    Cone.polyhedral([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
    Cone.second_order(3),
]


@st.composite
def one_positive_eigenvalue(draw):
    """2Q = c (u u^T - B^T B) for int u and B, which has at most one
    positive eigenvalue, times an int, Fraction or float c; some entries
    are then replaced by floats of the same value."""
    u = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    B = draw(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                      min_size=1, max_size=2))
    c = draw(st.sampled_from([1, 2, Fraction(1, 3), 0.5, 1.1, 1e150]))
    rows = [[c * (u[i] * u[j] - sum(b[i] * b[j] for b in B))
             for j in range(3)] for i in range(3)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, 2),
                                        st.integers(0, 2)), max_size=3)):
        rows[i][j] = float(rows[i][j])
    return SquareMatrix.from_rows(rows)


class TestQuadraticPairingProducts:
    """The pairing of ``_quadratic_verdict`` is G Q2 G^T over a polyhedral
    cone and one product over the sampled points of a second-order cone;
    its ledger equals that of the per-ray and per-point loops."""

    @given(st.sampled_from(range(len(PAIRING_CONES))), one_positive_eigenvalue(),
           st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_pairing_matches_the_loops(self, k, Q2, seed):
        K = PAIRING_CONES[k]
        report, band = forms._quadratic_verdict(Q2, K, DEFAULT_TOL, 8, seed)
        if band is None:  # decided by the eigenvalue count alone
            assert "pairing" not in report.details
            return
        assert (verdict_bits(report.details["pairing"])
                == verdict_bits(pairing_by_loops(Q2, K, DEFAULT_TOL, 8, seed)))

    def test_simplicial_pairing_is_g_q_g_transpose(self):
        # e2(3) over a simplicial cone whose generator matrix is not
        # symmetric: every ray pair pairs positively, with the rays' order
        Q2 = SquareMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        K = PAIRING_CONES[1]
        report, band = forms._quadratic_verdict(Q2, K, DEFAULT_TOL, 8, 0)
        assert band == 0
        assert (verdict_bits(report.details["pairing"])
                == verdict_bits(pairing_by_loops(Q2, K, DEFAULT_TOL, 8, 0)))


def count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


QUADRATICS = {
    "e2_3": elementary_symmetric(3, 2),
    "e2_3_float": MultiForm(3, 2, {e: 0.5 for e in
                                   elementary_symmetric(3, 2).terms}),
    "sum_of_squares": MultiForm(3, 2, {(2, 0, 0): 1, (0, 2, 0): 1,
                                       (0, 0, 2): 1}),
    # (x1 + x2 + x3)^2: a singular Hessian
    "square_of_sum": power_of_sum(3, 2),
}


class TestQuadraticHessianOnce:
    """A quadratic's Hessian and its eigenvalues are computed at the first
    trial, and off the second-order cone so is its dichotomy's sign
    decision; the report is that of the per-trial loop."""

    @pytest.mark.parametrize("f, K, sign_decisions", [
        (QUADRATICS["e2_3"], Cone.orthant(3), 1),
        (LORENTZ_4, Cone.second_order(4), 5),
    ], ids=["orthant", "second_order"])
    def test_call_counts(self, monkeypatch, f, K, sign_decisions):
        # every trial passes by sign, so none builds the dichotomy's verdicts
        calls = {"hessian_at": 0, "sym_eigs": 0, "_dichotomy": 0,
                 "_dichotomy_by_sign": 0}
        count_calls(monkeypatch, MultiForm, "hessian_at", calls)
        count_calls(monkeypatch, forms, "sym_eigs", calls)
        count_calls(monkeypatch, forms, "_dichotomy", calls)
        count_calls(monkeypatch, forms, "_dichotomy_by_sign", calls)
        rep = hessian_signature_check(f, K, trials=5, seed=2)
        assert rep.details["tallies"]["nonsingular_irreducible"] == 5
        assert calls == {"hessian_at": 1, "sym_eigs": 1, "_dichotomy": 0,
                         "_dichotomy_by_sign": sign_decisions}

    @pytest.mark.parametrize("name", sorted(QUADRATICS) + ["lorentz_4"])
    @pytest.mark.parametrize("kind", ["orthant", "second_order",
                                      "polyhedral"])
    def test_report_equals_the_per_trial_loop(self, monkeypatch, name, kind):
        f = LORENTZ_4 if name == "lorentz_4" else QUADRATICS[name]
        K = {"orthant": Cone.orthant(f.n),
             "second_order": Cone.second_order(f.n),
             "polyhedral": Cone.polyhedral(
                 [tuple(int(i == j or j == 0) for j in range(f.n))
                  for i in range(f.n)])}[kind]
        once = hessian_signature_check(f, K, trials=6, seed=[4, 1])
        monkeypatch.setattr(forms, "_first_call", lambda fn: fn)
        assert once == hessian_signature_check(f, K, trials=6, seed=[4, 1])


def without_sign_stage(monkeypatch):
    """Every sign rule of the form checks reads "not decided", so each
    trial runs its kernel."""
    for owner, name in ((forms, "_dichotomy_by_sign"),
                        (forms, "_log_concave_by_sign"),
                        (hurwitz, "_routh_by_sign")):
        monkeypatch.setattr(owner, name, lambda *args: False)


SIGN_STAGE_FORMS = {
    "e3_4": E3_4,
    "e3_4_float": MultiForm(4, 3, {e: 1.0 for e in E3_4.terms}),
    "lorentz_4": LORENTZ_4,
    "lorentz_4_float": MultiForm(4, 2, {e: float(c)
                                        for e, c in LORENTZ_4.terms.items()}),
    # refuted on every cone: its first quadratic reduction has more than
    # one positive eigenvalue
    "cubic": MultiForm(4, 3, {(3, 0, 0, 0): 1, (1, 2, 0, 0): -3,
                              (0, 0, 3, 0): 1, (0, 0, 0, 3): 1}),
    "rational": MultiForm(4, 3, {e: Fraction(3, 2) for e in E3_4.terms}),
}
SIGN_STAGE_CONES = {
    "orthant": Cone.orthant(4),
    "polyhedral": Cone.polyhedral([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                                   (0, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 1)]),
    "second_order": Cone.second_order(4),
}


def form_check_reports(f, K) -> list:
    """The reports of the four sampled form checks, clc_necessary in both
    modes, at 8 trials."""
    return [lorentzian_sample_check(f, K, trials=8, seed=[1, 1]),
            clc_necessary_check(f, K, trials=8, seed=[1, 2]),
            clc_necessary_check(f, K, trials=8, seed=[1, 2], strict=True),
            hessian_signature_check(f, K, trials=8, seed=[1, 3]),
            hurwitz_over_cone_check(f, K, trials=8, seed=[1, 4])]


class TestSignStage:
    """A trial on exact data first decides by sign; one that passes builds
    no verdict, and any other runs the kernel, whose verdict the report
    keeps.  So every report equals the report of the kernels alone."""

    @pytest.mark.parametrize("name", sorted(SIGN_STAGE_FORMS))
    @pytest.mark.parametrize("kind", sorted(SIGN_STAGE_CONES))
    def test_reports_equal_those_of_the_kernels(self, monkeypatch, name,
                                                kind):
        f, K = SIGN_STAGE_FORMS[name], SIGN_STAGE_CONES[kind]
        signed = form_check_reports(f, K)
        without_sign_stage(monkeypatch)
        assert signed == form_check_reports(f, K)

    def test_exact_refutations_follow_passing_trials(self):
        # refutations after the first trial, whose earlier trials passed
        # by sign, so the equality above covers both stages in one report
        late = {rep.check
                for name, f in SIGN_STAGE_FORMS.items() if f.is_exact
                for K in SIGN_STAGE_CONES.values()
                for rep in form_check_reports(f, K)
                if rep.verdict.is_fails and rep.details.get("trials_run", 1) > 1}
        assert late == {"clc-necessary", "hurwitz-over-cone"}
