import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from conestab import cli, cones, forms, hurwitz
from conestab import (Cone, DimensionMismatch, MultiForm, SquareMatrix,
                      UniPoly, clc_necessary_check, hessian_signature_check,
                      hurwitz_over_cone_check, is_log_concave,
                      lorentzian_sample_check, quadratic_lorentzian_check,
                      quadratic_matrix, restrict_line, sym_eigs,
                      verify_sum_condition)
from conestab.numerics import exact_div
from conestab.verdict import UNKNOWN, Verdict

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


E3_4 = elementary_symmetric(4, 3)
# x1^3 - 3 x1 x2^2, refuted at its first reduction over the orthant
CUBIC = MultiForm(2, 3, {(3, 0): 1, (1, 2): -3})
LORENTZ_4 = MultiForm(4, 2, {(2, 0, 0, 0): -1, (0, 2, 0, 0): -1,
                             (0, 0, 2, 0): -1, (0, 0, 0, 2): 1})


class TestFormChecksComputeOnlyWhatTheyReport:
    @pytest.mark.parametrize("f, expected", [
        (E3_4, {"matrix_k_nonnegative": 0, "matrix_k_positive": 0}),
        # the refuted reduction's report carries K-nonnegativity, which
        # fails, so irreducibility is not asked
        (CUBIC, {"matrix_k_nonnegative": 1, "matrix_k_positive": 0}),
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
# x1 x2 - x2^2 / 2e12: a nonsingular Hessian with one positive eigenvalue
# whose K-nonnegativity is undecided on its float band entry -1e-12
KN_BAND = MultiForm(2, 2, {(1, 1): 1, (0, 2): -0.5e-12})
E2 = elementary_symmetric_2()
CUBE_2, CUBE_3 = power_of_sum(2, 3), power_of_sum(3, 3)

LOR, CLC = "lorentzian_sample_check", "clc_necessary_check"
HES, HUR = "hessian_signature_check", "hurwitz_over_cone_check"
NONE_FOUND = "refutation sampled, none found"
QUAD = ("dichotomy", "dichotomy_branch", "eigenvalues", "k_nonnegative",
        "pairing", "singular")
HIT = ("inner", "v", "x")
TALLY = ("tallies", "trials_run")
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
    # ... degree >= 3 samples reductions
    ("lorentzian/cubic/orthant", (LOR, CUBIC, O2, False),
     ("fails", None, 1, ("directions", "inner"),
      ("inner_details", "trials_run"), None)),
    ("lorentzian/tiny/orthant", (LOR, TINY, O2, False),
     ("unknown", "8/8 reductions indeterminate", 8, None, ("trials_run",),
      None)),
    ("lorentzian/cube2/orthant", (LOR, CUBE_2, O2, False),
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
    # hessian_signature_check
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
     ("unknown", "8/8 lines indeterminate", 8, None, ("trials_run",), None)),
    ("hurwitz/cube2/orthant", (HUR, CUBE_2, O2, False),
     ("holds-sampled", NONE_FOUND, 8, None, ("trials_run",), None)),
]


# the self-dual Hessian rows that tally nonsingular, K-irreducible points
IRREDUCIBLE_HESSIANS = [c for c in BRANCHES
                        if c[1][0] == HES and c[1][2].is_self_dual
                        and c[2][5]["nonsingular_irreducible"]]


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
        rep = lorentzian_sample_check(CUBIC, O2, trials=8, seed=0)
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


def image_outside(K, y):
    """y is outside the self-dual cone K."""
    if K.kind == "second_order":
        return y[-1] < 0 or y[-1] ** 2 < sum(c * c for c in y[:-1])
    return min(y) < 0


def reverify(name, f, K, verdict):
    """Re-derive a ``fails`` witness without the code path that found it:
    values by MultiForm.eval and dir_derivative, line restrictions by
    iterated derivatives, and eigenvalue counts by numpy's eigvalsh."""
    w = verdict.witness
    if name == "lorentzian_sampled":
        if f.d <= 1:
            assert f.eval(w[1]) < 0
            return
        q, inner = f, w
        if f.d >= 3:
            for a in w["directions"]:
                q = q.dir_derivative(a)
            inner = w["inner"]
        if inner[0] == "positive-eigenvalues":
            assert positive_count(q.hessian_at((0,) * q.n).rows) == inner[1]
        elif inner[0] == "ray-pair":
            gx, gy = inner[1:]
            both = tuple(a + b for a, b in zip(gx, gy))
            assert q.eval(both) - q.eval(gx) - q.eval(gy) < 0
        else:
            assert inner[0] == "interior-point" and q.eval(inner[1]) <= 0
    elif name == "hessian_signature":
        a = w["point"]
        if "positive_count" in w:
            assert positive_count(f.hessian_at(a).rows) == w["positive_count"]
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

    @given(positive_linear_products(), st.data(), st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_positive_linear_products_are_never_refuted(self, f, data, seed):
        K = data.draw(orthants(f.n))
        for name, rep in form_checks(f, K, trials=4, seed=seed).items():
            assert not rep.verdict.is_fails, (name, rep.verdict)

    @given(forms_and_cones(), st.integers(0, 2 ** 16))
    @settings(max_examples=150, deadline=None)
    def test_every_refutation_reverifies(self, case, seed):
        f, K = case
        for name, rep in form_checks(f, K, trials=4, seed=seed).items():
            if rep.verdict.is_fails:
                reverify(name, f, K, rep.verdict)

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
            if f.d == 2 and K.is_self_dual:
                details = checks["lorentzian_sampled"].details
                assert not details["dichotomy"].is_fails
        for name, rep in checks.items():
            if name == "lorentzian_sampled" and f.d <= 1:
                continue  # nonnegativity on K rests on no inner verdict
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

    @pytest.mark.parametrize("coef,expected", [
        (1.0 + 1e-12, True),  # float forms agree within the tolerance
        (1.1, False),  # float forms differ beyond it
        (1 + Fraction(1, 10 ** 12), False),  # exact forms decide exactly
    ])
    def test_coefficient_comparison(self, coef, expected):
        # D_{e2}(x1^2 + x1 x2) = x1 against D_{e2}(coef x1 x2) = coef x1
        one = 1.0 if isinstance(coef, float) else 1
        f = MultiForm(2, 2, {(2, 0): one, (1, 1): one})
        g = MultiForm(2, 2, {(1, 1): coef})
        assert verify_sum_condition(f, g, (0, 1), (0, 1)) is expected


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
