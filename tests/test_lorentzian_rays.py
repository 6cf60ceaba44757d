"""The exact Lorentzian decision over extreme rays: from degree 3, an exact
form over the orthant or a polyhedral cone K is K-Lorentzian iff f o G is
Lorentzian on the orthant, G the matrix of the extreme rays, which
Branden-Huh's three tests decide (README, "Exact Lorentzian decisions")."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conestab import Cone, MultiForm, forms, lorentzian_sample_check
from conestab.cli import RunConfig, cmd_form
from conestab.numerics import DEFAULT_TOL, inertia

from test_forms import (elementary_symmetric, inertia_positive_count,
                        power_of_sum, positive_count, product_of_linear_forms,
                        reverify_over_rays)

PYRAMID = Cone.polyhedral([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)])
# inside the orthant, so every e_k is Lorentzian on it
SIMPLICIAL = Cone.polyhedral([(1, 0, 0), (1, 1, 0), (1, 1, 1)])
CONES = {"orthant": Cone.orthant(3), "simplicial": SIMPLICIAL,
         "pyramid": PYRAMID}


def decide(f, K):
    rep = lorentzian_sample_check(f, K, trials=8, seed=0)
    assert rep.details["trials_run"] == 0
    return rep


class TestWitnesses:
    """Fixed inputs, one per witness kind, each re-derived from the input
    alone."""

    def test_negative_coefficient(self):
        f = MultiForm(2, 3, {(3, 0): 1, (1, 2): -3})  # x1^3 - 3 x1 x2^2
        rep = decide(f, Cone.orthant(2))
        assert rep.verdict.status == "fails"
        assert rep.verdict.witness == ("coefficient", (1, 2), -3)
        assert rep.details == {"rays": 2, "quadratics": 0, "trials_run": 0}
        reverify_over_rays(f, Cone.orthant(2), rep.verdict.witness)

    def test_support_without_the_exchange_property(self):
        # x1^3 + x2^3: leaving (0, 3) for (3, 0) through x2 needs (1, 2)
        f = MultiForm(2, 3, {(3, 0): 1, (0, 3): 1})
        rep = decide(f, Cone.orthant(2))
        assert rep.verdict.status == "fails"
        assert rep.verdict.witness == ("exchange", (0, 3), (3, 0), 1)
        reverify_over_rays(f, Cone.orthant(2), rep.verdict.witness)

    def test_two_positive_eigenvalues_over_the_pyramid(self):
        # 3 x3^3 + x1^2 x3 has nonnegative coefficients and an M-convex
        # support over the pyramid's rays, but d/dy_3 of f o G (the ray
        # (1, 0, 1)) has two positive eigenvalues
        f = MultiForm(3, 3, {(0, 0, 3): 3, (2, 0, 1): 1})
        rep = decide(f, PYRAMID)
        assert rep.verdict.status == "fails"
        assert rep.verdict.witness == ("alpha-positive-eigenvalues",
                                       (0, 0, 0, 1), 2)
        # the first alpha in order refutes
        assert rep.details == {"rays": 4, "quadratics": 1, "trials_run": 0}
        reverify_over_rays(f, PYRAMID, rep.verdict.witness)

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(3, 6)
                                      for k in range(3, n + 1)])
    def test_elementary_symmetric_forms_hold(self, n, k):
        rep = decide(elementary_symmetric(n, k), Cone.orthant(n))
        assert rep.verdict.status == "holds"
        assert rep.verdict.note == ("f o G is Lorentzian (Branden-Huh, "
                                    "Thm 2.25)")
        # one quadratic per (k-2)-subset: d^alpha e_k is e_2 of the rest;
        # no x_i^k term, so not strict
        assert rep.details == {"rays": n, "quadratics": math.comb(n, k - 2),
                               "trials_run": 0, "strict": False}

    @pytest.mark.parametrize("name", sorted(CONES))
    def test_products_of_dual_interior_linear_forms_hold(self, name):
        K = CONES[name]
        rows = [dual_interior(K, c) for c in ([1, 1, 1, 1], [3, 1, 2, 1],
                                              [1, 2, 1, 4])]
        rep = decide(product_of_linear_forms(rows), K)
        assert rep.verdict.status == "holds"

    def test_rational_coefficients_are_decided(self):
        f = power_of_sum(3, 4).scale(Fraction(2, 3))
        assert decide(f, PYRAMID).verdict.status == "holds"

    def test_float_and_second_order_inputs_are_sampled(self):
        f = elementary_symmetric(3, 3)
        for g, K in ((f.scale(1.0), Cone.orthant(3)),
                     (f, Cone.second_order(3))):
            rep = lorentzian_sample_check(g, K, trials=8, seed=0)
            assert "rays" not in rep.details and rep.details["trials_run"]

    def test_forms_past_the_monomial_bound_are_sampled(self):
        # over R^5_+, f o G = f has at most C(9, 5) = 126 monomials at
        # d = 5 and C(10, 6) = 210 at d = 6
        assert forms.EXACT_MONOMIALS_MAX == 200
        rep = decide(power_of_sum(5, 5), Cone.orthant(5))
        assert rep.verdict.status == "holds"
        rep = lorentzian_sample_check(power_of_sum(5, 6), Cone.orthant(5),
                                      trials=4, seed=0)
        assert rep.verdict.status == "holds-sampled"
        assert rep.details == {"trials_run": 4}


def form_checks(f, generators=None, trials=50, mode="auto"):
    """The checks of ``conestab form`` on f over the polyhedral cone with
    these generators, or over the orthant when None."""
    payload = {"n": f.n, "d": f.d,
               "terms": [{"exp": list(e), "coef": c}
                         for e, c in f.terms.items()]}
    cone = (None if generators is None
            else {"type": "polyhedral", "generators": generators})
    return cmd_form(payload, cone, RunConfig(trials=trials, mode=mode))[
        "checks"]


IMPLIED = {"status": "holds",
           "note": "implied by the exact Lorentzian decision"}


class TestImpliedChecks:
    """An exact holds of the ray decision stands in for the checks it
    implies in ``conestab form``; any other report implies nothing."""

    def test_a_ray_fails_implies_nothing(self):
        # x1^3 + x2^3 is not M-convex; its Hessians diag(6 a1, 6 a2) have
        # two positive eigenvalues at every interior point
        checks = form_checks(MultiForm(2, 3, {(3, 0): 1, (0, 3): 1}))
        assert checks["lorentzian_sampled"]["verdict"]["status"] == "fails"
        hessian = checks["hessian_signature"]
        assert hessian["verdict"]["status"] == "fails"
        assert hessian["details"]["trials_run"] == 1
        assert checks["clc_necessary"]["verdict"]["status"] == "fails"

    def test_e3_4_is_not_strict_so_hurwitz_is_sampled(self):
        checks = form_checks(elementary_symmetric(4, 3))
        assert checks["lorentzian_sampled"]["details"]["strict"] is False
        for name in ("clc_necessary", "hessian_signature"):
            assert checks[name]["verdict"] == IMPLIED
            assert checks[name]["details"] == {"trials_run": 0}
        hurwitz = checks["hurwitz_over_cone"]
        assert hurwitz["verdict"]["status"] == "holds-sampled"
        assert hurwitz["details"] == {"trials_run": 50}

    @pytest.mark.parametrize("generators", [None, [[2, 0, 0], [1, 2, 0],
                                                   [0, 1, 2]]],
                             ids=["orthant", "simplicial"])
    def test_strict_degree_3_implies_hurwitz(self, generators):
        rows = [[1, 2, 1], [2, 1, 3], [1, 1, 1]]
        f = product_of_linear_forms(rows)
        if generators is not None:  # positive on the simplicial cone too
            f = product_of_linear_forms([[a + 1 for a in r] for r in rows])
        checks = form_checks(f, generators)
        assert checks["lorentzian_sampled"]["details"]["strict"] is True
        for name in ("clc_necessary", "hessian_signature",
                     "hurwitz_over_cone"):
            assert checks[name]["verdict"] == IMPLIED

    def test_more_rays_than_dimensions_are_never_strict(self):
        # every monomial of f o G is present, but each Hessian of f o G is
        # G^T H G, of rank at most 3 in 4 variables
        f = product_of_linear_forms([dual_interior(PYRAMID, w) for w in
                                     ([1, 1, 1, 1], [3, 1, 2, 1],
                                      [1, 2, 1, 4])])
        checks = form_checks(f, [list(g) for g in PYRAMID.generators])
        assert checks["lorentzian_sampled"]["details"] == {
            "rays": 4, "quadratics": 4, "trials_run": 0, "strict": False}
        assert checks["hessian_signature"]["verdict"] == IMPLIED
        assert checks["hurwitz_over_cone"]["details"] == {"trials_run": 50}

    def test_strict_degree_5_samples_hurwitz(self):
        # five distinct positive linear forms in R^2: every monomial has a
        # positive coefficient and every d^alpha g is nonsingular
        f = product_of_linear_forms([[1, k] for k in range(1, 6)])
        checks = form_checks(f)
        assert checks["lorentzian_sampled"]["details"]["strict"] is True
        assert checks["clc_necessary"]["verdict"] == IMPLIED
        assert checks["hurwitz_over_cone"]["details"] == {"trials_run": 50}

    def test_a_singular_alpha_hessian_is_not_strict(self):
        # every monomial of (x1 + x2)^3 is present, but d_i of it is
        # 3 (x1 + x2)^2, whose Hessian has the eigenvalue 0
        rep = decide(power_of_sum(2, 3), Cone.orthant(2))
        assert rep.verdict.status == "holds"
        assert rep.details["strict"] is False

    def test_other_holds_imply_nothing(self):
        # degree 2, a float coefficient (the sampled reductions) and the
        # zero form: no check is read from the Lorentzian report
        for f, mode in ((elementary_symmetric(3, 2), "auto"),
                        (product_of_linear_forms([[1, 2, 1], [2, 1, 3],
                                                  [1, 1, 1]]).scale(1.5),
                         "float"),
                        (MultiForm(3, 3, {}), "auto")):
            checks = form_checks(f, trials=8, mode=mode)
            assert checks["lorentzian_sampled"]["verdict"]["status"] in (
                "holds", "holds-sampled")
            assert all(check["verdict"] != IMPLIED
                       for check in checks.values())


def determinantal_form(grams):
    """det(x_1 P_1 + ... + x_n P_n), expanded by Leibniz's formula over
    its entries, each the linear form (P_1[k][l], ..., P_n[k][l])."""
    s = len(grams[0])
    f = MultiForm(len(grams), s, {})
    for perm in itertools.permutations(range(s)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        f = f + product_of_linear_forms(
            [[P[k][perm[k]] for P in grams] for k in range(s)]).scale(sign)
    return f


@st.composite
def gram_matrices(draw):
    """n = 3 or 4 matrices B_i B_i^T of size s = 3 or 4, B_i an s x r int
    matrix with small entries, r in 1..s."""
    n, s = draw(st.integers(3, 4)), draw(st.integers(3, 4))
    grams = []
    for _ in range(n):
        r = draw(st.integers(1, s))
        B = draw(st.lists(st.lists(st.integers(-2, 2), min_size=r,
                                   max_size=r), min_size=s, max_size=s))
        grams.append([[sum(x * y for x, y in zip(a, b)) for b in B]
                      for a in B])
    return grams


def dual_interior(K, weights):
    """A linear form in the interior of the dual cone of K: a positive
    combination of K's facet normals."""
    return [sum(w * h[i] for w, h in zip(weights, K.facet_normals))
            for i in range(K.n)]


@st.composite
def exact_forms(draw, K):
    """An exact form of degree 3 or 4 over K: e_k, a product of linear
    forms inside the dual cone, such a product plus a small term, or a
    sparse form with small int coefficients."""
    n, d = K.n, draw(st.integers(3, 4))
    family = draw(st.sampled_from(["e_k", "product", "perturbed", "sparse"]))
    if family == "e_k":
        return elementary_symmetric(n, min(d, n))
    exps = [e for e in itertools.product(range(d + 1), repeat=n)
            if sum(e) == d]
    if family == "sparse":
        chosen = draw(st.lists(st.sampled_from(exps), min_size=1,
                               max_size=6, unique=True))
        return MultiForm(n, d, {e: draw(st.integers(-1, 3)) for e in chosen})
    weights = st.lists(st.integers(1, 3), min_size=len(K.facet_normals),
                       max_size=len(K.facet_normals))
    f = product_of_linear_forms([dual_interior(K, draw(weights))
                                 for _ in range(d)])
    if family == "perturbed":
        f = f + MultiForm(n, d, {draw(st.sampled_from(exps)):
                                 draw(st.integers(-6, 6))})
    return f


class TestProperties:
    @seed(0)
    @given(gram_matrices())
    @settings(max_examples=100, deadline=None)
    def test_determinantal_forms_hold(self, grams):
        # real stable with nonnegative coefficients (Borcea-Branden), hence
        # Lorentzian on the orthant, by a theorem and not by the decision
        f = determinantal_form(grams)
        if not f.is_zero:
            assert decide(f, Cone.orthant(f.n)).verdict.status == "holds"

    @seed(0)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(3, 5), st.lists(st.integers(1, 9),
                                                min_size=2, max_size=2),
        st.lists(st.integers(0, 3), min_size=n - 2, max_size=n - 2))))
    @settings(max_examples=100, deadline=None)
    def test_two_pure_powers_fail(self, drawn):
        # a x1^d + b x2^d plus powers of the other variables: leaving
        # d e_2 for d e_1 needs x1 x2^(d-1), so the support is not M-convex
        n, d, (a, b), rest = drawn
        terms = {tuple(d * (i == k) for i in range(n)): c
                 for k, c in enumerate([a, b] + rest)}
        rep = decide(MultiForm(n, d, terms), Cone.orthant(n))
        assert rep.verdict.status == "fails"
        assert rep.verdict.witness[0] == "exchange"

    @seed(0)
    @given(st.sampled_from(sorted(CONES)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_an_implied_holds_is_never_refuted_by_sampling(self, name, data):
        K = CONES[name]
        f = data.draw(exact_forms(K))
        if f.is_zero:
            return
        kernels = {"clc-necessary": forms.clc_necessary_check,
                   "hessian-signature": forms.hessian_signature_check,
                   "hurwitz-over-cone": forms.hurwitz_over_cone_check}
        for check in forms.implied_checks(f, decide(f, K)):
            sampled = kernels[check](f, K, trials=8, seed=0)
            assert not sampled.verdict.is_fails, (check, sampled.verdict)

    @seed(0)
    @given(st.sampled_from(sorted(CONES)), st.data())
    @settings(max_examples=120, deadline=None)
    def test_a_decided_holds_is_never_refuted_by_sampling(self, name, data):
        K = CONES[name]
        f = data.draw(exact_forms(K))
        if f.is_zero or decide(f, K).verdict.status != "holds":
            return
        sampled = forms._sampled_reductions(f, K, 8, 0, DEFAULT_TOL)
        assert not sampled.verdict.is_fails, sampled.verdict

    @seed(0)
    @given(st.sampled_from(sorted(CONES)), st.integers(3, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_textbook_families_hold(self, name, d, data):
        K = CONES[name]
        weights = st.lists(st.integers(1, 4), min_size=len(K.facet_normals),
                           max_size=len(K.facet_normals))
        f = product_of_linear_forms([dual_interior(K, data.draw(weights))
                                     for _ in range(d)])
        assert decide(f, K).verdict.status == "holds"
        if name != "pyramid":  # the other two cones lie in the orthant
            e_k = elementary_symmetric(3, 3)
            assert decide(e_k, K).verdict.status == "holds"

    @seed(0)
    @given(st.sampled_from([(2, 3), (3, 3), (3, 4), (4, 2)]).flatmap(
        lambda md: st.lists(st.sampled_from(
            [e for e in itertools.product(range(md[1] + 1), repeat=md[0])
             if sum(e) == md[1]]), min_size=1, max_size=10, unique=True)))
    @settings(max_examples=300, deadline=None)
    def test_exchange_test_is_the_definition(self, support):
        support = sorted(support)
        members = set(support)

        def exchanges(alpha, beta, i):
            return any(alpha[j] < beta[j] and tuple(
                a - (k == i) + (k == j) for k, a in enumerate(alpha))
                in members for j in range(len(alpha)))

        first = next(((alpha, beta, i) for alpha in support for beta in support
                      for i in range(len(alpha))
                      if alpha[i] > beta[i] and not exchanges(alpha, beta, i)),
                     None)
        assert forms._exchange_failure(support) == first

    @seed(0)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        min_size=n, max_size=n)), st.sampled_from([1, Fraction(1, 3)]))
    @settings(max_examples=300, deadline=None)
    def test_inertia_is_that_of_eigvalsh_outside_the_band(self, rows, c):
        n = len(rows)
        S = [[c * (rows[i][j] + rows[j][i]) for j in range(n)]
             for i in range(n)]
        vals = np.linalg.eigvalsh(np.array(S, dtype=float))
        if np.any(np.abs(vals) <= 1e-7 * max(1.0, max(abs(vals)))):
            return
        assert inertia(S) == (positive_count(S), 0)

    @seed(0)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        min_size=n, max_size=n)), st.sampled_from([1, Fraction(2, 3)]))
    @settings(max_examples=300, deadline=None)
    def test_inertia_is_that_of_symmetric_elimination(self, rows, c):
        # singular matrices too: no band is needed between exact counts
        n = len(rows)
        S = [[c * (rows[i][j] + rows[j][i]) for j in range(n)]
             for i in range(n)]
        positive = inertia_positive_count(S)
        negative = inertia_positive_count([[-v for v in r] for r in S])
        assert inertia(S) == (positive, n - positive - negative)

    def test_inertia_counts_zero_eigenvalues_as_zero(self):
        # (1, 1, 1)(1, 1, 1)^T - e_1 e_1^T: eigenvalues of both signs and 0
        S = [[int(i == j == 0) * -1 + 1 for j in range(3)] for i in range(3)]
        assert inertia(S) == (1, 1)
        assert inertia([[0, 0], [0, 0]]) == (0, 2)
        assert inertia([[2, 0, 0], [0, 0, 0],
                        [0, 0, Fraction(1, 2)]]) == (2, 1)
        assert inertia([[1, 1], [1, 1]]) == (1, 1)
