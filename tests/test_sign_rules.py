"""Each sign rule of the sampled form checks against the status of the
kernel whose ledger rule it restates, on exact input: the rule is True
exactly when the kernel's verdict holds."""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conestab import Cone, SquareMatrix, UniPoly, forms
from conestab.cones import (_k_irreducible_by_sign, _maps_into_by_sign,
                            _probe_points, matrix_k_nonnegative,
                            matrix_k_positive)
from conestab.hurwitz import _routh_by_sign, routh_hurwitz_stable
from conestab.numerics import DEFAULT_TOL, scalar_from_json
from conestab.sequences import _log_concave_by_sign, is_log_concave

TRIALS = 8

# an orthant, the orthant given by redundant generators, and the
# second-order cone, all in R^4
CONES = [Cone.orthant(4),
         Cone.polyhedral([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                          (0, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 1)]),
         Cone.second_order(4)]
ENTRIES = st.one_of(st.integers(-2, 4),
                    st.fractions(-2, 4, max_denominator=3))


@st.composite
def exact_matrices(draw, symmetric=False):
    """4 x 4 int or Fraction matrices of four kinds: small signed entries
    with the diagonal shifted by 0-6; entries in [0, 4], zeros included;
    entries in [1, 4]; and diag(h, h, h, h + 10..16) plus entries in
    {-1, 0, 1}.  Many of the last three map the orthant or the
    second-order cone into itself or into its interior, and some only
    just fail to."""
    kind = draw(st.sampled_from(("signed", "nonnegative", "positive",
                                 "second-order")))
    entries = {"signed": ENTRIES,
               "nonnegative": st.one_of(st.integers(0, 4),
                                        st.fractions(0, 4, max_denominator=3)),
               "positive": st.one_of(st.integers(1, 4),
                                     st.fractions(1, 4, max_denominator=3)),
               "second-order": st.integers(-1, 1)}[kind]
    rows = [[draw(entries) for _ in range(4)] for _ in range(4)]
    if symmetric:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(4)]
                for i in range(4)]
    if kind in ("signed", "second-order"):
        h = draw(st.integers(0, 6 if kind == "signed" else 4))
        tail = h + draw(st.integers(10, 16)) if kind == "second-order" else h
        for i, shift in enumerate((h, h, h, tail)):
            rows[i][i] += shift
    return SquareMatrix.from_rows(rows)


def p_over_q(draw_fraction):
    """A ``"p/q"`` coefficient, as the JSON parser reads it."""
    return scalar_from_json(
        f"{draw_fraction.numerator}/{draw_fraction.denominator}", True)


@st.composite
def routh_polys(draw):
    """Degree 1-9: int coefficients with zeros and negatives, ``"p/q"``
    coefficients, or (t^2 + w) q(t) for a positive q, whose opposite roots
    make a Hurwitz minor zero and stall the Routh recurrence."""
    kind = draw(st.sampled_from(("int", "p/q", "stalled")))
    if kind == "stalled":
        w = draw(st.integers(-4, 6))
        q = [draw(st.integers(1, 9)) for _ in range(draw(st.integers(2, 6)))]
        return UniPoly(tuple(w * a + b for a, b in zip(q + [0, 0],
                                                       [0, 0] + q)))
    d = draw(st.integers(1, 9))
    if kind == "int":
        coeffs = draw(st.lists(st.integers(-3, 30), min_size=d + 1,
                               max_size=d + 1))
    else:
        coeffs = [p_over_q(c) for c in draw(st.lists(
            st.fractions(-3, 30, max_denominator=12), min_size=d + 1,
            max_size=d + 1))]
    return UniPoly((*coeffs[:-1], coeffs[-1] or 1))


class TestRouth:
    @seed(0)
    @given(routh_polys())
    @settings(max_examples=400, deadline=None)
    def test_rule_is_the_minor_chain_status(self, p):
        verdict = routh_hurwitz_stable(p)
        assert not verdict.is_unknown
        assert _routh_by_sign(p) == verdict.is_holds

    @pytest.mark.parametrize("coeffs", [(1, 1, 1, 1), (2, 3, 4, 6, 1, 5, 2, 7, 1),
                                        (1, 0, 1), (-1, -2, -1)])
    def test_stalled_and_negated_polynomials(self, coeffs):
        p = UniPoly(coeffs)
        assert _routh_by_sign(p) == routh_hurwitz_stable(p).is_holds

    def test_coefficient_test_refutes_a_negative_constant(self):
        # t^3 + t^2 + t - 1: Delta_1 = 1 and Delta_2 = 2 are positive, so
        # only the coefficient a_0 = -1 refutes
        p = UniPoly((-1, 1, 1, 1))
        assert routh_hurwitz_stable(p).witness == ("coefficient", 0)
        assert _routh_by_sign(p) is False


class TestConeMatrices:
    @seed(0)
    @given(st.sampled_from(range(len(CONES))), exact_matrices(),
           st.booleans(), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_rule_is_the_cone_matrix_status(self, k, A, interior, probes):
        K = CONES[k]
        kernel = matrix_k_positive if interior else matrix_k_nonnegative
        verdict = kernel(A, K, trials=TRIALS, seed=probes)
        assert not verdict.is_unknown
        assert (_maps_into_by_sign(A.to_objects(), K, interior,
                                   _probe_points(K, TRIALS, probes))
                == verdict.is_holds)

    def test_identity_is_not_k_positive(self):
        # I maps every extreme ray onto itself, on the boundary
        for K in CONES[:2]:
            I = SquareMatrix.identity(4)
            assert matrix_k_positive(I, K).is_fails
            assert _maps_into_by_sign(I.to_objects(), K, True, None) is False
            assert _maps_into_by_sign(I.to_objects(), K, False, None)

    def test_minus_identity_reverses_the_second_order_tail(self):
        # -I keeps tail^2 - |head|^2 and negates the tail
        K = CONES[2]
        A = SquareMatrix.identity(4).scale(-1)
        assert matrix_k_nonnegative(A, K, trials=TRIALS, seed=0).is_fails
        assert _maps_into_by_sign(A.to_objects(), K, False,
                                  _probe_points(K, TRIALS, 0)) is False

    def test_irreducibility_rule_raises_i_plus_a(self):
        # (I + J - I)^3 = J^3 has only positive entries: J - I is
        # irreducible over the orthant, and the diagonal diag(1, 2, 3, 4),
        # whose rays are eigenvectors, is not
        K = CONES[0]
        J = SquareMatrix.from_rows([[int(i != j) for j in range(4)]
                                    for i in range(4)])
        D = SquareMatrix.from_rows([[(i + 1) * (i == j) for j in range(4)]
                                    for i in range(4)])
        assert _k_irreducible_by_sign(J.to_objects(), K, None)
        assert not _k_irreducible_by_sign(D.to_objects(), K, None)


class TestDichotomy:
    @seed(0)
    @given(st.sampled_from(range(len(CONES))), exact_matrices(symmetric=True),
           st.booleans(), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_rule_is_the_branch_status(self, k, Q, singular, probes):
        K = CONES[k]
        _, verdict = forms._dichotomy(Q, K, singular, DEFAULT_TOL, TRIALS,
                                      probes)
        assert not verdict.is_unknown
        assert (forms._dichotomy_by_sign(Q, K, singular,
                                         _probe_points(K, TRIALS, probes))
                == verdict.is_holds)


class TestLogConcavity:
    @seed(0)
    @given(st.lists(st.one_of(st.integers(-2, 40),
                              st.fractions(-2, 40, max_denominator=6)),
                    min_size=1, max_size=8), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_rule_is_the_ledger_status(self, seq, strict):
        verdict = is_log_concave(seq, strict=strict)
        assert not verdict.is_unknown
        assert _log_concave_by_sign(seq, strict) == verdict.is_holds

    @pytest.mark.parametrize("seq, strict, holds", [
        ((1, 2, 4), False, True),  # a_1^2 = a_0 a_2
        ((1, 2, 4), True, False),
        ((1, 0, 1), False, False),
        ((Fraction(1, 2), 1, 1), True, True),
    ])
    def test_equality_is_strictness(self, seq, strict, holds):
        assert is_log_concave(seq, strict=strict).is_holds is holds
        assert _log_concave_by_sign(seq, strict) is holds
