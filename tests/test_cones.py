import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conestab import (Cone, DimensionMismatch, Inapplicable, SquareMatrix,
                      Unsupported, contains, dual_contained_in, dual_contains,
                      extreme_rays, interior_contains,
                      matrix_k_copositive_refute, matrix_k_irreducible,
                      matrix_k_nonnegative, matrix_k_positive,
                      perron_frobenius_check, perron_report, sample_cone,
                      sample_interior)
from conestab.cones import (_nullspace_1d, _rref, cone_from_json, cone_to_json,
                            extreme_ray_reps)

SMALL_INTS = st.sampled_from([0, 0, 1, -1, 2, -3])


def support_digraph(A: SquareMatrix) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(A.n))
    for i in range(A.n):
        for j in range(A.n):
            if A[i, j] != 0:
                g.add_edge(j, i)
    return g


class TestMembership:
    def test_orthant_interior(self):
        K = Cone.orthant(3)
        assert interior_contains(K, (1, 1, 1))
        assert not interior_contains(K, (1, 0, 1))
        assert contains(K, (1, 0, 1))

    def test_second_order_boundary_pythagorean(self):
        K = Cone.second_order(3)
        assert contains(K, (3, 4, 5))
        assert not interior_contains(K, (3, 4, 5))
        assert interior_contains(K, (3, 4, 6))
        assert not contains(K, (3, 4, 4))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains(Cone.orthant(3), (1, 1))

    def test_polyhedral_standard_basis_equals_orthant(self, rng):
        K = Cone.orthant(3)
        P = Cone.polyhedral([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        for _ in range(1000):
            x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(3))
            assert contains(K, x) == contains(P, x)
            assert interior_contains(K, x) == interior_contains(P, x)
            assert dual_contains(K, x) == dual_contains(P, x)

    def test_second_order_exact_on_rationals(self):
        K = Cone.second_order(2)
        assert contains(K, (Fraction(1, 3), Fraction(1, 3)))
        assert not interior_contains(K, (Fraction(1, 3), Fraction(1, 3)))


class TestExtremeRays:
    def test_orthant_standard_basis(self):
        rays = extreme_rays(Cone.orthant(3))
        assert sorted(rays) == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_redundant_generator_eliminated(self):
        K = Cone.polyhedral([(1, 0), (0, 1), (1, 1)])
        assert extreme_ray_reps(K) == [(0, 1), (1, 0)]

    def test_simplicial_generators_are_extreme(self):
        gens = [(2, 1, 0), (0, 1, 0), (1, 0, 3)]
        K = Cone.polyhedral(gens)
        reps = extreme_ray_reps(K)
        assert len(reps) == 3

    def test_unit_normalization(self):
        K = Cone.polyhedral([(3, 0), (0, 4)])
        for r in extreme_rays(K):
            assert math.isclose(sum(v * v for v in r), 1.0)

    def test_second_order_unsupported(self):
        with pytest.raises(Unsupported):
            extreme_rays(Cone.second_order(3))


class TestConeConstruction:
    def test_not_solid_rejected(self):
        with pytest.raises(ValueError):
            Cone.polyhedral([(1, 0), (2, 0)])

    def test_not_pointed_rejected(self):
        with pytest.raises(ValueError):
            Cone.polyhedral([(1, 0), (-1, 0), (0, 1), (0, -1)])

    def test_inconsistent_facets_rejected(self):
        with pytest.raises(ValueError):
            Cone.polyhedral([(1, 0), (0, 1)], facet_normals=[(-1, 0), (0, 1)])

    def test_facet_enumeration_matches_supplied(self):
        auto = Cone.polyhedral([(1, 0), (1, 2)])
        manual = Cone.polyhedral([(1, 0), (1, 2)],
                                 facet_normals=[(0, 1), (2, -1)])
        assert sorted(auto.facet_normals) == sorted(manual.facet_normals)

    def test_json_round_trip(self):
        K = Cone.polyhedral([(1, 0), (1, 2)])
        K2 = cone_from_json(cone_to_json(K))
        assert K2.generators == K.generators
        assert sorted(K2.facet_normals) == sorted(K.facet_normals)


class TestExactRref:
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(SMALL_INTS, min_size=n, max_size=n), min_size=1, max_size=6))))
    @settings(max_examples=300, deadline=None)
    def test_rank_matches_numpy(self, case):
        n, vectors = case
        rows, pivots = _rref(vectors, n)
        assert len(pivots) == np.linalg.matrix_rank(np.array(vectors, dtype=float))
        assert len(rows) == len(pivots) and pivots == sorted(pivots)
        for i, col in enumerate(pivots):
            assert [r[col] for r in rows] == [int(j == i) for j in range(len(rows))]

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(SMALL_INTS, min_size=n, max_size=n),
        min_size=n - 1, max_size=n - 1))))
    @settings(max_examples=300, deadline=None)
    def test_nullspace_is_primitive_and_orthogonal(self, case):
        n, vectors = case
        h = _nullspace_1d(vectors, n)
        dependent = np.linalg.matrix_rank(np.array(vectors, dtype=float)) < n - 1
        assert (h is None) == dependent
        if h is not None:
            assert all(type(x) is int for x in h) and any(h)
            assert math.gcd(*h) == 1
            assert all(sum(a * b for a, b in zip(h, v)) == 0 for v in vectors)


class TestSampling:
    def test_orthant_componentwise_positive(self):
        x = sample_interior(Cone.orthant(3), 42)
        assert all(v > 0 for v in x)

    def test_second_order_interior_by_construction(self):
        K = Cone.second_order(3)
        x = sample_interior(K, 5)
        assert x[-1] > math.hypot(*x[:-1])

    def test_interior_samples_all_pass(self):
        for K in (Cone.orthant(4), Cone.second_order(3),
                  Cone.polyhedral([(1, 0), (1, 1)])):
            for t in range(1000):
                assert interior_contains(K, sample_interior(K, [9, t]))

    def test_cone_samples_stay_in_cone(self):
        for K in (Cone.orthant(3), Cone.second_order(4),
                  Cone.polyhedral([(1, 0), (1, 3)])):
            for t in range(300):
                assert contains(K, sample_cone(K, [17, t]))

    def test_deterministic(self):
        K = Cone.second_order(5)
        assert sample_interior(K, 123) == sample_interior(K, 123)
        assert sample_cone(K, [1, 2]) == sample_cone(K, [1, 2])


class TestDualContainment:
    def test_orthant_self_dual_both_directions(self):
        K = Cone.orthant(4)
        assert dual_contained_in(K, direction="dual_in_primal").status == "holds"
        assert dual_contained_in(K, direction="primal_in_dual").status == "holds"

    def test_second_order_self_dual(self):
        K = Cone.second_order(3)
        assert dual_contained_in(K, direction="dual_in_primal").status == "holds"
        assert dual_contained_in(K, direction="primal_in_dual").status == "holds"

    def test_two_dimensional_wedge(self):
        # dual of cone{(1,0),(1,1)} is cone{(0,1),(1,-1)}, not inside it
        K = Cone.polyhedral([(1, 0), (1, 1)])
        assert sorted(K.facet_normals) == [(0, 1), (1, -1)]
        assert dual_contained_in(K, direction="dual_in_primal").status == "fails"

    def test_wide_cone_contains_its_dual(self):
        # cone{(2,-1),(-1,2)} is wider than the orthant, so K* sits inside K
        K = Cone.polyhedral([(2, -1), (-1, 2)])
        assert dual_contained_in(K, direction="dual_in_primal").status == "holds"
        assert dual_contained_in(K, direction="primal_in_dual").status == "fails"


class TestMatrixKNonnegative:
    def test_orthant_matches_entrywise(self, rng):
        K = Cone.orthant(4)
        for _ in range(400):
            A = SquareMatrix.from_rows(
                [[rng.choice([0, 0, 1, 2, -1]) for _ in range(4)]
                 for _ in range(4)])
            expected = all(A[i, j] >= 0 for i in range(4) for j in range(4))
            assert (matrix_k_nonnegative(A, K).status == "holds") == expected

    def test_witness_is_a_basis_ray(self):
        K = Cone.orthant(2)
        A = SquareMatrix.from_rows([[1, -1], [0, 1]])
        v = matrix_k_nonnegative(A, K)
        assert v.status == "fails"
        assert v.witness[1] == (0, 1)

    def test_soc_rotation_about_axis_holds_sampled(self):
        K = Cone.second_order(3)
        c, s = math.cos(0.3), math.sin(0.3)
        R = SquareMatrix.from_rows([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        assert matrix_k_nonnegative(R, K).status == "holds-sampled"

    def test_soc_refutation(self):
        K = Cone.second_order(3)
        A = SquareMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        assert matrix_k_nonnegative(A, K).status == "fails"

    def test_polyhedral_exact(self):
        K = Cone.polyhedral([(1, 0), (1, 1)])
        # maps the wedge into itself: fixes (1,0), sends (1,1) to (2,1)
        A = SquareMatrix.from_rows([[1, 1], [0, 1]])
        assert matrix_k_nonnegative(A, K).status == "holds"
        B = SquareMatrix.from_rows([[0, 1], [1, 0]])  # swaps axes, leaves wedge
        assert matrix_k_nonnegative(B, K).status == "fails"


class TestMatrixKIrreducible:
    def test_cyclic_permutation(self):
        K = Cone.orthant(3)
        P = SquareMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert matrix_k_irreducible(P, K).status == "holds"

    def test_block_diagonal_fails(self):
        K = Cone.orthant(3)
        A = SquareMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        assert matrix_k_irreducible(A, K).status == "fails"

    def test_identity_fails(self):
        K = Cone.orthant(3)
        assert matrix_k_irreducible(SquareMatrix.identity(3), K).status == "fails"

    def test_inapplicable_when_not_nonnegative(self):
        K = Cone.orthant(2)
        A = SquareMatrix.from_rows([[1, -1], [0, 1]])
        with pytest.raises(Inapplicable):
            matrix_k_irreducible(A, K)

    def test_matches_strong_connectivity(self, rng):
        for _ in range(400):
            n = rng.randint(1, 6)
            K = Cone.orthant(n)
            A = SquareMatrix.from_rows(
                [[rng.choice([0, 0, 1, 3]) for _ in range(n)] for _ in range(n)])
            verdict = matrix_k_irreducible(A, K)
            expected = nx.is_strongly_connected(support_digraph(A))
            assert (verdict.status == "holds") == expected


class TestMatrixKPositive:
    def test_positive_implies_irreducible(self, rng):
        K = Cone.orthant(3)
        for _ in range(200):
            A = SquareMatrix.from_rows(
                [[rng.choice([0, 1, 2]) for _ in range(3)] for _ in range(3)])
            if matrix_k_positive(A, K).status == "holds":
                assert matrix_k_irreducible(A, K).status == "holds"

    def test_strictly_positive_matrix(self):
        K = Cone.orthant(2)
        A = SquareMatrix.from_rows([[1, 2], [3, 4]])
        assert matrix_k_positive(A, K).status == "holds"
        B = SquareMatrix.from_rows([[1, 0], [3, 4]])
        assert matrix_k_positive(B, K).status == "fails"


class TestCopositiveRefutation:
    def test_identity_has_no_witness(self):
        assert matrix_k_copositive_refute(
            SquareMatrix.identity(3), Cone.orthant(3)).status == "unknown"

    def test_negative_identity_refuted_by_a_ray(self):
        v = matrix_k_copositive_refute(
            SquareMatrix.identity(2).scale(-1), Cone.orthant(2))
        assert v.status == "fails"

    def test_indefinite_off_diagonal(self):
        Q = SquareMatrix.from_rows([[1, -3], [-3, 1]])
        v = matrix_k_copositive_refute(Q, Cone.orthant(2), seed=4)
        assert v.status == "fails"
        x = v.witness[1]
        val = sum(x[i] * Q[i, j] * x[j] for i in range(2) for j in range(2))
        assert val < 0

    def test_strict_mode_refutes_on_boundary_zero(self):
        # x^T Q x = 0 along e1: fine non-strictly, a witness strictly
        Q = SquareMatrix.from_rows([[0, 0], [0, 1]])
        K = Cone.orthant(2)
        assert matrix_k_copositive_refute(Q, K, strict=False).status == "unknown"
        assert matrix_k_copositive_refute(Q, K, strict=True).status == "fails"

    def test_soc_refutation(self):
        Q = SquareMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -2]])
        v = matrix_k_copositive_refute(Q, Cone.second_order(3), seed=1)
        assert v.status == "fails"


class TestPerronFrobenius:
    def test_flip_matrix(self):
        K = Cone.orthant(2)
        rep = perron_frobenius_check(SquareMatrix.from_rows([[0, 1], [1, 0]]), K)
        p = rep.perron
        assert p.rho == pytest.approx(1.0)
        assert p.rho_positive and p.rho_is_eigenvalue and p.simple
        assert p.modulus_tie  # -1 shares the modulus
        assert p.eigenvector_interior
        assert p.eigenvector == pytest.approx((math.sqrt(0.5), math.sqrt(0.5)))

    def test_all_ones_minus_identity(self):
        K = Cone.orthant(3)
        A = SquareMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        rep = perron_frobenius_check(A, K)
        assert rep.perron.rho == pytest.approx(2.0)
        assert rep.perron.simple and not rep.perron.modulus_tie
        assert rep.perron.eigenvector_interior
        assert rep.k_irreducible.status == "holds"

    def test_reducible_block_diagonal_eigenvector_on_face(self):
        K = Cone.orthant(3)
        A = SquareMatrix.from_rows([[3, 1, 0], [1, 3, 0], [0, 0, 1]])
        rep = perron_frobenius_check(A, K)
        assert rep.k_irreducible.status == "fails"
        assert not rep.perron.eigenvector_interior

    def test_irreducible_instances_have_interior_eigenvector(self, rng):
        K_sizes = {}
        checked = 0
        attempts = 0
        while checked < 500 and attempts < 20000:
            attempts += 1
            n = rng.randint(2, 6)
            K = K_sizes.setdefault(n, Cone.orthant(n))
            A = SquareMatrix.from_rows(
                [[rng.choice([0, 0, 1, 2, 5]) for _ in range(n)]
                 for _ in range(n)])
            try:
                irr = matrix_k_irreducible(A, K)
            except Inapplicable:
                continue
            if irr.status != "holds":
                continue
            rep = perron_frobenius_check(A, K)
            assert rep.perron.rho_positive
            assert rep.perron.simple
            assert rep.perron.eigenvector_interior
            checked += 1
        assert checked == 500

    @given(st.sampled_from(["orthant", "polyhedral", "second_order"]),
           st.integers(2, 4).flatmap(lambda n: st.lists(
               st.lists(st.integers(-3, 4), min_size=n, max_size=n),
               min_size=n, max_size=n)))
    @settings(max_examples=60, deadline=None)
    def test_perron_report_is_the_full_checks_perron(self, kind, rows):
        n = len(rows)
        if kind == "polyhedral":
            # the orthant with one redundant generator
            gens = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            K = Cone.polyhedral(gens + [tuple(int(j < 2) for j in range(n))])
        else:
            K = getattr(Cone, kind)(n)
        A = SquareMatrix.from_rows(rows)
        assert perron_report(A, K) == perron_frobenius_check(A, K).perron

    def test_perron_report_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            perron_report(SquareMatrix.identity(2), Cone.orthant(3))

    def test_uniqueness_scan_flags_other_cone_eigenvector(self):
        # reducible diag(2, 1): both eigenvectors e1, e2 lie in the orthant
        K = Cone.orthant(2)
        A = SquareMatrix.from_rows([[2, 0], [0, 1]])
        rep = perron_frobenius_check(A, K)
        assert rep.perron.other_semipositive_eigenvector
