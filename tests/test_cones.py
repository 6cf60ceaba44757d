import math
import re
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conestab import (Cone, DimensionMismatch, Inapplicable, SquareMatrix,
                      Unsupported, contains, dual_contained_in, dual_contains,
                      extreme_rays, interior_contains,
                      matrix_k_copositive_refute, matrix_k_irreducible,
                      matrix_k_nonnegative, matrix_k_positive,
                      perron_frobenius_check, perron_report, sample_cone,
                      sample_interior)
from conestab import cones
from conestab.cones import _normal, cone_from_json, extreme_ray_reps
from conestab.numerics import _rank, all_exact

SMALL_INTS = st.sampled_from([0, 0, 1, -1, 2, -3])
SMALL_FRACTIONS = st.sampled_from([Fraction(0), Fraction(1, 2),
                                   Fraction(-2, 3), Fraction(3),
                                   Fraction(-1, 6)])
SMALL_EXACT = st.one_of(SMALL_INTS, SMALL_FRACTIONS)
# floats with a binary fraction, so each is exactly a small dyadic rational
BINARY = st.integers(-12, 12).map(lambda k: k / 4)


@st.composite
def binary_generators(draw):
    """Generators of a solid pointed cone with binary-fraction float
    entries: triangular rows with a positive diagonal, plus redundant
    positive combinations of pairs of them."""
    n = draw(st.integers(2, 4))
    gens = [[draw(BINARY) if i > j else draw(BINARY.filter(lambda x: x > 0))
             if i == j else 0.0 for i in range(n)] for j in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.permutations(range(n)))[:2]
        w = draw(st.sampled_from([0.5, 1.0, 2.0]))
        gens.append([x + w * y for x, y in zip(gens[a], gens[b])])
    return gens


def _rref(vectors, n):
    """Reduced row echelon form of rational vectors in R^n by Fraction
    Gauss-Jordan elimination: ``(rows, pivots)``, the nonzero reduced rows
    and their pivot columns.  The independent oracle for the Bareiss rank."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    pivots = []
    for col in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][col]
        pr = rows[r] = [x / lead for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                rows[i] = [a - row[col] * b for a, b in zip(row, pr)]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def _nullspace_1d(vectors, n):
    """The primitive int vector orthogonal to n-1 independent rational
    vectors, read off their RREF, or None if they are dependent.  The
    independent oracle for the cofactor normal."""
    rows, pivots = _rref(vectors, n)
    if len(pivots) != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    sol = [Fraction(0)] * n
    sol[free] = Fraction(1)
    for row, col in zip(rows, pivots):
        sol[col] = -row[free]
    denom = math.lcm(*(f.denominator for f in sol))
    ints = [int(f * denom) for f in sol]
    g = math.gcd(*ints)
    return tuple(i // g for i in ints)


def _oracle_polyhedral(gens, facet_normals=None):
    """``Cone.polyhedral`` with its ranks and facet normals taken from
    the RREF oracles."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "_rank", lambda vectors: len(
            _rref(vectors, len(vectors[0]) if vectors else 0)[1]))
        mp.setattr(cones, "_normal",
                   lambda vectors: _nullspace_1d(vectors, len(vectors) + 1))
        K = Cone.polyhedral(gens, facet_normals)
        return K, extreme_ray_reps(K)


@st.composite
def generator_sets(draw):
    """Int and Fraction generator sets in R^n, n <= 5: random vectors,
    often on top of a triangular basis (a solid pointed cone), with
    redundant positive combinations of pairs of them."""
    n = draw(st.integers(1, 5))
    gens = []
    if draw(st.booleans()):
        gens = [[draw(SMALL_EXACT) if i > j else draw(st.sampled_from(
            [1, 2, Fraction(1, 3)])) if i == j else 0 for i in range(n)]
            for j in range(n)]
    gens += draw(st.lists(st.lists(SMALL_EXACT, min_size=n, max_size=n),
                          min_size=0 if gens else 1, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        index = st.integers(0, len(gens) - 1)
        a, b = draw(index), draw(index)
        w = draw(st.sampled_from([1, 2, Fraction(1, 2)]))
        gens.append([x + w * y for x, y in zip(gens[a], gens[b])])
    return gens


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

    def test_orthant_is_identity_data_with_rays_in_basis_order(self):
        K = Cone.orthant(3)
        basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert K.generators == K.facet_normals == basis
        assert K.is_self_dual
        assert extreme_ray_reps(K) == list(basis)

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
        K2 = cone_from_json({"type": "polyhedral", "n": 2,
                             "generators": [[1, 0], [1, 2]],
                             "facets": [["2/1", -1], [0, 1]]})
        assert K2.generators == K.generators
        assert sorted(K2.facet_normals) == sorted(K.facet_normals)

    @given(binary_generators())
    @settings(max_examples=150, deadline=None)
    def test_float_cone_data_is_read_exactly(self, gens):
        # a float generator or facet normal is its exact binary value
        exact = [[Fraction(x) for x in g] for g in gens]
        K = Cone.polyhedral(exact)
        halved = [[x / 2 for x in h] for h in K.facet_normals]
        supplied = Cone.polyhedral(exact, [[Fraction(x) for x in h]
                                           for h in halved])
        for F, E in ((Cone.polyhedral(gens), K),
                     (Cone.polyhedral(gens, halved), supplied)):
            assert F == E
            assert all(all_exact(v) for v in F.generators + F.facet_normals)
            assert extreme_ray_reps(F) == extreme_ray_reps(E)


class TestExactRref:
    """The Bareiss rank and the cofactor normal against the RREF oracles."""

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(SMALL_INTS, min_size=n, max_size=n), min_size=1, max_size=7),
        st.integers(0, n - 1), st.booleans())))
    @settings(max_examples=300, deadline=None)
    def test_rank_matches_numpy(self, case):
        n, vectors, col, zero_column = case
        if zero_column:
            for v in vectors:
                v[col] = 0
        rank = _rank(vectors)
        assert rank == np.linalg.matrix_rank(np.array(vectors, dtype=float))
        assert rank == len(_rref(vectors, n)[1])

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(SMALL_EXACT, min_size=n, max_size=n), min_size=1, max_size=7))))
    # m < n, m > n, a zero column, Fraction entries, an all-zero matrix
    @example((4, [[1, Fraction(1, 2), 0, 3], [2, 1, 0, 6]]))
    @example((2, [[Fraction(1, 3), 0], [1, 0], [Fraction(-2, 3), 0]]))
    @example((3, [[0, Fraction(1, 2), 1], [0, 1, 2], [0, 0, Fraction(1, 5)],
                  [0, 3, 0]]))
    @example((3, [[0, 0, 0], [Fraction(0), 0, 0]]))
    @settings(max_examples=300, deadline=None)
    def test_rank_of_rational_rectangles_matches_rref(self, case):
        n, vectors = case
        assert _rank(vectors) == len(_rref(vectors, n)[1])

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(SMALL_EXACT, min_size=n, max_size=n),
        min_size=n - 1, max_size=n - 1))))
    @example((3, [[1, Fraction(1, 2), 0], [0, 0, 0]]))
    @example((3, [[Fraction(1, 2), 0, 1], [0, Fraction(2, 3), 1]]))
    @settings(max_examples=300, deadline=None)
    def test_nullspace_is_primitive_and_orthogonal(self, case):
        n, vectors = case
        h = _normal(vectors)
        oracle = _nullspace_1d(vectors, n)
        assert (h is None) == (oracle is None)
        if h is not None:
            assert h in (oracle, tuple(-x for x in oracle))
            assert all(type(x) is int for x in h) and any(h)
            assert math.gcd(*h) == 1
            assert all(sum(a * b for a, b in zip(h, v)) == 0 for v in vectors)

    @given(generator_sets())
    @example([[1, 0], [-1, 0], [0, 1]])  # not pointed
    @example([[1, 0, 0], [0, 1, 0], [1, 1, 0]])  # not solid
    @settings(max_examples=200, deadline=None)
    def test_polyhedral_cone_matches_rref_oracle(self, gens):
        try:
            K, rays = _oracle_polyhedral(gens)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                Cone.polyhedral(gens)
            return
        F = Cone.polyhedral(gens)
        assert F.facet_normals == K.facet_normals
        assert extreme_ray_reps(F) == rays


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

    @pytest.mark.parametrize("K", [
        Cone.orthant(3), Cone.second_order(1), Cone.second_order(4),
        # rational and float-literal generators are read exactly
        Cone.polyhedral([(Fraction(1, 2), 0), (1, Fraction(2, 3))]),
        Cone.polyhedral([(1.5, 0.0), (0.25, 0.5), (1, 1)])])
    def test_interior_samples_are_int_points(self, K):
        for t in range(300):
            x = sample_interior(K, [3, t])
            assert all(type(c) is int for c in x)
            assert interior_contains(K, x)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_second_order_tail_dominates_exactly(self, seed, n):
        x = sample_interior(Cone.second_order(n), seed)
        assert x[-1] > 0 and x[-1] ** 2 > sum(c * c for c in x[:-1])

    def test_one_generator_draws_a_reproducible_sequence(self):
        K = Cone.polyhedral([(1, 0), (1, 3)])
        rng = np.random.default_rng(7)
        points = [sample_interior(K, rng), sample_cone(K, rng),
                  sample_interior(K, rng)]
        rng = np.random.default_rng(7)
        assert points == [sample_interior(K, rng), sample_cone(K, rng),
                          sample_interior(K, rng)]
        # the generator advances: a seed gives the first point only
        assert points[0] == sample_interior(K, 7) != points[2]


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

    def test_soc_band_image_is_unknown_not_fails(self):
        # diag(1, 1 + 10^-12) maps SOC(2) into its interior; the images of
        # sampled boundary points sit inside the float band of the boundary
        K = Cone.second_order(2)
        A = SquareMatrix.from_rows([[1, 0], [0, 1 + Fraction(1, 10 ** 12)]])
        v = matrix_k_positive(A, K, trials=8, seed=0)
        assert v.status == "unknown" and v.witness[0] == "point"
        assert matrix_k_irreducible(A, K, trials=8, seed=0).status == "unknown"
        # the report of `conestab matrix --cone`, at its default trials
        rep = perron_frobenius_check(A, K)
        assert rep.k_positive.status == rep.k_irreducible.status == "unknown"

    def test_soc_exact_boundary_image_refutes(self):
        # the identity keeps the canonical boundary ray (1, 0, 1) on the
        # boundary, exactly
        v = matrix_k_positive(SquareMatrix.identity(3), Cone.second_order(3),
                              trials=8, seed=0)
        assert v.status == "fails" and v.witness == ("point", (1, 0, 1))
        assert all(type(x) is int for x in v.witness[1])


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

    def test_irreducibility_note_says_whether_k_nonnegativity_failed(self):
        K = Cone.orthant(2)
        # float zeros off the diagonal sit in the tolerance band
        undecided = perron_frobenius_check(
            SquareMatrix.from_rows([[1.0, 0.0], [0.0, 1.0]]), K)
        assert undecided.k_nonnegative.status == "unknown"
        assert undecided.k_irreducible.status == "unknown"
        assert undecided.k_irreducible.note == (
            "irreducibility inapplicable: K-nonnegativity undecided")
        failed = perron_frobenius_check(
            SquareMatrix.from_rows([[1, -1], [0, 1]]), K)
        assert failed.k_nonnegative.status == "fails"
        assert failed.k_irreducible.status == "unknown"
        assert failed.k_irreducible.note == (
            "irreducibility inapplicable: not K-nonnegative")

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
