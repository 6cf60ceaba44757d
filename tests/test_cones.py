import math
import re
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conestab import (Cone, DimensionMismatch, Inapplicable, SquareMatrix,
                      Unsupported, contains, interior_contains,
                      matrix_k_irreducible, matrix_k_nonnegative,
                      matrix_k_positive, perron_frobenius_check,
                      perron_report, sample_cone, sample_interior)
from conestab import cones
from conestab.cones import _normal, cone_from_json, extreme_ray_reps
from conestab.numerics import (DEFAULT_TOL, Sign, _dot, _rank, all_exact,
                               classify_sign)
from conestab.verdict import (FAILS, HOLDS_SAMPLED, UNKNOWN, InequalityLedger,
                              Verdict)

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

    def test_second_order_exact_on_rationals(self):
        K = Cone.second_order(2)
        assert contains(K, (Fraction(1, 3), Fraction(1, 3)))
        assert not interior_contains(K, (Fraction(1, 3), Fraction(1, 3)))


class TestExtremeRays:
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

    def test_second_order_unsupported(self):
        with pytest.raises(Unsupported):
            extreme_ray_reps(Cone.second_order(3))


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

    @pytest.mark.parametrize("K", [
        Cone.orthant(4),
        Cone.polyhedral([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                         (0, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 1)])])
    def test_cone_samples_are_int_points(self, K):
        # interior points, single generators and sparse combinations alike
        points = [sample_cone(K, [5, t]) for t in range(300)]
        for x in points:
            assert all(type(c) is int for c in x)
            assert contains(K, x)
        assert any(interior_contains(K, x) for x in points)
        assert any(0 in x for x in points)

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

    # seeds 1 and 6 draw boundary points in R^3 first, with the last head
    # entry of either sign
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
    @example(seed=1, n=3)
    @example(seed=6, n=3)
    @settings(max_examples=100, deadline=None)
    def test_second_order_points_are_int_and_in_the_cone(self, seed, n):
        K = Cone.second_order(n)
        rng = np.random.default_rng(seed)
        points = [sample_cone(K, rng) for _ in range(4)]
        points += [sample_interior(K, rng),
                   *cones._probe_points(K, 8, seed)]
        for x in points:
            assert all(type(c) is int for c in x)
            assert x[-1] > 0 and x[-1] ** 2 >= sum(c * c for c in x[:-1])

    def test_probe_points_are_second_order_data(self):
        # the matrix tests over other cones read their extreme rays; a
        # nested seed draws the points of its flattened list
        for K in (Cone.orthant(3), Cone.polyhedral([(1, 0), (1, 2)])):
            assert cones._probe_points(K, 8, 0) is None
        K = Cone.second_order(3)
        nested = cones._probe_points(K, 8, [5, [2, (1,)]])
        assert nested == cones._probe_points(K, 8, [5, 2, 1])
        assert nested != cones._probe_points(K, 8, [5, 2, 2])
        assert len(nested) == 8 + 1 + 2 * 2

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
    @example(seed=1, n=3)
    @example(seed=6, n=3)
    @settings(max_examples=200, deadline=None)
    def test_second_order_boundary_draws_lie_on_the_boundary(self, seed, n):
        x = sample_cone(Cone.second_order(n), seed)
        slack = x[-1] ** 2 - sum(c * c for c in x[:-1])
        # the first draw of the seed's generator picks the mode; the
        # boundary of L^1 is the origin, so its draws are interior
        if int(np.random.default_rng(seed).integers(3)) == 1 and n > 1:
            assert slack == 0
        else:
            assert slack > 0

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
        # (I + P)^2 is entrywise positive, but I + P is not
        K = Cone.orthant(3)
        P = SquareMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert matrix_k_irreducible(P, K).status == "holds"
        assert cones._k_irreducible_by_sign(P.to_objects(), K, None)

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
        # diag(1, 1 + 10^-12) maps SOC(2) into its interior; with a float
        # entry the images of sampled boundary points sit inside the float
        # band of the boundary
        K = Cone.second_order(2)
        A = SquareMatrix.from_rows([[1, 0], [0, 1 + 1e-12]])
        v = matrix_k_positive(A, K, trials=8, seed=0)
        assert v.status == "unknown" and v.witness[0] == "point"
        assert matrix_k_irreducible(A, K, trials=8, seed=0).status == "unknown"
        # the report of `conestab matrix --cone`, at its default trials
        rep = perron_frobenius_check(A, K)
        assert rep.k_positive.status == rep.k_irreducible.status == "unknown"
        # the exact entry maps the int boundary points into the interior
        exact = SquareMatrix.from_rows([[1, 0], [0, 1 + Fraction(1, 10 ** 12)]])
        rep = perron_frobenius_check(exact, K)
        assert rep.k_positive.status == "holds-sampled"
        assert rep.k_irreducible.status == "holds-sampled"

    def test_soc_exact_boundary_image_refutes(self):
        # the identity keeps every boundary point on the boundary, exactly
        v = matrix_k_positive(SquareMatrix.identity(3), Cone.second_order(3),
                              trials=8, seed=0)
        assert v.status == "fails" and v.witness[0] == "point"
        x = v.witness[1]
        assert all(type(c) is int for c in x)
        assert x[-1] ** 2 - sum(c * c for c in x[:-1]) == 0


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


def _signs_with_norms(K, x, tol):
    """``cones._signs`` as it was before exact points skipped their float
    norms: the scale is the point's norm, times each facet's."""
    try:
        scale = max(cones._float_norm(x), 1.0)
    except OverflowError:
        if not all_exact(x):
            raise
        scale = 1.0
    if K.kind == "second_order":
        slack = x[-1] * x[-1] - sum(h * h for h in x[:-1])
        return [classify_sign(x[-1], tol, scale),
                classify_sign(slack, tol, scale * scale)]
    return [classify_sign(_dot(h, x), tol, scale * cones._float_norm(h))
            for h in K.facet_normals]


def maps_into_by_rays(A, K, interior, tol=DEFAULT_TOL, trials=8, seed=0):
    """The oracle of ``cones._maps_into``: one image ``_dot`` per probe
    point or extreme ray, and one pairing ``_dot`` per facet."""
    def image(x):
        return tuple(_dot(r, x) for r in A.rows)

    if K.kind == "second_order":
        undecided = None
        for x in cones._probe_points(K, trials, seed):
            signs = _signs_with_norms(K, image(x), tol)
            if Sign.NEG in signs or (interior and Sign.ZERO in signs):
                return Verdict(FAILS, witness=("point", x))
            if interior and undecided is None and Sign.INDETERMINATE in signs:
                undecided = x
        if undecided is not None:
            return Verdict(UNKNOWN, witness=("point", undecided))
        return Verdict(HOLDS_SAMPLED, note="refutation sampled, none found")
    led = InequalityLedger(tol)
    facets = [(h, cones._float_norm(h)) for h in K.facet_normals]
    for g in extreme_ray_reps(K):
        y = image(g)
        try:
            ys = cones._float_norm(y)
        except OverflowError:
            ys = math.inf
        exact_y = all_exact(y)
        floor = cones._float_norm(g) if interior else 0.0
        for h, hs in facets:
            scale = ys * hs
            if scale == math.inf and exact_y:
                scale = sum(map(abs, y)) * sum(map(abs, h))
            led.require(_dot(h, y), 0, witness=("ray", g, "facet", h),
                        strict=interior, scale=max(scale, floor))
    return led.verdict()


def outcome(run):
    """A verdict's status, witness and margin bits (type, value and, for a
    float, its hex), or the type of the exception it raised."""
    try:
        v = run()
    except (OverflowError, ValueError) as e:
        return type(e)
    m = v.margin
    return (v.status, v.witness, v.note, type(m),
            m.hex() if isinstance(m, float) else m)


MAPPING_CONES = [
    Cone.orthant(3),
    # (1, 1, 0) and (1, 1, 1) are redundant generators
    Cone.polyhedral([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)]),
    # a square pyramid: four rays, four facets, not simplicial
    Cone.polyhedral([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
    Cone.polyhedral([(1, 0, 0), (1, 2, 0), (Fraction(1, 3), 1, 1)]),
    Cone.second_order(3),
]
MAPPING_ENTRIES = st.one_of(
    st.sampled_from([0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3), 0.0, -0.0,
                     0.5, -1.5, 1e300, -1e300]),
    st.floats(-10, 10, allow_nan=False))


class TestMapsIntoProducts:
    """The object-array products of ``_maps_into`` against the per-ray
    loop they replace, on every observable of the verdict."""

    @given(st.sampled_from(range(len(MAPPING_CONES))),
           st.lists(MAPPING_ENTRIES, min_size=9, max_size=9),
           st.booleans(), st.integers(0, 3))
    @example(0, [-0.0, 0, 0, 0, -0.0, 0, 0, 0, 1], True, 0)
    @example(1, [1e300, 1e300, 0, 0, 1, 0, 0, 0, 1], False, 0)
    @example(4, [1e300, 0, 0, 0, 1, 0, 0, 0, 1e300], False, 0)
    @example(2, [Fraction(1, 2), 0, 0.0, 0, -0.0, 0, 0, 0, 1], True, 1)
    @settings(max_examples=300, deadline=None)
    def test_products_match_the_per_ray_loop(self, k, entries, interior,
                                             seed):
        K = MAPPING_CONES[k]
        A = SquareMatrix.from_rows([entries[0:3], entries[3:6], entries[6:9]])
        assert (outcome(lambda: cones._maps_into(
                    A.to_objects(), K, interior, DEFAULT_TOL,
                    cones._probe_points(K, 8, seed)))
                == outcome(lambda: maps_into_by_rays(A, K, interior,
                                                     seed=seed)))

    def test_exact_images_of_huge_rays_match(self):
        # exact images past the float range take the exact 1-norm scale
        K = Cone.polyhedral([(1, 0), (10 ** 150, 1)])
        for rows in ([[1, 0], [0, 1]], [[2, 10 ** 160], [0, 3]],
                     [[Fraction(1, 3), 0], [1, 1]]):
            A = SquareMatrix.from_rows(rows)
            for interior in (False, True):
                assert (outcome(lambda: cones._maps_into(
                            A.to_objects(), K, interior, DEFAULT_TOL, None))
                        == outcome(lambda: maps_into_by_rays(A, K, interior)))

    @pytest.mark.parametrize("interior", [False, True])
    def test_norms_past_the_float_range(self, interior):
        # the squares of the facet (1, -10^200) and of the ray (10^200, 1)
        # overflow: the facet's norm is math.hypot's, and the ray's image
        # falls back to inf, then to the exact 1-norms; the identity maps
        # K onto K
        K = Cone.polyhedral([(1, 0), (10 ** 200, 1)])
        assert list(map(cones._facet_norm, K.facet_normals)) == [1.0, 1e200]
        kernel = matrix_k_positive if interior else matrix_k_nonnegative
        v = kernel(SquareMatrix.identity(2), K)
        assert v.status == ("fails" if interior else "holds")
        assert v.margin == 0
        huge = Cone.polyhedral([(1, 0), (10 ** 400, 1)])
        assert list(map(cones._facet_norm, huge.facet_normals)) == [1.0,
                                                                    math.inf]

    def test_ray_floor_past_the_float_range(self):
        # v w^T maps both rays of K onto v, in int K, with pairings
        # 10^-300 with the facet (0, 1) and 10^-100 with (1, -10^200); the
        # float norm of v is about 2e-100, so the interior test's scale is
        # the floor of each ray: 1 for (1, 0) and, for (10^200, 1), whose
        # square overflows, its exact 1-norm 10^200 + 1, which binds
        K = Cone.polyhedral([(1, 0), (10 ** 200, 1)])
        v = (Fraction(2, 10 ** 100), Fraction(1, 10 ** 300))
        w = (1, 1 - 10 ** 200)
        A = SquareMatrix.from_rows([[a * b for b in w] for a in v])
        positive = matrix_k_positive(A, K)
        assert positive.status == "holds"
        assert positive.margin == Fraction(1, 10 ** 300 * (10 ** 200 + 1))
        assert positive.witness == ("ray", (10 ** 200, 1), "facet", (0, 1))
        # no floor without the interior test
        assert matrix_k_nonnegative(A, K).margin == Fraction(1, 10 ** 300)

    def test_float_points_keep_a_finite_band_on_huge_facets(self):
        # (0, 1) is outside the wedge between (1, 0) and (10^200, 1): its
        # pairing -1e200 with the facet (1, -10^200) is negative far beyond
        # the band, which an inf facet norm would have made infinite
        K = Cone.polyhedral([(1, 0), (10 ** 200, 1)])
        assert not contains(K, (0.0, 1.0))
        assert contains(K, (1.0, 0.0))
        # so the eigenvector (0, 1) of the eigenvalue 1 is no other
        # semipositive eigenvector, as over the wedge up to (1000, 1)
        A = SquareMatrix.from_rows([[2, 0], [0, 1]])
        for cone in (K, Cone.polyhedral([(1, 0), (1000, 1)])):
            assert perron_report(A, cone).other_semipositive_eigenvector is False
