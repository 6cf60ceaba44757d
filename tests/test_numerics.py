import math
import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conestab import (NonConvergence, SquareMatrix, Tolerance, UniPoly,
                      ZeroPolynomial, all_roots, char_poly, determinant,
                      hurwitz_matrix, leading_minors, sym_eigs)
from conestab.errors import ParseError
from conestab.numerics import (Sign, _berkowitz, _object_power, classify_sign,
                               is_exact, scalar_from_json)

from conftest import (EXACT_SCALARS, cofactor_det, rand_fraction_matrix,
                      rand_int_matrix)


class IntSub(int):
    pass


class FractionSub(Fraction):
    pass


class TestDeterminant:
    def test_identity(self):
        assert determinant(SquareMatrix.identity(3)) == 1

    def test_empty_matrix_is_one(self):
        assert determinant(SquareMatrix.from_rows([])) == 1

    def test_two_by_two_formula(self):
        # rows laid out like the top of a Hurwitz matrix for (1,2,3,4)
        M = SquareMatrix.from_rows([[2, 4], [1, 3]])
        assert determinant(M) == 2 * 3 - 1 * 4 == 2

    def test_matches_cofactor_oracle_on_random_rationals(self, rng):
        for _ in range(40):
            n = rng.randint(1, 5)
            M = rand_fraction_matrix(rng, n)
            assert determinant(M) == cofactor_det([list(r) for r in M.rows])

    def test_matches_cofactor_oracle_at_n6(self, rng):
        for _ in range(5):
            M = rand_fraction_matrix(rng, 6)
            assert determinant(M) == cofactor_det([list(r) for r in M.rows])

    def test_singular_exact(self):
        M = SquareMatrix.from_rows([[1, 2], [2, 4]])
        assert determinant(M) == 0

    def test_float_fallback(self):
        M = SquareMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]])
        assert determinant(M) == pytest.approx(-1.0)


class TestLeadingMinors:
    def test_identity(self):
        assert leading_minors(SquareMatrix.identity(3)) == [1, 1, 1]

    def test_diagonal(self):
        M = SquareMatrix.from_rows([[2, 0, 0], [0, -1, 0], [0, 0, 3]])
        assert leading_minors(M) == [2, -2, -6]

    def test_hurwitz_matrix_of_cubic(self):
        # hand cofactor expansion of the 3x3 layout for 1+2t+3t^2+4t^3
        assert leading_minors(hurwitz_matrix(UniPoly((1, 2, 3, 4)))) == [2, 2, 8]

    def test_zero_pivot_fallback(self, rng):
        M = SquareMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert leading_minors(M) == [0, -1, 2]

    def test_matches_per_block_determinants(self, rng):
        for _ in range(25):
            n = rng.randint(1, 6)
            M = rand_int_matrix(rng, n)
            expected = [cofactor_det([list(r[:k]) for r in M.rows[:k]])
                        for k in range(1, n + 1)]
            assert leading_minors(M) == expected


# pairwise coprime denominators near 10^6, so a common denominator is large
PRIMES_NEAR_1E6 = (999959, 999961, 999979, 999983, 1000003, 1000033,
                   1000037, 1000039)


@st.composite
def coprime_denominator_matrices(draw, max_n):
    """Fraction, int or mixed matrices whose denominators are primes near
    10^6; a few entries may be zero."""
    n = draw(st.integers(1, max_n))
    ints = st.integers(-10**6, 10**6)
    fracs = st.builds(Fraction, ints, st.sampled_from(PRIMES_NEAR_1E6))
    scalars = draw(st.sampled_from([fracs, st.one_of(fracs, ints),
                                    st.one_of(fracs, st.just(0))]))
    return SquareMatrix.from_rows([[draw(scalars) for _ in range(n)]
                                   for _ in range(n)])


SPARSE_SCALARS = st.sampled_from([0, 0, 0, 1, -1, 2])
SPARSE_FRACTIONS = st.sampled_from([Fraction(0), Fraction(0), Fraction(1),
                                    Fraction(-1, 2), Fraction(2, 3)])


@st.composite
def stalling_matrices(draw):
    """Sparse int, Fraction or mixed matrices, n <= 6; a random leading
    block is made singular, so a zero pivot stalls the Bareiss sweep."""
    n = draw(st.integers(1, 6))
    scalars = draw(st.sampled_from([SPARSE_SCALARS, SPARSE_FRACTIONS,
                                    EXACT_SCALARS]))
    rows = [[draw(scalars) for _ in range(n)] for _ in range(n)]
    for k in draw(st.lists(st.integers(1, n), max_size=2)):
        rows[k - 1][:k] = [rows[k - 1][0] * 0] * k
    return rows


@st.composite
def singular_matrices(draw):
    """``stalling_matrices`` made singular: one row becomes a multiple of
    another, or one column becomes zero (each entry times 0 keeps its
    type)."""
    rows = draw(stalling_matrices())
    n = len(rows)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if i != j and draw(st.booleans()):
        c = draw(st.sampled_from([0, 1, -2]))
        rows[j] = [c * x for x in rows[i]]
    else:
        for r in rows:
            r[j] *= 0
    return rows


def ring_of(rows):
    return int if all(isinstance(v, int) for r in rows for v in r) else Fraction


@st.composite
def hurwitz_shaped_matrices(draw):
    """n x n matrices, n <= 7, with two drawn top rows and row i + 2 row
    i shifted right by one, as a Hurwitz matrix is; sparse entries stall
    the Routh recurrence now and then."""
    n = draw(st.integers(1, 7))
    scalars = draw(st.sampled_from([SPARSE_SCALARS, SPARSE_FRACTIONS,
                                    EXACT_SCALARS]))
    rows = [[draw(scalars) for _ in range(n)] for _ in range(min(n, 2))]
    while len(rows) < n:
        rows.append([0] + rows[-2][:-1])
    return rows


class TestBareissKernel:
    @given(st.one_of(stalling_matrices(), singular_matrices()))
    # singular: the zero of the entries' ring, with no pivot or with some
    @example([[0, 0], [0, 0]])
    @example([[0, Fraction(0)], [0, 0]])
    @example([[Fraction(1, 2), 1], [1, 2]])
    @example([[1, 2, 3], [2, 4, 6], [0, 0, Fraction(1, 3)]])
    @settings(max_examples=300, deadline=None)
    def test_determinant_matches_cofactor_oracle(self, rows):
        det = determinant(SquareMatrix.from_rows(rows))
        assert det == cofactor_det(rows)
        assert type(det) is ring_of(rows)

    @pytest.mark.parametrize("rows", [
        [[0, 1], [1, 0]],
        [[0, 2, 1], [3, 0, 0], [0, 1, 4]],
        [[0, 0, 1], [0, 1, 0], [Fraction(1, 2), 0, 0]],
    ])
    def test_zero_pivot_swap_flips_the_sign(self, rows):
        assert determinant(SquareMatrix.from_rows(rows)) == cofactor_det(rows)

    @given(stalling_matrices())
    # a Fraction matrix whose block after the stall holds only ints
    @example([[0, 0, 0], [0, 0, 0], [0, 0, Fraction(1)]])
    @settings(max_examples=300, deadline=None)
    def test_leading_minors_match_cofactor_oracle(self, rows):
        minors = leading_minors(SquareMatrix.from_rows(rows))
        assert minors == [cofactor_det([r[:k] for r in rows[:k]])
                          for k in range(1, len(rows) + 1)]
        assert all(type(m) is ring_of(rows) for m in minors)

    @given(hurwitz_shaped_matrices())
    @example([[1, 1, 0], [1, 1, 0], [0, 1, 1]])
    # a lower row that repeats a top-row int as a Fraction keeps the
    # sweep's Fraction ring
    @example([[1, 3, 0], [2, 4, 0], [0, Fraction(1), 3]])
    # row 3 is row 1 shifted but starts with 7, not 0: not a Hurwitz matrix
    @example([[1, 2, 3], [4, 5, 6], [7, 1, 2]])
    @settings(max_examples=300, deadline=None)
    def test_hurwitz_shaped_minors_match_cofactor_oracle(self, rows):
        minors = leading_minors(SquareMatrix.from_rows(rows))
        assert minors == [cofactor_det([r[:k] for r in rows[:k]])
                          for k in range(1, len(rows) + 1)]
        assert all(type(m) is ring_of(rows) for m in minors)

    @given(coprime_denominator_matrices(5))
    @settings(max_examples=100, deadline=None)
    def test_coprime_denominators_match_cofactor_oracle(self, M):
        rows = M.rows
        det, minors = determinant(M), leading_minors(M)
        assert det == cofactor_det(rows)
        assert minors == [cofactor_det([r[:k] for r in rows[:k]])
                          for k in range(1, len(rows) + 1)]
        assert type(det) is ring_of(rows)
        assert all(type(m) is ring_of(rows) for m in minors)


class TestSymEigs:
    def test_all_ones_minus_identity(self):
        M = SquareMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        vals, vecs = sym_eigs(M)
        assert vals == pytest.approx([2.0, -1.0, -1.0], abs=1e-9)
        R = vecs @ np.diag(vals) @ vecs.T
        assert np.allclose(R, M.to_numpy(), atol=1e-9)

    def test_diagonal_with_standard_basis_vectors(self):
        M = SquareMatrix.from_rows([[5, 0], [0, -1]])
        vals, vecs = sym_eigs(M)
        assert vals == pytest.approx([5.0, -1.0])
        assert np.allclose(np.abs(vecs), np.eye(2), atol=1e-12)

    def test_trace_and_det_identities(self, rng):
        for _ in range(20):
            n = rng.randint(2, 10)
            A = np.array([[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)])
            A = (A + A.T) / 2
            M = SquareMatrix.from_numpy(A)
            vals, _ = sym_eigs(M)
            assert sum(vals) == pytest.approx(float(np.trace(A)), abs=1e-7, rel=1e-7)
            assert math.prod(vals) == pytest.approx(float(np.linalg.det(A)),
                                                    abs=1e-6, rel=1e-6)

    def test_symmetrizes_before_decomposing(self):
        M = SquareMatrix.from_rows([[1.0, 2.0], [0.0, 1.0]])
        vals, _ = sym_eigs(M)
        assert vals == pytest.approx([2.0, 0.0])

    def test_empty_and_one_by_one(self):
        vals, vecs = sym_eigs(SquareMatrix.from_rows([]))
        assert vals == [] and vecs.shape == (0, 0)
        vals, vecs = sym_eigs(SquareMatrix.from_rows([[-3]]))
        assert vals == [-3.0] and np.array_equal(np.abs(vecs), [[1.0]])

    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    @settings(max_examples=200, deadline=None)
    def test_property_descending_and_reconstructs(self, rows):
        M = SquareMatrix.from_rows(rows)
        vals, vecs = sym_eigs(M)
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        A = M.to_numpy()
        S = (A + A.T) / 2
        scale = max(1.0, float(np.abs(S).max()))
        assert np.allclose(vecs.T @ vecs, np.eye(M.n), atol=1e-12)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, S,
                           atol=1e-12 * M.n * scale, rtol=0)

    def test_lapack_failure_is_nonconvergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NonConvergence, match="did not converge"):
            sym_eigs(SquareMatrix.from_rows([[1, 2], [2, 1]]))


class TestAllRoots:
    def test_linear(self):
        assert all_roots(UniPoly((1, 1))) == [(-1 + 0j)]

    def test_quadratic_factorization(self):
        roots = all_roots(UniPoly((2, 3, 1)))
        assert roots == pytest.approx([-2, -1])

    def test_stable_quintic_has_negative_real_parts(self):
        roots = all_roots(UniPoly((5, 25, 50, 30, 10, 3)))
        assert len(roots) == 5
        assert all(r.real < 0 for r in roots)

    def test_zero_polynomial_raises(self):
        with pytest.raises(ZeroPolynomial):
            all_roots(UniPoly(()))

    def test_constant_has_empty_multiset(self):
        assert all_roots(UniPoly((7,))) == []

    def test_huge_root_residual_does_not_overflow(self):
        # x^2 + 1e300 x: |r|^2 alone is past the float range
        assert all_roots((0.0, 1e300, 1.0)) == [complex(-1e300), 0j]

    def test_coefficient_beyond_float_range_is_nonconvergence(self):
        with pytest.raises(NonConvergence, match="beyond the float range"):
            all_roots((1, Fraction(10 ** 400), 1))

    def test_inaccurate_roots_fail_the_residual_check(self):
        # the companion eigensolver returns 0 for the root near -1, where
        # p = 1e300 + 1e300 x + x^2 is 1e300
        with pytest.raises(NonConvergence, match="root residual 1.000e"):
            all_roots((1e300, 1e300, 1.0))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=9)
           .filter(lambda c: abs(c[-1]) >= 1e-3))
    @settings(max_examples=200, deadline=None)
    def test_residual_check_agrees_with_the_plain_one(self, coeffs):
        # the unscaled check, which cannot overflow at these sizes
        lead = coeffs[-1]
        monic = [c / lead for c in coeffs]
        d = len(monic) - 1
        eps = np.finfo(float).eps
        C = np.zeros((d, d))
        for i in range(1, d):
            C[i, i - 1] = 1.0
        for i in range(d):
            C[i, d - 1] = -monic[i]
        plain_ok = True
        for r in np.linalg.eigvals(C):
            r = complex(r)
            scale = sum(abs(c) * abs(r) ** i for i, c in enumerate(monic))
            acc = 0j
            for c in reversed(monic):
                acc = acc * r + c
            plain_ok &= abs(acc) <= max(Tolerance().threshold(scale),
                                        1e4 * d * eps * scale)
        try:
            all_roots(coeffs)
            ok = True
        except NonConvergence:
            ok = False
        assert ok == plain_ok

    def test_reexpansion_matches_monic_input(self, rng):
        for _ in range(30):
            d = rng.randint(1, 10)
            coeffs = [rng.uniform(-5, 5) for _ in range(d)] + [rng.uniform(0.5, 3)]
            p = UniPoly(tuple(coeffs)).monic()
            roots = all_roots(p)
            re = np.poly(np.array(roots))[::-1]  # ascending
            for k in range(d + 1):
                assert abs(complex(re[k]) - p.coeff(k)) <= 1e-6 * max(
                    1.0, abs(p.coeff(k)))


def cofactor_char_poly(A: SquareMatrix) -> UniPoly:
    """det(tI - A) by exact polynomial cofactor expansion; the independent
    characteristic-polynomial oracle."""
    n = A.n
    entries = [[UniPoly((-A[i, j], 1)) if i == j else UniPoly((-A[i, j],))
                for j in range(n)] for i in range(n)]

    def poly_det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = UniPoly(())
        for j, head in enumerate(rows[0]):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = head * poly_det(minor)
            total = total + (term if j % 2 == 0 else term.scale(-1))
        return total

    return poly_det(entries)


@st.composite
def exact_matrices(draw, max_n, min_n=1):
    """Exact square matrices, dense or sparse.  Some are block upper
    triangular, so a column is already zero below the subdiagonal when the
    Hessenberg reduction reaches it; others have a zero subdiagonal pivot
    over a nonzero entry below it in the first column, forcing a swap."""
    n = draw(st.integers(min_n, max_n))
    scalars = draw(st.sampled_from([EXACT_SCALARS, SPARSE_SCALARS]))
    rows = [[draw(scalars) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["dense", "zero_column", "swap"]))
    if n >= 3 and shape == "zero_column":
        k = draw(st.integers(1, n - 2))
        for i in range(k, n):
            rows[i][:k] = [0] * k
    elif n >= 3 and shape == "swap":
        rows[1][0] = 0
        rows[n - 1][0] = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
    return SquareMatrix.from_rows(rows)


@st.composite
def float_matrices(draw, max_n):
    """Float matrices with non-integer entries, in four families: Gaussian,
    Gaussian scaled by 10^6 or 10^-6, 10^3 times a Gaussian upper
    Hessenberg matrix with 1e-8-sized entries below the subdiagonal, and
    P D P^-1 with a Gaussian diagonal D."""
    n = draw(st.integers(2, max_n))
    family = draw(st.sampled_from(["gaussian", "scaled", "near_hessenberg",
                                   "similar"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = rng.standard_normal((n, n))
    if family == "scaled":
        G *= 10.0 ** draw(st.sampled_from([-6, 6]))
    elif family == "near_hessenberg":
        G = 1e3 * (np.triu(G, -1) + 1e-8 * np.tril(G, -2))
    elif family == "similar":
        P = rng.standard_normal((n, n)) + n * np.eye(n)
        G = P @ np.diag(rng.standard_normal(n)) @ np.linalg.inv(P)
    return SquareMatrix.from_numpy(G)


def hessenberg_char_poly(A: SquareMatrix) -> UniPoly:
    """Reference oracle for exact char_poly: reduction to upper Hessenberg
    form on Fractions (first nonzero pivot), then Cohen's recurrence
    (Alg. 2.2.9) for chi, in the order and with the types it produces."""
    H = [[Fraction(v) for v in r] for r in A.rows]
    n = len(H)
    for m in range(1, n - 1):
        col = m - 1
        piv = next((i for i in range(m, n) if H[i][col]), m)
        if not H[piv][col]:
            continue
        if piv != m:
            H[m], H[piv] = H[piv], H[m]
            for row in H:
                row[m], row[piv] = row[piv], row[m]
        for i in range(m + 1, n):
            u = H[i][col] / H[m][col]
            H[i][col] = Fraction(0)
            for j in range(m, n):
                H[i][j] -= u * H[m][j]
            for row in H:
                row[m] += u * row[i]
    p = [[1]]
    for k in range(n):
        cur = [0] + p[k]
        for j, c in enumerate(p[k]):
            cur[j] -= H[k][k] * c
        prod = 1
        for i in range(1, k + 1):
            prod *= H[k - i + 1][k - i]
            for j, c in enumerate(p[k - i]):
                cur[j] -= prod * H[k - i][k] * c
        p.append(cur)
    return UniPoly(tuple(p[-1]))


def entry_ring(A: SquareMatrix):
    """The ring of char_poly's coefficients below its leading int 1: int
    when every entry of A is an int, Fraction when any entry is one."""
    return int if all(isinstance(v, int) for r in A.rows for v in r) else Fraction


def reference_berkowitz(a) -> list:
    """Berkowitz's algorithm in plain Python sums, each from int 0: the
    pure-Python kernel that the object-array one must match bit for bit."""
    def dot(u, v):
        return sum(map(operator.mul, u, v))

    p = [1]
    for r in range(len(a)):
        block = [row[:r] for row in a[:r]]
        row = a[r][:r]
        c = [1, -a[r][r]]
        v = [a[i][r] for i in range(r)]
        for k in range(r):
            c.append(-dot(row, v))
            if k < r - 1:
                v = [dot(b, v) for b in block]
        p = [dot(c[i::-1], p[:i + 1]) for i in range(r + 2)]
    return p


def float_bits(values) -> list:
    """Each value's type and exact bits: the sign of a zero counts, and
    every nan is alike."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


# float entries whose Krylov products and coefficients reach signed zeros,
# cancellation, inf and nan
EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300, 1e308,
                     -1e308, 1e-300, 5e-324]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


def cayley_hamilton_residual(A: SquareMatrix, chi: UniPoly) -> SquareMatrix:
    """chi(A) by Horner's rule in exact matrix arithmetic."""
    ident = SquareMatrix.identity(A.n)
    acc = ident.scale(0)
    for c in reversed(chi.coeffs):
        acc = (acc @ A).add(ident.scale(c))
    return acc


class TestCharPoly:
    def test_diagonal(self):
        A = SquareMatrix.from_rows([[-1, 0], [0, -2]])
        assert char_poly(A).coeffs == (2, 3, 1)

    def test_companion_identity(self):
        # companion matrix of t^2 + 3t + 2 in the last-column layout
        C = SquareMatrix.from_rows([[0, -2], [1, -3]])
        assert char_poly(C).coeffs == (2, 3, 1)

    def test_empty_matrix_is_one(self):
        assert char_poly(SquareMatrix.from_rows([])).coeffs == (1,)

    def test_int_matrix_gives_int_coefficients(self):
        chi = char_poly(SquareMatrix.from_rows([[0, 1, 0], [0, 0, 1], [2, 0, 0]]))
        assert chi.coeffs == (-2, 0, 0, 1)
        assert all(type(c) is int for c in chi.coeffs)

    def test_matches_symbolic_cofactor_oracle(self, rng):
        for _ in range(10):
            A = rand_int_matrix(rng, 4, -5, 5)
            assert char_poly(A).coeffs == cofactor_char_poly(A).coeffs

    @given(exact_matrices(5))
    @settings(max_examples=150, deadline=None)
    def test_property_matches_cofactor_oracle(self, A):
        assert char_poly(A).coeffs == cofactor_char_poly(A).coeffs

    @given(exact_matrices(10))
    @settings(max_examples=40, deadline=None)
    def test_property_cayley_hamilton(self, A):
        chi = char_poly(A)
        assert chi.degree == A.n and chi.leading == 1
        residual = cayley_hamilton_residual(A, chi)
        assert all(v == 0 for r in residual.rows for v in r)

    # n = 11-12 is the top of the lti benchmark's range
    @given(st.one_of(exact_matrices(8), exact_matrices(12, min_n=11),
                     coprime_denominator_matrices(6)))
    @settings(max_examples=200, deadline=None)
    def test_property_matches_hessenberg_oracle_in_value_and_type(self, A):
        # the oracle runs on Fractions; char_poly keeps the entries' ring
        got, want = char_poly(A).coeffs, hessenberg_char_poly(A).coeffs
        assert got == want
        assert [type(c) for c in got] == [entry_ring(A)] * A.n + [int]

    @pytest.mark.parametrize("rows", [
        [[Fraction(1, 2), Fraction(-3, 7)], [Fraction(4), Fraction(5, 3)]],
        [[1, Fraction(1, 3), 0], [0, -2, Fraction(5, 2)], [7, 0, 1]],
        [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(3)]],
    ], ids=["fraction", "mixed", "whole-fractions"])
    def test_coefficient_types_of_rational_matrices(self, rows):
        # one Fraction entry, whole or not, makes every coefficient below
        # the leading 1 a Fraction
        chi = char_poly(SquareMatrix.from_rows(rows))
        assert all(type(c) is Fraction for c in chi.coeffs[:-1])
        assert type(chi.coeffs[-1]) is int and chi.coeffs[-1] == 1

    @given(coprime_denominator_matrices(5))
    @settings(max_examples=60, deadline=None)
    def test_property_coprime_denominators_match_cofactor_oracle(self, A):
        chi = char_poly(A)
        assert chi.coeffs == cofactor_char_poly(A).coeffs
        assert all(type(c) is entry_ring(A) for c in chi.coeffs[:-1])

    @given(st.integers(1, 7).flatmap(lambda n: st.lists(
        st.lists(EXTREME_FLOATS, min_size=n, max_size=n),
        min_size=n, max_size=n)))
    @example([[-0.0, 0.0], [0.0, -0.0]])
    @example([[-1e300, 1e300], [1e300, -1e300]])
    @example([[1e308, 1e308], [1e308, 1e308]])
    @example([[1e200, 1e200, 0.0], [1e200, 1e200, 1e200],
              [0.0, 1e200, 1e200]])
    @settings(max_examples=300, deadline=None)
    def test_property_float_berkowitz_matches_plain_sums_bitwise(self, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _berkowitz(rows)
        assert float_bits(got) == float_bits(reference_berkowitz(rows))

    @given(coprime_denominator_matrices(10))
    @settings(max_examples=15, deadline=None)
    def test_property_coprime_denominators_cayley_hamilton(self, A):
        chi = char_poly(A)
        assert chi.degree == A.n and chi.leading == 1
        residual = cayley_hamilton_residual(A, chi)
        assert all(v == 0 for r in residual.rows for v in r)

    @given(exact_matrices(10))
    @settings(max_examples=100, deadline=None)
    def test_property_float_mode_matches_exact(self, A):
        exact = char_poly(A).coeffs
        floats = char_poly(SquareMatrix.from_rows(
            [[float(v) for v in r] for r in A.rows])).coeffs
        # one float entry makes the whole matrix run in floats
        mixed = char_poly(SquareMatrix.from_rows(
            [[float(v) if (i + j) % 2 == 0 else v for j, v in enumerate(r)]
             for i, r in enumerate(A.rows)])).coeffs
        for coeffs in (floats, mixed):
            assert all(isinstance(c, float) for c in coeffs[:-1])
            assert type(coeffs[-1]) is int and coeffs[-1] == 1
        assert mixed == floats
        n = A.n
        # every |eigenvalue| is at most the largest absolute row sum, so
        # |coefficient of t^j| is at most C(n, n-j) * rho^(n-j)
        rho = max(sum(abs(v) for v in r) for r in A.rows)
        for j, (e, f) in enumerate(zip(exact, floats)):
            scale = math.comb(n, n - j) * float(rho) ** (n - j)
            assert abs(f - float(e)) <= 1e-9 * scale

    @given(float_matrices(12))
    @settings(max_examples=100, deadline=None)
    def test_property_float_matrices_match_exact_of_their_floats(self, A):
        # the float result against the exact characteristic polynomial of
        # the same binary fractions, on the scale of the test above
        floats = char_poly(A).coeffs
        exact = char_poly(SquareMatrix.from_rows(
            [[Fraction(v) for v in r] for r in A.rows])).coeffs
        n = A.n
        rho = max(sum(abs(v) for v in r) for r in A.rows)
        for j, (e, f) in enumerate(zip(exact, floats)):
            scale = math.comb(n, n - j) * rho ** (n - j)
            assert abs(f - float(e)) <= 1e-12 * scale

    def test_small_at_float_eigenvalues(self, rng):
        for _ in range(10):
            n = rng.randint(2, 5)
            A = rand_int_matrix(rng, n, -4, 4)
            chi = char_poly(A)
            norm = max(A.frobenius(), 1.0)
            for lam in np.linalg.eigvals(A.to_numpy()):
                assert abs(chi.eval(complex(lam))) <= 1e-6 * norm ** n


class TestToleranceAndSigns:
    def test_tolerance_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerance(-1, 0)

    def test_exact_zero_is_zero_not_indeterminate(self):
        assert classify_sign(Fraction(0)) is Sign.ZERO
        assert classify_sign(0) is Sign.ZERO

    def test_float_band_is_indeterminate(self):
        tol = Tolerance(1e-9, 1e-9)
        assert classify_sign(5e-10, tol) is Sign.INDETERMINATE
        assert classify_sign(3e-9, tol) is Sign.POS
        assert classify_sign(-3e-9, tol) is Sign.NEG

    @given(st.integers(-100, 100), st.integers(1, 40))
    def test_exact_signs_are_sharp(self, num, den):
        x = Fraction(num, den)
        expected = Sign.POS if x > 0 else Sign.NEG if x < 0 else Sign.ZERO
        assert classify_sign(x) is expected

    @pytest.mark.parametrize("s", [
        pytest.param(s, id=name) for name, s in [
            ("plain", "3/4"), ("negative", "-3/4"), ("plus", "+3/4"),
            ("spaces", " 3/4 "), ("underscore", "1_0/3"),
            ("leading-zeros", "007/14"), ("negative-zero", "-0/5"),
            ("negative-denominator", "3/-4"), ("zero-denominator", "1/0"),
            ("decimal", "1.5/2"), ("superscript", "\u00b2/3"),
            ("arabic-indic", "\u0663/4"), ("long", "1" * 5000 + "/3")]])
    def test_p_over_q_spellings_match_the_fraction_parser(self, s):
        # value, type and error of Fraction(s), whichever path reads s
        try:
            want = Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            for exact in (True, False):
                with pytest.raises(ParseError) as info:
                    scalar_from_json(s, exact)
                assert type(info.value.__cause__) is type(e)
            return
        got = scalar_from_json(s, True)
        assert got == want and type(got) is Fraction
        got = scalar_from_json(s, False)
        assert got == float(want) and type(got) is float

    def test_scalar_parsing(self):
        assert scalar_from_json("3/4", True) == Fraction(3, 4)
        assert scalar_from_json(12.5, True) == Fraction(25, 2)
        assert scalar_from_json(12.5, False) == 12.5
        assert scalar_from_json(7, True) == 7
        # float mode reads float literals and "p/q" strings as floats, but
        # an integer literal stays an exact int
        assert type(scalar_from_json(7, False)) is int
        assert type(scalar_from_json("7", False)) is float

    @pytest.mark.parametrize("value, expected", [
        (3, True), (-(10 ** 400), True), (Fraction(1, 3), True),
        (IntSub(2), True), (FractionSub(1, 2), True),
        (True, False), (False, False), (0.5, False), (np.float64(2.0), False),
        (np.int64(2), False), (1j, False), ("1", False), (None, False)])
    def test_is_exact(self, value, expected):
        assert is_exact(value) is expected


class TestMatrixBasics:
    def test_matmul_and_trace(self):
        A = SquareMatrix.from_rows([[1, 2], [3, 4]])
        B = SquareMatrix.from_rows([[0, 1], [1, 0]])
        assert (A @ B).rows == ((2, 1), (4, 3))
        assert A.trace() == 5

    def test_rejects_non_square(self):
        from conestab import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            SquareMatrix.from_rows([[1, 2, 3], [4, 5, 6]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SquareMatrix.from_rows([[float("nan")]])


def matmul_by_dots(A: SquareMatrix, B: SquareMatrix) -> SquareMatrix:
    """The oracle of ``@``: one ``_dot`` (a sum from int 0) per entry."""
    cols = list(zip(*B.rows))
    return SquareMatrix(tuple(tuple(sum(map(operator.mul, r, c)) for c in cols)
                              for r in A.rows))


def object_power(M: SquareMatrix, k: int) -> SquareMatrix:
    """``_object_power`` on M's entries, as a SquareMatrix, which rejects
    a non-finite entry."""
    return SquareMatrix(_object_power(M.to_objects(), k).tolist())


def power_by_dots(M: SquareMatrix, k: int) -> SquareMatrix:
    """The oracle of ``_object_power``: repeated squaring from the
    identity, by ``matmul_by_dots``."""
    out, base = SquareMatrix.identity(M.n), M
    while k:
        if k & 1:
            out = matmul_by_dots(out, base)
        base = matmul_by_dots(base, base) if k > 1 else base
        k >>= 1
    return out


def product_or_error(run):
    """The entries' types and bits (``float_bits``), or the type of the
    exception raised (a product past the float range is not finite)."""
    try:
        return [float_bits(r) for r in run().rows]
    except ValueError as e:
        return type(e)


@st.composite
def mixed_matrices_over(draw, scalars, min_n=1, max_n=4):
    n = draw(st.integers(min_n, max_n))
    return SquareMatrix.from_rows([[draw(scalars) for _ in range(n)]
                                   for _ in range(n)])


def mixed_matrices(min_n=1, max_n=4):
    """Square matrices over the ints, the Fractions, the floats, or a mix
    of them."""
    return st.sampled_from([
        EXACT_SCALARS, EXTREME_FLOATS,
        st.one_of(EXACT_SCALARS, EXTREME_FLOATS)]).flatmap(
            lambda scalars: mixed_matrices_over(scalars, min_n, max_n))


class TestMatrixProducts:
    """``@`` is one object ``dot`` plus 0, and ``_object_power`` starts from
    M's own power: both equal the ``_dot`` loops bit for bit."""

    @given(mixed_matrices(), st.data())
    @example(SquareMatrix.from_rows([[-0.0, 1.0], [0, -0.0]]), None)
    @settings(max_examples=300, deadline=None)
    def test_matmul_matches_the_dot_loop(self, A, data):
        B = (A if data is None else
             data.draw(mixed_matrices(A.n, A.n)))
        assert (product_or_error(lambda: A @ B)
                == product_or_error(lambda: matmul_by_dots(A, B)))

    @given(st.sampled_from([st.integers(-6, 6),
                            st.fractions(-6, 6, max_denominator=4),
                            EXTREME_FLOATS]).flatmap(
               lambda scalars: mixed_matrices_over(scalars)),
           st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_matrix_power_of_i_plus_a_matches_the_dot_loop(self, A, k):
        # I + A, the matrix that K-irreducibility raises to the power n - 1;
        # its entries are sums from int 0, so none is -0.0
        M = SquareMatrix.identity(A.n).add(A)
        assert (product_or_error(lambda: object_power(M, k))
                == product_or_error(lambda: power_by_dots(M, k)))

    def test_matrix_power_keeps_ints_that_the_identity_converted(self):
        # entries of one ring are bit for bit those of the loop from the
        # identity; with ints beside a Fraction or a float, the identity's
        # zeros (0 * 1/2, 0 * 0.5) turned the ints of their column into
        # Fractions or floats of the same value, and M^1 now keeps them
        for other in (Fraction(1, 2), 0.5):
            M = SquareMatrix.from_rows([[1, other], [0, 1]])
            assert object_power(M, 1).rows == M.rows
            assert type(object_power(M, 1)[1, 1]) is int
            assert type(power_by_dots(M, 1)[1, 1]) is type(other)
            for k in range(5):
                assert object_power(M, k).rows == power_by_dots(M, k).rows
        assert object_power(M, 0).rows == ((1, 0), (0, 1))
        with pytest.raises(ValueError):
            object_power(M, -1)


