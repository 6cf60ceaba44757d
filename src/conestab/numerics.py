"""Scalar tower and dense linear-algebra kernel.

Sign decisions (determinants, leading minors, ranks, coefficient tests)
run on exact rationals whenever the inputs are rational, because they
drive stability verdicts and must not flip from rounding; one int
elimination sweep gives determinants and ranks, and the Routh recurrence
gives the leading minors of a Hurwitz matrix.  Floating point is reserved
for eigenproblems, and every float comparison against zero goes through a
named :class:`Tolerance`.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .errors import DimensionMismatch, NonConvergence, ParseError, ZeroPolynomial

Scalar = Union[int, Fraction, float]


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _object_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of the object arrays a and b, each entry the ``_dot``
    of its row and column, bit for bit.  An object ``dot`` sums from its
    first product, so it may give -0.0 where a sum from int 0 gives 0.0;
    adding 0 turns that into 0.0.  Float overflow gives inf, without a
    warning."""
    with np.errstate(all="ignore"):
        return a.dot(b) + 0


def is_exact(x) -> bool:
    """True for values carrying exact rational arithmetic (int / Fraction,
    their subclasses included, bool excluded)."""
    t = type(x)
    if t is int or t is Fraction:
        return True
    if t is float:
        return False
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(values: Iterable) -> bool:
    return all(is_exact(v) for v in values)


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """a / b, staying exact when both operands are exact."""
    if is_exact(a) and is_exact(b):
        return Fraction(a) / Fraction(b)
    return a / b


def scalar_from_json(value, exact: bool) -> Scalar:
    """Parse a JSON number or ``"p/q"`` / decimal string.

    In exact mode, float literals are read as their decimal spelling
    (``12.5`` becomes 25/2), which is what coefficient data means in
    practice.
    """
    if isinstance(value, bool):
        raise ParseError(f"not a scalar: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParseError("non-finite scalar")
        if exact:
            return Fraction(repr(value))
        return value
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        try:
            if (slash and value.isascii() and den.isdigit()
                    and num.removeprefix("-").isdigit()):
                # ASCII "p/q" or "-p/q": two ints, without the string parser
                frac = Fraction(int(num), int(den))
            else:
                frac = Fraction(value)
            return frac if exact else float(frac)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad scalar string {value!r}") from e
        except OverflowError as e:
            raise ParseError(f"{value!r} is beyond the float range") from e
    raise ParseError(f"not a scalar: {value!r}")


def int_from_json(value, what: str) -> int:
    """Parse a JSON integer: not a bool, a float such as ``2.0`` or a
    string; ``what`` names it in the error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, not {value!r}")
    return value


def vector_from_json(value, exact: bool, what: str) -> tuple:
    """Parse a JSON list of scalars; ``what`` names it in the error."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list of scalars, not {value!r}")
    return tuple(scalar_from_json(v, exact) for v in value)


def scalar_to_json(value):
    """An int, a "p/q" string for a non-integer Fraction, or a float; JSON
    has no NaN or Infinity, so a non-finite float is written as null."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return int(value)


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative widths for float sign classification."""

    abs: float = 1e-9
    rel: float = 1e-9

    def __post_init__(self):
        if self.abs < 0 or self.rel < 0:
            raise ValueError("tolerances must be nonnegative")

    def threshold(self, scale: float = 1.0) -> float:
        return self.abs + self.rel * abs(scale)


DEFAULT_TOL = Tolerance()


class Sign(enum.Enum):
    POS = "positive"
    NEG = "negative"
    ZERO = "zero"
    INDETERMINATE = "indeterminate"


def classify_sign(x, tol: Tolerance = DEFAULT_TOL, scale: float = 1.0) -> Sign:
    """Sign of ``x``: exact scalars compare against 0 directly; a float is
    positive only beyond ``abs + rel*scale``, negative only below the
    mirrored threshold, and indeterminate inside the band."""
    if is_exact(x):
        if x > 0:
            return Sign.POS
        if x < 0:
            return Sign.NEG
        return Sign.ZERO
    thr = tol.threshold(scale)
    if x > thr:
        return Sign.POS
    if x < -thr:
        return Sign.NEG
    return Sign.INDETERMINATE


def _differ(a, b, tol: Tolerance) -> bool:
    """Do the scalars a and b differ?  Exact pairs compare exactly; a float
    difference must clear the band at scale max(|a|, |b|, 1)."""
    sign = classify_sign(a - b, tol, max(abs(a), abs(b), 1))
    return sign in (Sign.POS, Sign.NEG)


@dataclass(frozen=True)
class SquareMatrix:
    """Dense square matrix over the scalar tower, row-major."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DimensionMismatch("matrix is not square")
            for v in r:
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows) -> "SquareMatrix":
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n))
                         for i in range(n)))

    @classmethod
    def from_numpy(cls, arr) -> "SquareMatrix":
        return cls.from_rows([[float(v) for v in row] for row in np.asarray(arr)])

    @property
    def n(self) -> int:
        return len(self.rows)

    @functools.cached_property
    def is_exact(self) -> bool:
        return all(is_exact(v) for r in self.rows for v in r)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def to_numpy(self) -> np.ndarray:
        return np.array([[float(v) for v in r] for r in self.rows], dtype=float)

    def to_objects(self) -> np.ndarray:
        """The entries as an n x n numpy object array."""
        return np.array(self.rows, dtype=object).reshape(self.n, self.n)

    def transpose(self) -> "SquareMatrix":
        n = self.n
        return SquareMatrix(tuple(tuple(self.rows[j][i] for j in range(n))
                                  for i in range(n)))

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.n)) if self.n else 0

    def add(self, other: "SquareMatrix") -> "SquareMatrix":
        if other.n != self.n:
            raise DimensionMismatch("size mismatch in add")
        return SquareMatrix(tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def scale(self, c) -> "SquareMatrix":
        return SquareMatrix(tuple(tuple(c * v for v in r) for r in self.rows))

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if other.n != self.n:
            raise DimensionMismatch("size mismatch in matmul")
        return SquareMatrix(_object_dot(self.to_objects(), other.to_objects())
                            .tolist())

    def leading_block(self, k: int) -> "SquareMatrix":
        return SquareMatrix(tuple(r[:k] for r in self.rows[:k]))

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.to_numpy())) if self.n else 0.0


def _object_power(a: np.ndarray, k: int) -> np.ndarray:
    """The k-th power of the square object array a by repeated squaring,
    each product an ``_object_dot``; the int identity when k is 0.  No
    other power is a product with the identity, so an int entry beside a
    Fraction or a float stays an int.  Every product feeds the result, so
    an entry past the float range leaves a non-finite entry in it."""
    if k < 0:
        raise ValueError("nonnegative powers only")
    out = None
    base = a
    while k:
        if k & 1:
            out = base if out is None else _object_dot(out, base)
        base = _object_dot(base, base) if k > 1 else base
        k >>= 1
    return np.identity(len(a), dtype=object) if out is None else out


def _integer_rows(rows):
    """``(int_rows, D)``: exact ``rows`` times their common denominator D,
    the lcm of the entries' denominators; D is None when every entry is
    already an int."""
    if all(isinstance(v, int) for r in rows for v in r):
        return [list(r) for r in rows], None
    D = math.lcm(*(v.denominator for r in rows for v in r))
    return [[v.numerator * (D // v.denominator) for v in r] for r in rows], D


def _cleared(values) -> tuple:
    """``(c, den)``: exact ``values`` a_k as the tuple of ints
    c_k = den * a_k over the lcm ``den`` of their denominators
    (:func:`_integer_rows`); any other ``values`` as given, with den = 1."""
    if not all_exact(values):
        return tuple(values), 1
    (c,), den = _integer_rows([values])
    return tuple(c), den or 1


def _bareiss(a):
    """One fraction-free (Bareiss) elimination sweep, in place, over the
    int rows ``a``, which may be rectangular.

    Returns ``(sign, pivots)``, with ``sign`` the parity of the row swaps.
    A zero pivot is swapped for a nonzero entry below it and a column with
    none is skipped, so every pivot is nonzero and their number is the
    rank.  The k-th pivot, and every entry that step k leaves, is a k x k
    minor of the pivot rows and columns so far (Sylvester's identity), so
    every division is exact; on a square nonsingular ``a`` the last pivot
    is +-det a.
    """
    m, n = len(a), len(a[0]) if a else 0
    sign = 1
    pivots = []
    prev = 1
    for c in range(n):
        k = len(pivots)  # the pivot row
        if k == m:
            break
        if a[k][c] == 0:
            i = next((i for i in range(k + 1, m) if a[i][c] != 0), None)
            if i is None:
                continue
            a[k], a[i] = a[i], a[k]
            sign = -sign
        pkc = a[k][c]
        pivots.append(pkc)
        rowk = a[k]
        for i in range(k + 1, m):
            rowi = a[i]
            aic = rowi[c]
            for j in range(c + 1, n):
                rowi[j] = (pkc * rowi[j] - aic * rowk[j]) // prev
        prev = pkc
    return sign, pivots


def _rank(vectors) -> int:
    """The rank of exact vectors: the number of pivots of their sweep."""
    return len(_bareiss(_integer_rows(vectors)[0])[1])


def determinant(M: SquareMatrix):
    """Determinant: Bareiss on exact entries, LU with pivoting otherwise.

    Exact entries are scaled by their common denominator D
    (:func:`_integer_rows`), so det M = det(D M) / D^n, a Fraction when any
    entry is a Fraction and an int otherwise, singular matrices included.
    The empty (0 x 0) matrix has determinant 1.
    """
    n = M.n
    if not M.is_exact:
        return float(np.linalg.det(M.to_numpy()))
    if n == 0:
        return 1
    a, D = _integer_rows(M.rows)
    sign, pivots = _bareiss(a)
    det = sign * pivots[-1] if len(pivots) == n else 0
    return det if D is None else Fraction(det, D ** n)


def _routh_minors(first, second) -> list:
    """The leading minors Delta_1, Delta_2, ... of the n x n int matrix
    with rows ``first``, ``second`` and row i + 2 row i shifted right by
    one (the Hurwitz matrix of a_0..a_{2n-1}), by the fraction-free Routh
    recurrence, up to Delta_n or up to and including the first zero.

    R_0 = ``first`` and E = ``second``; R_1[j] = R_0[0] E[j+1]
    - E[0] R_0[j+1], and R_{k+1}[j] = (R_k[0] R_{k-1}[j+1]
    - R_{k-1}[0] R_k[j+1]) / R_{k-2}[0] with R_{-1}[0] read as 1.  R_k is
    pivot row k of a Bareiss sweep without row swaps from the diagonal on,
    so every division is exact (Sylvester's identity), Delta_{k+1} =
    R_k[0], and a zero Delta_{k+1} with k + 1 < n stops it: O(n^2)
    operations in place of the sweep's O(n^3).
    """
    upper, lower = second, first
    div, next_div = 1, 1
    minors = [lower[0]]
    for _ in range(len(first) - 1):
        pivot = lower[0]
        if pivot == 0:
            break
        upper, lower = lower, [(pivot * u - upper[0] * v) // div
                               for u, v in zip(upper[1:], lower[1:])]
        div, next_div = next_div, pivot
        minors.append(lower[0])
    return minors


def leading_minors(M: SquareMatrix) -> list:
    """Delta_k = det of the top-left k x k block, k = 1..n.

    Exact entries give each minor in the ring of all of M's entries: an int
    when every entry is an int, a Fraction otherwise.  A matrix whose row
    i + 2 is row i shifted right by one, as a Hurwitz matrix is, takes the
    Routh recurrence on its two top rows; every later minor, after a zero
    stalls the recurrence and for any other matrix, is the determinant of
    its block.  Float entries use LU per block, and an overflowing minor
    is inf rather than a warning.
    """
    n = M.n
    if M.is_exact:
        rows = M.rows
        ring = (int if all(isinstance(v, int) for r in rows for v in r)
                else Fraction)
        minors = []
        if n >= 2 and all(r[0] == 0 and r[1:] == s[:-1]
                          for s, r in zip(rows, rows[2:])):
            # the lower rows repeat the top two, whose common denominator
            # is then the matrix's
            (first, second), D = _integer_rows(rows[:2])
            minors = _routh_minors(first, second)
            if ring is Fraction:
                D = D or 1
                minors = [Fraction(m, D ** k) for k, m in enumerate(minors, 1)]
        minors += [ring(determinant(M.leading_block(k)))
                   for k in range(len(minors) + 1, n + 1)]
        return minors
    A = M.to_numpy()
    with np.errstate(all="ignore"):
        return [float(np.linalg.det(A[:k, :k])) for k in range(1, n + 1)]


def sym_eigs(M: SquareMatrix):
    """Eigendecomposition of a (nearly) symmetric matrix by LAPACK ``eigh``.

    The matrix is symmetrized by averaging first.  Returns eigenvalues
    sorted descending and the matching orthonormal eigenvector columns.
    A LAPACK failure raises NonConvergence rather than returning a partial
    answer.
    """
    n = M.n
    A = M.to_numpy().reshape(n, n)
    try:
        values, V = np.linalg.eigh((A + A.T) / 2.0)
    except np.linalg.LinAlgError as e:
        raise NonConvergence(f"symmetric eigensolver failed: {e}") from e
    return [float(v) for v in values[::-1]], V[:, ::-1]


def all_roots(p, tol: Tolerance = DEFAULT_TOL) -> list:
    """All complex roots, via eigenvalues of the balanced companion matrix
    of the monic normalization (LAPACK QR iteration under the hood).

    Accepts a UniPoly or a raw ascending coefficient sequence.  Residuals
    |p(root)| are sanity-checked against a tolerance-scaled bound.  A
    coefficient beyond the float range raises NonConvergence, like a
    failed check.
    """
    coeffs = list(getattr(p, "coeffs", p))
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ZeroPolynomial("the zero polynomial has no root multiset")
    d = len(coeffs) - 1
    if d == 0:
        return []
    try:
        lead = float(coeffs[-1])
        monic = [float(c) / lead for c in coeffs]
    except OverflowError as e:
        raise NonConvergence(f"coefficient beyond the float range: {e}") from e
    C = np.zeros((d, d))
    for i in range(1, d):
        C[i, i - 1] = 1.0
    for i in range(d):
        C[i, d - 1] = -monic[i]
    try:
        roots = np.linalg.eigvals(C)
    except np.linalg.LinAlgError as e:
        raise NonConvergence(f"companion eigensolver failed: {e}") from e
    out = sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))
    eps = np.finfo(float).eps
    c_exp = math.frexp(max(abs(c) for c in monic))[1]
    for r in out:
        # p(r), its scale and its bound are below (d+1) max|c| max(1, |r|)^d;
        # where that may near the float range, all three are divided by
        # 2^(k d) >= max(1, |r|)^d, a power of two, so the scaling is exact
        k = max(0, math.frexp(abs(r))[1])
        if k * d + c_exp < 1000:
            z, cs, k = r, monic, 0
        else:
            z = complex(math.ldexp(r.real, -k), math.ldexp(r.imag, -k))
            cs = [math.ldexp(c, -k * (d - i)) for i, c in enumerate(monic)]
        scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(cs))
        acc = 0.0 + 0.0j
        for c in reversed(cs):
            acc = acc * z + c
        residual = abs(acc)
        bound = max(tol.abs * math.ldexp(1.0, -k * d) + tol.rel * scale,
                    1e4 * d * eps * scale)
        if residual > bound:
            raise NonConvergence(
                f"root residual {_unscaled(residual, k * d):.3e} exceeds "
                f"bound {_unscaled(bound, k * d):.3e}")
    return out


def _unscaled(x: float, e: int) -> float:
    """x * 2^e, or inf past the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _berkowitz(a) -> list:
    """Descending coefficients of det(tI - a) for a square int or float
    matrix.

    Berkowitz's algorithm: with a_r the leading r x r block, R and C the
    row and column that border it and a_rr the new diagonal entry, the
    characteristic polynomial of the next block is the Toeplitz product
    T p_r, where p_r holds those of a_r and T has first column
    (1, -a_rr, -R C, -R a_r C, ..., -R a_r^(r-1) C).  No step divides, so
    int entries give int coefficients.

    The Krylov products R a_r^k C run as numpy ``dot``s over an object
    array, so each is one C loop over the Python scalars, exact on ints.
    An object ``dot`` starts its sum from the first product and may give
    -0.0 where a sum from int 0 gives 0.0; the Toeplitz product sums from
    int 0, so every float coefficient is that of plain Python sums, bit
    for bit.  Float overflow gives inf or nan, without a warning.
    """
    A = np.array(a, dtype=object)
    p = [1]
    with np.errstate(all="ignore"):
        for r in range(len(a)):
            block, row = A[:r, :r], A[r, :r]
            c = [1, -a[r][r]]
            v = A[:r, r]
            for k in range(r):
                c.append(-row.dot(v))
                if k < r - 1:
                    v = block.dot(v)
            p = [_dot(c[i::-1], p[:i + 1]) for i in range(r + 2)]
    return p


def inertia(rows) -> tuple:
    """``(positive, zero)``: the numbers of positive and of zero
    eigenvalues, with multiplicity, of the exact symmetric matrix ``rows``,
    counted exactly.  The characteristic polynomial of a symmetric matrix
    has only real roots, so Descartes' rule of signs is exact on it: its
    positive roots are the sign changes of its coefficients, here those of
    the int matrix D rows (:func:`_integer_rows`, D > 0) by
    :func:`_berkowitz`, and the multiplicity of its root 0 is the number
    of its trailing zero coefficients."""
    chi = _berkowitz(_integer_rows(rows)[0])
    signs = [c > 0 for c in chi if c != 0]
    zero = len(chi) - 1 - max(k for k, c in enumerate(chi) if c != 0)
    return sum(a != b for a, b in zip(signs, signs[1:])), zero


def char_poly(A: SquareMatrix):
    """Characteristic polynomial det(tI - A), monic, ascending coefficients,
    computed by :func:`_berkowitz` on every input.

    Exact ``A`` is scaled by its common denominator D to the int matrix
    B = D A (:func:`_integer_rows`) and chi_B is computed division-free;
    then chi_A(t) = D^-n chi_B(D t), so coefficient k is the Fraction
    c_k(B) / D^(n-k).  The coefficients lie in the ring of A's entries, as
    the minors of :func:`leading_minors` do: ints when every entry is an
    int, Fractions below the leading int 1 when any entry is a Fraction
    (D = 1 included).  Any other ``A`` runs on its entries converted to
    float, which gives float coefficients below the leading int 1.
    """
    from .unipoly import UniPoly

    n = A.n
    if A.is_exact:
        B, D = _integer_rows(A.rows)
    else:
        B, D = [[float(v) for v in r] for r in A.rows], None
    c = _berkowitz(B)[:0:-1]  # ascending, without the leading 1
    if D is not None:
        c = [Fraction(ck, D ** (n - k)) for k, ck in enumerate(c)]
    return UniPoly(tuple(c) + (1,))
