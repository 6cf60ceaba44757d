"""Scalar tower and dense linear-algebra kernel.

Sign decisions (determinants, leading minors, coefficient tests) run on
exact rationals whenever the inputs are rational, because they drive
stability verdicts and must not flip from rounding.  Floating point is
reserved for eigenproblems, and every float comparison against zero goes
through a named :class:`Tolerance`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .errors import DimensionMismatch, NonConvergence, ParseError, ZeroPolynomial

Scalar = Union[int, Fraction, float]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def is_exact(x) -> bool:
    """True for values carrying exact rational arithmetic (int / Fraction)."""
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
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad scalar string {value!r}") from e
        return frac if exact else float(frac)
    raise ParseError(f"not a scalar: {value!r}")


def scalar_to_json(value):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return value
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

    @property
    def is_exact(self) -> bool:
        return all(is_exact(v) for r in self.rows for v in r)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def to_numpy(self) -> np.ndarray:
        return np.array([[float(v) for v in r] for r in self.rows], dtype=float)

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
        bt = other.transpose().rows
        return SquareMatrix(tuple(tuple(_dot(ra, bc) for bc in bt)
                                  for ra in self.rows))

    def mul_vec(self, v) -> tuple:
        if len(v) != self.n:
            raise DimensionMismatch("vector length mismatch")
        return tuple(_dot(r, v) for r in self.rows)

    def symmetrized(self) -> "SquareMatrix":
        n = self.n
        return SquareMatrix(tuple(
            tuple(exact_div(self.rows[i][j] + self.rows[j][i], 2)
                  for j in range(n)) for i in range(n)))

    def leading_block(self, k: int) -> "SquareMatrix":
        return SquareMatrix(tuple(r[:k] for r in self.rows[:k]))

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.to_numpy())) if self.n else 0.0


def matrix_power(M: SquareMatrix, k: int) -> SquareMatrix:
    if k < 0:
        raise ValueError("nonnegative powers only")
    out = SquareMatrix.identity(M.n)
    base = M
    while k:
        if k & 1:
            out = out @ base
        base = base @ base if k > 1 else base
        k >>= 1
    return out


def _bareiss(rows, pivoting: bool):
    """One fraction-free (Bareiss) elimination sweep over exact entries.

    Returns ``(sign, pivots)``: after step k the k-th pivot is the k-th
    leading principal minor of the row-permuted matrix (Sylvester's
    identity), and ``sign`` is the parity of the row swaps.  The sweep
    stops at the first zero pivot; with ``pivoting`` a zero pivot is first
    swapped for a nonzero entry below it, so a zero pivot then means a
    singular matrix.  Int entries stay ints (every division is exact); any
    other exact entries run on Fractions.
    """
    a = [list(r) for r in rows]
    n = len(a)
    use_int = all(isinstance(v, int) for row in a for v in row)
    if not use_int:
        a = [[Fraction(v) for v in row] for row in a]
    sign = 1
    pivots = []
    prev = 1
    for k in range(n):
        if pivoting and a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k] != 0), k)
            if i != k:
                a[k], a[i] = a[i], a[k]
                sign = -sign
        pkk = a[k][k]
        pivots.append(pkk)
        if pkk == 0:
            break
        rowk = a[k]
        for i in range(k + 1, n):
            rowi = a[i]
            aik = rowi[k]
            for j in range(k + 1, n):
                num = pkk * rowi[j] - aik * rowk[j]
                rowi[j] = num // prev if use_int else num / prev
            rowi[k] = 0
        prev = pkk
    return sign, pivots


def determinant(M: SquareMatrix):
    """Determinant: Bareiss on exact entries, LU with pivoting otherwise.

    The empty (0 x 0) matrix has determinant 1.
    """
    if M.is_exact:
        sign, pivots = _bareiss(M.rows, pivoting=True)
        return sign * pivots[-1] if pivots else 1
    return float(np.linalg.det(M.to_numpy()))


def leading_minors(M: SquareMatrix) -> list:
    """Delta_k = det of the top-left k x k block, k = 1..n.

    Exact entries take one Bareiss sweep without pivoting; when a zero
    pivot stalls it (some Delta_k = 0 with k < n), each remaining minor is
    the determinant of its block.  Float entries use LU per block, and an
    overflowing minor is inf rather than a warning.
    """
    n = M.n
    if M.is_exact:
        _, minors = _bareiss(M.rows, pivoting=False)
        return minors + [determinant(M.leading_block(k))
                         for k in range(len(minors) + 1, n + 1)]
    A = M.to_numpy()
    with np.errstate(all="ignore"):
        return [float(np.linalg.det(A[:k, :k])) for k in range(1, n + 1)]


def sym_eigs(M: SquareMatrix, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a (nearly) symmetric matrix by LAPACK ``eigh``.

    The matrix is symmetrized by averaging first.  Returns eigenvalues
    sorted descending and the matching orthonormal eigenvector columns.
    A LAPACK failure raises NonConvergence rather than returning a partial
    answer.  ``tol`` is accepted for interface stability and unused.
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


def _hessenberg(A: SquareMatrix) -> list:
    """Upper Hessenberg form of ``A`` by elimination similarities.

    For each column, a pivot is brought to the subdiagonal by a row and
    column swap; then every row operation R_i -= u R_m below it is paired
    with the inverse column operation C_m += u C_i, so the result is
    similar to ``A``.  Exact entries run on Fractions and take the first
    nonzero pivot; float entries take the largest one (partial pivoting).
    A column that is already zero below the subdiagonal is skipped.
    """
    exact = A.is_exact
    convert = Fraction if exact else float
    H = [[convert(v) for v in r] for r in A.rows]
    n = len(H)
    for m in range(1, n - 1):
        col = m - 1
        if exact:
            piv = next((i for i in range(m, n) if H[i][col]), m)
        else:
            piv = max(range(m, n), key=lambda i: abs(H[i][col]))
        if not H[piv][col]:
            continue
        if piv != m:
            H[m], H[piv] = H[piv], H[m]
            for row in H:
                row[m], row[piv] = row[piv], row[m]
        row_m = H[m]
        pivot = row_m[col]
        for i in range(m + 1, n):
            row_i = H[i]
            if not row_i[col]:
                continue
            u = row_i[col] / pivot
            row_i[col] = convert(0)
            for j in range(m, n):
                if row_m[j]:
                    row_i[j] -= u * row_m[j]
            for row in H:
                if row[i]:
                    row[m] += u * row[i]
    return H


def char_poly(A: SquareMatrix):
    """Characteristic polynomial det(tI - A), monic, ascending coefficients.

    ``A`` is reduced to upper Hessenberg form H by similarity
    (:func:`_hessenberg`), then chi is read off H with the recurrence

        p_0 = 1,
        p_m = (t - h_mm) p_{m-1}
              - sum_{i<m} h_{m,m-1} ... h_{m-i+1,m-i} h_{m-i,m} p_{m-i-1},

    with chi = p_n (Cohen, *A Course in Computational Algebraic Number
    Theory*, Alg. 2.2.9): O(n^3) operations in all.  Exact on rational
    entries, where every coefficient below the leading 1 is a Fraction;
    float entries give float coefficients.
    """
    from .unipoly import UniPoly

    H = _hessenberg(A)
    p = [[1]]
    for k in range(len(H)):
        prev = p[k]
        h = H[k][k]
        cur = [0] + prev
        for j, c in enumerate(prev):
            cur[j] -= h * c
        prod = 1
        for i in range(1, k + 1):
            prod *= H[k - i + 1][k - i]
            if not prod:
                break
            coef = prod * H[k - i][k]
            if coef:
                for j, c in enumerate(p[k - i]):
                    cur[j] -= coef * c
        p.append(cur)
    return UniPoly(tuple(p[-1]))
