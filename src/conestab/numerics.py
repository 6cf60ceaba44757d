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
        n = self.n
        bt = other.transpose().rows
        return SquareMatrix(tuple(
            tuple(sum(ra[k] * bc[k] for k in range(n)) for bc in bt)
            for ra in self.rows))

    def mul_vec(self, v) -> tuple:
        if len(v) != self.n:
            raise DimensionMismatch("vector length mismatch")
        return tuple(sum(r[k] * v[k] for k in range(self.n)) for r in self.rows)

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


def _det_exact(rows):
    """Fraction-free (Bareiss) elimination with row pivoting; exact."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    use_int = all(isinstance(v, int) for row in a for v in row)
    if not use_int:
        a = [[Fraction(v) for v in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi = a[i]
            rowk = a[k]
            for j in range(k + 1, n):
                num = pkk * rowi[j] - aik * rowk[j]
                rowi[j] = num // prev if use_int else num / prev
            rowi[k] = 0
        prev = pkk
    return sign * a[n - 1][n - 1]


def determinant(M: SquareMatrix):
    """Determinant: Bareiss on exact entries, LU with pivoting otherwise.

    The empty (0 x 0) matrix has determinant 1.
    """
    if M.n == 0:
        return 1
    if M.is_exact:
        return _det_exact(M.rows)
    return float(np.linalg.det(M.to_numpy()))


def _leading_minors_bareiss(rows):
    """All leading principal minors from one fraction-free sweep.

    Returns None when a zero pivot stalls the sweep (some minor is 0);
    callers then fall back to per-block determinants.
    """
    a = [list(r) for r in rows]
    n = len(a)
    use_int = all(isinstance(v, int) for row in a for v in row)
    if not use_int:
        a = [[Fraction(v) for v in row] for row in a]
    minors = []
    prev = 1
    for k in range(n):
        minors.append(a[k][k])
        if k == n - 1:
            break
        if a[k][k] == 0:
            return None
        pkk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi = a[i]
            rowk = a[k]
            for j in range(k + 1, n):
                num = pkk * rowi[j] - aik * rowk[j]
                rowi[j] = num // prev if use_int else num / prev
            rowi[k] = 0
        prev = pkk
    return minors


def leading_minors(M: SquareMatrix) -> list:
    """Delta_k = det of the top-left k x k block, k = 1..n."""
    n = M.n
    if M.is_exact:
        fast = _leading_minors_bareiss(M.rows)
        if fast is not None:
            return fast
        return [_det_exact([r[:k] for r in M.rows[:k]]) for k in range(1, n + 1)]
    A = M.to_numpy()
    return [float(np.linalg.det(A[:k, :k])) for k in range(1, n + 1)]


def sym_eigs(M: SquareMatrix, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a (nearly) symmetric matrix by cyclic Jacobi
    rotations.

    The matrix is symmetrized by averaging first.  Returns eigenvalues
    sorted descending and the matching orthonormal eigenvector columns.
    The sweep budget is 100*n^2; exceeding it raises NonConvergence rather
    than returning a partial answer.
    """
    n = M.n
    A = M.to_numpy()
    A = (A + A.T) / 2.0
    V = np.eye(n)
    if n <= 1:
        return ([float(A[0, 0])] if n else []), V
    norm = float(np.linalg.norm(A))
    # never demand convergence below what float rotations can deliver
    target = max(tol.threshold(norm), 20 * n * np.finfo(float).eps * max(norm, 1.0))

    def offdiag():
        return math.sqrt(sum(2 * A[p, q] ** 2
                             for p in range(n - 1) for q in range(p + 1, n)))

    max_sweeps = 100 * n * n
    sweeps = 0
    while offdiag() > target:
        if sweeps >= max_sweeps:
            raise NonConvergence("Jacobi sweep budget exhausted")
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= target / (4 * n * n):
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0)) \
                    if theta != 0.0 else 1.0
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                app, aqq = A[p, p], A[q, q]
                A[p, p] = c * c * app - 2 * s * c * apq + s * s * aqq
                A[q, q] = s * s * app + 2 * s * c * apq + c * c * aqq
                A[p, q] = A[q, p] = 0.0
                for i in range(n):
                    if i == p or i == q:
                        continue
                    aip, aiq = A[i, p], A[i, q]
                    A[i, p] = A[p, i] = c * aip - s * aiq
                    A[i, q] = A[q, i] = s * aip + c * aiq
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
        sweeps += 1
    order = np.argsort(-np.diag(A), kind="stable")
    values = [float(A[i, i]) for i in order]
    return values, V[:, order]


def all_roots(p, tol: Tolerance = DEFAULT_TOL) -> list:
    """All complex roots, via eigenvalues of the balanced companion matrix
    of the monic normalization (LAPACK QR iteration under the hood).

    Accepts a UniPoly or a raw ascending coefficient sequence.  Residuals
    |p(root)| are sanity-checked against a tolerance-scaled bound.
    """
    coeffs = list(getattr(p, "coeffs", p))
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ZeroPolynomial("the zero polynomial has no root multiset")
    d = len(coeffs) - 1
    if d == 0:
        return []
    lead = float(coeffs[-1])
    monic = [float(c) / lead for c in coeffs]
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
