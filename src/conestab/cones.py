"""Proper convex cones and cone-matrix positivity theory.

Three cone variants: the nonnegative orthant, polyhedral cones given by
generators (facet normals are computed exactly for ambient dimension
n <= 6, or may be supplied), and the second-order (ice cream) cone.

Membership and matrix tests over orthant/polyhedral cones are exact on
rational data.  Second-order-cone matrix tests are refutation-by-sampling
only; their non-refuted verdicts are labeled "holds-sampled", never
"holds".
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DimensionMismatch, Inapplicable, NonConvergence,
                     ParseError, Unsupported)
from .numerics import (DEFAULT_TOL, Sign, SquareMatrix, Tolerance, _dot,
                       all_exact, classify_sign, matrix_power,
                       scalar_from_json)
from .verdict import (FAILS, HOLDS, HOLDS_SAMPLED, UNKNOWN, InequalityLedger,
                      Verdict)

ORTHANT = "orthant"
POLYHEDRAL = "polyhedral"
SECOND_ORDER = "second_order"

_FACET_ENUM_MAX_DIM = 6


def _unit(v) -> tuple:
    norm = math.sqrt(sum(float(x) ** 2 for x in v))
    return tuple(float(x) / norm for x in v)


def _primitive(v):
    """Canonical representative of a rational ray: integer entries with
    gcd 1, orientation preserved."""
    fracs = [Fraction(x) for x in v]
    denom = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * denom) for f in fracs]
    g = math.gcd(*(abs(i) for i in ints)) if any(ints) else 1
    return tuple(i // g for i in ints)


def _rref(vectors, n):
    """Reduced row echelon form of rational vectors in R^n, exactly.

    Returns ``(rows, pivots)``: the nonzero reduced rows, each with a 1 in
    its pivot column and 0 in every other pivot column, and their pivot
    columns in increasing order; the rank is ``len(pivots)``.
    """
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
    """The (unique up to scale) vector orthogonal to n-1 independent
    rational vectors, or None if they are dependent."""
    rows, pivots = _rref(vectors, n)
    if len(pivots) != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    sol = [0] * n
    sol[free] = 1
    for row, col in zip(rows, pivots):
        sol[col] = -row[free]
    return _primitive(sol)


@dataclass(frozen=True)
class Cone:
    """Closed, pointed, solid convex cone in R^n."""

    kind: str
    n: int
    generators: tuple = None
    facet_normals: tuple = None

    @classmethod
    def orthant(cls, n: int) -> "Cone":
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        return cls(ORTHANT, n)

    @classmethod
    def second_order(cls, n: int) -> "Cone":
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        return cls(SECOND_ORDER, n)

    @classmethod
    def polyhedral(cls, generators, facet_normals=None) -> "Cone":
        gens = tuple(tuple(g) for g in generators)
        if not gens:
            raise ValueError("a polyhedral cone needs generators")
        n = len(gens[0])
        if any(len(g) != n for g in gens):
            raise DimensionMismatch("generators of mixed dimension")
        exact = all(all_exact(g) for g in gens)
        if exact:
            if len(_rref(gens, n)[1]) != n:
                raise ValueError("generators do not span R^n (cone not solid)")
        else:
            if np.linalg.matrix_rank(np.array(gens, dtype=float)) != n:
                raise ValueError("generators do not span R^n (cone not solid)")
        if facet_normals is None:
            if n > _FACET_ENUM_MAX_DIM:
                raise Unsupported(
                    f"facet enumeration is limited to n <= {_FACET_ENUM_MAX_DIM}; "
                    "supply facet_normals")
            facets = _enumerate_facets(gens, n, exact)
        else:
            facets = tuple(tuple(h) for h in facet_normals)
            if any(len(h) != n for h in facets):
                raise DimensionMismatch("facet normals of mixed dimension")
            for h in facets:
                for g in gens:
                    if classify_sign(_dot(h, g), DEFAULT_TOL,
                                     scale=_float_norm(h) * _float_norm(g)) is Sign.NEG:
                        raise ValueError("facet normals inconsistent with generators")
        pointed_rank = (
            len(_rref(facets, n)[1]) if all(all_exact(h) for h in facets)
            else np.linalg.matrix_rank(np.array(facets, dtype=float)))
        if pointed_rank != n:
            raise ValueError("cone is not pointed (facet normals do not span)")
        return cls(POLYHEDRAL, n, generators=gens, facet_normals=facets)

    @property
    def is_self_dual(self) -> bool:
        return self.kind in (ORTHANT, SECOND_ORDER)

    @property
    def is_exact(self) -> bool:
        if self.kind != POLYHEDRAL:
            return True
        return (all(all_exact(g) for g in self.generators)
                and all(all_exact(h) for h in self.facet_normals))

    @functools.cached_property
    def _extreme_ray_reps(self) -> tuple:
        # a cone is immutable, so its rays are enumerated once
        return tuple(_enumerate_extreme_rays(self))


def _float_norm(v) -> float:
    return math.sqrt(sum(float(x) ** 2 for x in v))


def _enumerate_facets(gens, n, exact) -> tuple:
    """Facet normals of cone(gens): for each (n-1)-subset of generators
    spanning a hyperplane, keep its normal if the whole generator set sits
    on one side.  Exhaustive for pointed solid cones."""
    if n == 1:
        signs = {1 if g[0] > 0 else -1 for g in gens if g[0] != 0}
        if len(signs) != 1:
            raise ValueError("cone in R^1 is not pointed")
        return ((next(iter(signs)),),)
    found = {}
    for subset in itertools.combinations(gens, n - 1):
        if exact:
            h = _nullspace_1d(subset, n)
        else:
            h = _float_nullspace_1d(subset, n)
        if h is None:
            continue
        sides = [_dot(h, g) for g in gens]
        if exact:
            nonneg = all(s >= 0 for s in sides)
            nonpos = all(s <= 0 for s in sides)
        else:
            thr = DEFAULT_TOL.threshold(max(_float_norm(g) for g in gens))
            nonneg = all(s >= -thr for s in sides)
            nonpos = all(s <= thr for s in sides)
        if nonneg:
            found[h] = h
        elif nonpos:
            neg = tuple(-x for x in h)
            found[neg] = neg
    if not found:
        raise ValueError("no facets found; generators may not span a pointed cone")
    return tuple(sorted(found))


def _float_nullspace_1d(subset, n):
    A = np.array(subset, dtype=float)
    _, s, vt = np.linalg.svd(A)
    if len(s) >= n - 1 and n >= 2 and s.min() < 1e-10 * max(s.max(), 1.0):
        return None
    h = vt[-1]
    h = h / np.max(np.abs(h))
    return tuple(round(float(x), 12) for x in h)


def _check_dim(K: Cone, x):
    if len(x) != K.n:
        raise DimensionMismatch(f"point of dimension {len(x)}, cone in R^{K.n}")


def _soc_slack(x):
    """x_n^2 - ||head||^2, with the sign of x_n tracked separately; exact on
    rational input."""
    head = x[:-1]
    return x[-1] * x[-1] - sum(h * h for h in head)


def contains(K: Cone, x, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Closed-cone membership (float comparisons use the tolerance band
    inclusively)."""
    _check_dim(K, x)
    scale = max(_float_norm(x), 1.0)
    if K.kind == ORTHANT:
        return all(classify_sign(v, tol, scale) is not Sign.NEG for v in x)
    if K.kind == SECOND_ORDER:
        if classify_sign(x[-1], tol, scale) is Sign.NEG:
            return False
        return classify_sign(_soc_slack(x), tol, scale * scale) is not Sign.NEG
    return all(
        classify_sign(_dot(h, x), tol, scale * _float_norm(h)) is not Sign.NEG
        for h in K.facet_normals)


def interior_contains(K: Cone, x, tol: Tolerance = DEFAULT_TOL) -> bool:
    _check_dim(K, x)
    scale = max(_float_norm(x), 1.0)
    if K.kind == ORTHANT:
        return all(classify_sign(v, tol, scale) is Sign.POS for v in x)
    if K.kind == SECOND_ORDER:
        return (classify_sign(x[-1], tol, scale) is Sign.POS
                and classify_sign(_soc_slack(x), tol, scale * scale) is Sign.POS)
    return all(
        classify_sign(_dot(h, x), tol, scale * _float_norm(h)) is Sign.POS
        for h in K.facet_normals)


def dual_contains(K: Cone, y, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership of y in the dual cone, tested against the generators."""
    _check_dim(K, y)
    scale = max(_float_norm(y), 1.0)
    if K.kind in (ORTHANT, SECOND_ORDER):
        return contains(K, y, tol)
    return all(
        classify_sign(_dot(y, g), tol, scale * _float_norm(g)) is not Sign.NEG
        for g in K.generators)


def extreme_ray_reps(K: Cone) -> list:
    """Exact (unnormalized) representatives of the extreme rays.

    A generator is extreme iff its active facets span a hyperplane.
    Orthant rays are the standard basis.  Second-order cones have a
    continuum of extreme rays.  Enumerated once per cone; each call
    returns a new list.
    """
    return list(K._extreme_ray_reps)


def _enumerate_extreme_rays(K: Cone) -> list:
    if K.kind == ORTHANT:
        return [tuple(1 if j == i else 0 for j in range(K.n))
                for i in range(K.n)]
    if K.kind == SECOND_ORDER:
        raise Unsupported("second-order cones have infinitely many extreme rays")
    if K.n == 1:
        return [K.facet_normals[0]]
    exact = K.is_exact
    reps = {}
    for g in K.generators:
        if exact:
            active = [h for h in K.facet_normals if _dot(h, g) == 0]
            if active and len(_rref(active, K.n)[1]) == K.n - 1:
                reps.setdefault(_primitive(g), None)
        else:
            thr = DEFAULT_TOL.threshold(_float_norm(g))
            active = [h for h in K.facet_normals
                      if abs(_dot(h, g)) <= thr * _float_norm(h)]
            if active and np.linalg.matrix_rank(
                    np.array(active, dtype=float)) == K.n - 1:
                reps.setdefault(_unit(g), None)
    return sorted(reps)


def extreme_rays(K: Cone) -> list:
    """Minimal generating set, normalized to unit length."""
    return [_unit(r) for r in extreme_ray_reps(K)]


def flatten_seed(seed) -> list:
    """Normalize an int or arbitrarily nested int sequence into the flat
    nonnegative-int entropy list numpy seeding expects.  Used to split seed
    streams per trial index so sampled verdicts are reproducible."""
    out = []

    def walk(s):
        if isinstance(s, (int, np.integer)):
            out.append(int(s) & (2 ** 64 - 1))
        else:
            for item in s:
                walk(item)

    walk(seed)
    return out


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(flatten_seed(seed))


def sample_interior(K: Cone, seed=0) -> tuple:
    """Deterministic strictly-interior point: positive (exponential) weights
    on the generators for polyhedral cones, componentwise exponentials for
    the orthant, and a norm-dominating last coordinate for second-order."""
    rng = _rng(seed)
    if K.kind == ORTHANT:
        return tuple(float(v) for v in rng.exponential(1.0, K.n) + 1e-12)
    if K.kind == SECOND_ORDER:
        if K.n == 1:
            return (float(rng.exponential(1.0) + 1e-12),)
        head = rng.standard_normal(K.n - 1)
        tail = float(np.linalg.norm(head)) * (1.0 + float(rng.exponential(1.0))) + 1e-9
        return tuple(float(h) for h in head) + (tail,)
    weights = rng.exponential(1.0, len(K.generators)) + 1e-12
    point = [0.0] * K.n
    for w, g in zip(weights, K.generators):
        for i, v in enumerate(g):
            point[i] += float(w) * float(v)
    return tuple(point)


def sample_cone(K: Cone, seed=0) -> tuple:
    """Deterministic point of K, biased toward the boundary: a third are
    interior samples, a third single extreme rays (boundary for the
    second-order cone), a third sparse nonnegative combinations."""
    rng = _rng(seed)
    mode = int(rng.integers(3))
    if mode == 0:
        return sample_interior(K, rng.integers(2 ** 32))
    if K.kind == SECOND_ORDER:
        if K.n == 1:
            return (float(rng.exponential(1.0)),)
        head = rng.standard_normal(K.n - 1)
        norm = float(np.linalg.norm(head))
        if mode == 1:  # exactly on the boundary
            return tuple(float(h) for h in head) + (norm,)
        return tuple(float(h) for h in head) + (norm * (1.0 + float(rng.exponential(0.2))),)
    if K.kind == ORTHANT:
        gens = [tuple(1.0 if j == i else 0.0 for j in range(K.n))
                for i in range(K.n)]
    else:
        gens = [tuple(float(v) for v in g) for g in K.generators]
    if mode == 1:
        g = gens[int(rng.integers(len(gens)))]
        s = float(rng.exponential(1.0)) + 1e-9
        return tuple(s * v for v in g)
    weights = rng.exponential(1.0, len(gens)) * (rng.random(len(gens)) < 0.5)
    if not weights.any():
        weights[int(rng.integers(len(gens)))] = 1.0
    point = [0.0] * K.n
    for w, g in zip(weights, gens):
        for i, v in enumerate(g):
            point[i] += float(w) * v
    return tuple(point)


def dual_contained_in(K: Cone, tol: Tolerance = DEFAULT_TOL,
                      direction: str = "dual_in_primal") -> Verdict:
    """Containment between K and its dual.

    ``dual_in_primal`` checks K* subset of K (dual generators = facet
    normals, tested against K's facets); ``primal_in_dual`` checks
    K subset of K* (pairwise generator products).  Self-dual cones hold in
    both directions by construction.
    """
    if direction not in ("dual_in_primal", "primal_in_dual"):
        raise ValueError("direction must be 'dual_in_primal' or 'primal_in_dual'")
    if K.is_self_dual:
        return Verdict(HOLDS, note="self-dual cone")
    led = InequalityLedger(tol)
    if direction == "primal_in_dual":
        pairs = itertools.product(K.generators, K.generators)
    else:
        pairs = itertools.product(K.facet_normals, K.facet_normals)
    for u, v in pairs:
        led.require(_dot(u, v), 0, witness=(u, v),
                    scale=_float_norm(u) * _float_norm(v))
    return led.verdict()


def _soc_probe_points(K: Cone, trials: int, seed) -> tuple:
    return _soc_probe_points_of(K, trials, tuple(flatten_seed(seed)))


# One entry: the K-positivity of (I + A)^(n-1) probes the points that the
# K-nonnegativity of A has just probed under the same trials and seed.
@functools.lru_cache(maxsize=1)
def _soc_probe_points_of(K: Cone, trials: int, seed: tuple) -> tuple:
    pts = [sample_cone(K, [seed, t]) for t in range(trials)]
    # axis ray and a few canonical boundary rays help catch easy refutations
    pts.append(tuple([0.0] * (K.n - 1) + [1.0]))
    for i in range(min(K.n - 1, 4)):
        e = [0.0] * K.n
        e[i] = 1.0
        e[-1] = 1.0
        pts.append(tuple(e))
        e2 = list(e)
        e2[i] = -1.0
        pts.append(tuple(e2))
    return tuple(pts)


def matrix_k_nonnegative(A: SquareMatrix, K: Cone, tol: Tolerance = DEFAULT_TOL,
                         trials: int = 200, seed=0) -> Verdict:
    """Does A map K into K?  Exact over extreme rays for orthant/polyhedral
    cones; sampled refutation for second-order cones."""
    return _maps_into(A, K, False, tol, trials, seed)


def matrix_k_positive(A: SquareMatrix, K: Cone, tol: Tolerance = DEFAULT_TOL,
                      trials: int = 200, seed=0) -> Verdict:
    """Does A map nonzero points of K into the interior of K?"""
    return _maps_into(A, K, True, tol, trials, seed)


def _maps_into(A: SquareMatrix, K: Cone, interior: bool, tol: Tolerance,
               trials: int, seed) -> Verdict:
    """Does A map nonzero points of K into K, or into its interior when
    ``interior``?  Second-order cones are probed at sampled points; other
    cones pair the image of every extreme ray with every facet normal,
    strictly (with the ray's own norm as a floor on the scale) when
    ``interior``."""
    if A.n != K.n:
        raise DimensionMismatch("matrix/cone dimension mismatch")
    if K.kind == SECOND_ORDER:
        inside = interior_contains if interior else contains
        for x in _soc_probe_points(K, trials, seed):
            # A maps 0 to 0, which lies in K but not in its interior
            if any(x) and not inside(K, A.mul_vec(x), tol):
                return Verdict(FAILS, witness=("point", x))
        return Verdict(HOLDS_SAMPLED, note="refutation sampled, none found")
    led = InequalityLedger(tol)
    facets = ([tuple(1 if j == i else 0 for j in range(K.n)) for i in range(K.n)]
              if K.kind == ORTHANT else K.facet_normals)
    for g in extreme_ray_reps(K):
        y = A.mul_vec(g)
        ys = _float_norm(y)
        for h in facets:
            scale = ys * _float_norm(h)
            led.require(_dot(h, y), 0, witness=("ray", g, "facet", h),
                        strict=interior,
                        scale=max(scale, _float_norm(g)) if interior else scale)
    return led.verdict()


def matrix_k_irreducible(A: SquareMatrix, K: Cone,
                         tol: Tolerance = DEFAULT_TOL,
                         trials: int = 200, seed=0) -> Verdict:
    """K-irreducibility of a K-nonnegative matrix, decided through the
    equivalent K-positivity of (I + A)^(n-1).

    Raises Inapplicable when A is not (verifiably) K-nonnegative.
    """
    kn = matrix_k_nonnegative(A, K, tol, trials=trials, seed=seed)
    return _k_irreducible_given(A, K, kn, tol, trials, seed)


def _k_irreducible_given(A: SquareMatrix, K: Cone, kn: Verdict,
                         tol: Tolerance = DEFAULT_TOL, trials: int = 200,
                         seed=0) -> Verdict:
    """``matrix_k_irreducible`` for a caller that already holds ``kn``,
    the K-nonnegativity verdict of A under the same tol, trials and seed."""
    if not kn.is_holds:
        raise Inapplicable("matrix is not K-nonnegative", witness=kn)
    B = matrix_power(SquareMatrix.identity(A.n).add(A), A.n - 1)
    verdict = matrix_k_positive(B, K, tol, trials=trials, seed=seed)
    if verdict.status == HOLDS and kn.status == HOLDS_SAMPLED:
        return Verdict(HOLDS_SAMPLED, margin=verdict.margin, witness=verdict.witness)
    return verdict


def matrix_k_copositive_refute(Q: SquareMatrix, K: Cone, strict: bool = False,
                               trials: int = 200, seed=0,
                               tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Search for a witness x in K with x^T Q x < 0 (<= 0 in strict mode).

    Only refutes: the exact decision problem is not attempted, so the
    non-refuted outcome is "unknown".
    """
    Q = Q.symmetrized()
    if Q.n != K.n:
        raise DimensionMismatch("matrix/cone dimension mismatch")
    points = []
    if K.kind != SECOND_ORDER:
        points.extend(extreme_ray_reps(K))
    points.extend(sample_cone(K, [seed, t]) for t in range(trials))
    for x in points:
        if not any(x):
            continue
        val = _dot(x, Q.mul_vec(x))
        scale = sum(abs(float(v)) for v in x) ** 2 * max(
            abs(float(e)) for r in Q.rows for e in r)
        sign = classify_sign(val, tol, scale=max(scale, 1.0))
        if sign is Sign.NEG or (strict and sign is Sign.ZERO):
            return Verdict(FAILS, margin=val, witness=("point", x))
    return Verdict(UNKNOWN, note="no witness found; copositivity not decided")


@dataclass(frozen=True)
class PerronReport:
    """Spectral-radius diagnostics for a cone-nonnegative matrix."""

    rho: float
    rho_positive: bool
    rho_is_eigenvalue: bool
    simple: bool
    modulus_tie: bool
    eigenvector: tuple
    eigenvector_interior: bool
    other_semipositive_eigenvector: bool
    note: str = ("uniqueness scanned over real-eigenvalue eigenvectors only; "
                 "complex pairs excluded")


@dataclass(frozen=True)
class ConeMatrixReport:
    k_nonnegative: Verdict
    k_positive: Verdict
    k_irreducible: Verdict
    perron: PerronReport | None


def _orientation(K: Cone, u, tol: Tolerance):
    """Sign-normalize an eigenvector: pick the sign with more positive facet
    products (falling back to the first sizable entry)."""
    if K.kind == ORTHANT:
        products = list(u)
    elif K.kind == SECOND_ORDER:
        products = [u[-1]]
    else:
        products = [_dot(h, u) for h in K.facet_normals]
    pos = sum(1 for p in products if p > 0)
    neg = sum(1 for p in products if p < 0)
    if pos > neg:
        return tuple(u)
    if neg > pos:
        return tuple(-x for x in u)
    lead = next((x for x in u if abs(x) > tol.threshold(1.0)), 1.0)
    return tuple(u) if lead > 0 else tuple(-x for x in u)


def perron_frobenius_check(A: SquareMatrix, K: Cone,
                           tol: Tolerance = DEFAULT_TOL) -> ConeMatrixReport:
    """Cone-nonnegativity/positivity/irreducibility verdicts plus the
    spectral-radius diagnostics of ``perron_report``."""
    if A.n != K.n:
        raise DimensionMismatch("matrix/cone dimension mismatch")
    kn = matrix_k_nonnegative(A, K, tol)
    kp = matrix_k_positive(A, K, tol)
    try:
        ki = _k_irreducible_given(A, K, kn, tol)
    except Inapplicable as e:
        ki = Verdict(UNKNOWN, witness=e.witness,
                     note="irreducibility inapplicable: not K-nonnegative")
    return ConeMatrixReport(k_nonnegative=kn, k_positive=kp,
                            k_irreducible=ki, perron=perron_report(A, K, tol))


def perron_report(A: SquareMatrix, K: Cone,
                  tol: Tolerance = DEFAULT_TOL) -> PerronReport:
    """Spectral-radius diagnostics alone, with no cone-matrix verdict: is
    rho a simple positive eigenvalue whose (sign-normalized) eigenvector
    lies in the interior of K, and is it the only eigenvector of a real
    eigenvalue lying in K?"""
    if A.n != K.n:
        raise DimensionMismatch("matrix/cone dimension mismatch")
    try:
        vals, vecs = np.linalg.eig(A.to_numpy())
    except np.linalg.LinAlgError as e:
        raise NonConvergence(f"eigensolver failed: {e}") from e
    rho = float(max(abs(vals)))
    scale = max(rho, 1.0)
    thr = tol.threshold(scale)
    real_idx = [i for i in range(len(vals)) if abs(vals[i].imag) <= thr]
    # the eigenvalue that should realize rho: real, modulus rho
    candidates = [i for i in real_idx
                  if abs(abs(vals[i]) - rho) <= thr and vals[i].real > 0]
    if candidates:
        star = max(candidates, key=lambda i: vals[i].real)
        rho_is_eigenvalue = True
    else:
        star = int(np.argmax(np.abs(vals)))
        rho_is_eigenvalue = False
    lam = vals[star]
    simple = sum(1 for v in vals if abs(v - lam) <= thr) == 1
    modulus_tie = sum(1 for v in vals if abs(abs(v) - rho) <= thr) > 1
    vec = vecs[:, star]
    pivot = vec[int(np.argmax(np.abs(vec)))]
    vec = vec / pivot if abs(pivot) > 0 else vec
    u = tuple(float(x.real) for x in vec)
    norm = _float_norm(u)
    u = tuple(x / norm for x in u) if norm > 0 else u
    u = _orientation(K, u, tol)
    interior = interior_contains(K, u, tol) and max(
        abs(float(x.imag)) for x in vec) <= thr
    other = False
    for i in real_idx:
        if i == star or abs(vals[i] - lam) <= thr:
            continue
        w = vecs[:, i]
        piv = w[int(np.argmax(np.abs(w)))]
        w = w / piv if abs(piv) > 0 else w
        if max(abs(float(x.imag)) for x in w) > thr:
            continue
        wr = tuple(float(x.real) for x in w)
        if contains(K, wr, tol) or contains(K, tuple(-x for x in wr), tol):
            other = True
    return PerronReport(
        rho=rho,
        rho_positive=rho > thr,
        rho_is_eigenvalue=rho_is_eigenvalue,
        simple=simple,
        modulus_tie=modulus_tie,
        eigenvector=u,
        eigenvector_interior=interior,
        other_semipositive_eigenvector=other,
    )


def cone_from_json(obj, exact: bool = True) -> Cone:
    """Parse ``{"type": ..., "n": ..., "generators": ..., "facets": ...}``."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError('expected a cone descriptor with a "type" field')
    kind = obj["type"]
    if kind == ORTHANT:
        return Cone.orthant(int(obj["n"]))
    if kind == SECOND_ORDER:
        return Cone.second_order(int(obj["n"]))
    if kind == POLYHEDRAL:
        gens = obj.get("generators")
        if not gens:
            raise ParseError("polyhedral cone needs generators")
        parsed = [[scalar_from_json(v, exact) for v in g] for g in gens]
        facets = obj.get("facets")
        if facets is not None:
            facets = [[scalar_from_json(v, exact) for v in h] for h in facets]
        return Cone.polyhedral(parsed, facets)
    raise ParseError(f"unknown cone type {kind!r}")


def cone_to_json(K: Cone) -> dict:
    from .numerics import scalar_to_json
    out = {"type": K.kind, "n": K.n}
    if K.kind == POLYHEDRAL:
        out["generators"] = [[scalar_to_json(v) for v in g] for g in K.generators]
        out["facets"] = [[scalar_to_json(v) for v in h] for h in K.facet_normals]
    return out
