"""Proper convex cones and cone-matrix positivity theory.

Three cone variants: the nonnegative orthant, polyhedral cones given by
generators (facet normals are computed exactly for ambient dimension
n <= 6, or may be supplied), and the second-order (ice cream) cone.  The
orthant is the polyhedral cone whose generators and facet normals are
both the standard basis e_1..e_n, stored as that data, so every
polyhedral code path serves it.

Cone data is exact in every mode (a float entry is its exact value), so
facets and extreme rays are decided without a tolerance, by the int
sweep that gives numerics its determinants and ranks.  Membership and
matrix tests over orthant/polyhedral cones are exact on rational data.
Sample points are int vectors on every cone, so the sampled second-order
matrix tests ("holds-sampled", never "holds") sign exact images exactly.
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
                       _integer_rows, _object_dot, _object_power, _rank,
                       all_exact, classify_sign, determinant, int_from_json,
                       vector_from_json)
from .verdict import (FAILS, HOLDS_SAMPLED, UNKNOWN, InequalityLedger,
                      Verdict)

ORTHANT = "orthant"
POLYHEDRAL = "polyhedral"
SECOND_ORDER = "second_order"

_FACET_ENUM_MAX_DIM = 6


def _float_norm(v) -> float:
    return math.sqrt(sum(float(x) ** 2 for x in v))


def _float_norm_or_inf(v) -> float:
    """The float 2-norm of v, or inf when a square passes the float
    range."""
    try:
        return _float_norm(v)
    except OverflowError:
        return math.inf


def _facet_norm(h) -> float:
    """The float 2-norm of the facet normal h.  Past the float range of
    its squares it is that of ``math.hypot``, which scales the entries, so
    that a float point's sign band stays finite; inf when an entry has no
    float."""
    try:
        return _float_norm(h)
    except OverflowError:
        pass
    try:
        return math.hypot(*map(float, h))
    except OverflowError:
        return math.inf


def _primitive(v):
    """Canonical representative of a rational ray: integer entries with
    gcd 1, orientation preserved."""
    ints = _integer_rows([v])[0][0]
    g = math.gcd(*ints) or 1
    return tuple(i // g for i in ints)


def _normal(vectors):
    """The primitive normal of the hyperplane spanned by n-1 rational
    vectors in R^n, or None if they are dependent: the cofactors
    h_j = (-1)^j det(M without column j) of their int-scaled matrix M."""
    M = _integer_rows(vectors)[0]
    h = [(-1) ** j * determinant(SquareMatrix([r[:j] + r[j + 1:] for r in M]))
         for j in range(len(M) + 1)]
    return _primitive(h) if any(h) else None


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
        basis = tuple(tuple(int(j == i) for j in range(n)) for i in range(n))
        return cls(ORTHANT, n, generators=basis, facet_normals=basis)

    @classmethod
    def second_order(cls, n: int) -> "Cone":
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        return cls(SECOND_ORDER, n)

    @classmethod
    def polyhedral(cls, generators, facet_normals=None) -> "Cone":
        gens = tuple(_exact_vector(g) for g in generators)
        if not gens:
            raise ValueError("a polyhedral cone needs generators")
        n = len(gens[0])
        if any(len(g) != n for g in gens):
            raise DimensionMismatch("generators of mixed dimension")
        if _rank(gens) != n:
            raise ValueError("generators do not span R^n (cone not solid)")
        if facet_normals is None:
            if n > _FACET_ENUM_MAX_DIM:
                raise Unsupported(
                    f"facet enumeration is limited to n <= {_FACET_ENUM_MAX_DIM}; "
                    "supply facet_normals")
            facets = _enumerate_facets(gens, n)
        else:
            facets = tuple(_exact_vector(h) for h in facet_normals)
            if any(len(h) != n for h in facets):
                raise DimensionMismatch("facet normals of mixed dimension")
            if any(_dot(h, g) < 0 for h in facets for g in gens):
                raise ValueError("facet normals inconsistent with generators")
        if _rank(facets) != n:
            raise ValueError("cone is not pointed (facet normals do not span)")
        return cls(POLYHEDRAL, n, generators=gens, facet_normals=facets)

    @property
    def is_self_dual(self) -> bool:
        return self.kind in (ORTHANT, SECOND_ORDER)

    @functools.cached_property
    def _extreme_ray_reps(self) -> tuple:
        # a cone is immutable, so its rays are enumerated once
        return tuple(_enumerate_extreme_rays(self))

    @functools.cached_property
    def _int_generator_columns(self) -> tuple:
        """The columns of the generators times their common denominator:
        int vectors in the same proportions, for sampling."""
        return tuple(zip(*_integer_rows(self.generators)[0]))

    # the data of the matrix tests over an orthant or polyhedral cone

    @functools.cached_property
    def _ray_array(self) -> np.ndarray:
        """The extreme ray reps, as the rows of an object array."""
        return np.array(self._extreme_ray_reps, dtype=object)

    @functools.cached_property
    def _facet_array(self) -> np.ndarray:
        """The facet normals, as the rows of an object array."""
        return np.array(self.facet_normals, dtype=object)


def _exact_vector(v) -> tuple:
    """v with each float entry replaced by its exact Fraction."""
    return tuple(Fraction(x) if isinstance(x, float) else x for x in v)


def _enumerate_facets(gens, n) -> tuple:
    """Facet normals of cone(gens), exactly: for each (n-1)-subset of
    generators spanning a hyperplane, keep its primitive normal if the whole
    generator set sits on one side.  Exhaustive for pointed solid cones."""
    found = set()
    for subset in itertools.combinations(gens, n - 1):
        h = _normal(subset)
        if h is None:
            continue
        sides = [_dot(h, g) for g in gens]
        if all(s >= 0 for s in sides):
            found.add(h)
        elif all(s <= 0 for s in sides):
            found.add(tuple(-x for x in h))
    if not found:
        raise ValueError("no facets found; generators may not span a pointed cone")
    return tuple(sorted(found))


def _check_dim(K: Cone, x):
    if len(x) != K.n:
        raise DimensionMismatch(f"point of dimension {len(x)}, cone in R^{K.n}")


def _signs(K: Cone, x, tol: Tolerance) -> list:
    """Signs of the inequalities defining K at x: one per facet normal h
    (h.x >= 0), or the head x_n >= 0 and the slack x_n^2 - ||head||^2 >= 0
    for a second-order cone."""
    _check_dim(K, x)
    if K.kind == SECOND_ORDER:
        return _soc_signs(x, x[-1], x[-1] * x[-1] - sum(h * h for h in x[:-1]),
                          tol)
    # exact signs compare with 0 and never read the scale, so an exact
    # point takes no float norm
    exact = all_exact(x)
    scale = 1.0 if exact else max(_float_norm(x), 1.0)
    return [classify_sign(_dot(h, x), tol,
                          scale if exact else scale * _facet_norm(h))
            for h in K.facet_normals]


def _soc_signs(x, tail, slack, tol: Tolerance) -> list:
    """The signs of the tail of x and of its slack tail^2 - |head|^2, the
    inequalities of a second-order cone; an exact x takes no float norm."""
    scale = 1.0 if all_exact(x) else max(_float_norm(x), 1.0)
    return [classify_sign(tail, tol, scale),
            classify_sign(slack, tol, scale * scale)]


def contains(K: Cone, x, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Closed-cone membership (float comparisons use the tolerance band
    inclusively)."""
    return Sign.NEG not in _signs(K, x, tol)


def interior_contains(K: Cone, x, tol: Tolerance = DEFAULT_TOL) -> bool:
    return all(s is Sign.POS for s in _signs(K, x, tol))


def extreme_ray_reps(K: Cone) -> list:
    """Exact (unnormalized) representatives of the extreme rays.

    A generator is extreme iff its active facets span a hyperplane.
    Orthant rays are the standard basis.  Second-order cones have a
    continuum of extreme rays.  Enumerated once per cone; each call
    returns a new list.
    """
    return list(K._extreme_ray_reps)


def _enumerate_extreme_rays(K: Cone) -> list:
    if K.kind == ORTHANT:  # in basis order, which sorting would reverse
        return list(K.generators)
    if K.kind == SECOND_ORDER:
        raise Unsupported("second-order cones have infinitely many extreme rays")
    reps = set()
    for g in K.generators:
        active = [h for h in K.facet_normals if _dot(h, g) == 0]
        if _rank(active) == K.n - 1:
            reps.add(_primitive(g))
    return sorted(reps)


def flatten_seed(seed) -> list:
    """Normalize an int or arbitrarily nested int sequence into the flat
    nonnegative-int entropy list numpy seeding expects.  Nested seeds such
    as ``[seed, t, 1]`` give the inner sampling loops of trial t their own
    reproducible streams."""
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
    """A generator seeded by ``seed``, or ``seed`` itself when it is one,
    so a sampling loop can draw every point from one generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(flatten_seed(seed))


def _scaled_int(x: float) -> int:
    """The positive int weight max(1, round(1024 x)) for a float draw x."""
    return max(1, round(1024 * x))


def _int_combination(K: Cone, weights) -> tuple:
    """The int point sum_i w_i g_i of the int weights w_i on K's
    generators times their common denominator."""
    return tuple(_dot(weights, column) for column in K._int_generator_columns)


def sample_interior(K: Cone, seed=0) -> tuple:
    """Deterministic strictly-interior point with int entries.

    Polyhedral cones and the orthant weight their generators, times
    their common denominator, by ints max(1, round(1024 e)) for
    exponential draws e.  A second-order cone gets an int head of about
    1024 times a standard normal draw and an int tail of about its norm
    times 1 + e, doubled until tail^2 > |head|^2 holds exactly.  Forms
    are homogeneous and cones are cones, so the scale changes no sign,
    and an exact form is evaluated exactly.  ``seed`` is a seed or a
    numpy Generator to draw from.
    """
    rng = _rng(seed)
    if K.kind == SECOND_ORDER:
        head = rng.standard_normal(K.n - 1)
        norm = float(np.linalg.norm(head))
        tail = _scaled_int(norm * (1.0 + float(rng.exponential(1.0))))
        head = [round(1024 * h) for h in head.tolist()]
        square = sum(h * h for h in head)
        while tail * tail <= square:
            tail *= 2
        return tuple(head) + (tail,)
    weights = [_scaled_int(e) for e in
               rng.exponential(1.0, len(K.generators)).tolist()]
    return _int_combination(K, weights)


def sample_cone(K: Cone, seed=0) -> tuple:
    """Deterministic int point of K, biased toward the boundary: a third
    are interior samples (``sample_interior``), a third single generators
    and a third sparse int combinations of them.  On a second-order cone
    those are points exactly on the boundary, in the direction of a normal
    draw h up to rounding: with u = round(1024 h_1..h_{n-2}) and
    m = max(1, round(1024 (|h| + |h_{n-1}|))), u/m is the stereographic
    image of h's direction, and (2m u, +-(m^2 - |u|^2), m^2 + |u|^2) has a
    head of norm its tail; and points near it, whose tail is stretched by
    1 + max(1, round(1024 e)) / 1024 for an exponential draw e.  ``seed``
    is a seed or a numpy Generator to draw from."""
    rng = _rng(seed)
    mode = int(rng.integers(3))
    if mode == 0:
        return sample_interior(K, rng)
    if K.kind == SECOND_ORDER:
        if K.n == 1:
            return (_scaled_int(float(rng.exponential(1.0))),)
        h = rng.standard_normal(K.n - 1).tolist()
        u = [round(1024 * c) for c in h[:-1]]
        m = max(1, round(1024 * (math.hypot(*h) + abs(h[-1]))))
        s = sum(c * c for c in u)
        sign = 1 if h[-1] >= 0 else -1
        head = [2 * m * c for c in u] + [sign * (m * m - s)]
        if mode == 1:  # exactly on the boundary
            return tuple(head) + (m * m + s,)
        stretch = 1024 + _scaled_int(float(rng.exponential(0.2)))
        return tuple(1024 * c for c in head) + ((m * m + s) * stretch,)
    m = len(K.generators)
    if mode == 1:
        weights = [0] * m
        weights[int(rng.integers(m))] = 1
        return _int_combination(K, weights)
    draws = rng.exponential(1.0, m).tolist()
    keep = (rng.random(m) < 0.5).tolist()
    weights = [_scaled_int(e) if k else 0 for e, k in zip(draws, keep)]
    if not any(weights):
        weights[int(rng.integers(m))] = 1
    return _int_combination(K, weights)


def _probe_points(K: Cone, trials: int, seed):
    """The probe points of the matrix tests over a second-order cone:
    ``trials`` draws of ``sample_cone`` from one generator seeded by
    ``seed``, then the axis ray and a few canonical boundary rays, which
    catch easy refutations.  None over any other cone, whose tests read
    its extreme rays."""
    if K.kind != SECOND_ORDER:
        return None
    rng = _rng(seed)
    pts = [sample_cone(K, rng) for _ in range(trials)]
    pts.append(tuple([0] * (K.n - 1) + [1]))
    for i in range(min(K.n - 1, 4)):
        e = [0] * K.n
        e[i] = 1
        e[-1] = 1
        pts.append(tuple(e))
        e2 = list(e)
        e2[i] = -1
        pts.append(tuple(e2))
    return pts


def matrix_k_nonnegative(A: SquareMatrix, K: Cone, tol: Tolerance = DEFAULT_TOL,
                         trials: int = 200, seed=0) -> Verdict:
    """Does A map K into K?  Exact over extreme rays for orthant/polyhedral
    cones; sampled refutation for second-order cones."""
    return _maps_into(A.to_objects(), K, False, tol,
                      _probe_points(K, trials, seed))


def matrix_k_positive(A: SquareMatrix, K: Cone, tol: Tolerance = DEFAULT_TOL,
                      trials: int = 200, seed=0) -> Verdict:
    """Does A map nonzero points of K into the interior of K?"""
    return _maps_into(A.to_objects(), K, True, tol,
                      _probe_points(K, trials, seed))


def _comparisons(M: np.ndarray, K: Cone, points=None) -> tuple:
    """The exact comparisons of ``_maps_into`` for the object array M, as
    ``(images, values)``, column j of each for one extreme ray or probe
    point: over an orthant or polyhedral cone the images M g_j of the
    extreme rays and their pairings F M G^T with the facet normals; over a
    second-order cone the images M x_j of the probe ``points`` and, in
    rows 0 and 1, the tail of each image and its tail^2 - |head|^2.  Each
    is one object-array product, so an exact M gives exact values, and M
    maps K into K (into its interior) when every value is >= 0 (> 0)."""
    if K.kind == SECOND_ORDER:
        X = np.array(points, dtype=object).reshape(len(points), K.n)
        images = _object_dot(M, X.T)
        tails, heads = images[-1], images[:-1]
        with np.errstate(all="ignore"):  # inf - inf is nan, as in _signs
            slacks = tails * tails - (heads * heads).sum(axis=0)
        return images, np.array([tails, slacks])
    images = _object_dot(M, K._ray_array.T)  # column j: M g_j
    return images, _object_dot(K._facet_array, images)  # [i, j]: h_i . M g_j


def _maps_into_by_sign(M: np.ndarray, K: Cone, interior: bool,
                       points) -> bool:
    """``_maps_into``'s status on the exact object array M, from the signs
    of its ``_comparisons`` alone: does M map K into K, or into its
    interior when ``interior``?"""
    values = _comparisons(M, K, points)[1]
    return bool((values > 0).all() if interior else (values >= 0).all())


def _maps_into(M: np.ndarray, K: Cone, interior: bool, tol: Tolerance,
               points) -> Verdict:
    """Does the object array M map nonzero points of K into K, or into its
    interior when ``interior``?  Second-order cones are probed at the
    ``points`` of ``_probe_points``, where an interior test with a sign in
    the tolerance band and no refutation is ``unknown``; other cones pair
    the image of every extreme ray with every facet normal, strictly (with
    the ray's own norm as a floor on the scale) when ``interior``.  The
    comparisons are those of ``_comparisons``."""
    if len(M) != K.n:
        raise DimensionMismatch("matrix/cone dimension mismatch")
    images, values = _comparisons(M, K, points)
    if K.kind == SECOND_ORDER:
        undecided = None
        for x, y, (tail, slack) in zip(points, images.T.tolist(),
                                       values.T.tolist()):
            signs = _soc_signs(y, tail, slack, tol)
            if Sign.NEG in signs or (interior and Sign.ZERO in signs):
                return Verdict(FAILS, witness=("point", x))
            if interior and undecided is None and Sign.INDETERMINATE in signs:
                undecided = x
        if undecided is not None:
            return Verdict(UNKNOWN, witness=("point", undecided))
        return Verdict(HOLDS_SAMPLED, note="refutation sampled, none found")
    facets = [(h, _facet_norm(h)) for h in K.facet_normals]
    led = InequalityLedger(tol)
    for g, y, column in zip(extreme_ray_reps(K), images.T.tolist(),
                            values.T.tolist()):
        ys = _float_norm_or_inf(y)
        exact_y = all_exact(y)
        # the scale floor of the interior test: the ray's float 2-norm, or
        # past the float range its exact 1-norm, which bounds it from above
        floor = _float_norm_or_inf(g) if interior else 0.0
        if floor == math.inf:
            floor = sum(map(abs, g))
        for (h, hs), slack in zip(facets, column):
            scale = ys * hs
            if not scale < math.inf:  # inf, or 0 * inf
                # exact entries past the float range: the exact 1-norms
                # bound the 2-norms from above, so the margin stays in
                # [-1, 1] and no float overflows
                scale = (sum(map(abs, y)) * sum(map(abs, h)) if exact_y
                         else math.inf)
            led.require(slack, 0, witness=("ray", g, "facet", h),
                        strict=interior, scale=max(scale, floor))
    return led.verdict()


def _irreducibility_power(M: np.ndarray) -> np.ndarray:
    """(I + M)^(n-1) for the n x n object array M: an M that maps K into K
    is K-irreducible iff this power maps the nonzero points of K into
    int K (Vandergraft, SIAM J. Appl. Math. 16, 1968)."""
    n = len(M)
    return _object_power(np.identity(n, dtype=object) + M, n - 1)


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
    the K-nonnegativity verdict of A under the same tol, trials and seed.
    The Inapplicable it raises says whether kn failed or is undecided.
    A float (I + A)^(n-1) past the float range has non-finite entries,
    whose comparisons read ``unknown``."""
    if not kn.is_holds:
        raise Inapplicable("K-nonnegativity undecided" if kn.is_unknown
                           else "not K-nonnegative", witness=kn)
    return _maps_into(_irreducibility_power(A.to_objects()), K, True, tol,
                      _probe_points(K, trials, seed))


def _k_irreducible_by_sign(M: np.ndarray, K: Cone, points) -> bool:
    """``_k_irreducible_given``'s status on the exact object array M, which
    maps K into K, by sign alone: does (I + M)^(n-1) map the nonzero
    points of K into int K?"""
    return _maps_into_by_sign(_irreducibility_power(M), K, True, points)


@dataclass(frozen=True)
class PerronReport:
    """Spectral-radius diagnostics for a cone-nonnegative matrix; every
    field is None when the entries have no float."""

    rho: float | None
    rho_positive: bool | None
    rho_is_eigenvalue: bool | None
    simple: bool | None
    modulus_tie: bool | None
    eigenvector: tuple | None
    eigenvector_interior: bool | None
    other_semipositive_eigenvector: bool | None
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
    if K.kind == SECOND_ORDER:
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
                           tol: Tolerance = DEFAULT_TOL, trials: int = 200,
                           seed=0) -> ConeMatrixReport:
    """Cone-nonnegativity/positivity/irreducibility verdicts plus the
    spectral-radius diagnostics of ``perron_report``; ``trials`` and
    ``seed`` drive the probes of a second-order cone."""
    if A.n != K.n:
        raise DimensionMismatch("matrix/cone dimension mismatch")
    kn = matrix_k_nonnegative(A, K, tol, trials=trials, seed=seed)
    kp = matrix_k_positive(A, K, tol, trials=trials, seed=seed)
    try:
        ki = _k_irreducible_given(A, K, kn, tol, trials=trials, seed=seed)
    except Inapplicable as e:
        ki = Verdict(UNKNOWN, witness=e.witness,
                     note=f"irreducibility inapplicable: {e}")
    return ConeMatrixReport(k_nonnegative=kn, k_positive=kp,
                            k_irreducible=ki, perron=perron_report(A, K, tol))


def perron_report(A: SquareMatrix, K: Cone,
                  tol: Tolerance = DEFAULT_TOL) -> PerronReport:
    """Spectral-radius diagnostics alone, with no cone-matrix verdict: is
    rho a simple positive eigenvalue whose (sign-normalized) eigenvector
    lies in the interior of K, and is it the only eigenvector of a real
    eigenvalue lying in K?  Exact entries past the float range leave every
    field None, with a note saying so."""
    if A.n != K.n:
        raise DimensionMismatch("matrix/cone dimension mismatch")
    try:
        M = A.to_numpy()
    except OverflowError:
        return PerronReport(*[None] * 8, note="entries beyond the float range")
    try:
        vals, vecs = np.linalg.eig(M)
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


def cone_from_json(obj) -> Cone:
    """Parse ``{"type": ..., "n": ..., "generators": ..., "facets": ...}``
    exactly in every mode: a float literal is its decimal value."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError('expected a cone descriptor with a "type" field')
    kind = obj["type"]
    if kind in (ORTHANT, SECOND_ORDER):
        n = int_from_json(obj.get("n"), f'"n" of the {kind} cone')
        return Cone.orthant(n) if kind == ORTHANT else Cone.second_order(n)
    if kind == POLYHEDRAL:
        gens = obj.get("generators")
        if not gens or not isinstance(gens, list):
            raise ParseError("polyhedral cone needs a list of generators")
        parsed = [vector_from_json(g, True, "a generator") for g in gens]
        if "n" in obj:
            n = int_from_json(obj["n"], '"n" of the polyhedral cone')
            if any(len(g) != n for g in parsed):
                raise ParseError('"n" does not match the generator length')
        facets = obj.get("facets")
        if facets is not None:
            if not isinstance(facets, list):
                raise ParseError('"facets" must be a list of facet normals')
            facets = [vector_from_json(h, True, "a facet normal")
                      for h in facets]
        try:
            return Cone.polyhedral(parsed, facets)
        except (DimensionMismatch, Unsupported) as e:
            raise ParseError(str(e)) from e
    raise ParseError(f"unknown cone type {kind!r}")
