"""Multivariate homogeneous polynomials and the cone certification ladder.

Forms are sparse maps from exponent vectors to coefficients.  The checks
here implement the refutation side of the cone-positivity hierarchy:

* quadratic forms get an exact verdict over polyhedral cones (one positive
  eigenvalue plus nonnegative pairing on extreme rays) and a sampled one
  over second-order cones;
* the Lorentzian property of an exact form of higher degree over the
  orthant or a polyhedral cone is decided exactly, by Branden-Huh's
  finite test of the form composed with the extreme rays, while that
  composition has at most ``EXACT_MONOMIALS_MAX`` possible monomials, and
  a ``holds`` of that decision implies checks that are then not sampled
  (``implied_checks``);
* every other higher-degree check reduces through sampled interior
  directional derivatives or line restrictions, so its non-refuted
  verdicts are "holds-sampled" -- sampling can refute but never certify.

The four sampled checks share one refutation loop, ``_sampled_check``;
quadratic forms and Hessians share one self-dual dichotomy, ``_dichotomy``.
A trial on exact data first decides by the signs of the products its
kernel forms (the ``_by_sign`` rules, each beside its kernel); a trial
that passes builds no verdict, and any other runs the kernel, whose
verdict the report keeps.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

# matrix_k_irreducible and perron_frobenius_check are unused here but stay
# bound: perfbench/tracing.py wraps them by this module's name.
from .cones import (ORTHANT, SECOND_ORDER, Cone,  # noqa: F401
                    _k_irreducible_by_sign, _k_irreducible_given,
                    _maps_into_by_sign, _probe_points, _rng,
                    extreme_ray_reps, interior_contains, matrix_k_irreducible,
                    matrix_k_nonnegative, perron_frobenius_check, sample_cone,
                    sample_interior)
from .errors import DimensionMismatch, Inapplicable, ParseError
from .numerics import (DEFAULT_TOL, SquareMatrix, Tolerance, _object_dot,
                       all_exact, exact_div, inertia, int_from_json,
                       scalar_from_json, sym_eigs)
from .sequences import _log_concave_by_sign, is_log_concave, is_univariate_clc
from .unipoly import UniPoly
from .verdict import (FAILS, HOLDS, HOLDS_SAMPLED, NOT_APPLICABLE, UNKNOWN,
                      InequalityLedger, Verdict)


@dataclass(frozen=True)
class MultiForm:
    """Homogeneous polynomial of degree d in n variables, stored sparsely as
    exponent-vector -> coefficient (zero coefficients dropped)."""

    n: int
    d: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 0:
            raise ValueError(f"form degree must be nonnegative, not {self.d}")
        cleaned = {}
        for exp, c in self.terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.n:
                raise DimensionMismatch(
                    f"exponent vector {exp} has length {len(exp)}, expected {self.n}")
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent")
            if sum(exp) != self.d:
                raise ValueError(
                    f"exponent vector {exp} sums to {sum(exp)}, not degree {self.d}")
            if c == 0:
                continue
            cleaned[exp] = cleaned.get(exp, 0) + c
        object.__setattr__(self, "terms", cleaned)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_exact(self) -> bool:
        return all_exact(self.terms.values())

    def eval(self, x):
        if len(x) != self.n:
            raise DimensionMismatch("point dimension mismatch")
        total = 0
        for exp, c in self.terms.items():
            v = c
            for xi, e in zip(x, exp):
                if e:
                    v = v * xi ** e
            total = total + v
        return total

    def dir_derivative(self, v) -> "MultiForm":
        """Directional derivative sum_i v_i d/dx_i; degree drops by one."""
        if len(v) != self.n:
            raise DimensionMismatch("direction dimension mismatch")
        if self.d < 1:
            raise ValueError("cannot differentiate a degree-0 form")
        out = {}
        for exp, c in self.terms.items():
            for i, e in enumerate(exp):
                if e == 0 or v[i] == 0:
                    continue
                new = list(exp)
                new[i] -= 1
                key = tuple(new)
                out[key] = out.get(key, 0) + e * v[i] * c
        return MultiForm(self.n, self.d - 1, out)

    def hessian_at(self, a) -> SquareMatrix:
        """Matrix of second partials evaluated at a; symmetric."""
        if len(a) != self.n:
            raise DimensionMismatch("point dimension mismatch")
        if self.d < 2:
            raise ValueError("Hessian needs degree >= 2")
        n = self.n
        H = [[0] * n for _ in range(n)]
        for exp, c in self.terms.items():
            for i in range(n):
                if exp[i] == 0:
                    continue
                for j in range(i, n):
                    coef = exp[i] * (exp[j] - (1 if i == j else 0))
                    if coef == 0:
                        continue
                    new = list(exp)
                    new[i] -= 1
                    new[j] -= 1
                    v = coef * c
                    for ak, e in zip(a, new):
                        if e:
                            v = v * ak ** e
                    H[i][j] = H[i][j] + v
                    if i != j:
                        H[j][i] = H[j][i] + v
        return SquareMatrix.from_rows(H)

    def __add__(self, other: "MultiForm") -> "MultiForm":
        if other.n != self.n or other.d != self.d:
            raise DimensionMismatch("cannot add forms of different shape")
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return MultiForm(self.n, self.d, out)

    def scale(self, c) -> "MultiForm":
        return MultiForm(self.n, self.d, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiForm) and self.n == other.n
                and self.d == other.d and self.terms == other.terms)


def _halved(M: SquareMatrix) -> SquareMatrix:
    """M / 2, entry by entry; an even int entry stays an int."""
    return SquareMatrix(tuple(
        tuple(v // 2 if type(v) is int and v % 2 == 0 else exact_div(v, 2)
              for v in r) for r in M.rows))


def restrict_line(f: MultiForm, x, v) -> UniPoly:
    """The univariate restriction t -> f(x + t v), by binomial substitution:
    each monomial's factors (x_i + t v_i)^e are expanded and multiplied out.
    A linear factor multiplies the product in place, with the values
    x_i v_i^0 and x_i^0 v_i of the binomial terms (a float v_i makes the
    first a float) and the sums of ``_conv``.  Exact on exact input.
    """
    if len(x) != f.n or len(v) != f.n:
        raise DimensionMismatch("restriction point/direction dimension mismatch")
    linear = [(xi * vi ** 0, xi ** 0 * vi) for xi, vi in zip(x, v)]
    coeffs = [0] * (f.d + 1)
    for exp, c in f.terms.items():
        poly = [c]
        for xi, vi, (x0, v1), e in zip(x, v, linear, exp):
            if e == 1:
                poly.append(0)
                carry = 0  # the t^k term of the coefficient of t^(k-1)
                for k, a in enumerate(poly):
                    if a != 0:
                        poly[k], carry = carry + a * x0, 0 + a * v1
                    else:
                        poly[k], carry = carry, 0
            elif e:
                factor = [math.comb(e, j) * xi ** (e - j) * vi ** j
                          for j in range(e + 1)]
                poly = _conv(poly, factor)
        for k, val in enumerate(poly):
            coeffs[k] = coeffs[k] + val
    return UniPoly(tuple(coeffs))


def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@dataclass(frozen=True)
class FormReport:
    """Outcome of one form-level check, with whatever diagnostics the check
    accumulated (eigenvalues, per-branch tallies, sampled witnesses)."""

    check: str
    verdict: Verdict
    details: dict = field(default_factory=dict)


def _eig_positive_count(vals, tol: Tolerance):
    """The numbers of eigenvalues above and inside the zero band."""
    scale = max((abs(v) for v in vals), default=1.0)
    thr = tol.threshold(max(scale, 1.0))
    pos = sum(1 for v in vals if v > thr)
    band = sum(1 for v in vals if abs(v) <= thr)
    return pos, band


def quadratic_lorentzian_check(Q: SquareMatrix, K: Cone,
                               tol: Tolerance = DEFAULT_TOL,
                               trials: int = 200, seed=0) -> FormReport:
    """Is x^T Q x a cone-Lorentzian quadratic?

    Needs exactly one positive eigenvalue plus nonnegative pairing
    y^T Q x on extreme-ray pairs (exact, polyhedral/orthant) or positive
    values on sampled interior points (second-order).  On self-dual cones
    the report additionally carries the K-nonnegativity of Q and the
    nonsingular-irreducible / singular-nonnegative dichotomy.
    """
    return _quadratic_check(Q.add(Q.transpose()), K, tol, trials, seed)


def _quadratic_check(Q2: SquareMatrix, K: Cone, tol: Tolerance, trials: int,
                     seed) -> FormReport:
    """``quadratic_lorentzian_check`` of the quadratic x^T Q x given by
    the symmetric matrix Q2 = 2Q, which is int for an int form."""
    report, band = _quadratic_verdict(Q2, K, tol, trials, seed)
    _add_dichotomy(report, Q2, K, band, tol, trials, seed)
    return report


def _halved_eigenvalues(Q2: SquareMatrix) -> list:
    """The eigenvalues of Q = Q2 / 2, descending."""
    return [v / 2 for v in sym_eigs(Q2)[0]]


def _ray_pairings(Q2: SquareMatrix, K: Cone) -> np.ndarray:
    """G Q2 G^T over the extreme rays of the orthant or polyhedral K:
    entry [i, j] is g_i . Q2 g_j."""
    G = K._ray_array
    return _object_dot(G, _object_dot(Q2.to_objects(), G.T))


def _quadratic_verdict(Q2: SquareMatrix, K: Cone, tol: Tolerance,
                       trials: int, seed):
    """``_quadratic_check`` without the self-dual details, which no
    verdict reads.  Also returns the number of eigenvalues in the zero
    band, or None when the eigenvalue count alone decided (no pairing was
    computed).  Entries with no float leave the eigenvalues ``None`` and
    the verdict ``unknown``.

    The report carries Q's values: the eigenvalues of 2Q are halved
    (exactly, in binary), and the pairing ledger reads x^T 2Q y against a
    doubled absolute tolerance and a doubled scale, so each sign and
    margin is that of x^T Q y."""
    if Q2.n != K.n:
        raise DimensionMismatch("matrix/cone dimension mismatch")
    try:
        vals = _halved_eigenvalues(Q2)
    except OverflowError:
        return FormReport("quadratic-lorentzian",
                          Verdict(UNKNOWN,
                                  note="entries beyond the float range"),
                          {"eigenvalues": None}), None
    pos, band = _eig_positive_count(vals, tol)
    details = {"eigenvalues": vals}
    if pos > 1:
        return FormReport("quadratic-lorentzian",
                          Verdict(FAILS, witness=("positive-eigenvalues", pos),
                                  note="more than one positive eigenvalue"),
                          details), None
    if pos == 0:
        status = UNKNOWN if band else FAILS
        return FormReport("quadratic-lorentzian",
                          Verdict(status, witness=("positive-eigenvalues", 0)),
                          details), None
    sampled = K.kind == SECOND_ORDER
    led = InequalityLedger(Tolerance(2 * tol.abs, tol.rel))
    if sampled:
        rng = _rng(seed)
        points = [sample_interior(K, rng) for _ in range(trials)]
        X = np.array(points, dtype=object).reshape(trials, K.n)
        QX = _object_dot(Q2.to_objects(), X.T)  # column t: Q2 x_t
        with np.errstate(all="ignore"):
            values = (X * QX.T).sum(axis=1) + 0  # x_t . Q2 x_t
        for x, val in zip(points, values.tolist()):
            led.require(val, 0, witness=("interior-point", x), strict=True,
                        scale=2 * sum(abs(c) for c in x) ** 2)
    else:
        reps = extreme_ray_reps(K)
        pairings = _ray_pairings(Q2, K)
        for gx, column in zip(reps, pairings.T.tolist()):
            for gy, val in zip(reps, column):  # val = gy . Q2 gx
                led.require(val, 0, witness=("ray-pair", gx, gy),
                            scale=max(abs(val), 2))
    pairing = led.verdict()
    details["pairing"] = pairing
    if pairing.is_fails or pairing.is_unknown:
        verdict = pairing
    elif band:
        # a tolerance-band eigenvalue keeps "exactly one positive" honest
        verdict = Verdict(HOLDS_SAMPLED if sampled else HOLDS,
                          margin=pairing.margin,
                          note="eigenvalue(s) inside the zero band treated as zero")
    else:
        verdict = Verdict(HOLDS_SAMPLED if sampled else HOLDS,
                          margin=pairing.margin)
    return FormReport("quadratic-lorentzian", verdict, details), band


def _add_dichotomy(report: FormReport, Q2: SquareMatrix, K: Cone, band,
                   tol: Tolerance, trials: int, seed) -> None:
    """Add the self-dual K-nonnegativity of Q = Q2 / 2 and its dichotomy
    to the details of ``_quadratic_verdict``'s report, when the pairing
    was computed (``band`` is not None) and K is self-dual."""
    if band is None or not K.is_self_dual:
        return
    singular = band > 0
    kn, verdict = _dichotomy(_halved(Q2), K, singular, tol, trials, seed)
    report.details.update(
        k_nonnegative=kn, singular=singular, dichotomy=verdict,
        dichotomy_branch=("singular-nonnegative" if singular
                          else "nonsingular-irreducible"))


def _dichotomy(Q: SquareMatrix, K: Cone, singular: bool, tol: Tolerance,
               trials: int, seed):
    """The self-dual dichotomy of the symmetric Q: ``(kn, verdict)``, with
    kn the K-nonnegativity of Q and verdict that of its branch -- kn itself
    when Q is singular, the K-irreducibility of Q when it is nonsingular.
    A nonsingular Q that is not K-nonnegative fails its branch; one whose
    K-nonnegativity is undecided leaves it undecided."""
    kn = matrix_k_nonnegative(Q, K, tol, trials=trials, seed=seed)
    if singular:
        return kn, kn
    try:
        return kn, _k_irreducible_given(Q, K, kn, tol, trials=trials, seed=seed)
    except Inapplicable as e:
        return kn, Verdict(UNKNOWN if kn.is_unknown else FAILS,
                           witness=e.witness, note=str(e))


def _dichotomy_by_sign(Q: SquareMatrix, K: Cone, singular: bool,
                       points) -> bool:
    """``_dichotomy``'s branch status on the exact Q, by sign alone: is Q
    K-nonnegative and, when nonsingular, K-irreducible?  The comparisons
    are those of the cone-matrix checks at the probe ``points`` of
    ``_probe_points``."""
    M = Q.to_objects()
    return (_maps_into_by_sign(M, K, False, points)
            and (singular or _k_irreducible_by_sign(M, K, points)))


def _sampled_check(check: str, trials: int, trial, noun: str,
                   details: dict) -> FormReport:
    """The sampling policy of every form check.  ``trial(t)`` returns None
    when trial t refutes nothing, UNKNOWN when it is indeterminate, or
    ``(verdict, extra_details)`` for a refutation.  The first refutation is
    the report, with ``trials_run`` t + 1; otherwise all trials ran, and the
    report -- carrying ``details`` -- is "unknown" when any trial was
    indeterminate and "holds-sampled" when none was."""
    unknowns = 0
    for t in range(trials):
        outcome = trial(t)
        if outcome == UNKNOWN:
            unknowns += 1
        elif outcome is not None:
            verdict, extra = outcome
            return FormReport(check, verdict, {"trials_run": t + 1, **extra})
    if unknowns:
        verdict = Verdict(UNKNOWN,
                          note=f"{unknowns}/{trials} {noun} indeterminate")
    else:
        verdict = Verdict(HOLDS_SAMPLED, note="refutation sampled, none found")
    return FormReport(check, verdict, {"trials_run": trials, **details})


def _line_refutation(inner: Verdict, x, v):
    """A trial outcome refuting a check along the line x + t v."""
    return Verdict(FAILS, margin=inner.margin,
                   witness={"x": x, "v": v, "inner": inner.witness}), {}


def _nonnegative_on_cone(f: MultiForm, K: Cone, tol: Tolerance,
                         trials: int, seed) -> FormReport:
    """Degree <= 1 degenerate case: Lorentzian iff nonnegative on K."""
    led = InequalityLedger(tol)
    sampled = K.kind == SECOND_ORDER
    if sampled:
        rng = _rng(seed)
        for _ in range(trials):
            x = sample_cone(K, rng)
            led.require(f.eval(x), 0, witness=("point", x),
                        scale=max(1.0, sum(abs(c) for c in x)))
    else:
        for g in extreme_ray_reps(K):
            led.require(f.eval(g), 0, witness=("ray", g))
    base = led.verdict()
    if base.status == HOLDS and sampled:
        base = Verdict(HOLDS_SAMPLED, margin=base.margin, witness=base.witness)
    return FormReport("lorentzian-sampled", base,
                      {"degenerate_degree": f.d})


# The exact decision over the extreme rays tests the exchange property on
# every pair of the up to C(m + d - 1, d) monomials of f o G, so its cost
# grows as that count squared; past this count it costs more than the
# sampled reductions at the default 200 trials (README, "Exact Lorentzian
# decisions").
EXACT_MONOMIALS_MAX = 200


def lorentzian_sample_check(f: MultiForm, K: Cone, trials: int = 200, seed=0,
                            tol: Tolerance = DEFAULT_TOL) -> FormReport:
    """The Lorentzian property of f over K.  The zero form holds by
    convention; degree <= 1 is nonnegativity on K and degree 2 the
    quadratic check.  From degree 3 an exact f over the orthant or a
    polyhedral K with m extreme rays is decided over the extreme rays
    (``_lorentzian_over_rays``) while f o G has at most
    ``EXACT_MONOMIALS_MAX`` possible monomials, C(m + d - 1, d); any other
    f is reduced to quadratics along tuples of sampled interior directions
    (``_sampled_reductions``)."""
    if f.n != K.n:
        raise DimensionMismatch("form/cone dimension mismatch")
    if f.is_zero:
        # the Lorentzian class contains 0, as in clc_necessary_check
        return FormReport("lorentzian-sampled",
                          Verdict(HOLDS, note="zero polynomial convention"),
                          {"trials_run": 0})
    if f.d <= 1:
        return _nonnegative_on_cone(f, K, tol, trials, seed)
    if f.d == 2:
        # a quadratic's constant Hessian is 2Q, an int matrix for an int f
        inner = _quadratic_check(f.hessian_at((0,) * f.n), K, tol, trials,
                                 seed)
        return FormReport("lorentzian-sampled", inner.verdict, inner.details)
    if (f.is_exact and K.kind != SECOND_ORDER
            and math.comb(len(extreme_ray_reps(K)) + f.d - 1, f.d)
            <= EXACT_MONOMIALS_MAX):
        return _lorentzian_over_rays(f, K)
    return _sampled_reductions(f, K, trials, seed, tol)


def _sampled_reductions(f: MultiForm, K: Cone, trials: int, seed,
                        tol: Tolerance) -> FormReport:
    """Sampled refutation of the Lorentzian property of f, d >= 3: reduce
    f to a quadratic along tuples of interior directions and run the
    quadratic check; the first refuted tuple is the witness."""
    rng = _rng(seed)

    def trial(t):
        dirs = tuple(sample_interior(K, rng) for _ in range(f.d - 2))
        q = f
        for a in dirs:
            q = q.dir_derivative(a)
        Q2 = q.hessian_at((0,) * q.n)
        inner_trials, inner_seed = max(8, trials // 10), [seed, t, 1]
        inner, band = _quadratic_verdict(Q2, K, tol, inner_trials, inner_seed)
        if inner.verdict.is_fails:
            # the dichotomy is reported for the refuted reduction only
            _add_dichotomy(inner, Q2, K, band, tol, inner_trials, inner_seed)
            return (Verdict(FAILS, witness={"directions": dirs,
                                            "inner": inner.verdict.witness}),
                    {"inner_details": inner.details})
        return UNKNOWN if inner.verdict.is_unknown else None

    return _sampled_check("lorentzian-sampled", max(1, trials), trial,
                          "reductions", {})


def _lorentzian_over_rays(f: MultiForm, K: Cone) -> FormReport:
    """The exact decision for the exact f of degree d >= 3 over the orthant
    or the polyhedral K: f is K-Lorentzian iff g = f o G is Lorentzian on
    R^m_+, G the n x m matrix of the extreme ray reps (README, "Exact
    Lorentzian decisions").  By Branden-Huh (Ann. Math. 192, 2020, Thm
    2.25) g is Lorentzian iff, in this order,

    1. every coefficient of g is >= 0;
    2. the support of g is M-convex;
    3. for each alpha with |alpha| = d - 2, the constant Hessian of
       d^alpha g has at most one positive eigenvalue.

    The first failure is the witness, in the coordinates of g: y_j is the
    weight of the j-th extreme ray.  A ``holds`` also reports whether g is
    strictly Lorentzian (``strict``): every one of its C(m + d - 1, d)
    possible monomials has a positive coefficient, and no Hessian of test
    3 has the eigenvalue 0."""
    rays = extreme_ray_reps(K)
    terms = f.terms if K.kind == ORTHANT else _composed_terms(f, rays)
    details = {"rays": len(rays), "quadratics": 0, "trials_run": 0}

    def report(status, note, witness=None):
        return FormReport("lorentzian-sampled",
                          Verdict(status, witness=witness, note=note), details)

    support = sorted(terms)
    for exp in support:
        if terms[exp] < 0:
            return report(FAILS, "f o G has a negative coefficient",
                          ("coefficient", exp, terms[exp]))
    exchange = _exchange_failure(support)
    if exchange is not None:
        return report(FAILS, "the support of f o G is not M-convex",
                      ("exchange", *exchange))
    # a full support has no zero row in any Hessian of test 3
    strict = len(support) == math.comb(len(rays) + f.d - 1, f.d)
    for alpha, H in sorted(_alpha_hessians(terms).items()):
        details["quadratics"] += 1
        # a 1 x 1 Hessian is a positive coefficient
        k, zero = inertia(H) if len(H) > 1 else (1, 0)
        if k > 1:
            return report(FAILS, "a (d-2)-nd partial of f o G has more than "
                          "one positive eigenvalue",
                          ("alpha-positive-eigenvalues", alpha, k))
        strict = strict and not zero
    details["strict"] = strict
    return report(HOLDS, "f o G is Lorentzian (Branden-Huh, Thm 2.25)")


def implied_checks(f: MultiForm, lorentzian: FormReport) -> dict:
    """check name -> the ``holds`` that the report ``lorentzian`` of
    ``lorentzian_sample_check`` on f implies without sampling (README,
    "Checks implied by an exact holds").  Only an exact ``holds`` of the
    decision over the extreme rays implies anything: K-Lorentzian f is
    K-CLC, so the non-strict ``clc-necessary`` holds, and its Hessians at
    interior points have one positive eigenvalue and the self-dual
    dichotomy, so ``hessian-signature`` holds.  ``hurwitz-over-cone``
    holds for a strictly Lorentzian f o G of degree d <= 4, which needs
    the orthant or a simplicial cone: each Hessian of f o G is G^T H G,
    singular when G has more columns (rays) than rows."""
    details = lorentzian.details
    if lorentzian.verdict.status != HOLDS or "rays" not in details:
        return {}
    names = ["clc-necessary", "hessian-signature"]
    if details["strict"] and f.d <= 4:
        names.append("hurwitz-over-cone")
    implied = Verdict(HOLDS, note="implied by the exact Lorentzian decision")
    return {name: FormReport(name, implied, {"trials_run": 0})
            for name in names}


def _composed_terms(f: MultiForm, rays) -> dict:
    """The nonzero terms of g(y) = f(sum_j y_j rays[j])."""
    m = len(rays)
    unit = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    # x_i = sum_j rays[j][i] y_j, and its powers as they are needed
    powers = {(i, 1): {unit[j]: g[i] for j, g in enumerate(rays) if g[i]}
              for i in range(f.n)}

    def power(i, e):
        if (i, e) not in powers:
            powers[i, e] = _product(power(i, e - 1), powers[i, 1])
        return powers[i, e]

    out = {}
    for exp, c in f.terms.items():
        poly = {(0,) * m: c}
        for i, e in enumerate(exp):
            if e:
                poly = _product(poly, power(i, e))
        for k, v in poly.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v != 0}


def _product(a: dict, b: dict) -> dict:
    """The product of two sparse polynomials, exponent -> coefficient."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(operator.add, ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _exchange_failure(support: list):
    """The first ``(alpha, beta, i)`` of the sorted support, in that
    order, that breaks the exchange property of M-convex sets: alpha_i >
    beta_i, and alpha - e_i + e_j lies outside the support for every j
    with alpha_j < beta_j.  None when the support is M-convex."""
    members = set(support)
    m = len(support[0])

    def moved(alpha, i, j):  # alpha - e_i + e_j
        v = list(alpha)
        v[i] -= 1
        v[j] += 1
        return tuple(v)

    for alpha in support:
        # reach[i]: the j with alpha - e_i + e_j in the support
        reach = {i: {j for j in range(m) if moved(alpha, i, j) in members}
                 for i in range(m) if alpha[i]}
        for beta in support:
            up = {j for j in range(m) if alpha[j] < beta[j]}
            for i in range(m):
                if alpha[i] > beta[i] and reach[i].isdisjoint(up):
                    return alpha, beta, i
    return None


def _alpha_hessians(terms: dict) -> dict:
    """alpha -> the constant Hessian of d^alpha g over alpha!, with its zero
    rows and columns dropped, for each alpha with |alpha| = d - 2 and
    d^alpha g != 0.  Entry (i, j) is c_beta beta!/alpha!, beta = alpha +
    e_i + e_j: c_beta beta_i beta_j off the diagonal, c_beta beta_i
    (beta_i - 1) on it.  A positive factor and zero rows change no
    positive eigenvalue."""
    entries = {}
    for beta, c in terms.items():
        nz = [i for i, b in enumerate(beta) if b]
        for p, i in enumerate(nz):
            for j in nz[p:]:
                if i == j and beta[i] < 2:
                    continue
                alpha = list(beta)
                alpha[i] -= 1
                alpha[j] -= 1
                coef = beta[i] * (beta[j] - (i == j))
                entries.setdefault(tuple(alpha), {})[i, j] = coef * c
    out = {}
    for alpha, H in entries.items():
        idx = sorted({k for ij in H for k in ij})
        out[alpha] = [[H.get((min(i, j), max(i, j)), 0) for j in idx]
                      for i in idx]
    return out


def clc_necessary_check(f: MultiForm, K: Cone, trials: int = 200, seed=0,
                        tol: Tolerance = DEFAULT_TOL,
                        strict: bool = False) -> FormReport:
    """Necessary conditions along sampled lines: the restriction
    t -> f(x + t v) must have positive coefficients and a log-concave
    factorial-weighted coefficient sequence {k! a_k} = {D_v^k f(x)}.

    Non-strict mode samples interior (x, v); strict mode also draws
    boundary points and rays and uses strict inequalities.  Boundary
    coverage is necessarily incomplete; the report says so.
    """
    if f.n != K.n:
        raise DimensionMismatch("form/cone dimension mismatch")
    if f.is_zero:
        # the Lorentzian class contains 0: the zero-polynomial convention
        # of is_univariate_clc, with nothing sampled
        return FormReport("clc-necessary",
                          is_univariate_clc(UniPoly(), strict, tol),
                          {"trials_run": 0})
    details = {"note": "boundary coverage is sampled and incomplete"}
    boundary_flagged = []
    rng = _rng(seed)
    sample = sample_cone if strict else sample_interior

    def trial(t):
        x = sample(K, rng)
        v = sample(K, rng)
        if not any(v):
            return None
        p = restrict_line(f, x, v)
        weighted = [math.factorial(k) * p.coeff(k) for k in range(f.d + 1)]
        if p.is_exact and _log_concave_by_sign(weighted, strict):
            return None
        verdict = is_log_concave(weighted, strict=strict, tol=tol)
        if verdict.is_fails:
            if strict and not (interior_contains(K, x, tol)
                               and interior_contains(K, v, tol)):
                boundary_flagged.append((x, v, verdict.witness))
                details["boundary_violations"] = boundary_flagged[:5]
                details["boundary_note"] = (
                    "strict inequalities failed on boundary samples; the "
                    "strict property on faces where derivatives vanish is "
                    "not resolved here")
                return None
            return _line_refutation(verdict, x, v)
        return UNKNOWN if verdict.is_unknown else None

    return _sampled_check("clc-necessary", trials, trial, "lines", details)


def _first_call(fn):
    """fn, run at the first call only: every call returns that result,
    whatever its arguments."""
    result = []

    def call(*args):
        if not result:
            result.append(fn(*args))
        return result[0]

    return call


def hessian_signature_check(f: MultiForm, K: Cone, trials: int = 100, seed=0,
                            tol: Tolerance = DEFAULT_TOL) -> FormReport:
    """At sampled interior points the Hessian must have exactly one positive
    eigenvalue; on self-dual cones it must additionally be either
    nonsingular and K-irreducible or singular and K-nonnegative.  The
    Perron property of the nonsingular branch is not checked again: a
    K-nonnegative, K-irreducible matrix has a simple positive spectral
    radius with an eigenvector in int K by the generalized
    Perron-Frobenius (Krein-Rutman) theorem (Vandergraft, SIAM J. Appl.
    Math. 16, 1968).  The zero form holds by convention, with nothing
    sampled."""
    if f.n != K.n:
        raise DimensionMismatch("form/cone dimension mismatch")
    if f.d < 2:
        raise ValueError("Hessian check needs degree >= 2")
    if f.is_zero:
        # the Lorentzian class contains 0, as in clc_necessary_check
        return FormReport("hessian-signature",
                          Verdict(HOLDS, note="zero polynomial convention"),
                          {"trials_run": 0})
    tallies = {"nonsingular_irreducible": 0, "singular_nonnegative": 0}

    def refuted(witness, note=None):
        return Verdict(FAILS, witness=witness, note=note), {"tallies": tallies}

    rng = _rng(seed)

    def hessian(a):
        """H at a and its eigenvalues, None when an entry has no float."""
        H = f.hessian_at(a)
        try:
            return H, sym_eigs(H)[0]
        except OverflowError:
            return H, None

    def dichotomy(H, singular, t):
        """None when the signs of an exact H show that its branch holds,
        else ``_dichotomy``'s (kn, verdict)."""
        if H.is_exact and _dichotomy_by_sign(
                H, K, singular, _probe_points(K, 32, [seed, t, 1])):
            return None
        return _dichotomy(H, K, singular, tol, 32, [seed, t, 1])

    if f.d == 2:
        # a quadratic's Hessian is the same at every point; off the
        # second-order cone its dichotomy is exact and reads no seed
        hessian = _first_call(hessian)
        if K.kind != SECOND_ORDER:
            dichotomy = _first_call(dichotomy)

    def trial(t):
        a = sample_interior(K, rng)
        H, vals = hessian(a)
        if vals is None:
            return UNKNOWN
        pos, band = _eig_positive_count(vals, tol)
        if pos != 1:
            if pos == 0 and band:
                return UNKNOWN
            return refuted({"point": a, "eigenvalues": vals,
                            "positive_count": pos})
        if not K.is_self_dual:
            return None
        singular = band > 0
        outcome = dichotomy(H, singular, t)
        if outcome is not None:
            kn, sub = outcome
            if sub.is_fails:
                kind = "singular" if singular else "nonsingular"
                prop = "irreducible" if kn.is_holds else "nonnegative"
                return refuted({"point": a, "inner": sub.witness},
                               f"{kind} Hessian is not K-{prop}")
            if sub.is_unknown:
                return UNKNOWN
        tallies["singular_nonnegative" if singular
                else "nonsingular_irreducible"] += 1
        return None

    return _sampled_check("hessian-signature", trials, trial, "points",
                          {"tallies": tallies})


def hurwitz_over_cone_check(f: MultiForm, K: Cone, trials: int = 200, seed=0,
                            tol: Tolerance = DEFAULT_TOL) -> FormReport:
    """Sampled refutation of Hurwitz stability over the cone: every sampled
    interior line restriction must be Hurwitz-stable.  The zero form, whose
    every restriction is 0, is ``not-applicable``."""
    from .hurwitz import _routh_by_sign, routh_hurwitz_stable

    if f.n != K.n:
        raise DimensionMismatch("form/cone dimension mismatch")
    if f.d < 1:
        raise ValueError("stability over the cone needs degree >= 1")
    if f.is_zero:
        return FormReport("hurwitz-over-cone",
                          Verdict(NOT_APPLICABLE,
                                  note="every restriction of the zero form "
                                       "is 0"),
                          {"trials_run": 0})

    rng = _rng(seed)

    def trial(t):
        x = sample_interior(K, rng)
        v = sample_interior(K, rng)
        p = restrict_line(f, x, v)
        if p.is_zero or p.degree < 1:
            return UNKNOWN
        if p.is_exact and _routh_by_sign(p):
            return None
        verdict = routh_hurwitz_stable(p, tol)
        if verdict.is_fails:
            return _line_refutation(verdict, x, v)
        return UNKNOWN if verdict.is_unknown else None

    return _sampled_check("hurwitz-over-cone", trials, trial, "lines", {})


def form_from_json(obj, exact: bool = True) -> MultiForm:
    """Parse ``{"n": ..., "d": ..., "terms": [{"exp": [...], "coef": ...}]}``."""
    if not isinstance(obj, dict):
        raise ParseError("expected a form descriptor object")
    n = int_from_json(obj.get("n"), '"n" of a form')
    d = int_from_json(obj.get("d"), '"d" of a form')
    raw = obj.get("terms")
    if not isinstance(raw, list):
        raise ParseError('"terms" must be a list of terms')
    terms = {}
    for item in raw:
        try:
            if not isinstance(item["exp"], list):
                raise ParseError(f'"exp" must be a list, not {item["exp"]!r}')
            exp = tuple(int_from_json(e, 'an "exp" entry') for e in item["exp"])
            coef = scalar_from_json(item["coef"], exact)
        except (KeyError, TypeError) as e:
            raise ParseError(f"bad term {item!r}: {e}") from e
        terms[exp] = terms.get(exp, 0) + coef
    try:
        return MultiForm(n, d, terms)
    except (ValueError, DimensionMismatch) as e:
        raise ParseError(str(e)) from e
