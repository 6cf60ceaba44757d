"""Hurwitz-stability deciders and degree-gated sufficient criteria.

Four complete deciders (leading-minor test, four alternating-chain
variants, interlacing of the compressed even/odd parts, and recursive
degree reduction) are cross-checked against a companion-matrix root
oracle.  The sufficient criteria (strict weighted Newton inequalities for
d <= 4, the quintic cross inequality, and the alpha-ratio tests) report
"holds"/"fails" about their own hypotheses only; a failed criterion says
nothing about stability.

Polynomials are normalized to a positive leading coefficient before any
test (negating all coefficients leaves the root set unchanged).  With a
positive leading coefficient, strictly positive coefficients are necessary
for stability, so a nonpositive coefficient refutes outright.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonConvergence, WrongDegree, ZeroPolynomial
from .numerics import (DEFAULT_TOL, SquareMatrix, Tolerance, all_roots,
                       exact_div, is_exact, leading_minors)
from .sequences import (_require_clc, _require_positive_coeffs,
                        _require_quintic_cross, is_univariate_clc)
from .unipoly import UniPoly, hb_parts
from .verdict import FAILS, HOLDS, UNKNOWN, InequalityLedger, Verdict


def hurwitz_matrix(p: UniPoly) -> SquareMatrix:
    """The d x d matrix with entry (i, j) = a_{2j-i} (1-based indices),
    missing coefficients read as zero."""
    if p.is_zero or p.degree < 1:
        raise ZeroPolynomial("Hurwitz matrix needs degree >= 1")
    d = p.degree
    # rows 1 and 2 hold a_1, a_3, ... and a_0, a_2, ...; row i + 2 is row
    # i shifted right by one, since a_{2j-i-2} sits one column left of
    # a_{2j-i}
    a = p.coeffs + (0,) * d
    rows = [a[1:2 * d:2], a[0:2 * d - 1:2]][:d]
    while len(rows) < d:
        rows.append((0,) + rows[-2][:-1])
    return SquareMatrix(tuple(rows))


def _positive_leading(p: UniPoly) -> UniPoly:
    """p or -p, whichever has a positive leading coefficient; stability is
    defined from degree 1."""
    if p.is_zero:
        raise ZeroPolynomial("stability is undefined for the zero polynomial")
    if p.degree < 1:
        raise ZeroPolynomial("stability needs degree >= 1")
    return p.scale(-1) if p.leading < 0 else p


_BOUND_MAX_EXP = 1000


def _scaled_minors(p: UniPoly, minors) -> list:
    """(Delta_k, scale_k) pairs for the Hurwitz minors ``minors`` of p,
    scale_k the Hadamard bound of the k-th leading block of the Hurwitz
    matrix (at least 1), so Delta_k / scale_k is a margin in [-1, 1] up to
    the float rounding of the bound (the float coefficients 1, 1e200,
    1e200, 1 give 1.0000000000000222).  With an exact Delta_k, a bound
    past 2^_BOUND_MAX_EXP divides both members by one power of two, so
    neither the bound nor float(Delta_k) overflows; a float Delta_k keeps
    the plain bound, which is inf past the float range, so its comparison
    stays indeterminate.

    The float matrix is laid out by index from the d + 1 coefficients,
    each converted once: row i holds every coefficient of index parity
    i + 1 (0-based i), so the coefficients of one parity share one
    pre-shift.  Each row is scaled by a power of two before its norms are
    taken, and the product of norms is kept as a float significand and an
    integer exponent; power-of-two scaling is exact, so every bound that
    fits in a float is the plain product of the row norms bit for bit.
    The norm of a row prefix x is sqrt(x.dot(x)): the one dot product and
    the one correctly rounded square root that ``np.linalg.norm``
    computes for a real vector, without its per-call argument checks, so
    every bound and margin is the one ``norm`` gives.
    """
    # exact coefficients past 2^_BOUND_MAX_EXP are divided by a power of
    # two read from bit lengths before they are converted, so none
    # overflows; pre[r] is the shift of the coefficients a_k, k = r mod 2
    pre = [max(0, max((abs(v.numerator).bit_length() - v.denominator.bit_length()
                       for v in p.coeffs[r::2] if is_exact(v)), default=0)
               - _BOUND_MAX_EXP) for r in (0, 1)]
    floats = [float(Fraction(v) / 2 ** pre[k % 2]) if pre[k % 2] else float(v)
              for k, v in enumerate(p.coeffs)]
    # entry (i, j), 0-based, reads a_{2j+1-i}, which sits at index
    # 2j+1-i + d between d zeros on each side
    d = p.degree
    zeros = [0.0] * d
    A = np.array(zeros + floats + zeros)[
        np.arange(d + 1, 3 * d, 2) - np.arange(d)[:, None]]
    _, row_exp = np.frexp(np.max(np.abs(A), axis=1))
    A = np.ldexp(A, -row_exp[:, None])
    row_exp = [int(e) + pre[(i + 1) % 2] for i, e in enumerate(row_exp)]
    out = []
    for k in range(1, d + 1):
        frac, exp = 1.0, 0
        for i in range(k):
            x = A[i, :k]
            frac, e = math.frexp(frac * math.sqrt(x.dot(x)))
            exp += e + row_exp[i]
        m = minors[k - 1]
        shift = max(0, exp - _BOUND_MAX_EXP) if frac and is_exact(m) else 0
        if shift:
            m = Fraction(m) / 2 ** shift
        exp -= shift
        bound = math.inf if frac and exp > 1024 else math.ldexp(frac, exp)
        out.append((m, max(bound, 1.0)))
    return out


def _minor_data(p: UniPoly):
    """(minors, scaled): the leading Hurwitz minors of p, which
    ``leading_minors`` takes by the Routh recurrence on the two top rows
    of the Hurwitz matrix, and their (Delta_k, scale_k) pairs."""
    minors = leading_minors(hurwitz_matrix(p))
    return minors, _scaled_minors(p, minors)


def _minor_chain(p: UniPoly, coeffs, minors, tol: Tolerance,
                 minor_data=None) -> Verdict:
    """Require a_k > 0 for k in ``coeffs``, in order, then, unless one
    failed, Delta_k > 0 for k in ``minors`` up to the first failed minor.
    The minors are the given ``_minor_data(p)``, or computed only once the
    coefficients pass.

    Exact coefficients are required as the ints c_k = den a_k over their
    lcm denominator den, at scale max(|c_k|, den): slack and scale are den
    times those of a_k > 0 at its default scale, so each margin is the
    same rational, and the comparison with a minor row's float margin
    binds the same row.  The minor rows keep their exact minors and float
    Hadamard scales."""
    led = InequalityLedger(tol)
    c, den = p.cleared
    for k in coeffs:
        led.require(c[k], 0, witness=("coefficient", k), strict=True,
                    floor=den)
    if led.has_violation:
        return led.verdict()
    _, scaled = minor_data if minor_data is not None else _minor_data(p)
    for k in minors:
        minor, scale = scaled[k - 1]
        if not led.require(minor, 0, witness=("minor", k),
                           strict=True, scale=scale):
            break
    return led.verdict()


def routh_hurwitz_stable(p: UniPoly, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Stability via positive coefficients plus positive leading principal
    minors Delta_1..Delta_{d-1}; exact when the coefficients are rational."""
    p = _positive_leading(p)
    return _minor_chain(p, range(p.degree + 1), range(1, p.degree), tol)


def _lc_indices(d: int, variant: int):
    """Coefficient and minor indices of an alternating-chain variant."""
    if variant in (1, 2):
        coeffs = [0, *range(d, -1, -2)]
    else:
        coeffs = [0, d, *range(d - 1, -1, -2)]
    return coeffs, range(1 if variant in (1, 3) else 2, d + 1, 2)


def lienard_chipart_stable(p: UniPoly, variant: int = 1,
                           tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Alternating-chain refinement of the minor test.

    With a_0 > 0, each variant needs only every other coefficient from the
    top (variants 1-2: a_d, a_{d-2}, ...; variants 3-4: a_d, a_{d-1},
    a_{d-3}, ...) plus every other leading minor (odd indices for variants
    1 and 3, even for 2 and 4).
    """
    if variant not in (1, 2, 3, 4):
        raise ValueError("variant must be 1..4")
    p = _positive_leading(p)
    return _minor_chain(p, *_lc_indices(p.degree, variant), tol)


def _real_positive_roots(q: UniPoly, tol: Tolerance):
    """Roots of q, required to be real and positive.

    Returns (values, verdict_status, witness).  A conjugate pair with a
    small imaginary part is two same-part roots with nothing between them,
    which already rules out strict alternation, so any imaginary part
    beyond the tolerance is a definite failure rather than an unknown.
    """
    if q.is_zero:
        return [], "fails", ("zero-part",)
    if q.degree == 0:
        return [], "ok", None
    vals = []
    for r in all_roots(q.coeffs, tol):
        scale = max(1.0, abs(r))
        thr = tol.threshold(scale)
        if abs(r.imag) > thr:
            return [], "fails", ("complex-root", r)
        x = r.real
        if x < -thr:
            return [], "fails", ("nonpositive-root", x)
        if x <= thr:
            return [], "unknown", ("near-zero-root", x)
        vals.append(x)
    return sorted(vals), "ok", None


def hermite_biehler_stable(p: UniPoly, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Stability via interlacing of the compressed even/odd parts.

    Convention (fixed empirically against the root oracle): with all
    coefficients positive, p is stable iff both compressed parts have
    simple real positive roots and the merged sequence
    {0} u roots(odd-part) and roots(even-part) strictly alternates
    starting from the odd side's root at 0.
    """
    p = _positive_leading(p)
    led = InequalityLedger(tol)
    if not _require_positive_coeffs(led, p):
        return led.verdict()
    if led.indeterminate is not None:
        return led.verdict()
    if p.degree <= 2:
        # positive coefficients are already equivalent to stability
        return led.verdict()
    f_e, f_o = hb_parts(p)
    try:
        roots_e, st_e, w_e = _real_positive_roots(f_e, tol)
        roots_o, st_o, w_o = _real_positive_roots(f_o, tol)
    except NonConvergence as e:
        return Verdict(UNKNOWN, note=f"root solver did not converge: {e}")
    for st, w in ((st_e, w_e), (st_o, w_o)):
        if st == "fails":
            return Verdict(FAILS, witness=w, note="non-interlacing roots")
        if st == "unknown":
            return Verdict(UNKNOWN, witness=w)
    events = [(0.0, "o")] + [(v, "o") for v in roots_o] + [(v, "e") for v in roots_e]
    events.sort()
    margin = None
    for (v1, s1), (v2, s2) in zip(events, events[1:]):
        gap = v2 - v1
        scale = max(1.0, v1, v2)
        thr = tol.threshold(scale)
        if s1 == s2:
            # nothing of the other part sits between them: alternation is
            # violated whether or not the pair is resolved
            return Verdict(FAILS, witness=("alternation", v1, v2),
                           note="same-part roots are adjacent")
        if gap <= thr:
            # a shared even/odd root means a root on the imaginary axis;
            # too close to call in floating point
            return Verdict(UNKNOWN, witness=("near-coincident", v1, v2))
        m = gap / scale
        margin = m if margin is None else min(margin, m)
    return Verdict(HOLDS, margin=margin)


def degree_reduction_step(p: UniPoly) -> UniPoly:
    """One stability-preserving degree reduction: with mu = a_d/a_{d-1},
    coefficients at positions k with d-k even become a_k - mu*a_{k-1}, the
    rest pass through, and the degree drops by one."""
    if p.is_zero or p.degree < 3:
        raise WrongDegree("reduction step needs degree >= 3")
    coeffs = p.coeffs
    d = p.degree
    if coeffs[d - 1] == 0:
        raise ZeroPolynomial("reduction needs a nonzero subleading coefficient")
    mu = exact_div(coeffs[d], coeffs[d - 1])
    nxt = []
    for k in range(d):
        if (d - k) % 2 == 0:
            prev = coeffs[k - 1] if k >= 1 else 0
            nxt.append(coeffs[k] - mu * prev)
        else:
            nxt.append(coeffs[k])
    return UniPoly(tuple(nxt))


def degree_reduction_stable(p: UniPoly, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Stability by recursive degree reduction.

    Each step has the same stability verdict as its predecessor as long as
    the coefficients stay positive; recursion bottoms out at d <= 2, where
    positivity of the coefficients decides.  Any nonpositive intermediate
    coefficient refutes (the reduced polynomial has a positive leading
    coefficient, so a nonpositive coefficient already rules stability out).

    Exact coefficients a_k are carried as ints c_k over one positive
    denominator S, a_k = c_k / S, with S first the lcm of their
    denominators (``UniPoly.cleared``).  A round is
    ``degree_reduction_step`` with every term multiplied by c_{d-1} > 0:
    c_k becomes c_{d-1} c_k - c_d c_{k-1} where d - k is even and
    c_{d-1} c_k otherwise, S becomes c_{d-1} S, and their common gcd is
    divided out.
    Each row requires c_k > 0 at scale
    max(|c_k|, S), so its margin is a_k / max(|a_k|, 1), the same rational
    as the plain test a_k > 0 at its default scale.  Float coefficients
    run ``degree_reduction_step`` itself, with S = 1.
    """
    p = _positive_leading(p)
    led = InequalityLedger(tol)
    exact = p.is_exact
    c, den = p.cleared
    rounds = 0
    while True:
        for k, a in enumerate(c):
            led.require(a, 0, witness=("round", rounds, "coefficient", k),
                        strict=True, floor=den)
        if led.has_violation or led.indeterminate is not None or len(c) <= 3:
            return led.verdict()
        if exact:
            d = len(c) - 1
            sub, top = c[d - 1], c[d]
            c = [sub * c[k] - top * c[k - 1] if (d - k) % 2 == 0 and k
                 else sub * c[k] for k in range(d)]
            den *= sub
            g = math.gcd(den, *c)
            c, den = [v // g for v in c], den // g
        else:
            c = list(degree_reduction_step(UniPoly(tuple(c))).coeffs)
        rounds += 1


def root_oracle_verdict(p: UniPoly, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Ground truth: all companion-matrix roots in the open left half-plane;
    unknown when the computed roots fail their residual check."""
    return _root_oracle(_positive_leading(p), tol)[1]


def _root_oracle(p: UniPoly, tol: Tolerance) -> tuple:
    """``(roots, verdict)`` of the root oracle on p, which has a positive
    leading coefficient; roots is None when the solver did not converge."""
    try:
        roots = all_roots(p.coeffs, tol)
    except NonConvergence as e:
        return None, Verdict(UNKNOWN,
                             note=f"root solver did not converge: {e}")
    return roots, _left_half_plane_verdict(roots, "root", tol)


def _left_half_plane_verdict(values, label: str, tol: Tolerance) -> Verdict:
    """Do the complex ``values``, sorted by (real, imag), lie in the open
    left half-plane, up to ``tol`` at scale max(1, max |z|)?  The witness
    ``(label, z)`` names the rightmost value."""
    worst = max(values, key=lambda z: z.real)
    scale = max(1.0, max(abs(z) for z in values))
    thr = tol.threshold(scale)
    margin = -worst.real / scale
    if worst.real < -thr:
        return Verdict(HOLDS, margin=margin)
    return Verdict(FAILS if worst.real > thr else UNKNOWN, margin=margin,
                   witness=(label, worst))


def clc_d_le_4_criterion(p: UniPoly, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Sufficient stability test for 1 <= d <= 4: positive coefficients and
    strict k*a_k^2 > (k+1)*a_{k-1}*a_{k+1} for 1 <= k <= d-1.

    Failing this hypothesis says nothing about stability.
    """
    if p.is_zero or not 1 <= p.degree <= 4:
        raise WrongDegree("criterion applies to degrees 1..4")
    return is_univariate_clc(p, True, tol)


def quintic_criterion(p: UniPoly, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Sufficient stability test for d = 5: positive coefficients, strict
    weighted Newton inequalities for k = 1..4, and the strict cross
    inequality (a1 a4 - a0 a5)^2 < (a1 a2 - a0 a3)(a3 a4 - a2 a5)."""
    if p.is_zero or p.degree != 5:
        raise WrongDegree("criterion applies to degree 5 only")
    led = InequalityLedger(tol, strict=True)
    _require_clc(led, p)
    _require_quintic_cross(led, p)
    return led.verdict()


@functools.lru_cache(maxsize=None)
def _alpha_bracket() -> tuple:
    """Rational bisection bracket [lo, hi] of the positive root of
    t^3 - t^2 - 2t - 1, with hi - lo <= 1e-14."""
    def cubic(t):
        return t * t * t - t * t - 2 * t - 1

    lo, hi = Fraction(2), Fraction(3)
    width = Fraction(1, 10 ** 14)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if cubic(mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def alpha_constant() -> float:
    """The unique positive root of t^3 - t^2 - 2t - 1 (about 2.1479),
    computed by bisection on [2, 3] to residual below 1e-12."""
    lo, hi = _alpha_bracket()
    return float((lo + hi) / 2)


def alpha_criterion(p: UniPoly, mode: str = "product",
                    tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Sufficient stability test via the alpha-ratio inequalities.

    product mode: a_k a_{k+1} >= alpha * a_{k-1} a_{k+2} for 1 <= k <= d-1
    (out-of-range coefficients are zero, so the top comparison is vacuous);
    square mode: a_k^2 >= sqrt(alpha) * a_{k-1} a_{k+1}.

    On rational inputs alpha is its rational upper bisection bracket P/Q,
    so a "holds" verdict is exact and conservative, and the square test is
    compared squared, so it needs no square root.  The coefficients run as
    the ints c_k = den a_k over their lcm denominator den, and each row
    lhs >= alpha rhs, homogeneous of degree h in the coefficients (2 for
    product, 4 for the squared square test), is required as
    Q lhs' >= P rhs' on the c_k at scale max(Q |lhs'|, P |rhs'|, Q den^h):
    slack and scale are Q den^h times those of the plain comparison, so
    every margin is the same rational, and every row is int arithmetic.
    Float inputs take Q = den = 1 and the float alpha (or its square
    root), which is the plain comparison at its default scale.
    """
    if mode not in ("product", "square"):
        raise ValueError("mode must be 'product' or 'square'")
    if p.is_zero or p.degree < 1:
        raise ZeroPolynomial("criterion needs degree >= 1")
    led = InequalityLedger(tol)
    if not _require_positive_coeffs(led, p):
        return led.verdict()
    a, den = p.cleared
    a += (0,)  # a_{d+1}, read by the top product row
    if p.is_exact:
        P, Q = _alpha_bracket()[1].as_integer_ratio()
        power, square_factor = 2, P
    else:
        P, Q = alpha_constant(), 1
        power, square_factor = 1, math.sqrt(P)
    floor = Q * den ** (2 if mode == "product" else 2 * power)
    for k in range(1, p.degree):
        if mode == "product":
            lhs, rhs = Q * a[k] * a[k + 1], P * a[k - 1] * a[k + 2]
        else:
            lhs = Q * (a[k] * a[k]) ** power
            rhs = square_factor * a[k - 1] ** power * a[k + 1] ** power
        led.require(lhs, rhs, witness=(f"alpha-{mode}", k), floor=floor)
    return led.verdict()


def _gated(criterion, p: UniPoly, *args):
    """``criterion(p, *args)``, or None when p's degree is outside the
    criterion's gate."""
    try:
        return criterion(p, *args)
    except (WrongDegree, ZeroPolynomial):
        return None


@dataclass(frozen=True)
class StabilityReport:
    """Every decider and criterion verdict for one polynomial, plus the
    minor chain, the root oracle's companion roots (None when the solver
    did not converge) and a consistency flag across the deciders."""

    poly: UniPoly
    minors: list
    minor_margins: list
    routh_hurwitz: Verdict
    lienard_chipart: dict
    hermite_biehler: Verdict
    degree_reduction: Verdict
    root_oracle: Verdict
    clc_d_le_4: Verdict | None
    quintic: Verdict | None
    alpha_product: Verdict | None
    alpha_square: Verdict | None
    roots: list | None
    consistent: bool

    @property
    def deciders(self) -> list:
        return [self.routh_hurwitz, *self.lienard_chipart.values(),
                self.hermite_biehler, self.degree_reduction, self.root_oracle]


def stability_report(p: UniPoly, tol: Tolerance = DEFAULT_TOL) -> StabilityReport:
    p_norm = _positive_leading(p)
    md = _minor_data(p_norm)
    minors, scaled = md
    margins = [float(m) / s for m, s in scaled]
    d = p_norm.degree
    rh = _minor_chain(p_norm, range(d + 1), range(1, d), tol, md)
    lc = {v: _minor_chain(p_norm, *_lc_indices(d, v), tol, md)
          for v in (1, 2, 3, 4)}
    hb = hermite_biehler_stable(p_norm, tol)
    dr = degree_reduction_stable(p_norm, tol)
    roots, oracle = _root_oracle(p_norm, tol)
    return StabilityReport(
        poly=p,
        minors=minors,
        minor_margins=margins,
        routh_hurwitz=rh,
        lienard_chipart=lc,
        hermite_biehler=hb,
        degree_reduction=dr,
        root_oracle=oracle,
        clc_d_le_4=_gated(clc_d_le_4_criterion, p, tol),
        quintic=_gated(quintic_criterion, p, tol),
        alpha_product=_gated(alpha_criterion, p, "product", tol),
        alpha_square=_gated(alpha_criterion, p, "square", tol),
        roots=roots,
        consistent=_consistent([rh, *lc.values(), hb, dr, oracle]),
    )


def _consistent(verdicts) -> bool:
    statuses = {v.status for v in verdicts if v.status != UNKNOWN}
    return len(statuses) <= 1
