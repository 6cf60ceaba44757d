"""Coefficient-sequence predicates.

Log-concavity, ultra-log-concavity, the weighted univariate condition
``i*a_i^2 >= (i+1)*a_{i-1}*a_{i+1}`` (equivalent to log-concavity of the
factorial-weighted sequence {k! a_k}), and the derived Newton-type
inequality chains.  Inequalities are quantified only over indices where
every referenced entry exists, so length-1 and length-2 sequences hold
vacuously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import Inapplicable, WrongDegree
from .numerics import DEFAULT_TOL, Tolerance, _cleared
from .unipoly import UniPoly
from .verdict import FAILS, HOLDS, InequalityLedger, Verdict


def is_log_concave(seq, strict: bool = False, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """All entries positive and a_k^2 >= a_{k-1} a_{k+1} for interior k
    (strict: >)."""
    seq = list(seq)
    if not seq:
        raise ValueError("empty sequence")
    led = InequalityLedger(tol, strict=strict)
    for k, a in enumerate(seq):
        led.require(a, 0, witness=("entry", k), strict=True)
    for k in range(1, len(seq) - 1):
        led.require(seq[k] * seq[k], seq[k - 1] * seq[k + 1],
                    witness=("log-concavity", k))
    return led.verdict()


def _log_concave_by_sign(seq, strict: bool = False) -> bool:
    """``is_log_concave``'s status on the exact nonempty ``seq``, by sign
    alone: every entry > 0 and a_k^2 >= a_{k-1} a_{k+1} (strict: >)."""
    if not all(a > 0 for a in seq):
        return False
    triples = zip(seq, seq[1:], seq[2:])
    if strict:
        return all(b * b > a * c for a, b, c in triples)
    return all(b * b >= a * c for a, b, c in triples)


def is_ultra_log_concave(seq, strict: bool = False,
                         tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Binomial-normalized log-concavity of c_0..c_n: entries nonnegative and
    (c_k / C(n,k))^2 >= (c_{k-1}/C(n,k-1)) (c_{k+1}/C(n,k+1)).

    The ratio inequality is checked cross-multiplied, which keeps rational
    inputs exact.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("empty sequence")
    n = len(seq) - 1
    led = InequalityLedger(tol, strict=strict)
    for k, c in enumerate(seq):
        led.require(c, 0, witness=("entry", k), strict=False)
    for k in range(1, n):
        lhs = seq[k] * seq[k] * math.comb(n, k - 1) * math.comb(n, k + 1)
        rhs = seq[k - 1] * seq[k + 1] * math.comb(n, k) ** 2
        led.require(lhs, rhs, witness=("ultra-log-concavity", k))
    return led.verdict()


def _require_positive_coeffs(led: InequalityLedger, p: UniPoly) -> bool:
    """Require a_k > 0 for every coefficient of p; False on a violation.

    Exact coefficients run as the ints c_k = den a_k over their lcm
    denominator den, each row at scale max(|c_k|, den): slack and scale
    are den times those of a_k > 0 at its default scale, so every margin
    is the same rational and the ledger binds the same row."""
    c, den = p.cleared
    ok = True
    for k, a in enumerate(c):
        ok = led.require(a, 0, witness=("coefficient", k), strict=True,
                         floor=den) and ok
    return ok


def _require_clc(led: InequalityLedger, p: UniPoly) -> None:
    """Require positive coefficients and i*a_i^2 >= (i+1)*a_{i-1}*a_{i+1}
    for 1 <= i <= d-1 (> in a strict ledger).

    As in ``_require_positive_coeffs``, exact rows run on the ints
    c_k = den a_k; a row is homogeneous of degree 2, so with the floor
    den^2 on its scale its slack and scale are den^2 times the plain ones
    and its margin is the same rational."""
    _require_positive_coeffs(led, p)
    c, den = p.cleared
    for i in range(1, p.degree):
        led.require(i * c[i] * c[i], (i + 1) * c[i - 1] * c[i + 1],
                    witness=("weighted-newton", i), floor=den * den)


def _require_quintic_cross(led: InequalityLedger, p: UniPoly) -> None:
    """Require (a1 a4 - a0 a5)^2 <= (a1 a2 - a0 a3)(a3 a4 - a2 a5) of the
    degree-5 p (< in a strict ledger).

    Exact coefficients run as the ints c_k = den a_k; the row is
    homogeneous of degree 4, so with the floor den^4 on its scale its
    margin is that of the plain comparison."""
    a, den = p.cleared
    led.require((a[1] * a[2] - a[0] * a[3]) * (a[3] * a[4] - a[2] * a[5]),
                (a[1] * a[4] - a[0] * a[5]) ** 2, witness=("quintic-cross",),
                floor=den ** 4)


def is_univariate_clc(p: UniPoly, strict: bool = False,
                      tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Complete log-concavity of p on t >= 0: all coefficients positive and
    i*a_i^2 >= (i+1)*a_{i-1}*a_{i+1} for 1 <= i <= d-1 (strict: >).

    The zero polynomial holds by convention in the non-strict sense only.
    """
    if p.is_zero:
        if strict:
            return Verdict(FAILS, witness=("zero-polynomial",),
                           note="zero polynomial is not strictly log-concave")
        return Verdict(HOLDS, note="zero polynomial convention")
    led = InequalityLedger(tol, strict=strict)
    _require_clc(led, p)
    return led.verdict()


def quintic_cross_inequality(p: UniPoly, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """The strict degree-5 determinant inequality
    (a1 a4 - a0 a5)^2 < (a1 a2 - a0 a3)(a3 a4 - a2 a5)."""
    if p.is_zero or p.degree != 5:
        raise WrongDegree("cross inequality is defined for degree 5 only")
    led = InequalityLedger(tol, strict=True)
    _require_quintic_cross(led, p)
    return led.verdict()


@dataclass(frozen=True)
class NewtonChainReport:
    """Outcome of the derived inequality families, one verdict each."""

    hypothesis: Verdict
    families: dict


def _rectangles(a, d):
    for k in range(0, d + 1):
        for i in range(k + 1, d + 1):
            for j in range(i + 1, d + 1):
                ell = i + j - k
                if j < ell <= d:
                    yield (i * a[i] * a[j], ell * a[k] * a[ell],
                           ("rectangle", (k, i, j, ell)))


# (name, strict, rows): rows(a, d) yields the (lhs, rhs, witness) of each
# requirement lhs >= rhs of the family.  The ratio chains are strict
# consequences even of the non-strict hypothesis.
_FAMILIES = (
    ("neighbor_product", False, lambda a, d: (
        (k * a[k] * a[k + 1], (k + 2) * a[k - 1] * a[k + 2],
         ("neighbor-product", k)) for k in range(1, d - 1))),
    ("square_gap_two", False, lambda a, d: (
        (k * (k - 1) * a[k] * a[k], (k + 2) * (k + 1) * a[k - 2] * a[k + 2],
         ("square-gap-two", k)) for k in range(2, d - 1))),
    ("product_gap_two", False, lambda a, d: (
        (k * a[k] * a[k + 2], (k + 3) * a[k - 1] * a[k + 3],
         ("product-gap-two", k)) for k in range(1, d - 2))),
    ("top_anchor", False, lambda a, d: (
        (k * a[k] * a[d - 1], d * a[k - 1] * a[d], ("top-anchor", k))
        for k in range(1, d))),
    ("rectangle", False, _rectangles),
    ("ratio_chain_step_two", True, lambda a, d: (
        (a[m + 1] * a[m + 2], a[m] * a[m + 3], ("ratio-step-two", m))
        for m in range(0, d - 2))),
    ("ratio_chain_alternating", True, lambda a, d: (
        (a[m + 1] * a[m + 2], a[m] * a[m + 3], ("ratio-alternating", m))
        for m in range(0, d - 2, 2))),
)


def newton_chain_report(seq, tol: Tolerance = DEFAULT_TOL) -> NewtonChainReport:
    """Evaluate the inequality families implied by the strengthened Newton
    hypothesis a_k^2 >= ((k+1)/k) a_{k-1} a_{k+1} on a positive sequence.

    Raises Inapplicable (with the witness index) when the hypothesis does
    not hold, since the derived chains are meaningless without it.

    An exact sequence runs as the ints c_k = den a_k over the lcm den of
    its denominators.  Entry rows are homogeneous of degree 1 and take the
    floor den on their scale; hypothesis and family rows are of degree 2
    and take den^2.  Slack and scale are then den^h times those of the
    plain row at its default scale, so every margin is the same rational.
    """
    a, den = _cleared(list(seq))
    d, den2 = len(a) - 1, den * den
    hyp = InequalityLedger(tol)
    for k, v in enumerate(a):
        hyp.require(v, 0, witness=("entry", k), strict=True, floor=den)
    for k in range(1, d):
        hyp.require(k * a[k] * a[k], (k + 1) * a[k - 1] * a[k + 1],
                    witness=("hypothesis", k), floor=den2)
    hv = hyp.verdict()
    if not hv.is_holds:
        raise Inapplicable("Newton hypothesis does not hold", witness=hv.witness)

    families = {}
    for name, strict, rows in _FAMILIES:
        led = InequalityLedger(tol, strict=strict)
        for lhs, rhs, witness in rows(a, d):
            led.require(lhs, rhs, witness=witness, floor=den2)
        families[name] = led.verdict()
    return NewtonChainReport(hypothesis=hv, families=families)
