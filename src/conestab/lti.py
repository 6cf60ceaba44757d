"""Stability of linear time-invariant systems dx/dt = A x.

The characteristic polynomial det(tI - A) is monic with positive leading
coefficient, so stability requires all of its coefficients positive and
the coefficient-level sufficient criteria apply directly.  An eigenvalue
ground truth (spectral abscissa) runs alongside the exact minor test; the
report's conclusion is "stable" only when the exact minor test or the
eigenvalue ground truth confirms it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import Cone, interior_contains
from .errors import DegreeMismatch, NotInterior
from .forms import MultiForm, restrict_line
from .hurwitz import (_gated, alpha_criterion, clc_d_le_4_criterion,
                      quintic_criterion, routh_hurwitz_stable)
from .numerics import DEFAULT_TOL, SquareMatrix, Tolerance, char_poly
from .unipoly import UniPoly
from .verdict import FAILS, HOLDS, UNKNOWN, Verdict

STABLE = "stable"
UNSTABLE = "unstable"
INCONCLUSIVE = "criterion-inconclusive"


@dataclass(frozen=True)
class LTIReport:
    matrix: SquareMatrix
    char_poly: UniPoly
    eigenvalues: list | None
    spectral_abscissa: float | None
    eigen_stable: Verdict
    routh_hurwitz: Verdict
    clc_d_le_4: Verdict | None
    quintic: Verdict | None
    alpha_product: Verdict | None
    alpha_square: Verdict | None
    conclusion: str


def _eigen_ground_truth(A: SquareMatrix, tol: Tolerance):
    try:
        M = A.to_numpy()
    except OverflowError:
        # exact entries with no float: the exact tests still decide
        return None, None, Verdict(UNKNOWN,
                                   note="entries beyond the float range")
    try:
        vals = np.linalg.eig(M)[0]
    except np.linalg.LinAlgError as e:
        return None, None, Verdict(UNKNOWN, note=f"eigensolver failed: {e}")
    abscissa = float(max(v.real for v in vals))
    scale = max(1.0, float(max(abs(v) for v in vals)))
    thr = tol.threshold(scale)
    eigs = sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))
    if abscissa < -thr:
        verdict = Verdict(HOLDS, margin=-abscissa / scale)
    elif abscissa > thr:
        verdict = Verdict(FAILS, margin=-abscissa / scale,
                          witness=("eigenvalue", max(eigs, key=lambda z: z.real)))
    else:
        verdict = Verdict(UNKNOWN, margin=-abscissa / scale)
    return eigs, abscissa, verdict


def lti_report(A: SquareMatrix, tol: Tolerance = DEFAULT_TOL) -> LTIReport:
    """Characteristic-polynomial stability analysis of dx/dt = A x.

    Runs the exact minor test on det(tI - A) plus the degree-gated
    sufficient criteria (weighted Newton for d <= 4, the quintic cross
    inequality at d = 5, the alpha-ratio tests for d >= 5), against the
    eigenvalue ground truth.
    """
    chi = char_poly(A)
    d = chi.degree
    rh = routh_hurwitz_stable(chi, tol) if d >= 1 else Verdict(
        UNKNOWN, note="degree-0 characteristic polynomial")

    eigs, abscissa, eigen_stable = _eigen_ground_truth(A, tol) if A.n else (
        [], float("-inf"), Verdict(HOLDS, note="empty system"))

    exact = chi.is_exact
    if rh.is_holds and exact:
        conclusion = STABLE
    elif rh.is_fails and exact:
        conclusion = UNSTABLE
    elif eigen_stable.is_holds:
        conclusion = STABLE
    elif eigen_stable.is_fails:
        conclusion = UNSTABLE
    else:
        conclusion = INCONCLUSIVE

    return LTIReport(
        matrix=A,
        char_poly=chi,
        eigenvalues=eigs,
        spectral_abscissa=abscissa,
        eigen_stable=eigen_stable,
        routh_hurwitz=rh,
        clc_d_le_4=_gated(clc_d_le_4_criterion, chi, tol),
        quintic=_gated(quintic_criterion, chi, tol),
        alpha_product=(_gated(alpha_criterion, chi, "product", tol)
                       if d >= 5 else None),
        alpha_square=(_gated(alpha_criterion, chi, "square", tol)
                      if d >= 5 else None),
        conclusion=conclusion,
    )


def restriction_realization_check(f: MultiForm, K: Cone, x0, v,
                                  A: SquareMatrix,
                                  tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Verify that det(tI - A) equals the line restriction f(x0 + t v) up to
    its positive leading normalization, with x0 and v interior to K.

    On a match, the degree-gated coefficient hypotheses are evaluated on
    the restriction; when they hold, the implied stability is cross-checked
    against the exact minor test on an exact characteristic polynomial, and
    against the eigenvalue ground truth otherwise.  Realizations are
    verified, never synthesized.
    """
    if not interior_contains(K, x0, tol):
        raise NotInterior("x0 is not interior to the cone")
    if not interior_contains(K, v, tol):
        raise NotInterior("v is not interior to the cone")
    if f.d != A.n:
        raise DegreeMismatch(f"form degree {f.d} vs matrix dimension {A.n}")
    restriction = restrict_line(f, x0, v)
    if restriction.is_zero or restriction.degree != A.n:
        return Verdict(FAILS, witness=("degree", restriction.degree),
                       note="restriction degree does not match the matrix")
    normalized = restriction.monic()
    chi = char_poly(A)
    exact = normalized.is_exact and chi.is_exact
    for k in range(A.n + 1):
        a, b = chi.coeff(k), normalized.coeff(k)
        if exact:
            if a != b:
                return Verdict(FAILS, witness=("coefficient", k),
                               note=f"chi has {a}, restriction has {b}")
        else:
            scale = max(abs(a), abs(b), 1.0)
            if abs(a - b) > tol.threshold(scale):
                return Verdict(FAILS, witness=("coefficient", k),
                               note=f"chi has {a}, restriction has {b}")

    d = restriction.degree
    criterion = None
    criterion_name = None
    if 1 <= d <= 4:
        criterion = clc_d_le_4_criterion(restriction, tol)
        criterion_name = "weighted-newton-d-le-4"
    elif d == 5:
        criterion = quintic_criterion(restriction, tol)
        criterion_name = "quintic-cross"
        if not criterion.is_holds:
            alpha = alpha_criterion(restriction, "square", tol)
            if alpha.is_holds:
                criterion, criterion_name = alpha, "alpha-square"
    elif d > 5:
        criterion = alpha_criterion(restriction, "square", tol)
        criterion_name = "alpha-square"
    implied_stable = bool(criterion is not None and criterion.is_holds)
    _, _, eigen_stable = _eigen_ground_truth(A, tol)
    if implied_stable and chi.is_exact:
        # an exact chi is decided by the exact minor test alone; the float
        # eigenvalues stay a diagnostic
        rh = routh_hurwitz_stable(chi, tol)
        if rh.is_fails:
            return Verdict(FAILS,
                           witness={"criterion": criterion_name,
                                    "minors": rh.witness},
                           note="criterion implied stability but the exact "
                                "minor test refutes it")
    elif implied_stable and eigen_stable.is_fails:
        return Verdict(FAILS,
                       witness={"criterion": criterion_name,
                                "eigen": eigen_stable.witness},
                       note="criterion implied stability but eigenvalues refute it")
    return Verdict(HOLDS,
                   witness={"implied_stable": implied_stable,
                            "criterion": criterion_name,
                            "criterion_verdict": criterion,
                            "eigen_stable": eigen_stable.status},
                   note="characteristic polynomial matches the restriction")
