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
from .hurwitz import (_gated, _left_half_plane_verdict, alpha_criterion,
                      clc_d_le_4_criterion, quintic_criterion,
                      routh_hurwitz_stable)
from .numerics import DEFAULT_TOL, SquareMatrix, Tolerance, _differ, char_poly
from .unipoly import UniPoly
from .verdict import FAILS, HOLDS, UNKNOWN, Verdict

STABLE = "stable"
UNSTABLE = "unstable"
INCONCLUSIVE = "criterion-inconclusive"


@dataclass(frozen=True)
class LTIReport:
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
    eigs = sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))
    return (eigs, max(z.real for z in eigs),
            _left_half_plane_verdict(eigs, "eigenvalue", tol))


def _criteria(p: UniPoly, tol: Tolerance) -> dict:
    """The degree-gated sufficient criteria on p, keyed by report field; a
    criterion outside its gate is None, and the alpha tests apply from
    degree 5."""
    alpha = p.degree >= 5
    return {
        "clc_d_le_4": _gated(clc_d_le_4_criterion, p, tol),
        "quintic": _gated(quintic_criterion, p, tol),
        "alpha_product": alpha_criterion(p, "product", tol) if alpha else None,
        "alpha_square": alpha_criterion(p, "square", tol) if alpha else None,
    }


def lti_report(A: SquareMatrix, tol: Tolerance = DEFAULT_TOL) -> LTIReport:
    """Characteristic-polynomial stability analysis of dx/dt = A x.

    Runs the exact minor test on det(tI - A) plus the degree-gated
    sufficient criteria (weighted Newton for d <= 4, the quintic cross
    inequality at d = 5, the alpha-ratio tests for d >= 5), against the
    eigenvalue ground truth.
    """
    chi = char_poly(A)
    rh = routh_hurwitz_stable(chi, tol) if chi.degree >= 1 else Verdict(
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

    return LTIReport(char_poly=chi, eigenvalues=eigs,
                     spectral_abscissa=abscissa, eigen_stable=eigen_stable,
                     routh_hurwitz=rh, **_criteria(chi, tol),
                     conclusion=conclusion)


def restriction_realization_check(f: MultiForm, K: Cone, x0, v,
                                  A: SquareMatrix,
                                  tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Verify that det(tI - A) equals the line restriction f(x0 + t v) up to
    its positive leading normalization, with x0 and v interior to K.

    The realization check reads the LTI report: on a match, the
    degree-gated criteria are evaluated on the restriction, and a
    criterion that holds implies stability, which is refuted exactly when
    ``lti_report(A)`` concludes "unstable" (by the exact minor test on an
    exact characteristic polynomial, by the eigenvalues otherwise).  The
    criterion is named by its report key.  Realizations are verified,
    never synthesized.
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
    report = lti_report(A, tol)
    for k in range(A.n + 1):
        a, b = report.char_poly.coeff(k), normalized.coeff(k)
        if _differ(a, b, tol):
            return Verdict(FAILS, witness=("coefficient", k),
                           note=f"chi has {a}, restriction has {b}")

    # the first criterion that holds, else the first that applies
    criteria = [(name, c) for name, c in _criteria(restriction, tol).items()
                if name != "alpha_product" and c is not None]
    holding = [(name, c) for name, c in criteria if c.is_holds]
    name, criterion = (holding or criteria or [(None, None)])[0]
    implied_stable = bool(holding)
    if implied_stable and report.conclusion == UNSTABLE:
        # an exact chi is decided by the exact minor test alone
        key, refutation = (("minors", report.routh_hurwitz)
                           if report.char_poly.is_exact
                           else ("eigen", report.eigen_stable))
        return Verdict(FAILS,
                       witness={"criterion": name, key: refutation.witness},
                       note="criterion implied stability but the "
                            "characteristic polynomial is unstable")
    return Verdict(HOLDS,
                   witness={"implied_stable": implied_stable,
                            "criterion": name,
                            "criterion_verdict": criterion,
                            "eigen_stable": report.eigen_stable.status},
                   note="characteristic polynomial matches the restriction")
