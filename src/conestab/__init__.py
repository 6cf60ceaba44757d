"""conestab: log-concavity, cone positivity, and Hurwitz stability checks.

Core objects are immutable values (polynomials, forms, cones, matrices);
every check is a pure function of its inputs plus an explicit seed, so
verdicts are reproducible and safe to evaluate concurrently.

Importing the package loads numpy with OpenBLAS single-threaded, unless
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is set or numpy
was imported first; os.environ is left as it was.
"""

import os

# OpenBLAS starts its worker pool when numpy loads it, sized from these
# variables, which it reads only then.  conestab hands LAPACK small
# matrices (order 12 or less in its examples and benchmark), below
# OpenBLAS's threading thresholds, so the pool gets no job, yet its idle
# workers spin and compete with the main thread while the package
# imports.  A count the caller chose wins.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
        "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .cones import (Cone, ConeMatrixReport, PerronReport, contains,
                    dual_contained_in, dual_contains, extreme_rays,
                    interior_contains, matrix_k_copositive_refute,
                    matrix_k_irreducible, matrix_k_nonnegative,
                    matrix_k_positive, perron_frobenius_check, perron_report,
                    sample_cone, sample_interior)
from .errors import (ConestabError, DegreeMismatch, DimensionMismatch,
                     Inapplicable, InternalMismatch, NonConvergence,
                     NotInterior, ParseError, Unsupported, WrongDegree,
                     ZeroPolynomial)
from .forms import (FormReport, MultiForm, clc_necessary_check,
                    hessian_signature_check, hurwitz_over_cone_check,
                    lorentzian_sample_check, quadratic_lorentzian_check,
                    quadratic_matrix, restrict_line, verify_sum_condition)
from .hurwitz import (StabilityReport, alpha_constant, alpha_criterion,
                      clc_d_le_4_criterion, degree_reduction_stable,
                      degree_reduction_step,
                      hermite_biehler_stable, hurwitz_matrix,
                      lienard_chipart_stable, quintic_criterion,
                      root_oracle_verdict, routh_hurwitz_stable,
                      stability_report)
from .lti import LTIReport, lti_report, restriction_realization_check
from .numerics import (SquareMatrix, Tolerance, all_roots, char_poly,
                       determinant, leading_minors, sym_eigs)
from .sequences import (NewtonChainReport, is_log_concave,
                        is_ultra_log_concave, is_univariate_clc,
                        newton_chain_report, quintic_cross_inequality)
from .unipoly import UniPoly, even_odd_parts, hb_parts
from .verdict import FAILS, HOLDS, HOLDS_SAMPLED, UNKNOWN, Verdict

__all__ = [
    "Cone", "ConeMatrixReport", "PerronReport", "contains",
    "dual_contained_in", "dual_contains", "extreme_rays", "interior_contains",
    "matrix_k_copositive_refute", "matrix_k_irreducible",
    "matrix_k_nonnegative", "matrix_k_positive", "perron_frobenius_check",
    "perron_report", "sample_cone", "sample_interior",
    "ConestabError", "DegreeMismatch", "DimensionMismatch", "Inapplicable",
    "InternalMismatch", "NonConvergence", "NotInterior", "ParseError",
    "Unsupported", "WrongDegree", "ZeroPolynomial",
    "FormReport", "MultiForm", "clc_necessary_check",
    "hessian_signature_check", "hurwitz_over_cone_check",
    "lorentzian_sample_check", "quadratic_lorentzian_check",
    "quadratic_matrix", "restrict_line", "verify_sum_condition",
    "StabilityReport", "alpha_constant", "alpha_criterion",
    "clc_d_le_4_criterion", "degree_reduction_stable",
    "degree_reduction_step",
    "hermite_biehler_stable", "hurwitz_matrix", "lienard_chipart_stable",
    "quintic_criterion", "root_oracle_verdict", "routh_hurwitz_stable",
    "stability_report",
    "LTIReport", "lti_report", "restriction_realization_check",
    "SquareMatrix", "Tolerance", "all_roots", "char_poly", "determinant",
    "leading_minors", "sym_eigs",
    "NewtonChainReport", "is_log_concave", "is_ultra_log_concave",
    "is_univariate_clc", "newton_chain_report", "quintic_cross_inequality",
    "UniPoly", "even_odd_parts", "hb_parts",
    "FAILS", "HOLDS", "HOLDS_SAMPLED", "UNKNOWN", "Verdict",
]
