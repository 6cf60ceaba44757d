"""Exception types shared across the package."""


class ConestabError(Exception):
    """Base class for all package errors."""


class ZeroPolynomial(ConestabError):
    """Operation undefined for the zero (or constant, where stated) polynomial."""


class NonConvergence(ConestabError):
    """A float numeric step gave no trustworthy result: LAPACK failed, the
    computed roots failed their residual check, or a coefficient has no
    float."""


class WrongDegree(ConestabError):
    """Polynomial degree outside the range the operation is defined for."""


class DimensionMismatch(ConestabError):
    """Vector/matrix/cone dimensions do not line up."""


class Unsupported(ConestabError):
    """Requested operation is not available for this cone variant."""


class NotInterior(ConestabError):
    """A point required to be strictly interior to the cone is not."""


class DegreeMismatch(ConestabError):
    """Form degree and matrix dimension do not match."""


class ParseError(ConestabError):
    """Malformed JSON input."""


class Inapplicable(ConestabError):
    """A check's hypothesis is not satisfied, so the check does not apply."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
