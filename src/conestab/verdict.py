"""Structured check verdicts with margins and witnesses.

A verdict status is one of:

* ``holds``          -- certified (exact arithmetic, or an exhaustive check)
* ``holds-sampled``  -- refutation was attempted over sampled points and none
  was found; this never certifies the property
* ``fails``          -- refuted, with a concrete witness
* ``unknown``        -- a float comparison landed inside the tolerance band
  (exact arithmetic never produces this)
* ``not-applicable`` -- the check does not apply to the input, such as
  Hurwitz stability of the zero form
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numerics import DEFAULT_TOL, Sign, classify_sign, is_exact

HOLDS = "holds"
HOLDS_SAMPLED = "holds-sampled"
FAILS = "fails"
UNKNOWN = "unknown"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Verdict:
    status: str
    margin: object = None
    witness: object = None
    note: str | None = None

    @property
    def is_holds(self) -> bool:
        return self.status in (HOLDS, HOLDS_SAMPLED)

    @property
    def is_fails(self) -> bool:
        return self.status == FAILS

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN


class InequalityLedger:
    """Accumulates ``lhs >= rhs`` (or ``>`` when strict) requirements.

    Tracks the smallest normalized slack ``(lhs - rhs) / scale`` over all
    checked inequalities, the first definite violation, and the first
    indeterminate comparison.  ``scale`` defaults to
    ``max(|lhs|, |rhs|, floor)``, with ``floor`` (at least 1) 1 by
    default, so margins are scale-free.

    Margins are exact (``Fraction``) when slack and scale are exact, and
    ``slack / scale`` otherwise.  An exact margin is built lazily: the
    running minimum is kept as its ``(slack, scale)`` pair, two exact pairs
    are compared by cross-multiplication, and the ``Fraction`` is built
    once, when ``min_margin`` is read or a float margin is compared with it.
    """

    def __init__(self, tol=None, strict=False):
        self.tol = tol if tol is not None else DEFAULT_TOL
        self.strict = strict
        self._slack = self._scale = self._exact = self._margin = None
        self.binding = None
        self.violation = None
        self.indeterminate = None

    @property
    def min_margin(self):
        """The smallest margin so far, or None before the first require."""
        if self._margin is None and self._slack is not None:
            self._margin = Fraction(self._slack, self._scale)
        return self._margin

    def require(self, lhs, rhs=0, *, witness=None, strict=None, scale=None,
                floor=1) -> bool:
        """Record one inequality; returns False on a definite violation."""
        strict = self.strict if strict is None else strict
        slack = lhs - rhs
        if scale is None:
            scale = max(abs(lhs), abs(rhs), floor)
        else:
            scale = max(scale, 1)
        exact_slack = is_exact(slack)
        exact = exact_slack and is_exact(scale)
        # a float margin is cheap and built now; an exact one only if needed
        margin = None if exact else slack / scale
        # an exact slack is compared with 0 directly; only a float slack
        # needs the (float) scale of its tolerance band
        if exact_slack:
            violated = slack <= 0 if strict else slack < 0
            undecided = False
        else:
            sign = classify_sign(slack, self.tol, scale=float(scale))
            violated = sign is Sign.NEG or (strict and sign is Sign.ZERO)
            undecided = sign is Sign.INDETERMINATE
        if violated and self.violation is None:
            if margin is None:
                margin = Fraction(slack, scale)
            self.violation = (witness, margin)
        if undecided and self.indeterminate is None:
            self.indeterminate = (witness, margin)
        if self._slack is None:
            lower = True
        elif exact and self._exact:
            # both scales are >= 1, so cross-multiplying keeps the direction
            lower = slack * self._scale < self._slack * scale
        else:
            if margin is None:
                margin = Fraction(slack, scale)
            lower = margin < self.min_margin
        if lower:
            self._slack, self._scale, self._exact = slack, scale, exact
            self._margin = margin
            self.binding = witness
        return not violated

    @property
    def has_violation(self) -> bool:
        return self.violation is not None

    def verdict(self) -> Verdict:
        if self.violation is not None:
            witness, _ = self.violation
            return Verdict(FAILS, margin=self.min_margin, witness=witness)
        if self.indeterminate is not None:
            witness, _ = self.indeterminate
            return Verdict(UNKNOWN, margin=self.min_margin, witness=witness)
        return Verdict(HOLDS, margin=self.min_margin, witness=self.binding)
