"""Structured check verdicts with margins and witnesses.

A verdict status is one of:

* ``holds``          -- certified (exact arithmetic, or an exhaustive check)
* ``holds-sampled``  -- refutation was attempted over sampled points and none
  was found; this never certifies the property
* ``fails``          -- refuted, with a concrete witness
* ``unknown``        -- a float comparison landed inside the tolerance band
  (exact arithmetic never produces this)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numerics import DEFAULT_TOL, Sign, classify_sign, is_exact

HOLDS = "holds"
HOLDS_SAMPLED = "holds-sampled"
FAILS = "fails"
UNKNOWN = "unknown"


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


def combine_verdicts(verdicts, sampled=False) -> Verdict:
    """Conjunction of verdicts: any failure wins, then any unknown."""
    verdicts = list(verdicts)
    margins = [v.margin for v in verdicts if v.margin is not None]
    margin = min(margins, default=None)
    for v in verdicts:
        if v.is_fails:
            return Verdict(FAILS, margin=margin, witness=v.witness, note=v.note)
    for v in verdicts:
        if v.is_unknown:
            return Verdict(UNKNOWN, margin=margin, witness=v.witness, note=v.note)
    status = HOLDS_SAMPLED if sampled or any(
        v.status == HOLDS_SAMPLED for v in verdicts) else HOLDS
    binding = min((v for v in verdicts if v.margin is not None),
                  key=lambda v: v.margin, default=None)
    return Verdict(status, margin=margin,
                   witness=binding.witness if binding else None)


class InequalityLedger:
    """Accumulates ``lhs >= rhs`` (or ``>`` when strict) requirements.

    Tracks the smallest normalized slack ``(lhs - rhs) / scale`` over all
    checked inequalities, the first definite violation, and the first
    indeterminate comparison.  ``scale`` defaults to
    ``max(|lhs|, |rhs|, 1)`` so margins are scale-free.
    """

    def __init__(self, tol=None, strict=False):
        self.tol = tol if tol is not None else DEFAULT_TOL
        self.strict = strict
        self.min_margin = None
        self.binding = None
        self.violation = None
        self.indeterminate = None

    def require(self, lhs, rhs=0, *, witness=None, strict=None, scale=None) -> bool:
        """Record one inequality; returns False on a definite violation."""
        strict = self.strict if strict is None else strict
        slack = lhs - rhs
        if scale is None:
            scale = max(abs(lhs), abs(rhs), 1)
        else:
            scale = max(scale, 1)
        if is_exact(slack) and is_exact(scale):
            margin = Fraction(slack) / Fraction(scale)
        else:
            margin = slack / scale
        if self.min_margin is None or margin < self.min_margin:
            self.min_margin = margin
            self.binding = witness
        # an exact slack is compared with 0 directly; only a float slack
        # needs the (float) scale of its tolerance band
        sign = (classify_sign(slack) if is_exact(slack)
                else classify_sign(slack, self.tol, scale=float(scale)))
        violated = sign is Sign.NEG or (strict and sign is Sign.ZERO)
        if violated and self.violation is None:
            self.violation = (witness, margin)
        if sign is Sign.INDETERMINATE and self.indeterminate is None:
            self.indeterminate = (witness, margin)
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
