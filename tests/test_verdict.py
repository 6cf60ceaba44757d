"""InequalityLedger against an eager oracle.

The ledger keeps its running minimum as a (slack, scale) pair and builds
the margin only when it is read.  ``EagerLedger`` builds and compares a
margin on every call; both must agree after every call on every
observable: the return value, ``min_margin``
(value and type), ``binding``, ``violation``, ``indeterminate`` and the
verdict.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conestab.numerics import DEFAULT_TOL, Sign, classify_sign, is_exact
from conestab.verdict import FAILS, HOLDS, UNKNOWN, InequalityLedger, Verdict

HUGE = 10**400


class EagerLedger:
    """The oracle: builds ``Fraction(slack) / Fraction(scale)`` (or
    ``slack / scale``) on every call and compares it with the minimum."""

    def __init__(self, tol=None, strict=False):
        self.tol = tol if tol is not None else DEFAULT_TOL
        self.strict = strict
        self.min_margin = None
        self.binding = None
        self.violation = None
        self.indeterminate = None

    def require(self, lhs, rhs=0, *, witness=None, strict=None, scale=None):
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
        sign = (classify_sign(slack) if is_exact(slack)
                else classify_sign(slack, self.tol, scale=float(scale)))
        violated = sign is Sign.NEG or (strict and sign is Sign.ZERO)
        if violated and self.violation is None:
            self.violation = (witness, margin)
        if sign is Sign.INDETERMINATE and self.indeterminate is None:
            self.indeterminate = (witness, margin)
        return not violated

    def verdict(self):
        if self.violation is not None:
            return Verdict(FAILS, margin=self.min_margin,
                           witness=self.violation[0])
        if self.indeterminate is not None:
            return Verdict(UNKNOWN, margin=self.min_margin,
                           witness=self.indeterminate[0])
        return Verdict(HOLDS, margin=self.min_margin, witness=self.binding)


# small pools make equal margins (ties) common, also across types
# (1/2 == 0.5); the huge exact values have no float
ints = st.integers(-6, 6)
huge_ints = st.builds(lambda k, j: k * HUGE + j,
                      st.sampled_from([-2, -1, 1, 3]), st.integers(-2, 2))
fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
huge_fractions = st.builds(lambda k, d: Fraction(k * HUGE + 1, d),
                           st.sampled_from([-1, 1, 2]), st.integers(1, 7))
floats = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0, -3.0, 1e-12]),
                   st.floats(-20, 20, allow_nan=False))
values = st.one_of(ints, fractions, floats, huge_ints, huge_fractions)
scales = st.one_of(st.none(), st.integers(0, 8), fractions,
                   st.sampled_from([0.5, 1.0, 2.0, 4.0, 1e300]),
                   st.floats(0, 100, allow_nan=False))
calls = st.tuples(values, st.one_of(st.just(0), values), scales,
                  st.sampled_from([None, False, True]))


def same(a, b):
    """Equal in value and in type, recursively through tuples."""
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


def outcome(ledger, lhs, rhs, scale, strict, witness):
    try:
        return ledger.require(lhs, rhs, witness=witness, strict=strict,
                              scale=scale)
    except OverflowError as e:
        return type(e)


@given(st.booleans(), st.lists(calls, min_size=1, max_size=12))
@settings(max_examples=400, deadline=None)
def test_lazy_ledger_matches_eager_oracle(strict, sequence):
    lazy, eager = InequalityLedger(strict=strict), EagerLedger(strict=strict)
    for i, (lhs, rhs, scale, strict_call) in enumerate(sequence):
        assert same(outcome(lazy, lhs, rhs, scale, strict_call, i),
                    outcome(eager, lhs, rhs, scale, strict_call, i))
        assert same(lazy.min_margin, eager.min_margin)
        assert lazy.binding == eager.binding
        assert same(lazy.violation, eager.violation)
        assert same(lazy.indeterminate, eager.indeterminate)
        got, want = lazy.verdict(), eager.verdict()
        assert got.status == want.status and got.witness == want.witness
        assert same(got.margin, want.margin)


def test_strict_zero_slack_is_a_violation():
    for led, strict in ((InequalityLedger(strict=True), None),
                        (InequalityLedger(), True)):
        assert not led.require(2, 2, witness="tie", strict=strict)
        assert led.violation == ("tie", 0)
        assert led.verdict().status == FAILS


def test_float_slack_in_the_band_is_indeterminate():
    led = InequalityLedger()
    assert led.require(1e-12, 0, witness="band")
    assert led.require(0, 0, witness="exact zero")
    assert led.indeterminate == ("band", 1e-12)
    assert led.verdict().status == UNKNOWN
    assert led.verdict().witness == "band"


def test_empty_ledger_has_no_margin():
    led = InequalityLedger()
    assert led.min_margin is None
    assert led.verdict() == Verdict(HOLDS)


def test_ties_go_to_the_first_witness():
    led = InequalityLedger()
    led.require(3, 1, witness="a")        # 2/3
    led.require(6, 2, witness="b")        # 4/6, the same margin
    led.require(2, 0, scale=3, witness="c")
    assert led.binding == "a"
    assert led.min_margin == Fraction(2, 3)
    assert type(led.min_margin) is Fraction

