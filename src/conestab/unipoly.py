"""Univariate polynomials stored in ascending coefficient order.

Coefficients live in the exact/float scalar tower; all arithmetic here is
exact on rational inputs.  Trailing zeros are stripped on construction, so
every stability test can branch on the true degree; the zero polynomial
keeps an empty coefficient tuple and degree ``None``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ParseError, ZeroPolynomial
from .numerics import _cleared, all_exact, exact_div, scalar_from_json


@dataclass(frozen=True)
class UniPoly:
    coeffs: tuple = ()

    def __post_init__(self):
        c = tuple(self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self):
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_exact(self) -> bool:
        return all_exact(self.coeffs)

    @functools.cached_property
    def cleared(self) -> tuple:
        """``(c, den)``: exact coefficients as the ints c_k = den a_k over
        the lcm den of their denominators, other coefficients as stored
        with den = 1 (``numerics._cleared``); computed once per polynomial."""
        return _cleared(self.coeffs)

    def coeff(self, k: int):
        """Coefficient of t^k (0 outside the stored range)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    @property
    def leading(self):
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def eval(self, t):
        """Horner evaluation; exact on rational inputs."""
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * t + a
        return acc

    def derivative(self, m: int = 1) -> "UniPoly":
        """m-th formal derivative."""
        if m < 0:
            raise ValueError("derivative order must be nonnegative")
        if self.is_zero or m > self.degree:
            return UniPoly()
        return UniPoly(tuple(math.perm(k + m, m) * self.coeffs[k + m]
                             for k in range(len(self.coeffs) - m)))

    def reverse(self) -> "UniPoly":
        """Coefficient vector reversed about the degree: t^d * p(1/t)."""
        if self.is_zero:
            raise ZeroPolynomial("cannot reverse the zero polynomial")
        return UniPoly(tuple(reversed(self.coeffs)))

    def multiply(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(tuple(out))

    __mul__ = multiply

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "UniPoly":
        return UniPoly(tuple(c * a for a in self.coeffs))

    def monic(self) -> "UniPoly":
        lead = self.leading
        return UniPoly(tuple(exact_div(a, lead) for a in self.coeffs))


def hb_parts(p: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Compressed alternating-sign parts used by the interlacing stability
    test: the first has coefficient (-1)^m a_{2m} at power m, the second
    (-1)^m a_{2m+1} at power m."""
    f_e = UniPoly(tuple((-1) ** m * p.coeff(2 * m)
                        for m in range(len(p.coeffs) // 2 + 1)))
    f_o = UniPoly(tuple((-1) ** m * p.coeff(2 * m + 1)
                        for m in range((len(p.coeffs) + 1) // 2)))
    return f_e, f_o


def unipoly_from_json(obj, exact: bool = True) -> UniPoly:
    """Parse ``{"coeffs": [a0, ...]}`` with numbers or "p/q" strings."""
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ParseError('expected {"coeffs": [...]}')
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise ParseError('"coeffs" must be a list')
    return UniPoly(tuple(scalar_from_json(c, exact) for c in coeffs))
