"""Differential algebra of an elliptic function field, exactly.

Generators: P (the even degree-2 function), its derivative D, and two
commuting constants E1, E2 holding half-period values e1, e2; the third
half-period value is -E1-E2, so e1+e2+e3 = 0 holds at the representation
level. Every expression is kept in the normal form even + odd*D with even
and odd integer polynomials in (P, E1, E2): each is a `poly.IntPoly` in
those three variables, so nothing here builds a fraction. derivative(0) is
the partial derivative in P, and `poly.discriminant(q, 0)` is the
discriminant of a quadratic in P. The square of D is always eliminated by

    D^2 -> 4 (P - E1) (P - E2) (P + E1 + E2),

and the derivation sends P to D and D to 6P^2 - g2/2 with
g2 = 4 (E1^2 + E1*E2 + E2^2). Since D is transcendental of degree 2 over
the P-line, the normal form is canonical: two expressions are equal iff
their normal forms match coefficientwise.
"""

import functools
from collections import namedtuple

from .poly import IntPoly, discriminant
from .ring import RingElement

NAMES = ("P", "E1", "E2")
P, E1, E2 = IntPoly.variables(3)
E3 = -E1 - E2


def substitute(q: IntPoly, e1, e2) -> IntPoly:
    """q with E1 and E2 replaced by the given ints or IntPolys."""
    return sum((c * P ** i * e1 ** j * e2 ** k for (i, j, k), c in q.terms.items()),
               IntPoly(3))


CUBIC = 4 * (P - E1) * (P - E2) * (P - E3)
PSECOND = 6 * P * P - 2 * (E1 * E1 + E1 * E2 + E2 * E2)  # 6P^2 - g2/2


class WeierExpr(RingElement):
    """Normal form even + odd*D of an element of the differential algebra."""

    __slots__ = ("even", "odd")

    def __init__(self, even=0, odd=0):
        e = even if isinstance(even, IntPoly) else IntPoly(3, {(0, 0, 0): even})
        o = odd if isinstance(odd, IntPoly) else IntPoly(3, {(0, 0, 0): odd})
        object.__setattr__(self, "even", e)
        object.__setattr__(self, "odd", o)

    def _wrap(self, other):
        if isinstance(other, WeierExpr):
            return other
        if isinstance(other, (int, IntPoly)):
            return WeierExpr(other)
        return None

    def is_zero(self) -> bool:
        return self.even.is_zero() and self.odd.is_zero()

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return WeierExpr(self.even + o.even, self.odd + o.odd)

    __radd__ = __add__

    def __neg__(self):
        return WeierExpr(-self.even, -self.odd)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        even = self.even * o.even + self.odd * o.odd * CUBIC
        odd = self.even * o.odd + self.odd * o.even
        return WeierExpr(even, odd)

    __rmul__ = __mul__

    def _one(self):
        return WeierExpr(1)

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self.even == o.even and self.odd == o.odd

    def __hash__(self):
        return hash((self.even, self.odd))

    def derive(self):
        """The derivation: P' = D, D' = 6P^2 - g2/2, extended by Leibniz."""
        even = self.odd.derivative(0) * CUBIC + self.odd * PSECOND
        return WeierExpr(even, self.even.derivative(0))

    def __repr__(self):
        return "WeierExpr(%s + (%s)*D)" % (
            self.even.format(NAMES), self.odd.format(NAMES))


def check_derivation_consistency() -> bool:
    """(D^2)' computed as 2 D D' matches the derivative of its reduced form."""
    d = WeierExpr(0, 1)
    lhs = 2 * (d * d.derive())
    rhs = WeierExpr(CUBIC).derive()
    return lhs == rhs


# The quadratic controlling the extra triple points of the degree-4 family,
# and its discriminant divided by 16.
G_QUADRATIC = 2 * (3 * P * P + 2 * (E2 - E1) * P + (-3 * E1 * E1 - E1 * E2 + E2 * E2))
DELTA0 = 10 * E1 * E1 + E1 * E2 - 2 * E2 * E2


def check_G_identities() -> bool:
    """The degree-4 construction function G = D (P - E2)/(P - E1).

    Certifies: G' factors as ((P - E2)/(P - E1)) * (D' + 4(E2 - E1)(P - e3));
    the second factor is the stored quadratic; its discriminant is 16 * Delta0
    with Delta0 = 10 E1^2 + E1 E2 - 2 E2^2; and Delta0 stays a nonzero monomial
    under each of the specializations e1 = 0, e2 = 0, e3 = 0.
    """
    # G = N/Q, and G' = F/Q for the factored numerator F iff N'Q - NQ' = FQ
    num, den = WeierExpr(0, P - E2), WeierExpr(P - E1)
    bracket = PSECOND + 4 * (E2 - E1) * (P - E3)
    factored = WeierExpr((P - E2) * bracket)
    if num.derive() * den - num * den.derive() != factored * den:
        return False
    if bracket != G_QUADRATIC:
        return False
    if discriminant(G_QUADRATIC, 0) != 16 * DELTA0:
        return False
    return all(r.nonzero and r.monomial for r in delta0_specializations())


Specialization = namedtuple("Specialization", "label value nonzero monomial")


# The three square-period cases, in the order every specialization list
# reports them; each label names the substitution `_specialize` makes.
SPECIALIZATION_LABELS = ("e1=0", "e2=0", "e3=0 (e2=-e1)")


# Each expression's tuple is built on first use and kept: importing this module
# substitutes nothing, and a `verify` run substitutes into each expression
# once although eight of its checks read the results.
@functools.cache
def _specialize(expr: IntPoly) -> tuple:
    values = (
        substitute(expr, 0, E2),
        substitute(expr, E1, 0),
        substitute(expr, E1, -E1),
    )
    return tuple(
        Specialization(label, v.format(NAMES), not v.is_zero(),
                       len(v.terms) == 1)
        for label, v in zip(SPECIALIZATION_LABELS, values)
    )


def delta0_specializations() -> tuple:
    """Delta0 under e1 = 0, e2 = 0, e3 = 0: the three square-period cases.

    The values are -2 E2^2, 10 E1^2 and 7 E1^2; only their nonvanishing is
    mathematically load-bearing, and that is what callers assert.
    """
    return _specialize(DELTA0)


GTILDE_QUADRATIC = (
    PSECOND + 4 * (P - E2) * (P - E3)
)
GTILDE_DELTA = 16 * (
    5 * E1 * E1 + 6 * E2 * E2 + E3 * E3 + 5 * E1 * E2 - 8 * E2 * E3
)


def check_Gtilde_identities() -> bool:
    """The degree-5 construction function G~ = D (P - E1).

    Certifies: G~' = (P - E1)(6P^2 - 2(E1^2+E1 E2+E2^2) + 4(P - E2)(P - e3))
    in normal form; the discriminant of the quadratic factor is
    16(5 e1^2 + 6 e2^2 + e3^2 + 5 e1 e2 - 8 e2 e3) with e3 = -e1-e2; and the
    discriminant is a nonzero monomial under e1 = 0, e2 = 0, e3 = 0.
    """
    gt = WeierExpr(0, P - E1)
    rhs = WeierExpr(
        (P - E1)
        * (6 * P * P - 2 * (E1 * E1 + E1 * E2 + E2 * E2) + 4 * (P - E2) * (P - E3))
    )
    if gt.derive() != rhs:
        return False
    if discriminant(GTILDE_QUADRATIC, 0) != GTILDE_DELTA:
        return False
    return all(r.nonzero and r.monomial for r in gtilde_delta_specializations())


def gtilde_delta_specializations() -> tuple:
    """The degree-5 discriminant under e1 = 0, e2 = 0, e3 = 0 (240 E2^2,
    96 E1^2, 96 E1^2: all nonzero)."""
    return _specialize(GTILDE_DELTA)
