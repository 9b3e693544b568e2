"""Differential algebra of an elliptic function field, exactly.

Generators: P (the even degree-2 function), its derivative D, and two
commuting constants E1, E2 holding half-period values e1, e2; the third
half-period value is -E1-E2, so e1+e2+e3 = 0 holds at the representation
level. Everything here computes in one ring, the quotient
Z[P, E1, E2, D]/(D^2 - CUBIC) of the coordinate ring of the curve
(Silverman, The Arithmetic of Elliptic Curves, GTM 106, sections III.1-3):
a `WeierExpr` is a `poly.IntPoly` in the four variables (P, E1, E2, D)
whose quotient rule `_square = (3, CUBIC)` rewrites every D^k with k >= 2 as
D^(k-2) * CUBIC, in the constructor and in products, with

    CUBIC = 4 (P - E1) (P - E2) (P + E1 + E2),

so each result is the remainder on division by that relation, monic in D
(Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, ch. 2): the
normal form even + odd*D with integer polynomials even and odd in
(P, E1, E2), and nothing here builds a fraction. Since D is transcendental
of degree 2 over the P-line, that normal form is canonical: two expressions
are equal iff their terms match. derivative(0) is the partial derivative in
P, and `poly.discriminant(q, 0)` is the discriminant of a quadratic in P.
The derivation sends P to D and D to 6P^2 - g2/2 with
g2 = 4 (E1^2 + E1*E2 + E2^2). `specializations` returns the three
square-period values of an expression as plain `WeierExpr`s, and a nonzero
monomial is a value with exactly one term.
"""

import functools

from .poly import IntPoly, discriminant


class WeierExpr(IntPoly):
    """An element of Z[P, E1, E2, D]/(D^2 - CUBIC), in normal form."""

    __slots__ = ()

    def derive(self):
        """The derivation: P' = D, D' = 6P^2 - g2/2, extended by Leibniz."""
        return self.derivative(0) * D + self.derivative(3) * PSECOND


NAMES = ("P", "E1", "E2", "D")
P, E1, E2, D = WeierExpr.variables(4)
E3 = -E1 - E2


# CUBIC has no D, so building it reduces nothing; from here on every
# product and constructor dict is reduced by D^2 = CUBIC
CUBIC = 4 * (P - E1) * (P - E2) * (P - E3)
WeierExpr._square = (3, CUBIC)
PSECOND = 6 * P * P - 2 * (E1 * E1 + E1 * E2 + E2 * E2)  # 6P^2 - g2/2


def check_derivation_consistency() -> bool:
    """(D^2)' computed as 2 D D' matches the derivative of its reduced form."""
    return 2 * (D * D.derive()) == CUBIC.derive()


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
    num, den = D * (P - E2), P - E1
    bracket = PSECOND + 4 * (E2 - E1) * (P - E3)
    factored = (P - E2) * bracket
    if num.derive() * den - num * den.derive() != factored * den:
        return False
    if bracket != G_QUADRATIC:
        return False
    if discriminant(G_QUADRATIC, 0) != 16 * DELTA0:
        return False
    return all(len(v.terms) == 1 for v in specializations(DELTA0))


# The three square-period cases, each named by its substitution.
SPECIALIZATION_LABELS = ("e1=0", "e2=0", "e3=0 (e2=-e1)")


# Each expression's values are built on first use and kept: importing this
# module substitutes nothing, and a `verify` run substitutes into each
# expression once although eight of its checks read the results.
@functools.cache
def specializations(expr: WeierExpr) -> tuple:
    """expr under e1 = 0, e2 = 0 and e3 = 0 (e2 = -e1), in SPECIALIZATION_LABELS
    order: Delta0 goes to -2 E2^2, 10 E1^2, 7 E1^2 and GTILDE_DELTA to 240 E2^2,
    96 E1^2, 96 E1^2; callers assert only that each is a nonzero monomial."""
    return tuple(expr.substitute((P, e1, e2, D)) for e1, e2 in ((0, E2), (E1, 0), (E1, -E1)))


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
    gt = D * (P - E1)
    rhs = (P - E1) * (6 * P * P - 2 * (E1 * E1 + E1 * E2 + E2 * E2)
                      + 4 * (P - E2) * (P - E3))
    if gt.derive() != rhs:
        return False
    if discriminant(GTILDE_QUADRATIC, 0) != GTILDE_DELTA:
        return False
    return all(len(v.terms) == 1 for v in specializations(GTILDE_DELTA))
