"""Differential algebra of an elliptic function field, exactly.

Generators: P (the even degree-2 function), its derivative D, and two
commuting constants E1, E2 holding half-period values e1, e2; the third
half-period value is -E1-E2, so e1+e2+e3 = 0 holds at the representation
level. Every expression is kept in the normal form even + odd*D with even
and odd polynomial in (P, E1, E2); the square of D is always eliminated by

    D^2 -> 4 (P - E1) (P - E2) (P + E1 + E2),

and the derivation sends P to D and D to 6P^2 - g2/2 with
g2 = 4 (E1^2 + E1*E2 + E2^2). Since D is transcendental of degree 2 over
the P-line, the normal form is canonical: two expressions are equal iff
their normal forms match coefficientwise.
"""

from dataclasses import dataclass
from fractions import Fraction

from .ring import RingElement


class Poly3(RingElement):
    """Polynomial in the commuting generators (P, E1, E2) over Q."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                clean[key] = clean.get(key, Fraction(0)) + c
        object.__setattr__(self, "terms", {k: v for k, v in clean.items() if v != 0})

    @staticmethod
    def constant(c):
        return Poly3({(0, 0, 0): c})

    @staticmethod
    def gen(index: int):
        key = [0, 0, 0]
        key[index] = 1
        return Poly3({tuple(key): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def _wrap(self, other):
        if isinstance(other, Poly3):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly3.constant(other)
        return None

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for k, c in o.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + c
        return Poly3(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly3({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        out = {}
        for (i, j, k), a in self.terms.items():
            for (p, q, r), b in o.terms.items():
                key = (i + p, j + q, k + r)
                out[key] = out.get(key, Fraction(0)) + a * b
        return Poly3(out)

    __rmul__ = __mul__

    def _one(self):
        return Poly3.constant(1)

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def dP(self):
        """Partial derivative in the first generator."""
        out = {}
        for (i, j, k), c in self.terms.items():
            if i > 0:
                out[(i - 1, j, k)] = out.get((i - 1, j, k), Fraction(0)) + i * c
        return Poly3(out)

    def coeff_in_P(self, power: int):
        """Coefficient of P^power, a polynomial in (E1, E2)."""
        return Poly3({(0, j, k): c for (i, j, k), c in self.terms.items() if i == power})

    def degree_in_P(self) -> int:
        return max((i for (i, _, _) in self.terms), default=0)

    def substituted(self, p=None, e1=None, e2=None):
        """Replace generators by the given values (int, Fraction, or Poly3)."""
        reps = [
            self._wrap(p) if p is not None else Poly3.gen(0),
            self._wrap(e1) if e1 is not None else Poly3.gen(1),
            self._wrap(e2) if e2 is not None else Poly3.gen(2),
        ]
        result = Poly3()
        for (i, j, k), c in self.terms.items():
            result = result + c * (reps[0] ** i) * (reps[1] ** j) * (reps[2] ** k)
        return result

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __repr__(self):
        if not self.terms:
            return "0"
        names = ("P", "E1", "E2")
        parts = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            factors = []
            for name, e in zip(names, key):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            if not factors or c != 1:
                factors.insert(0, str(c))
            parts.append("*".join(factors))
        return " + ".join(parts)


P = Poly3.gen(0)
E1 = Poly3.gen(1)
E2 = Poly3.gen(2)
E3 = -E1 - E2

G2 = 4 * (E1 * E1 + E1 * E2 + E2 * E2)
CUBIC = 4 * (P - E1) * (P - E2) * (P - E3)
PSECOND = 6 * P * P - Fraction(1, 2) * G2


class WeierExpr(RingElement):
    """Normal form even + odd*D of an element of the differential algebra."""

    __slots__ = ("even", "odd")

    def __init__(self, even=0, odd=0):
        e = even if isinstance(even, Poly3) else Poly3.constant(even)
        o = odd if isinstance(odd, Poly3) else Poly3.constant(odd)
        object.__setattr__(self, "even", e)
        object.__setattr__(self, "odd", o)

    def _wrap(self, other):
        if isinstance(other, WeierExpr):
            return other
        if isinstance(other, (int, Fraction, Poly3)):
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
        even = self.odd.dP() * CUBIC + self.odd * PSECOND
        return WeierExpr(even, self.even.dP())

    def __repr__(self):
        return "WeierExpr(%r + (%r)*D)" % (self.even, self.odd)


class WeierQuot:
    """Quotient of two WeierExpr, compared by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        n = num if isinstance(num, WeierExpr) else WeierExpr(num)
        d = den if isinstance(den, WeierExpr) else WeierExpr(den)
        if d.is_zero():
            raise ZeroDivisionError("zero denominator in WeierQuot")
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, *args):
        raise AttributeError("WeierQuot is immutable")

    def derive(self):
        num = self.num.derive() * self.den - self.num * self.den.derive()
        return WeierQuot(num, self.den * self.den)

    def __eq__(self, other):
        if isinstance(other, (WeierExpr, Poly3, int, Fraction)):
            other = WeierQuot(other)
        if not isinstance(other, WeierQuot):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "WeierQuot(%r / %r)" % (self.num, self.den)


def weier_derive(x):
    """Derivative of a WeierExpr or WeierQuot, same kind returned."""
    if isinstance(x, (WeierExpr, WeierQuot)):
        return x.derive()
    raise TypeError("weier_derive expects WeierExpr or WeierQuot")


def check_derivation_consistency() -> bool:
    """(D^2)' computed as 2 D D' matches the derivative of its reduced form."""
    d = WeierExpr(0, 1)
    lhs = 2 * (d * d.derive())
    rhs = WeierExpr(CUBIC).derive()
    return lhs == rhs


def quadratic_discriminant_in_P(q: Poly3) -> Poly3:
    """b^2 - 4ac of a polynomial quadratic in P with (E1, E2)-coefficients."""
    if q.degree_in_P() != 2:
        raise ValueError("not quadratic in P")
    a, b, c = q.coeff_in_P(2), q.coeff_in_P(1), q.coeff_in_P(0)
    return b * b - 4 * a * c


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
    g = WeierQuot(WeierExpr(0, P - E2), WeierExpr(P - E1))
    bracket = PSECOND + 4 * (E2 - E1) * (P - E3)
    factored = WeierQuot(WeierExpr((P - E2) * bracket), WeierExpr(P - E1))
    if g.derive() != factored:
        return False
    if bracket != G_QUADRATIC:
        return False
    if quadratic_discriminant_in_P(G_QUADRATIC) != 16 * DELTA0:
        return False
    return all(r.nonzero and r.monomial for r in delta0_specializations())


@dataclass(frozen=True)
class Specialization:
    label: str
    value: str
    nonzero: bool
    monomial: bool


def _specialize(expr: Poly3):
    cases = [
        ("e1=0", expr.substituted(e1=0)),
        ("e2=0", expr.substituted(e2=0)),
        ("e3=0 (e2=-e1)", expr.substituted(e2=-E1)),
    ]
    return [
        Specialization(label, repr(v), not v.is_zero(), v.is_monomial())
        for label, v in cases
    ]


def delta0_specializations():
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
    if quadratic_discriminant_in_P(GTILDE_QUADRATIC) != GTILDE_DELTA:
        return False
    return all(r.nonzero and r.monomial for r in gtilde_delta_specializations())


def gtilde_delta_specializations():
    """The degree-5 discriminant under e1 = 0, e2 = 0, e3 = 0 (240 E2^2,
    96 E1^2, 96 E1^2: all nonzero)."""
    return _specialize(GTILDE_DELTA)
