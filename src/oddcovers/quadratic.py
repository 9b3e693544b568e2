"""Exact arithmetic in a quadratic extension Q(sqrt(d)).

A QuadScalar is a + b*sqrt(d) with rational a, b and a fixed non-square
integer d shared by all scalars of one computation; mixing two different
d values raises. It is stored as integers (n + m*sqrt(d)) / den with
den > 0 and gcd(n, m, den) = 1, the integral representation of Cohen, A
Course in Computational Algebraic Number Theory (GTM 138, section 4.2), so
every ring operation, the conjugate, the norm and the inverse
den*(n - m*sqrt(d)) / (n^2 - d*m^2) run on Python ints with one gcd per
result. `a`, `b` and `d` read back in the canonical exact form of
`ring.canonical` (an `int` when integral, a reduced `Fraction` otherwise),
and a component `ring.is_rational` rejects (a float, say) raises TypeError.
No nested extensions: sqrt of a QuadScalar is not provided.
"""

import sys
from math import gcd

from .ring import RingElement, canonical, exact_div, is_rational


class QuadScalar(RingElement):
    __slots__ = ("n", "m", "den", "d")

    def __new__(cls, a, b=0, d=None):
        if d is None:
            raise ValueError("QuadScalar requires an explicit discriminant d")
        for c in (a, b, d):
            if not is_rational(c):
                raise TypeError("QuadScalar components are rationals, not %s"
                                % type(c).__name__)
        a, b, d = canonical(a), canonical(b), canonical(d)
        if type(d) is not int:
            raise ValueError("QuadScalar requires an integer discriminant, not %s" % d)
        return cls._make(a.numerator * b.denominator, b.numerator * a.denominator,
                         a.denominator * b.denominator, d)

    @classmethod
    def _make(cls, n: int, m: int, den: int, d: int):
        """Unchecked constructor for (n + m sqrt(d)) / den from ints, den != 0;
        stores it reduced, with den > 0."""
        g = gcd(n, m, den)
        if den < 0:
            g = -g
        if g != 1:
            n, m, den = n // g, m // g, den // g
        self = object.__new__(cls)
        _SET_N(self, n)
        _SET_M(self, m)
        _SET_DEN(self, den)
        _SET_D(self, d)
        return self

    @property
    def numerator(self):
        """n + m sqrt(d): self times its `denominator`, in Z[sqrt d]."""
        return QuadScalar._make(self.n, self.m, 1, self.d)

    @property
    def denominator(self) -> int:
        return self.den

    @property
    def a(self):
        return exact_div(self.n, self.den)

    @property
    def b(self):
        return exact_div(self.m, self.den)

    def _wrap(self, other):
        if isinstance(other, QuadScalar):
            if other.d != self.d:
                raise ValueError("mixed quadratic contexts: d=%s vs d=%s" % (self.d, other.d))
            return other
        if type(other) is int or is_rational(other):
            return QuadScalar._make(other.numerator, 0, other.denominator, self.d)
        return None

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if type(other) is int:
            return QuadScalar._make(self.n + other * self.den, self.m, self.den, self.d)
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return QuadScalar._make(self.n * o.den + o.n * self.den,
                                self.m * o.den + o.m * self.den, self.den * o.den, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar._make(-self.n, -self.m, self.den, self.d)

    def __mul__(self, other):
        if type(other) is int:
            return QuadScalar._make(self.n * other, self.m * other, self.den, self.d)
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return QuadScalar._make(self.n * o.n + self.d * self.m * o.m,
                                self.n * o.m + self.m * o.n, self.den * o.den, self.d)

    __rmul__ = __mul__

    def _one(self):
        return QuadScalar._make(1, 0, 1, self.d)

    def over(self, k):
        """The scalar divided by the nonzero rational k."""
        if k == 0:
            raise ZeroDivisionError("QuadScalar divided by zero")
        return QuadScalar._make(self.n * k.denominator, self.m * k.denominator,
                                self.den * k.numerator, self.d)

    def conjugate(self):
        return QuadScalar._make(self.n, -self.m, self.den, self.d)

    def norm(self):
        """Field norm a^2 - d*b^2; zero only for the zero scalar since d is non-square."""
        return exact_div(self.n * self.n - self.d * self.m * self.m, self.den * self.den)

    def inverse(self):
        norm = self.n * self.n - self.d * self.m * self.m
        if norm == 0:
            raise ZeroDivisionError("inverse of zero quadratic scalar")
        return QuadScalar._make(self.den * self.n, -self.den * self.m, norm, self.d)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadScalar):
            return (self.n, self.m, self.den, self.d) == (other.n, other.m, other.den, other.d)
        if type(other) is int or is_rational(other):
            return self.m == 0 and (self.n, self.den) == (other.numerator, other.denominator)
        return NotImplemented

    def __hash__(self):
        if self.m:
            return hash((self.n, self.m, self.den, self.d))
        # hash(n/den) as Python hashes every rational, n times den^-1 modulo
        # sys.hash_info.modulus ("Hashing of numeric types"): no Fraction
        p = sys.hash_info.modulus
        if self.den % p:
            return hash(self.n * pow(self.den, -1, p))
        return sys.hash_info.inf if self.n > 0 else -sys.hash_info.inf

    def __bool__(self):
        return self.n != 0 or self.m != 0

    def __repr__(self):
        if self.m == 0:
            return repr(self.n) if self.den == 1 else "Fraction(%d, %d)" % (self.n, self.den)
        return "(%s + %s*sqrt(%d))" % (_ratio(self.n, self.den), _ratio(self.m, self.den), self.d)


# Slot setters that bypass RingElement's immutability guard.
_SET_N, _SET_M, _SET_DEN, _SET_D = (QuadScalar.__dict__[k].__set__ for k in QuadScalar.__slots__)


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms as `str` writes a rational: "3" or "-3/4"."""
    g = gcd(num, den)
    return "%d" % (num // g) if den == g else "%d/%d" % (num // g, den // g)


def sqrt_of(d) -> QuadScalar:
    """The generator sqrt(d) of the extension with discriminant d."""
    return QuadScalar(0, 1, d)
