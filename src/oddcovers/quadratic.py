"""Exact arithmetic in a quadratic extension Q(sqrt(d)).

A QuadScalar is a + b*sqrt(d) with rational a, b and a fixed non-square
rational d shared by all scalars of one computation; mixing two different
d values raises. Each of a, b and d is stored in the canonical exact form of
`ring.canonical` (an `int` when integral, a reduced `Fraction` otherwise),
and floats are refused. No nested extensions: sqrt of a QuadScalar is not
provided.
"""

from fractions import Fraction

from .ring import RingElement, canonical, check_exact, exact_div


class QuadScalar(RingElement):
    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=None):
        if d is None:
            raise ValueError("QuadScalar requires an explicit discriminant d")
        if not type(a) is type(b) is type(d) is int:
            check_exact((a, b, d))
            a, b, d = (v if type(v) is int else canonical(v) for v in (a, b, d))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def _wrap(self, other):
        if isinstance(other, QuadScalar):
            if other.d != self.d:
                raise ValueError("mixed quadratic contexts: d=%s vs d=%s" % (self.d, other.d))
            return other
        if isinstance(other, (int, Fraction)):
            return QuadScalar(other, 0, self.d)
        return None

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return QuadScalar(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadScalar(self.a * other, self.b * other, self.d)
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return QuadScalar(
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def _one(self):
        return QuadScalar(1, 0, self.d)

    def conjugate(self):
        return QuadScalar(self.a, -self.b, self.d)

    def norm(self) -> int | Fraction:
        """Field norm a^2 - d*b^2; zero only for the zero scalar since d is non-square."""
        return self.a * self.a - self.d * self.b * self.b

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero quadratic scalar")
        return QuadScalar(exact_div(self.a, n), exact_div(-self.b, n), self.d)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadScalar):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        if self.b == 0:
            return repr(self.a)
        return "(%s + %s*sqrt(%s))" % (self.a, self.b, self.d)


def sqrt_of(d) -> QuadScalar:
    """The generator sqrt(d) of the extension with discriminant d."""
    return QuadScalar(0, 1, d)
