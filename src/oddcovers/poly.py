"""Dense univariate polynomials over an exact scalar ring.

Scalars may be rationals, QuadScalar, or (for computations with a symbolic
parameter) another Poly. A rational coefficient is stored in the canonical
exact form of `ring.canonical`: an `int` when integral, a reduced `Fraction`
otherwise, so the integer covers of `covers` run on Python ints.
Division-based operations (divmod, gcd, monic) require field scalars.

A polynomial in several variables is a Poly in the outermost variable whose
coefficients are polynomials in the others (Knuth, TAOCP vol. 2, section
4.6): `covers` nests t over the parameter b, `weier` nests P over E1 over E2.
So derivative(), p[k] and degree act on the outermost variable, and a
constant may sit at any depth: Poly([1]), Poly([Poly([1])]) and 1 are equal.
Equal values hash alike, because a Poly of degree at most 0 hashes as its
constant coefficient (the zero Poly as 0), the rule QuadScalar uses when b = 0.

The zero polynomial has degree None, a deliberate sentinel: no -1 arithmetic.
"""

from fractions import Fraction
from numbers import Rational

from .quadratic import QuadScalar
from .ring import RingElement, canonical, check_exact, exact_div


class Poly(RingElement):
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        check_exact(coeffs)
        coeffs = [c if type(c) is int or not isinstance(c, Rational) else canonical(c)
                  for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @staticmethod
    def constant(c):
        return Poly([c])

    @staticmethod
    def x():
        """The variable t."""
        return Poly([0, 1])

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- ring operations -------------------------------------------------

    def _wrap(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, QuadScalar)):
            return Poly([other])
        return None

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly([self[i] + o[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return Poly()
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def _one(self):
        return Poly([1])

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self[0])
        return hash(self.coeffs)

    def __divmod__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(o.coeffs) - 1
        if len(rem) - 1 < dq:
            return Poly(), self
        inv_lead = _invert(o.leading())
        quot = [0] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i] * inv_lead
            quot[i - dq] = c
            if c != 0:
                for j in range(dq + 1):
                    rem[i - dq + j] = rem[i - dq + j] - c * o.coeffs[j]
        return Poly(quot), Poly(rem[:dq])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        inv = _invert(self.leading())
        return Poly([c * inv for c in self.coeffs])

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        result = None
        for c in reversed(self.coeffs):
            result = c if result is None else result * x + c
        return 0 if result is None else result

    def compose_fractional(self, num, den, total_degree=None):
        """p(num/den) cleared of denominators: sum_i c_i num^i den^(D-i)."""
        if total_degree is None:
            total_degree = self.degree or 0
        result = Poly()
        for i, c in enumerate(self.coeffs):
            result = result + c * num ** i * den ** (total_degree - i)
        return result

    def root_order(self, point):
        """Multiplicity of `point` as a root (0 when not a root)."""
        p = self
        lin = Poly([-point, 1])
        order = 0
        while not p.is_zero():
            q, r = divmod(p, lin)
            if not r.is_zero():
                break
            order += 1
            p = q
        return order

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c != 0:
                parts.append("%r*t^%d" % (c, i))
        return "Poly(" + " + ".join(parts) + ")"


def _invert(c):
    if isinstance(c, (int, Fraction)):
        return exact_div(1, c)
    if hasattr(c, "inverse"):
        return c.inverse()
    raise TypeError("scalar %r is not invertible here" % (c,))


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic polynomial gcd by Euclidean steps with monic normalization."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, (a % b).monic()
    return a.monic()


def discriminant_quadratic(p: Poly):
    """b^2 - 4ac for a degree-2 polynomial; ring operation, no division."""
    if p.degree != 2:
        raise ValueError("discriminant_quadratic requires degree exactly 2")
    alpha, beta, gamma = p.coeffs[2], p.coeffs[1], p.coeffs[0]
    return beta * beta - 4 * alpha * gamma


def squarefree_decomposition(p: Poly):
    """Yun's algorithm: list of (squarefree factor, multiplicity), factors monic.

    Valid over any field of characteristic zero; the product of factor^mult
    recovers p up to the leading coefficient.
    """
    if p.is_zero():
        raise ValueError("squarefree decomposition of zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    dp = p.derivative()
    a = gcd(p, dp)
    b = p // a
    c = dp // a
    out = []
    i = 1
    while b.degree and b.degree > 0:
        d = c - b.derivative()
        f = gcd(b, d)
        if f.degree and f.degree > 0:
            out.append((f, i))
        b = b // f
        c = d // f
        i += 1
    return out
