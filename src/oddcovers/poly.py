"""Dense univariate polynomials over an exact scalar ring.

Scalars may be rationals, QuadScalar, or (for computations with a symbolic
parameter) another Poly. A rational coefficient is stored in the canonical
exact form of `ring.canonical`: an `int` when integral, a reduced `Fraction`
otherwise, so the integer covers of `covers` run on Python ints.
Division-based operations (divmod, monic) require field scalars. `gcd`
divides only exactly: it clears denominators into Z, or Z[sqrt d] for
QuadScalar coefficients, runs the subresultant polynomial remainder sequence
there (Collins, JACM 1967; Brown & Traub, JACM 1971; Knuth, TAOCP vol. 2,
section 4.6.1, Algorithm C), and makes the result monic over the field once,
at the end.

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
        # gcd and squarefree factors are monic: dividing by them needs no inverse
        monic = o.leading() == 1
        inv_lead = 1 if monic else _invert(o.leading())
        quot = [0] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i] if monic else rem[i] * inv_lead
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
        if self.is_zero() or self.leading() == 1:
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
        """p(num/den) cleared of denominators: sum_i c_i num^i den^(D-i).

        num^i and den^(D-i) come from two running products, so the D + 1
        terms cost O(D) polynomial products.
        """
        if total_degree is None:
            total_degree = self.degree or 0
        if len(self.coeffs) > total_degree + 1:
            raise ValueError("total degree %d is below the degree %d"
                             % (total_degree, self.degree))
        num_powers, den_powers = [Poly([1])], [Poly([1])]
        for _ in range(total_degree):
            num_powers.append(num_powers[-1] * num)
            den_powers.append(den_powers[-1] * den)
        result = Poly()
        for c, a, b in zip(self.coeffs, num_powers, reversed(den_powers)):
            if c != 0:
                result = result + c * a * b
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


def _integral(p: Poly) -> list:
    """The coefficients of p times the lcm of their denominators.

    Each lands in Z, or in Z[sqrt d] for QuadScalar coefficients with an
    integer d; either way the polynomial only changes by a nonzero scalar.
    """
    lcm = 1
    for c in p.coeffs:
        for v in (c.a, c.b) if isinstance(c, QuadScalar) else (c,):
            if type(v) is Fraction:
                # lcm(m, n) = m * (n / gcd(m, n)), and Fraction(m, n) reduces by gcd(m, n)
                lcm *= Fraction(lcm, v.denominator).denominator
    if lcm == 1:
        return list(p.coeffs)
    return [c * lcm if isinstance(c, QuadScalar) else canonical(c * lcm)
            for c in p.coeffs]


def _exact_quotient(x, y):
    """x / y for a y that divides x; over Z[sqrt d] this is x*conj(y)/N(y),
    each component divided by `exact_div`."""
    if isinstance(y, QuadScalar):
        x, y = x * y.conjugate(), y.norm()
    if isinstance(x, QuadScalar):
        return QuadScalar(exact_div(x.a, y), exact_div(x.b, y), x.d)
    return exact_div(x, y)


def _pseudo_remainder(u: list, v: list) -> list:
    """lc(v)^(deg u - deg v + 1) * u mod v, with no division (Knuth, TAOCP
    vol. 2, section 4.6.1, Algorithm R); trailing zeros are dropped."""
    n = len(v) - 1
    lead = v[-1]
    r = list(u)
    for k in range(len(u) - 1 - n, -1, -1):
        top = r[n + k]
        r = [lead * r[j] for j in range(k)] + [
            lead * r[j] - top * v[j - k] for j in range(k, n + k)]
    while r and r[-1] == 0:
        r.pop()
    return r


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over the coefficient field; gcd(0, 0) is the zero Poly.

    Runs the subresultant PRS (Collins, JACM 1967; Brown & Traub, JACM 1971;
    Knuth, TAOCP vol. 2, section 4.6.1, Algorithm C) on the denominator-free
    multiples of p and q from `_integral`: each pseudo-remainder is divided
    exactly by beta = g h^delta, so the coefficients stay in Z or Z[sqrt d]
    and no inverse is taken before the last step. Every step rescales a
    field remainder sequence by a nonzero scalar, so the last nonzero term,
    made monic over the field at the end, is the gcd that monic Euclid steps
    would give.
    """
    if p.is_zero() or q.is_zero():
        return (q if p.is_zero() else p).monic()
    u, v = _integral(p), _integral(q)
    if len(u) < len(v):
        u, v = v, u
    g = h = 1
    while True:
        delta = len(u) - len(v)
        r = _pseudo_remainder(u, v)
        if not r:
            return Poly(v).monic()
        if len(r) == 1:
            return Poly([1])
        beta = g * h ** delta
        u, v = v, [_exact_quotient(c, beta) for c in r]
        g = u[-1]
        if delta:
            h = _exact_quotient(g ** delta, h ** (delta - 1))


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
