"""The polynomial rings: dense univariate `Poly` over Q and Q(sqrt d), and
sparse `IntPoly` over Z in a fixed number of variables.

A `Poly` coefficient is a rational or a QuadScalar; any other coefficient
(a Poly included) raises TypeError. A rational coefficient is stored in the
canonical exact form of `ring.canonical`: an `int` when integral, a reduced
`Fraction` otherwise, so the integer covers of `covers` run on Python ints.
The constructor checks and canonicalizes what a caller passes; the ring
operations build their results through the unchecked `Poly._make`.
Division-based operations (divmod, monic) require field scalars; they
divide a coefficient by an int or Fraction with `ring.exact_div` or
`QuadScalar.over`, so a Fraction appears only where a quotient is one, and
this module imports neither `fractions` nor `numbers`. `gcd` and
`squarefree_decomposition` divide only exactly: `_integral` multiplies by the
lcm of the coefficients' `denominator`s (a QuadScalar's is its common den),
which lands in Z or Z[sqrt d]; the subresultant remainder sequence (Collins,
JACM 1967; Brown & Traub, JACM 1971; Knuth, TAOCP vol. 2, section 4.6.1,
Algorithm C) and Yun's steps run there on pseudo-quotients, and each result
is made monic over the field once, at the end.
Equal values hash alike, because a Poly of degree at most 0 hashes as its
constant coefficient (the zero Poly as 0), the rule QuadScalar uses when b = 0.
The zero polynomial has degree None, a deliberate sentinel: no -1 arithmetic.

An `IntPoly` in n variables is a `ring.SparseElement`: a dict {exponents: c}
of its nonzero terms, each exponent tuple of length n and each c an int,
added and multiplied term by term (Johnson, "Sparse polynomial arithmetic",
SIGSAM Bull. 8(3), 1974), so it builds no fraction. `covers` computes in
(t, b); operands in different numbers of variables raise ValueError, and
ints coerce to constants. Every method builds its result through `_make`
of the operand's own class, and an operand of another class is foreign, so
a subclass that overrides `_make` stays closed: `weier.WeierExpr` is the
quotient ring Z[P, E1, E2, D]/(D^2 - cubic), reduced in its `_make`.
"""

from itertools import zip_longest
from math import gcd as _int_gcd
from operator import add

from .quadratic import QuadScalar
from .ring import RingElement, SparseElement, canonical, exact_div, is_rational


class Poly(RingElement):
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        for c in coeffs:
            if not _is_scalar(c):
                raise TypeError("Poly coefficients are rationals or QuadScalars, not %s"
                                % type(c).__name__)
        coeffs = [canonical(c) if type(c) is not int and is_rational(c) else c
                  for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def _make(cls, coeffs: list):
        """Unchecked constructor for the exact coefficients a ring operation
        produced: an integral Fraction becomes an int, trailing zeros go."""
        coeffs = [c.numerator if type(c) is not int and not isinstance(c, RingElement)
                  and c.denominator == 1 else c for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        return self

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

    def __bool__(self):
        return bool(self.coeffs)

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
        if _is_scalar(other):
            return Poly._make([other])
        return None

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return Poly._make([x + y for x, y in zip_longest(self.coeffs, o.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self):
        return Poly._make([-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return Poly._make([])
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly._make(out)

    __rmul__ = __mul__

    def _one(self):
        return Poly._make([1])

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
            return Poly._make([]), self
        # gcd and squarefree factors are monic: dividing by them divides no coefficient
        lead = o.leading()
        monic = lead == 1
        quot = [0] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i] if monic else _divide(rem[i], lead)
            quot[i - dq] = c
            if c != 0:
                for j in range(dq + 1):
                    rem[i - dq + j] = rem[i - dq + j] - c * o.coeffs[j]
        return Poly._make(quot), Poly._make(rem[:dq])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero() or self.leading() == 1:
            return self
        lead = self.leading()
        return Poly._make([_divide(c, lead) for c in self.coeffs])

    def derivative(self):
        return Poly._make([i * c for i, c in enumerate(self.coeffs)][1:])

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
        p, lin, order = self, Poly([-point, 1]), 0
        while p:
            p, r = divmod(p, lin)
            if r:
                return order
            order += 1
        return order

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c != 0:
                parts.append("%r*t^%d" % (c, i))
        return "Poly(" + " + ".join(parts) + ")"


def _is_scalar(c) -> bool:
    return isinstance(c, QuadScalar) or is_rational(c)


def _divide(x, y):
    """x / y for a nonzero field scalar y. A QuadScalar y is inverted; an int
    or Fraction y divides a QuadScalar x by `QuadScalar.over` and a rational x
    by `ring.exact_div`, so a Fraction appears only as a non-integral quotient
    of rationals."""
    if isinstance(y, QuadScalar):
        return x * y.inverse()
    if not is_rational(y):
        raise TypeError("scalar %r is not invertible here" % (y,))
    return x.over(y) if isinstance(x, QuadScalar) else exact_div(x, y)


def _invert(c):
    return _divide(1, c)


def _integral(p: Poly) -> list:
    """The coefficients of p times the lcm of their `denominator`s (for a
    QuadScalar, its common den): a nonzero multiple of p over Z or Z[sqrt d]."""
    scale = 1
    for c in p.coeffs:
        scale *= c.denominator // _int_gcd(scale, c.denominator)
    return [c.numerator * (scale // c.denominator) for c in p.coeffs]


def _exact_quotient(x, y):
    """x / y for a y that divides x in Z or Z[sqrt d]; raises if it does not."""
    q = _divide(x, y)
    if q.denominator != 1:
        raise ArithmeticError("%r does not divide %r" % (y, x))
    return q.numerator


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


def _pseudo_quotient(u, v) -> list:
    """The q with lc(v)^(deg u - deg v + 1) u = q v, for a v dividing u: the
    steps of Algorithm R, q_k = top * lc(v)^k, on the terms of degree deg v
    and up, since the others would only form the zero remainder."""
    n = len(v) - 1
    lead = v[-1]
    r = list(u[n:])  # r[i] is the term of degree n + i
    q = [0] * len(r)
    for k in range(len(r) - 1, -1, -1):
        top = r[k]
        q[k] = top * lead ** k
        r = [lead * r[i] - top * v[n + i - k] if n + i >= k else lead * r[i]
             for i in range(k)]
    return q


def _gcd_multiple(u: list, v: list) -> list:
    """A multiple in Z or Z[sqrt d] of gcd(u, v), for coefficient sequences
    over Z or Z[sqrt d]; empty when both are.

    Runs the subresultant PRS (Collins, JACM 1967; Brown & Traub, JACM 1971;
    Knuth, TAOCP vol. 2, section 4.6.1, Algorithm C): each pseudo-remainder
    is divided exactly by beta = g h^delta, so the coefficients stay in Z or
    Z[sqrt d]. Every step rescales a field remainder sequence by a nonzero
    scalar, so the last nonzero term is the gcd up to a unit of the field.
    """
    if len(u) < len(v):
        u, v = v, u
    if not v:
        return u
    g = h = 1
    while True:
        delta = len(u) - len(v)
        r = _pseudo_remainder(u, v)
        if not r:
            return v
        if len(r) == 1:
            return [1]
        beta = g * h ** delta
        u, v = v, [_exact_quotient(c, beta) for c in r]
        g = u[-1]
        if delta:
            h = _exact_quotient(g ** delta, h ** (delta - 1))


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over the coefficient field; gcd(0, 0) is the zero Poly.

    `_gcd_multiple` runs on the denominator-free multiples of p and q from
    `_integral`, and its result is made monic over the field once, at the
    end: the gcd that monic Euclid steps would give.
    """
    return Poly._make(_gcd_multiple(_integral(p), _integral(q))).monic()


def _divide_both(b: Poly, c: Poly, f):
    """lc(f)^e (b / f, c / f) for the e = deg b - deg f + 1 of b, where f
    divides b and c and deg c < deg b: exact pseudo-quotients, one scale."""
    scale = f[-1] ** (len(b.coeffs) - len(c.coeffs))
    return (Poly._make(_pseudo_quotient(b.coeffs, f)),
            Poly._make(_pseudo_quotient(c.coeffs, f)) * scale)


def squarefree_decomposition(p: Poly):
    """Yun's algorithm: list of (squarefree factor, multiplicity), factors monic.

    Valid over any field of characteristic zero; the product of factor^mult
    recovers p up to the leading coefficient. Yun's steps (Yun, SYMSAC 1976;
    Geddes, Czapor & Labahn, Algorithms for Computer Algebra, 1992, ch. 8)
    run on integral multiples, as `gcd` does: b = p / gcd(p, p') and
    c = p' / gcd(p, p') are exact pseudo-quotients carrying one common
    scalar, so c - b' keeps it, and each factor is made monic once, at the end.
    The scalar grows by a power of lc(f) per step, one step per multiplicity.
    """
    if p.is_zero():
        raise ValueError("squarefree decomposition of zero polynomial")
    b = Poly._make(_integral(p))
    c = b.derivative()
    b, c = _divide_both(b, c, _gcd_multiple(b.coeffs, c.coeffs))
    out = []
    for i in range(1, p.degree + 2):  # multiplicities are at most deg p
        if not b.degree:
            return out
        d = c - b.derivative()
        f = _gcd_multiple(b.coeffs, d.coeffs)
        if len(f) > 1:
            out.append((Poly._make(f).monic(), i))
        b, c = _divide_both(b, d, f)
    raise ArithmeticError("Yun's steps did not end within deg p = %d" % p.degree)


class IntPoly(SparseElement):
    __slots__ = ()
    _mismatch = "mismatched variable counts %d vs %d"

    def __new__(cls, n: int, terms=None):
        terms = terms or {}
        for key, c in terms.items():
            if not isinstance(c, int):
                raise TypeError("IntPoly coefficients are ints, not %s" % type(c).__name__)
            if len(key) != n or min(key, default=0) < 0:
                raise ValueError("invalid exponents %r" % (key,))
        return cls._make(n, terms)

    @classmethod
    def variables(cls, n: int) -> tuple:
        """The n generators x_0, ..., x_{n-1}."""
        return tuple(cls._make(n, {tuple(int(i == v) for i in range(n)): 1})
                     for v in range(n))

    def _wrap(self, other):
        if isinstance(other, int):
            return self._make(self.n, {(0,) * self.n: other})
        return super()._wrap(other)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        out = {}
        for k, c in self.terms.items():
            for m, e in o.terms.items():
                key = tuple(map(add, k, m))
                out[key] = out.get(key, 0) + c * e
        return self._make(self.n, out)

    __rmul__ = __mul__

    def _one(self):
        return self._make(self.n, {(0,) * self.n: 1})

    def __hash__(self):
        # a constant hashes as its int (zero as 0), as equal values must
        zero = (0,) * self.n
        if self.terms.keys() <= {zero}:
            return hash(self.terms.get(zero, 0))
        return hash(frozenset(self.terms.items()))

    def derivative(self, var: int):
        """The partial derivative in variable `var`."""
        return self._make(self.n, {k[:var] + (k[var] - 1,) + k[var + 1:]: k[var] * c
                                   for k, c in self.terms.items() if k[var]})

    def coefficient(self, var: int, e: int):
        """The coefficient of x_var^e, a polynomial in the other variables."""
        return self._make(self.n, {k[:var] + (0,) + k[var + 1:]: c
                                   for k, c in self.terms.items() if k[var] == e})

    def format(self, names) -> str:
        """Terms by decreasing exponents, as in 10*E1^2 + E1*E2 for names
        (P, E1, E2)."""
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            factors = [name if e == 1 else "%s^%d" % (name, e)
                       for name, e in zip(names, key) if e]
            if not factors or c != 1:
                factors.insert(0, str(c))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "%s(%s; n=%d)" % (type(self).__name__,
                                 self.format(["x%d" % i for i in range(self.n)]), self.n)


def discriminant(q: IntPoly, var: int) -> IntPoly:
    """b^2 - 4ac for q = a x^2 + b x + c of degree exactly 2 in x = x_var;
    no division."""
    if max((k[var] for k in q.terms), default=None) != 2:
        raise ValueError("discriminant requires degree exactly 2 in x_%d" % var)
    c, b, a = (q.coefficient(var, e) for e in range(3))
    return b * b - 4 * a * c
