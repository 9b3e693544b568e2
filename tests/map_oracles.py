"""The univariate search stack `verify` used before its maps became binary
forms, kept as test oracles: it finds ramification instead of checking
stated points.

`QuadScalar` is exact a + b sqrt(d) in Q(sqrt d), stored as integers
(n + m sqrt(d)) / den with den > 0 and gcd(n, m, den) = 1 (Cohen, GTM 138,
section 4.2). `Poly` is a dense univariate polynomial over Q or Q(sqrt d);
`gcd` runs the subresultant remainder sequence (Collins, JACM 1967; Brown &
Traub, JACM 1971; Knuth, TAOCP vol. 2, section 4.6.1, Algorithm C) and
`squarefree_decomposition` Yun's steps on integral multiples, each made
monic once, at the end. `RationalMap` is a coprime pair num/den, reduced by
`gcd`, with infinity the sentinel INFINITY; `ramification_data` reads every
finite index off the Wronskian's squarefree factors and the index at
infinity off degrees, and certifies Riemann-Hurwitz on the result.
`as_rational_map` dehomogenizes a `covers` map, a pair of binary forms, at
z = 1, so the stated places of a check can be compared with what this stack
finds.
"""

import sys
from itertools import zip_longest
from math import gcd as _int_gcd

from oddcovers.ring import RingElement


# The rational values of the oracles, which compute over Q: an int when
# integral, a reduced Fraction otherwise. `fractions` is loaded only once a
# non-integral value appears.

def is_rational(x) -> bool:
    """Whether x is an int or a Fraction: it has a `denominator` and is no
    ring element."""
    return hasattr(x, "denominator") and not isinstance(x, RingElement)


def canonical(c):
    """The exact value c as an int when integral, else as a reduced Fraction."""
    if type(c) is int:
        return c
    from fractions import Fraction
    c = c if type(c) is Fraction else Fraction(c)
    return c.numerator if c.denominator == 1 else c


def exact_div(x, d):
    """x / d for exact x and nonzero d: the int quotient when the division
    leaves no remainder, the Fraction x/d otherwise; never rounded."""
    q, r = divmod(x, d)
    if r == 0:
        return q
    from fractions import Fraction
    return Fraction(x, d)


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
        g = _int_gcd(n, m, den)
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
    g = _int_gcd(num, den)
    return "%d" % (num // g) if den == g else "%d/%d" % (num // g, den // g)


def sqrt_of(d) -> QuadScalar:
    """The generator sqrt(d) of the extension with discriminant d."""
    return QuadScalar(0, 1, d)


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
    by `exact_div`, so a Fraction appears only as a non-integral quotient
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




INFINITY = "infinity"


class RationalMap:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if den is None:
            den = Poly([1])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = gcd(num, den) * den.leading()  # den // g is monic
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, *args):
        raise AttributeError("RationalMap is immutable")

    @property
    def degree(self) -> int:
        return max(self.num.degree or 0, self.den.degree)

    def is_constant(self) -> bool:
        return not self.num.degree and self.den.degree == 0

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __call__(self, point):
        """Value at a point of the source line; may be INFINITY."""
        if point == INFINITY:
            d = self.degree
            if self.den.degree < d:
                return INFINITY
            return self.num[d] * _invert(self.den[d])
        d = self.den(point)
        if d == 0:
            return INFINITY
        return self.num(point) * _invert(d)

    def wronskian(self) -> Poly:
        """Numerator p'q - pq' of the derivative; its root orders encode all
        finite ramification (index - 1 at poles and regular points alike)."""
        return self.num.derivative() * self.den - self.num * self.den.derivative()

    def compose_source(self, other):
        """f composed with a source change of coordinates (a rational map)."""
        d = self.degree
        num = self.num.compose_fractional(other.num, other.den, d)
        den = self.den.compose_fractional(other.num, other.den, d)
        return RationalMap(num, den)

    def __repr__(self):
        return "RationalMap(%r / %r)" % (self.num, self.den)


def _fiber(f: RationalMap, value) -> Poly:
    """The polynomial whose roots, with multiplicity, are the finite points
    of the fiber of f over `value`; raises ValueError for a constant f."""
    if f.is_constant():
        raise ValueError("constant map")
    return f.den if value == INFINITY else f.num - value * f.den


def vanishing_order(f: RationalMap, value, point) -> int:
    """Order of vanishing of f - value at the point; pole order for INFINITY.

    Returns 0 when f(point) != value.
    """
    fib = _fiber(f, value)
    if point == INFINITY:
        return f.degree - fib.degree
    return fib.root_order(point)


def ramification_data(f: RationalMap):
    """All ramification of f as a list of (place, index), index >= 2.

    Places are monic squarefree polynomials (their roots share the index, poles
    or not) or INFINITY; conjugate irrational points appear through one factor.
    A root of order k of the Wronskian W = p'q - pq' has index k + 1, at a pole
    too: with q = (t-a)^m r, r(a) != 0, W = (t-a)^(m-1) [(t-a)(p'r - pr') - m p r]
    and the bracket is -m p(a) r(a) != 0, so W vanishes there to order m - 1.
    The index at infinity is the order of f - f(infinity) there. Raises
    AssertionError unless sum(index - 1) = 2 deg(f) - 2 (Riemann-Hurwitz).
    """
    if f.is_constant():
        raise ValueError("constant map")
    data = [(factor, mult + 1) for factor, mult in squarefree_decomposition(f.wronskian())]
    inf_idx = vanishing_order(f, f(INFINITY), INFINITY)
    if inf_idx >= 2:
        data.append((INFINITY, inf_idx))
    total = sum(index - 1 for index in point_indices(data))
    expected = 2 * f.degree - 2
    if total != expected:
        raise AssertionError(
            "ramification bookkeeping off: sum(index-1) = %d, expected %d"
            % (total, expected)
        )
    return data


def point_indices(data) -> list:
    """The index of every ramification point in `ramification_data` output,
    conjugates counted: a factor of degree k contributes its index k times."""
    return [index for place, index in data
            for _ in range(1 if place == INFINITY else place.degree)]


def fiber_profile(f: RationalMap, value):
    """Partition of deg(f) given by multiplicities in the fiber over `value`,
    as a descending list; irrational points contribute via their factors."""
    d = f.degree
    fib = _fiber(f, value)
    parts = []
    finite_degree = 0
    if not fib.is_zero() and fib.degree > 0:
        for factor, mult in squarefree_decomposition(fib):
            parts.extend([mult] * factor.degree)
            finite_degree += mult * factor.degree
    if finite_degree < d:
        parts.append(d - finite_degree)
    return sorted(parts, reverse=True)


def mobius_fixing_0_1(image_of_infinity) -> RationalMap:
    """The Moebius map fixing 0 and 1 sending infinity to the given point."""
    lam = _invert(image_of_infinity)
    return RationalMap(Poly([0, 1]), Poly([1 - lam, lam]))


def _dehomogenized(form) -> Poly:
    """The binary form F(x, z) of `covers` as the Poly F(t, 1): over Q for an
    IntPoly in (x, z), over Q(sqrt d) for a form in (x, z, r) with r^2 = d."""
    d = getattr(type(form), "d", None)
    coeffs = {}
    for key, c in form.terms.items():
        parts = coeffs.setdefault(key[0], [0, 0])
        parts[key[2] if d is not None else 0] += c
    pairs = [coeffs.get(i, [0, 0]) for i in range(max(coeffs, default=-1) + 1)]
    return Poly([a if d is None else QuadScalar(a, b, d) for a, b in pairs])


def as_rational_map(f) -> RationalMap:
    """The map (F, G) of binary forms as the RationalMap F(t, 1) / G(t, 1)."""
    return RationalMap(*(_dehomogenized(form) for form in f))
