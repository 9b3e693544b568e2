"""Rational self-maps of the projective line and their ramification, exactly.

A RationalMap is a coprime pair of polynomials over Q or Q(sqrt(d)); the
point at infinity is handled by counting degrees, never by floating point or
projective coordinates. For f = num/den of degree d, f(infinity) is infinity
when deg den < d and num[d]/den[d] otherwise, and f - c vanishes at infinity
to order d - deg(num - c den) (d - deg den for c = infinity). Irrational
critical points are carried by their monic squarefree factors rather than
radical expressions.

Ramification is the costly step, so a caller computes `ramification_data`
once per map and reads both the Riemann-Hurwitz sum and the point indices
off that one list (`point_indices`).
"""

from .poly import Poly, _invert, gcd, squarefree_decomposition

INFINITY = "infinity"


class RationalMap:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if den is None:
            den = Poly([1])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = gcd(num, den)
        if g.degree and g.degree > 0:
            num, den = num // g, den // g
        lead_inv = _invert(den.leading())
        object.__setattr__(self, "num", num * lead_inv)
        object.__setattr__(self, "den", den * lead_inv)

    def __setattr__(self, *args):
        raise AttributeError("RationalMap is immutable")

    @property
    def degree(self) -> int:
        dn = self.num.degree if not self.num.is_zero() else 0
        dd = self.den.degree
        return max(dn, dd)

    def is_constant(self) -> bool:
        nd = self.num.degree
        return (nd is None or nd == 0) and self.den.degree == 0

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


def vanishing_order(f: RationalMap, value, point) -> int:
    """Order of vanishing of f - value at the point; pole order for INFINITY.

    Returns 0 when f(point) != value.
    """
    if f.is_constant():
        raise ValueError("constant map")
    fib = f.den if value == INFINITY else f.num - value * f.den
    if point == INFINITY:
        return f.degree - fib.degree
    return fib.root_order(point)


def infinity_index(f: RationalMap) -> int:
    """Ramification index of f at t = infinity (1 when unramified there)."""
    return vanishing_order(f, f(INFINITY), INFINITY)


def ram_scheme(f: RationalMap):
    """(finite_part, infinity_index): the monic polynomial whose root orders
    are index-1 at each finite non-pole critical point, and the index at
    infinity. Pole factors are stripped from the Wronskian; poles are
    recovered from the denominator by `ramification_data`.
    """
    if f.is_constant():
        raise ValueError("constant map")
    w = f.wronskian()
    if w.is_zero():
        raise ValueError("constant map")
    w = w.monic()
    while True:
        g = gcd(w, f.den)
        if not (g.degree and g.degree > 0):
            break
        w = (w // g).monic()
    return w, infinity_index(f)


def ramification_data(f: RationalMap):
    """All ramification of f as a list of (place, index), index >= 2.

    Places are monic squarefree polynomials (their roots share the index)
    or INFINITY. Conjugate irrational points appear through one factor.
    """
    finite_part, inf_idx = ram_scheme(f)
    data = []
    for factor, mult in squarefree_decomposition(finite_part):
        data.append((factor, mult + 1))
    for factor, mult in squarefree_decomposition(f.den):
        if mult >= 2:
            data.append((factor, mult))
    if inf_idx >= 2:
        data.append((INFINITY, inf_idx))
    return data


def point_indices(data) -> list:
    """The index of every ramification point in `ramification_data` output,
    conjugates counted: a factor of degree k contributes its index k times."""
    return [index for place, index in data
            for _ in range(1 if place == INFINITY else place.degree)]


def hurwitz_total(f: RationalMap) -> int:
    """Sum of (index - 1) over all ramification, conjugates counted; equals
    2 deg(f) - 2 for any nonconstant map (genus-zero Riemann-Hurwitz)."""
    return sum(index - 1 for index in point_indices(ramification_data(f)))


def fiber_profile(f: RationalMap, value):
    """Partition of deg(f) given by multiplicities in the fiber over `value`,
    as a descending list; irrational points contribute via their factors."""
    if f.is_constant():
        raise ValueError("constant map")
    d = f.degree
    fib = f.den if value == INFINITY else f.num - value * f.den
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
