"""Rational self-maps of the projective line and their ramification, exactly.

A RationalMap is a coprime pair of polynomials over Q or Q(sqrt(d)); the
point at infinity is handled by counting degrees, never by floating point or
projective coordinates. For f = num/den of degree d, f(infinity) is infinity
when deg den < d and num[d]/den[d] otherwise, and f - c vanishes at infinity
to order d - deg(num - c den) (d - deg den for c = infinity). Irrational
critical points are carried by their monic squarefree factors rather than
radical expressions.

`ramification_data` is the one ramification computation: it reads every finite
index off the Wronskian alone, certifies Riemann-Hurwitz on the result before
returning it, and callers read the indices off that list (`point_indices`).
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
