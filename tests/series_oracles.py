"""Generic series algorithms and per-term formulas kept as test oracles.

The package computes the Lagrange route in O(n^2) from closed-form
coefficients and binomial compositions; these are the generic routines it
replaced (Horner composition, the power-by-power inversion rule, both O(n^3),
the derivative, and a reciprocal on plain Fractions), which the tests use to
cross-check it by a path that shares none of that structure. Likewise
`binom_gen` is one generalized binomial at a time, and `alt_catalan_closed`
the closed sum for one g at a time, with a fresh binomial and Catalan number
for every term. `genfun_radicals` is the generating series by the paper's
nested radicals, and `genfun_wform` the same series as the root of its
minimal polynomial, expanded in W = w^2 by binomial series: the two forms
the package replaced by an integer recurrence from that polynomial.

`Series` is the truncated series ring over Q the Lagrange route once ran on,
kept as the oracle its integer lists are checked against; `series_power` is
its binomial power, on the package's `_scaled_power`. A `Series` is built
from ints alone; `series_of` and `values_of` carry a list of rationals (ints
and Fractions) in and out of one.
"""

from fractions import Fraction
from math import comb, gcd, lcm

from map_oracles import exact_div, is_rational
from oddcovers.combinat import binom_ratio, catalan
from oddcovers.ring import RingElement
from oddcovers.series import _scaled_power


class Series(RingElement):
    """A truncated formal power series over Q with explicit truncation order.

    A Series of order N is known modulo w^(N+1). It is built from ints alone,
    `Series(nums, den)`: N+1 numerators `nums`, constant term first, over one
    denominator `den`, stored with den > 0 and gcd(nums, den) = 1 (integers
    over one denominator, as in Cohen, GTM 138, section 4.2). `_make` builds
    each result unchecked with one gcd. Binary operations return the minimum
    of the two operand orders; `shifted` (times w^k) raises the order by k.
    """
    __slots__ = ("nums", "den")

    def __new__(cls, nums, den=1):
        nums = tuple(nums)
        if not nums:
            raise ValueError("a Series stores at least its constant term")
        for c in nums + (den,):
            if not isinstance(c, int):
                raise TypeError("Series numerators and denominator are ints, not %s"
                                % type(c).__name__)
        if den == 0:
            raise ZeroDivisionError("Series denominator is zero")
        return cls._make(nums, den)

    @staticmethod
    def _make(nums, den=1):
        """Unchecked constructor for int numerators over a nonzero int den;
        stores them reduced by one gcd, with den > 0."""
        g = 1 if den == 1 else gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        self = object.__new__(Series)
        object.__setattr__(self, "nums", tuple(nums) if g == 1 else tuple(c // g for c in nums))
        object.__setattr__(self, "den", den // g)
        return self

    @staticmethod
    def constant(c: int, order: int):
        return Series((c,) + (0,) * order)

    @staticmethod
    def identity(order):
        """The series w."""
        if order < 1:
            raise ValueError("identity needs order >= 1")
        return Series._make((0, 1) + (0,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def truncated(self, order):
        if not 0 <= order <= self.order:
            raise ValueError("truncation order must be nonnegative and at most %d" % self.order)
        return Series._make(self.nums[: order + 1], self.den)

    def shifted(self, k: int):
        """Multiply by w^k, k >= 0; the order grows by k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return Series._make((0,) * k + self.nums, self.den)

    def over(self, k: int):
        """The series divided by the nonzero int k."""
        if k == 0:
            raise ZeroDivisionError("Series divided by zero")
        return Series._make(self.nums, self.den * k)

    def _wrap(self, other):
        if isinstance(other, Series):
            return other
        if isinstance(other, int):
            return Series.constant(other, self.order)
        return None

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        g = gcd(self.den, o.den)
        sa, sb = o.den // g, self.den // g
        return Series._make([a * sa + b * sb for a, b in zip(self.nums, o.nums)], sa * self.den)

    __radd__ = __add__

    def __neg__(self):
        return Series._make([-c for c in self.nums], self.den)

    def __mul__(self, other):
        if type(other) is int:
            return Series._make([c * other for c in self.nums], self.den)
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        a_nums, b_nums = self.nums, o.nums
        n = min(len(a_nums), len(b_nums))
        out = [0] * n
        for i in range(n):
            a = a_nums[i]
            if a:
                for j in range(n - i):
                    if b_nums[j]:
                        out[i + j] += a * b_nums[j]
        return Series._make(out, self.den * o.den)

    __rmul__ = __mul__

    def _one(self):
        return Series.constant(1, self.order)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return "Series(%s/%d; order=%d)" % (list(self.nums), self.den, self.order)


def series_power(a: tuple, inner: Series) -> Series:
    """(1 + inner)^(p/q) mod w^(inner.order+1) for the int pair a = (p, q),
    q > 0; requires inner(0) = 0.

    For a = p/q and f = F/D Miller's recurrence runs on G_n = (q^2 D)^n g_n,
    which are integers: g_n = sum_{j<=n} binom(a, j) [w^n] f^j, [w^n] f^j is
    an integer over D^j, and q^(2j) binom(a, j) is an integer (l-integral for
    a prime l not dividing q; for l | q, with p/q in lowest terms, each p - iq
    is prime to l and v_l(j!) < j; a pair not in lowest terms only multiplies
    the scale). So each step of `_scaled_power` divides exactly.
    """
    p, q = a
    if inner.nums[0] != 0:
        raise ValueError("series_power requires inner(0) = 0")
    scale, order = q * q * inner.den, inner.order
    g = _scaled_power(p, q, inner.nums, inner.den, scale, order)
    return Series._make([gn * scale ** (order - n) for n, gn in enumerate(g)], scale ** order)


def series_of(values) -> Series:
    """The Series with the coefficients `values`, ints and Fractions: their
    numerators over the least common denominator."""
    den = lcm(*(c.denominator for c in values))
    return Series([c.numerator * (den // c.denominator) for c in values], den)


def values_of(series: Series) -> list:
    """The coefficients of `series`: an int when integral, a reduced Fraction
    otherwise."""
    return [exact_div(c, series.den) for c in series.nums]


def binom_gen(a, k: int):
    """Generalized binomial a(a-1)...(a-k+1)/k! for rational a, in canonical
    form: one `binom_ratio` and a single gcd."""
    if not is_rational(a):
        raise TypeError("binom_gen takes a rational a, not %s" % type(a).__name__)
    return exact_div(*binom_ratio(a.numerator, a.denominator, k))


def alt_catalan_closed(g: int) -> int:
    """A_g = 16^g * sum_i (-2)^i C(g,i) Catalan(2g-i)."""
    if g < 0:
        raise ValueError("g must be nonnegative")
    return 16 ** g * sum(
        (-2) ** i * comb(g, i) * catalan(2 * g - i) for i in range(g + 1)
    )


def genfun_radicals(order: int) -> Series:
    """The generating series sum_g A_g w^(2g+1) from the paper's nested
    radicals: 2w / (R(w) + R(-w)), R = sqrt(1 + 64w^2 + 16w s) with the even
    s = sqrt(1 + 16w^2), that is w times the reciprocal of the even part of R."""
    w = Series.identity(order)
    s = series_power((1, 2), 16 * (w * w))
    root = series_power((1, 2), 64 * (w * w) + 16 * (w * s))
    even = Series([0 if n % 2 else c for n, c in enumerate(root.nums)], root.den)
    return w * series_power((-1, 1), even - 1)


def genfun_wform(order: int) -> Series:
    """y(w) = sum_g A_g w^(2g+1) to the given order, as the root of its minimal
    polynomial 64(1 + 16w^2) y^4 - (1 + 64w^2) y^2 + w^2, a quadratic in y^2
    of discriminant 1 - 128W, W = w^2, whose root with y = w + O(w^3) is
    y = w Z(W), Z = X^(1/2), X = (1 + 64W - sqrt(1 - 128W)) / (128 W (1 + 16W)):
    only the product and Z are dense (one-term inner series cost O(n))."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    W = Series.identity(order // 2 + 1)
    x = (1 + 64 * W - series_power((1, 2), -128 * W)) * series_power((-1, 1), 16 * W)
    z = series_power((1, 2), Series._make(x.nums[1:], 128 * x.den) - 1)  # x(0) = 0
    return Series._make([z.nums[n // 2] if n % 2 else 0 for n in range(order + 1)], z.den)


def compose(outer: Series, inner: Series) -> Series:
    """outer evaluated at `inner` by Horner's rule; requires inner(0) = 0."""
    if inner.nums[0] != 0:
        raise ValueError("compose requires inner constant term zero")
    n = min(outer.order, inner.order)
    result = Series.constant(0, n)
    inner = inner.truncated(n)
    for c in reversed(outer.nums[: n + 1]):
        result = result * inner + c
    return result.over(outer.den)


def lagrange_invert(phi: Series, order: int) -> Series:
    """The unique u with u(0) = 0 and u = w * phi(u) mod w^(order+1).

    Coefficients come from the classical inversion rule
    [w^n] u = (1/n) [z^(n-1)] phi(z)^n, one power of phi at a time.
    """
    if phi.nums[0] == 0:
        raise ValueError("lagrange_invert requires phi(0) != 0")
    if order < 1:
        raise ValueError("order must be at least 1")
    if phi.order < order - 1:
        raise ValueError("phi must be known at least to order %d" % (order - 1))
    phi = phi.truncated(min(phi.order, order))
    out = [Fraction(0)] * (order + 1)
    power = Series.constant(1, phi.order)
    for n in range(1, order + 1):
        power = power * phi
        out[n] = Fraction(power.nums[n - 1], power.den * n)
    return series_of(out)


def reciprocal(a) -> list:
    """1/a for a plain list a of rationals with a[0] != 0, in Fractions:
    out_k = -(1/a_0) sum_{i=1..k} a_i out_(k-i)."""
    out = [Fraction(1) / Fraction(a[0])]
    for k in range(1, len(a)):
        total = sum((Fraction(a[i]) * out[k - i] for i in range(1, k + 1)), Fraction(0))
        out.append(-total / Fraction(a[0]))
    return out


def derivative(series: Series) -> Series:
    """The termwise derivative; its order is one less."""
    if series.order == 0:
        raise ValueError("derivative of an order-0 series retains no terms")
    return Series([i * c for i, c in enumerate(series.nums)][1:], series.den)
