"""Truncated formal power series over Q with explicit truncation order.

A Series of order N is known modulo w^(N+1) and stores exactly N+1
coefficients, constant term first, each in canonical exact form: an `int`
when the value is integral, a reduced `Fraction` otherwise. The series the
package builds are almost all integral, so the kernels run on Python ints
and pay for a Fraction (and its gcd) only where a denominator really
occurs. Every division goes through `ring.exact_div`, which returns an int only
when the remainder is zero; nothing rounds or floors, and no floating point
enters. Binary operations return the minimum of the two operand orders;
there is no silent precision loss. Multiplying by w (`shifted`) raises the
order, since a series known mod w^(N+1) times w is known mod w^(N+2).

Binomial powers (1 + f)^a, and with them `series_sqrt`, cost O(n^2)
coefficient operations at order n (fewer for sparse f), as do a product and
`inverse`.
"""

from fractions import Fraction

from .ring import RingElement, canonical, check_exact, exact_div


class Series(RingElement):
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        check_exact(coeffs)
        object.__setattr__(self, "coeffs", tuple(
            c if type(c) is int else canonical(c) for c in coeffs))
        if not self.coeffs:
            raise ValueError("a Series stores at least its constant term")

    @staticmethod
    def constant(c, order):
        return Series([c] + [0] * order)

    @staticmethod
    def identity(order):
        """The series w."""
        if order < 1:
            raise ValueError("identity needs order >= 1")
        return Series([0, 1] + [0] * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int | Fraction:
        if not 0 <= n <= self.order:
            raise IndexError("coefficient %d beyond truncation order %d" % (n, self.order))
        return self.coeffs[n]

    def truncated(self, order):
        if order > self.order:
            raise ValueError("cannot extend truncation order")
        return Series(self.coeffs[: order + 1])

    def shifted(self, k: int):
        """Multiply by w^k; the order grows by k."""
        return Series((0,) * k + self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def _wrap(self, other):
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction)):
            return Series.constant(other, self.order)
        return None

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return Series([self.coeffs[i] + o.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        out = [0] * (n + 1)
        for i in range(n + 1):
            a = self.coeffs[i]
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = o.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return Series(out)

    __rmul__ = __mul__

    def _one(self):
        return Series.constant(1, self.order)

    def inverse(self):
        """Multiplicative inverse; requires nonzero constant term."""
        if self.coeffs[0] == 0:
            raise ValueError("inverse requires nonzero constant term")
        n = self.order
        c0 = self.coeffs[0]
        out = [exact_div(1, c0)] + [0] * n
        for k in range(1, n + 1):
            s = 0
            for i in range(1, k + 1):
                s += self.coeffs[i] * out[k - i]
            out[k] = exact_div(-s, c0)
        return Series(out)

    def odd_part(self):
        return Series([c if i % 2 == 1 else 0 for i, c in enumerate(self.coeffs)])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Series(%s; order=%d)" % (list(self.coeffs), self.order)


def binomial_series(a, inner: Series, order=None) -> Series:
    """(1 + inner)^a mod w^(order+1) for rational a; requires inner(0) = 0.

    Uses J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, section 4.7):
    with f = inner and g = (1 + f)^a,

        g_0 = 1,   g_n = (1/n) sum_{k=1..n} ((a+1)k - n) f_k g_{n-k},

    which follows from comparing coefficients in (1 + f) g' = a f' g. Writing
    a = p/q, the weight ((a+1)k - n) is the integer (p+q)k - nq over q. Zero
    f_k are skipped, so the cost is O(n * nnz(f)) exact operations.
    """
    if inner.coeffs[0] != 0:
        raise ValueError("binomial_series requires inner constant term zero")
    if order is None:
        order = inner.order
    f = inner.truncated(order).coeffs
    check_exact((a,))
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    support = [(k, f[k]) for k in range(1, order + 1) if f[k] != 0]
    g = [1] + [0] * order
    for n in range(1, order + 1):
        total = 0
        for k, fk in support:
            if k > n:
                break
            if g[n - k]:
                total += ((p + q) * k - n * q) * fk * g[n - k]
        g[n] = exact_div(total, n * q)
    return Series(g)


def series_sqrt(f: Series, order=None) -> Series:
    """Square root with constant term 1; callers factor out rational squares first."""
    if f.coeffs[0] != 1:
        raise ValueError("series_sqrt requires constant term 1")
    if order is None:
        order = f.order
    return binomial_series(Fraction(1, 2), f - 1, order)

