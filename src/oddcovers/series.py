"""Truncated formal power series over Q with explicit truncation order.

A Series of order N is known modulo w^(N+1). It is built from ints alone,
`Series(nums, den)`: N+1 numerators `nums`, constant term first, over one
denominator `den`, stored with den > 0 and gcd(nums, den) = 1 (integers over
one denominator, as in Cohen, GTM 138, section 4.2). So every kernel runs on
Python ints, and `_make` builds each result unchecked with one gcd. A
division that must be exact raises ArithmeticError on a remainder; nothing
rounds or floors. Binary operations return the minimum of the two operand
orders; `shifted` (times w^k) raises the order by k.

The series layer has one product and one power recurrence: binomial
powers (1 + f)^(p/q), reciprocals 1/(1 + f) and square roots among them,
each cost O(n nnz(f)) coefficient operations at order n: O(n^2) for a dense
f, O(n) for an f of one term. Only the Lagrange route (`routes`) runs on it.
"""

from math import gcd

from .ring import RingElement


class Series(RingElement):
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

    # -- arithmetic ------------------------------------------------------

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


def _scaled_power(p: int, q: int, f, d: int, scale: int, order: int) -> list:
    """[G_0..G_order], G_n = scale^n [w^n] (1 + f/d)^(p/q) for int f, from
    n q d G_n = sum_{k=1..n} ((p+q)k - nq) f_k scale^k G_(n-k); a step that
    leaves a remainder (G_n no integer) raises ArithmeticError."""
    support = [(k, f[k] * scale ** k) for k in range(1, order + 1) if f[k]]
    g = [1] + [0] * order
    for n in range(1, order + 1):
        total = 0
        for k, fk in support:
            if k > n:
                break
            if g[n - k]:
                total += ((p + q) * k - n * q) * fk * g[n - k]
        g[n], rest = divmod(total, n * q * d)
        if rest:
            raise ArithmeticError("binomial step %d is not integral at scale %d" % (n, scale))
    return g


def binomial_series(a: tuple, inner: Series) -> Series:
    """(1 + inner)^(p/q) mod w^(inner.order+1) for the int pair a = (p, q),
    q > 0; requires inner(0) = 0.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, section 4.7),
    n g_n = sum_{k=1..n} ((a+1)k - n) f_k g_{n-k} with g_0 = 1, from
    (1 + f) g' = a f' g, costs O(n * nnz(f)); at a = -1 it is the reciprocal
    step g_n = -sum_{k=1..n} f_k g_{n-k}. For a = p/q and f = F/D it runs
    on G_n = (q^2 D)^n g_n, which are integers: g_n = sum_{j<=n} binom(a, j)
    [w^n] f^j, [w^n] f^j is an integer over D^j, and q^(2j) binom(a, j) is an
    integer (l-integral for a prime l not dividing q; for l | q, with p/q in
    lowest terms, each p - iq is prime to l and v_l(j!) < j; a pair not in
    lowest terms only multiplies the scale). So each step of `_scaled_power`
    divides exactly.
    """
    pair = a if type(a) is tuple and len(a) == 2 else (a,)
    for c in pair:
        if len(pair) != 2 or not isinstance(c, int):
            raise TypeError("binomial_series takes an int pair (p, q), not %s"
                            % type(c).__name__)
    p, q = a
    if q <= 0:
        raise ValueError("binomial_series needs q > 0")
    if inner.nums[0] != 0:
        raise ValueError("binomial_series requires inner(0) = 0")
    scale, order = q * q * inner.den, inner.order
    g = _scaled_power(p, q, inner.nums, inner.den, scale, order)
    return Series._make([gn * scale ** (order - n) for n, gn in enumerate(g)], scale ** order)
