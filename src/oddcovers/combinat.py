"""Combinatorial scalar primitives: binomials and Catalan numbers.

Everything here is exact; no floating point is used anywhere in the package.
"""

from fractions import Fraction
from math import comb

from .ring import check_exact


def binom_int(n: int, k: int) -> int:
    """Binomial coefficient n!/(k!(n-k)!); zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binom_int requires nonnegative arguments")
    return comb(n, k) if k <= n else 0


def binom_gen(a, k: int) -> Fraction:
    """Generalized binomial a(a-1)...(a-k+1)/k! for rational a.

    With a = p/q this is prod_{i<k} (p - iq) over q^k k!; both are built as
    ints, so the result is normalised by a single gcd.
    """
    if k < 0:
        raise ValueError("binom_gen requires k >= 0")
    check_exact((a,))
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    num = den = 1
    for i in range(k):
        num *= p - i * q
        den *= q * (i + 1)
    return Fraction(num, den)


def catalan(n: int) -> int:
    """n-th Catalan number, binom(2n,n)/(n+1)."""
    if n < 0:
        raise ValueError("catalan requires n >= 0")
    return comb(2 * n, n) // (n + 1)
