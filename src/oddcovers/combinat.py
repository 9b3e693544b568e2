"""Combinatorial scalar primitives: binomials, Catalan numbers, integer roots.

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


def integer_nth_root(x: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer, by Newton iteration."""
    if x < 0 or n <= 0:
        raise ValueError("integer_nth_root requires x >= 0 and n >= 1")
    if x == 0:
        return 0
    if n == 1:
        return x
    r = 1 << (x.bit_length() // n + 1)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            return r
        r = nr


def decimal_root_string(x: int, n: int, digits: int = 6) -> str:
    """Decimal string approximating x**(1/n), truncated to `digits` places.

    The digits are produced by exact integer root extraction of x * 10**(n*digits);
    no floating point enters the computation.
    """
    scaled = integer_nth_root(x * 10 ** (n * digits), n)
    s = str(scaled).rjust(digits + 1, "0")
    return s[:-digits] + "." + s[-digits:]
