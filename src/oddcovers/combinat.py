"""Combinatorial scalar primitives: binomials, Catalan numbers, exact division.

Everything here is exact; no floating point is used anywhere in the package.
"""

from math import comb, gcd


def binom_ratio(p: int, q: int, k: int) -> tuple:
    """(num, den), ints with binom(p/q, k) = num/den and den = q^k k! > 0 for
    q > 0: num is prod_{i<k} (p - iq). Not reduced."""
    if k < 0:
        raise ValueError("binom_ratio requires k >= 0")
    num = den = 1
    for i in range(k):
        num *= p - i * q
        den *= q * (i + 1)
    return num, den


def catalan(n: int) -> int:
    """n-th Catalan number, binom(2n,n)/(n+1)."""
    if n < 0:
        raise ValueError("catalan requires n >= 0")
    return comb(2 * n, n) // (n + 1)


def _integer(num: int, den: int, route: str) -> int:
    """The integer num/den, den > 0; raises AssertionError, naming the reduced
    p/q, rather than truncate."""
    if num % den:
        g = gcd(num, den)
        raise AssertionError("%s route produced a non-integer: %d/%d" % (route, num // g, den // g))
    return num // den
