"""Combinatorial scalar primitives: binomials and Catalan numbers.

Everything here is exact; no floating point is used anywhere in the package.
"""

from math import comb


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
