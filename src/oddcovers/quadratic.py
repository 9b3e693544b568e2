"""Binary forms over Z[sqrt d]: the quotient ring Z[x, z, r]/(r^2 - d).

A `QuadForm` is a `poly.IntPoly` in (x, z, r) with the quotient rule
`_square = (2, d)`, so each element is even + odd*r for integer forms even
and odd in (x, z), r standing for sqrt d; its terms free of x and z are its
scalars, the elements of Z[sqrt d]. `form_ring(d)` is the one subclass for
each non-square integer d: two discriminants never mix, and the ring is a
domain, as the proportionality tests of `ratmap` need. Coefficients are
ints (a float, a Fraction or a string raises TypeError) and nothing here
divides, so maps and points over Q(sqrt d) are written with cleared
denominators.
"""

import functools
from math import isqrt

from .poly import IntPoly


class QuadForm(IntPoly):
    """A binary form in (x, z) over Z[sqrt d], as an IntPoly in (x, z, r)
    reduced by r^2 = d; `d` is set on each subclass by `form_ring`."""

    __slots__ = ()


# typed: 3.0 and Fraction(3) must reach the type check, not the ring of 3
@functools.lru_cache(maxsize=None, typed=True)
def form_ring(d: int) -> type:
    """The subclass of QuadForm for the non-square integer d, built once."""
    if type(d) is not int:
        raise TypeError("form_ring needs an int d, not " + type(d).__name__)
    if d >= 0 and isqrt(d) ** 2 == d:
        raise ValueError(f"d = {d} is a square: Z[x, z, r]/(r^2 - d) is no domain")
    ring = type(f"QuadForm_{d}", (QuadForm,), {"__slots__": (), "d": d})
    ring._square = (2, IntPoly(3, {(0, 0, 0): d}))
    return ring
