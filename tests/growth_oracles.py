"""Growth diagnostics for A_g kept as test oracles.

The ratios A_{g+1}/A_g and the roots A_g^(1/(2g+1)) are checked against
thresholds frozen from an oracle run of the closed route; no command reports
them. Every comparison is exact integer or rational arithmetic, and the
decimal root strings come from integer root extraction.
"""

from collections import namedtuple
from fractions import Fraction

from series_oracles import alt_catalan_closed


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


# ratio is A_{g+1} / A_g (None on the last row); root_estimate is the decimal
# string for A_g^(1/(2g+1)).
GrowthRow = namedtuple("GrowthRow", "g ratio root_estimate")


# Thresholds frozen from an oracle run of the closed formula to g = 40:
# every ratio lies strictly below 128, the (2g+1)-th roots increase strictly
# over g in [2, 40], and every root stays strictly below 16/sqrt(2)
# (equivalently A_g^2 < 128^(2g+1)); the g = 40 root is about 9.975149.
RATIO_BOUND = 128
ROOT_WINDOW_START = 2


def growth_report(max_g: int):
    """Ratios and root estimates for A_g, with the frozen growth assertions.

    Every comparison is exact integer/rational arithmetic; the decimal strings
    are produced by integer root extraction and only appear in the report.
    """
    if max_g < 5:
        raise ValueError("growth_report needs max_g >= 5")
    values = {g: alt_catalan_closed(g) for g in range(ROOT_WINDOW_START, max_g + 1)}
    rows = []
    for g in range(ROOT_WINDOW_START, max_g):
        ratio = Fraction(values[g + 1], values[g])
        if not ratio < RATIO_BOUND:
            raise AssertionError("ratio A_%d/A_%d = %s breaches the bound %d"
                                 % (g + 1, g, ratio, RATIO_BOUND))
        rows.append(GrowthRow(g, ratio, decimal_root_string(values[g], 2 * g + 1)))
    rows.append(GrowthRow(max_g, None, decimal_root_string(values[max_g], 2 * max_g + 1)))
    for g in range(ROOT_WINDOW_START, max_g):
        # A_g^(1/(2g+1)) < A_{g+1}^(1/(2g+3)), compared exactly in integers
        if not values[g] ** (2 * g + 3) < values[g + 1] ** (2 * g + 1):
            raise AssertionError("root estimates fail to increase at g=%d" % g)
    for g in range(ROOT_WINDOW_START, max_g + 1):
        # A_g^(1/(2g+1)) < 16/sqrt(2) iff A_g^2 < 128^(2g+1)
        if not values[g] ** 2 < 128 ** (2 * g + 1):
            raise AssertionError("root estimate at g=%d is not below 16/sqrt(2)" % g)
    return rows
