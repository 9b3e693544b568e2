"""The generating-function route and the `series` command, which prints its series.

y(w) = sum_g A_g w^(2g+1) = w Z(w^2), Z the root with Z(0) = 1 of its minimal
polynomial Q(W, Z) = 64W(1+16W) Z^4 - (1+64W) Z^2 + 1 (Stanley, EC II, ch. 6).
In S = Z^2, Q = 0 is S = 1 + 64W(1+16W) S^2 - 64W S, an integer recurrence
(Kung & Traub, J. ACM 1978); each Z_n is then one halving, through `_integer`.
"""

import sys

from .combinat import _integer


def _square_at(a: list, m: int) -> int:
    """[x^m] (sum_i a_i x^i)^2, each cross product a_i a_(m-i) computed once."""
    twice = 2 * sum(a[i] * a[m - i] for i in range((m + 1) // 2))
    return twice + a[m // 2] ** 2 if m % 2 == 0 else twice


def genfun_prefix(max_g: int) -> list:
    """[A_0, ..., A_max_g] = [Z_0, ..., Z_max_g], from S_0 = Z_0 = 1 and

        S_n = 64 F_(n-1) + 1024 F_(n-2) - 64 S_(n-1),  F = S^2, F_(-1) = 0,
        Z_n = (S_n - sum_{i=1..n-1} Z_i Z_(n-i)) / 2,

    in O(max_g^2) int operations; f[n] holds F_(n-1). The lists are allocated
    before the first step, so a size that cannot be allocated fails at once."""
    if max_g < 0:
        raise ValueError("max_g must be nonnegative")
    s, f, z = [1] + [0] * max_g, [0] * (max_g + 1), [1] + [0] * max_g
    for n in range(1, max_g + 1):
        f[n] = _square_at(s, n - 1)
        s[n] = 64 * f[n] + 1024 * f[n - 1] - 64 * s[n - 1]
        # z[n] is still 0, so [W^n] of z^2 is the sum over i = 1..n-1
        z[n] = _integer(s[n] - _square_at(z, n), 2, "genfun")
    return z


def cmd_series(args):
    """(text, payload, exit code) of `series`, as `cli` emits them."""
    if args.order < 0:
        return "--order must be nonnegative", None, 2
    if args.order + 1 > sys.maxsize:
        return "--order is too large: a sequence holds at most %d items" % sys.maxsize, None, 2
    coeffs = [0] * (args.order + 1)  # A_g at 2g+1 <= order, so g <= (order-1)/2
    coeffs[1::2] = genfun_prefix((args.order - 1) // 2) if args.order else []
    note = ("coefficient of w^n at index n; A_g sits at the odd index n = 2g+1, "
            "every even index is 0")
    rows = [{"g": n, "values": {"genfun": str(c)}, "agree": True}
            for n, c in enumerate(coeffs)]
    lines = ["# " + note] + ["%d\t%d" % (n, c) for n, c in enumerate(coeffs)]
    payload = {"command": "series", "note": note, "rows": rows, "checks": []}
    return "\n".join(lines) + "\n", payload, 0
