"""The alternating Catalan numbers A_g by exact routes, and the `table` command.

Routes: the closed alternating sum and coefficient extraction from an
explicit product of binomial series live here. Lagrange inversion lives with
its integer kernels in `series` (`series.lagrange_pipeline`), the generating
function as the root of its minimal polynomial in `genfun`
(`genfun.genfun_prefix`, with the `series` command), and the Schubert-calculus
route in `schubert` (`schubert.top_power_prefix`; the `schubert` command is in
`sigma12`), bound to these by the `schubert_route` and `sigma3_reduction`
checks of `checks`. All agree exactly, but not all formulas are independent:
by Lagrange's second form, [w^n] psi(u) / (1 - w phi'(u)) = [z^n] psi(z)
phi(z)^n (Stanley, EC II, 5.4), for `lagrange_pipeline`'s phi and psi and
n = 2g+1 the coefficient route's 2^(8g+1) [z^(2g+1)] (1+z)^(1/2) (1+z/2)^g.
So `coeff_form` and `lagrange` rest on one phi and psi, and their agreement
tests composition code; only `closed`, `schubert` and `genfun` own theirs.

`route_prefix(route, G)` returns A_0..A_G. The Lagrange route expands 8f
once, as a list of ints to order 2G+1, and reads each A_g as its coefficient
at w^(2g+1) over 8; `genfun` steps an integer recurrence; the Schubert route
reads every top evaluation off one chain of products in G(2,2G+2); the
coefficient route steps the integers 4^j binom(1/2, j), the coefficients of
its g-free factor (1+z)^(1/2), once by their own ratio and takes one dot
product per g; the closed route builds Catalan(0..2G) once and steps each row
of binomial weights by exact ratios. Every route computes in ints, every
division goes through `_integer`, and a value that is no integer is named as
its reduced p/q. Only `route_prefix` imports `series`, `genfun` and
`schubert`, each on the branch of its route, so a `table` job compiles only
the routes it names; no route loads `ring` but `schubert`. `cmd_table` is the
`table` command.

The closed formula is evaluated for every g >= 0: the small-g values are the
formal values of the sum and agree with the generating series.
"""

import sys

from .combinat import _integer, catalan


def closed_prefix(max_g: int) -> list:
    """[A_0, ..., A_max_g], A_g = 16^g sum_i (-2)^i C(g,i) Catalan(2g-i), in
    O(max_g^2) int operations: Catalan(0..2*max_g) is built once, and the weight
    (-2)^i C(g,i) steps to i+1 by the ratio -2(g-i)/(i+1), checked to be exact.
    The lists are allocated before the first step, so a size that cannot be
    allocated fails at once."""
    if max_g < 0:
        raise ValueError("max_g must be nonnegative")
    cats, prefix = [0] * (2 * max_g + 1), [0] * (max_g + 1)
    for n in range(2 * max_g + 1):
        cats[n] = catalan(n)
    for g in range(max_g + 1):
        weight, total = 1, 0
        for i in range(g + 1):
            total += weight * cats[2 * g - i]
            weight = _integer(-2 * (g - i) * weight, i + 1, "closed")
        prefix[g] = 16 ** g * total
    return prefix


def coeff_form_prefix(max_g: int) -> list:
    """[A_0, ..., A_max_g], A_g = [z^(2g+1)] of 2^(8g+1) (1+z/2)^g (1+z)^(1/2).

    h_j = 4^j binom(1/2, j) is stepped once, j <= 2*max_g+1, by the exact ratio
    h_(j+1)/h_j = 2(1-2j)/(j+1); with [z^k] (1+z/2)^g = binom(g,k) 2^(-k),
    2 A_g = sum_k binom(g,k) 2^(4g+k) h_(2g+1-k) is one O(g) dot product whose
    weight steps by the exact ratio 2(g-k)/(k+1). The prefix costs O(max_g^2);
    its lists are allocated before the first step, as in `closed_prefix`.
    """
    if max_g < 0:
        raise ValueError("max_g must be nonnegative")
    h, prefix = [1] + [0] * (2 * max_g + 1), [0] * (max_g + 1)
    for j in range(2 * max_g + 1):
        h[j + 1] = _integer(2 * (1 - 2 * j) * h[j], j + 1, "coefficient")
    for g in range(max_g + 1):
        weight, twice = 16 ** g, 0
        for k in range(g + 1):
            twice += weight * h[2 * g + 1 - k]
            weight = _integer(2 * (g - k) * weight, k + 1, "coefficient")
        prefix[g] = _integer(twice, 2, "coefficient")
    return prefix


ROUTES = ("closed", "coeff_form", "schubert", "genfun", "lagrange")


def route_prefix(route: str, max_g: int, n4: int = 16, n5: int = 16) -> list:
    """[A_0, ..., A_max_g] by one route, computed as the module docstring
    says; `n4` and `n5` weight sigma_{4,0} and sigma_{3,1} in the Schubert
    route. Raises ValueError for an unknown route."""
    if max_g < 0:
        raise ValueError("max_g must be nonnegative")
    if route == "closed":
        return closed_prefix(max_g)
    if route == "schubert":
        from . import schubert

        return schubert.top_power_prefix({(4, 0): n4, (3, 1): n5}, max_g)
    if route == "coeff_form":
        return coeff_form_prefix(max_g)
    if route == "genfun":
        from .genfun import genfun_prefix

        return genfun_prefix(max_g)
    if route != "lagrange":
        raise ValueError("unknown route %r" % route)
    from .series import lagrange_pipeline

    big_f = lagrange_pipeline(2 * max_g + 1)[1]  # 8 f
    return [_integer(big_f[2 * g + 1], 8, "lagrange") for g in range(max_g + 1)]


def cmd_table(args):
    """(text, payload, exit code) of `table`, each route read once, as first named."""
    route_list = list(dict.fromkeys(r.strip() for r in args.routes.split(",") if r.strip()))
    if not route_list or any(r not in ROUTES for r in route_list):
        return ("unknown route in %r; choose from %s"
                % (args.routes, ",".join(ROUTES)), None, 2)
    if args.max_g < 0:
        return "--max-g must be nonnegative", None, 2
    if "schubert" in route_list and args.max_g > args.cap:
        return "schubert route capped at g = %d (raise with --cap)" % args.cap, None, 3
    if 2 * args.max_g + 2 > sys.maxsize:  # a series to order 2 max_g + 1
        return "--max-g is too large: a sequence holds at most %d items" % sys.maxsize, None, 2
    prefixes = {r: route_prefix(r, args.max_g, args.n4, args.n5) for r in route_list}
    rows, lines = [], ["g\t" + "\t".join(route_list) + "\tagree"]
    for g in range(args.max_g + 1):
        values = {r: str(prefixes[r][g]) for r in route_list}
        agree = len(set(values.values())) == 1
        rows.append({"g": g, "values": values, "agree": agree})
        lines.append("%d\t%s\t%s" % (g, "\t".join(values.values()), "yes" if agree else "NO"))
    payload = {"command": "table", "rows": rows, "checks": []}
    return "\n".join(lines) + "\n", payload, 0 if all(row["agree"] for row in rows) else 1
