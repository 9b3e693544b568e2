"""The alternating Catalan numbers A_g by exact routes, and the `table` command.

Routes: the closed alternating sum, coefficient extraction from an explicit
product of binomial series and Lagrange inversion live here. The generating
function as the root of its minimal polynomial lives in `genfun`
(`genfun.genfun_prefix`, with the `series` command), as the Schubert-calculus
route lives in `schubert` (with the `schubert` command), bound to these by the
`schubert_route` and `sigma3_reduction` checks of `checks`. All agree
exactly, but not all formulas are independent: by Lagrange's second form,
[w^n] psi(u) / (1 - w phi'(u)) = [z^n] psi(z) phi(z)^n (Stanley, EC II,
5.4), for `lagrange_pipeline`'s phi and psi and n = 2g+1 the coefficient
route's 2^(8g+1) [z^(2g+1)] (1+z)^(1/2) (1+z/2)^g. So `coeff_form` and
`lagrange` rest on one phi and psi, and their agreement tests composition
code; only `closed`, `schubert` and `genfun` own theirs.

`route_prefix(route, G)` returns A_0..A_G. The Lagrange route expands 8f
once, as a list of ints to order 2G+1, and reads each A_g as its coefficient
at w^(2g+1) over 8; `genfun` steps an integer recurrence; the Schubert route
reads every top evaluation off one chain of products in G(2,2G+2)
(`schubert.top_power_prefix`); the coefficient route steps the integers 4^j
binom(1/2, j), the coefficients of its g-free factor (1+z)^(1/2), once by
their own ratio and takes one dot product per g; the closed route builds
Catalan(0..2G) once and steps each row of binomial weights by exact ratios.
Every route computes in ints, every division goes through `_integer`, and a
value that is no integer is named as its reduced p/q. Only the two Lagrange
functions import the integer series kernels of `series`, and only
`route_prefix` imports `genfun` and `schubert`, so a job loads none of them
unless it runs them; no route loads `ring` but `schubert`. `cmd_table` is
the `table` command.

The closed formula is evaluated for every g >= 0: the small-g values are the
formal values of the sum and agree with the generating series.
"""

import sys

from .combinat import _integer, binom_ratio, catalan


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


def fmod_series(order: int) -> list:
    """8 f(w) to w^order, an int list, from the paper's closed form
    f(w) = sqrt(64w^2 + 1 + 16w s) / (8 s), s = sqrt(16w^2+1): both radicals
    and 1/s are (1 + 4y)^(+-1/2) for an integral y, so integral."""
    from .series import binomial_series, product
    sixteen_w2 = [16 * (n == 2) for n in range(order + 1)]
    s = binomial_series((1, 2), sixteen_w2)
    inner = [64 * (n == 2) + 16 * c for n, c in enumerate([0] + s[:order])]  # 64w^2 + 16ws
    root = binomial_series((1, 2), inner)
    return product(root, binomial_series((-1, 2), sixteen_w2))


def lagrange_pipeline(order: int):
    """Return (u, F), F = 8f, as int coefficient lists to w^order, from the
    Lagrange-inversion route, with contracts checked.

    u solves u = w phi(u) with phi(z) = 16 (1+z/2)^(1/2); f = psi(u) / (1 - w
    phi'(u)) with psi(z) = (1/8) (1+z)^(1/2) (1+z/2)^(-1/2) carries A_g at
    w^(2g+1), where `route_prefix` reads it as F_(2g+1) / 8. Raises
    AssertionError if u fails either of its defining relations or if F
    disagrees with 8 times the independent closed-form expansion `fmod_series`.

    Nothing here is cubic in the order. Lagrange-Buermann inversion (Stanley,
    Enumerative Combinatorics II, section 5.4) gives u in closed form, since
    phi^n = 16^n (1+z/2)^(n/2): [w^n] u = (1/n) [z^(n-1)] phi^n =
    16^n binom(n/2, n-1) 2^(1-n) / n. phi, phi' = 4 (1+z/2)^(-1/2), psi and
    1/(1 - w phi'(u)), the power (1 + x)^(-1) at x = -w phi'(u), all have
    binomial form, so `binomial_series` composes each with u in O(n^2).

    Every series but f is integral, so all run on plain ints: v_2(u_n) >=
    n + 3 - log_2 n >= 4, so u = 16x with x integral; then (1+u/2)^(+-1/2) =
    (1 + 4(2x))^(+-1/2), (1+u)^(1/2) = (1 + 4(4x))^(1/2) and 1/(1 - w phi'(u))
    are integral (`series.binomial_series`), and F is their product.
    """
    from .series import binomial_series, product
    if order < 1:
        raise ValueError("order must be at least 1")
    # [w^n] u = 2^(3n+1) binom(n/2, n-1) / n is an integer, read as one; the
    # list comes first, so a size that cannot be allocated fails at once
    u = [0] * (order + 1)
    for n in range(1, order + 1):
        num, den = binom_ratio(n, 2, n - 1)
        u[n] = _integer(2 ** (3 * n + 1) * num, den * n, "lagrange")

    half_u = [_integer(c, 2, "lagrange") for c in u]  # u/2, integral since 16 | u
    residual = [c - 16 * r for c, r in zip(u, [0] + binomial_series((1, 2), half_u))]
    if any(residual):
        raise AssertionError("u = w*phi(u) violated: %r" % residual)
    # Algebraic form of the same relation, times 2: 256 w^2 (2 + u) = 2 u^2.
    w2_two_plus_u = ([0, 0, 2] + u[1:])[:order + 1]
    alg = [256 * c - 2 * sq for c, sq in zip(w2_two_plus_u, product(u, u))]
    if any(alg):
        raise AssertionError("256 w^2 (1+u/2) = u^2 violated: %r" % alg)

    inv_root = binomial_series((-1, 2), half_u)  # (1+u/2)^(-1/2)
    recip = binomial_series((-1, 1), [0] + [-4 * c for c in inv_root[:order]])
    big_f = product(product(binomial_series((1, 2), u), inv_root), recip)

    if big_f != fmod_series(order):
        raise AssertionError("Lagrange route disagrees with closed-form f(w)")

    return u, big_f


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
