"""The Lagrange route's series: integer kernels (a truncated product and
binomial powers) and the pipeline that expands 8f on them.

A series here is a plain list of int coefficients, constant term first; a list
of N+1 ints is a series known modulo w^(N+1). `product` truncates to the
shorter operand. `binomial_series` raises 1 + f to the power p/q by J.C.P.
Miller's recurrence (Knuth, TAOCP vol. 2, section 4.7), which costs
O(n nnz(f)) coefficient operations at order n: O(n^2) for a dense f, O(n) for
an f of one term. Reciprocals 1/(1 + f) and square roots are binomial powers
too. Every step divides through `_integer`, which names a remainder as its
reduced p/q; nothing rounds or floors. `lagrange_pipeline` checks its 8f
against `fmod_series`, the paper's closed form. Only `routes.route_prefix`'s
`lagrange` branch imports this module; the `Series` class the tests check
these against lives in `tests/series_oracles.py`, with its own scaled kernel.
"""

from .combinat import _integer


def product(a: list, b: list) -> list:
    """The product of two coefficient lists, truncated to the shorter one."""
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai:
            for j in range(n - i):
                out[i + j] += ai * b[j]
    return out


def binomial_series(a: tuple, f: list) -> list:
    """The coefficients of (1 + f)^(p/q), to the order of f, for the int pair
    a = (p, q), q > 0, and the int list f with f[0] = 0.

    Miller's recurrence n q G_n = sum_{k=1..n} ((p+q)k - nq) f_k G_(n-k) gives
    each coefficient G_n, which must be an integer: a step that leaves a
    remainder raises AssertionError through `_integer`. For an integral f,
    1/(1 + f) and every integer power are integral, and so is
    (1 + 4f)^(+-1/2), since 4^k binom(+-1/2, k) is an integer: the powers the
    Lagrange route takes are all of these forms.
    """
    pair = a if type(a) is tuple and len(a) == 2 else (a,)
    for c in pair:
        if len(pair) != 2 or not isinstance(c, int):
            raise TypeError("binomial_series takes an int pair (p, q), not %s"
                            % type(c).__name__)
    for c in f:
        if not isinstance(c, int):
            raise TypeError("binomial_series takes int coefficients, not %s"
                            % type(c).__name__)
    p, q = a
    if q <= 0:
        raise ValueError("binomial_series needs q > 0")
    if f[0] != 0:
        raise ValueError("binomial_series requires f(0) = 0")
    support = [(k, fk) for k, fk in enumerate(f) if fk]
    g = [1] + [0] * (len(f) - 1)
    for n in range(1, len(f)):
        total = 0
        for k, fk in support:
            if k > n:
                break
            if g[n - k]:
                total += ((p + q) * k - n * q) * fk * g[n - k]
        g[n] = _integer(total, n * q, "lagrange")
    return g


def fmod_series(order: int) -> list:
    """8 f(w) to w^order, an int list, from the paper's closed form
    f(w) = sqrt(64w^2 + 1 + 16w s) / (8 s), s = sqrt(16w^2+1): both radicals
    and 1/s are (1 + 4y)^(+-1/2) for an integral y, so integral."""
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
    w^(2g+1), where `routes.route_prefix` reads it as F_(2g+1) / 8. Raises
    AssertionError if u fails either of its defining relations or if F
    disagrees with 8 times the independent closed-form expansion `fmod_series`.

    Nothing here is cubic in the order. Lagrange-Buermann inversion (Stanley,
    Enumerative Combinatorics II, section 5.4) gives u in closed form, since
    phi^n = 16^n (1+z/2)^(n/2): [w^n] u = (1/n) [z^(n-1)] phi^n =
    2^(3n+1) binom(n/2, n-1) / n; the falling factorials of binom(n/2, n-1)
    and binom(n/2-1, n-3) differ by (n/2)(2-n/2), so u_n = 16(4-n) u_(n-2) /
    (n-1) from u_1 = 16, u_2 = 64, in O(n) products.
    phi, phi' = 4 (1+z/2)^(-1/2), psi and 1/(1 - w phi'(u)), the power
    (1 + x)^(-1) at x = -w phi'(u), all have binomial form, so
    `binomial_series` composes each with u in O(n^2).

    Every series but f is integral, so all run on plain ints: v_2(u_n) >=
    n + 3 - log_2 n >= 4, so u = 16x with x integral; then (1+u/2)^(+-1/2) =
    (1 + 4(2x))^(+-1/2), (1+u)^(1/2) = (1 + 4(4x))^(1/2) and 1/(1 - w phi'(u))
    are integral (`binomial_series`), and F is their product.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    # each step of u is an integer, read as one; the list comes first, so a
    # size that cannot be allocated fails at once
    u = [0, 16, 64][:order + 1] + [0] * (order - 2)
    for n in range(3, order + 1):
        u[n] = _integer(16 * (4 - n) * u[n - 2], n - 1, "lagrange")

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
