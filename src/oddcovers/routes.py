"""The alternating Catalan numbers A_g by four independent routes.

Routes: the closed alternating sum, coefficient extraction from an explicit
product of binomial series, expansion of the algebraic generating function,
and Lagrange inversion. All four agree exactly; the Schubert-calculus route
lives in `schubert` and is bound to these by `sigma3_route_check`.

`route_prefix(route, G)` returns A_0..A_G. The series routes `genfun` and
`lagrange` carry A_g at w^(2g+1) of one series, so they expand it once, to
order 2G+1, and integer-check every coefficient they read; the Schubert route
reads every top evaluation off one chain of products in G(2,2G+2)
(`schubert.top_power_prefix`); the coefficient route expands its g-free
factor (1+z)^(1/2) once and takes one dot product per g; the closed route
computes each g on its own.

The closed formula is evaluated for every g >= 0: the small-g values are the
formal values of the sum and agree with the generating series.
"""

from fractions import Fraction

from .combinat import binom_int, binom_gen, catalan
from .series import Series, binomial_series, series_sqrt


def alt_catalan_closed(g: int) -> int:
    """A_g = 16^g * sum_i (-2)^i C(g,i) Catalan(2g-i)."""
    if g < 0:
        raise ValueError("g must be nonnegative")
    return 16 ** g * sum(
        (-2) ** i * binom_int(g, i) * catalan(2 * g - i) for i in range(g + 1)
    )


def coeff_form_prefix(max_g: int) -> list:
    """[A_0, ..., A_max_g], A_g = [z^(2g+1)] of 2^(8g+1) (1+z/2)^g (1+z)^(1/2).

    (1+z)^(1/2) does not depend on g, so it is expanded once, to order
    2*max_g+1; [z^k] (1+z/2)^g is binom(g,k) 2^(-k). Each A_g is then one
    O(g) dot product, integer-checked, and the prefix costs O(max_g^2).
    """
    if max_g < 0:
        raise ValueError("max_g must be nonnegative")
    root = binomial_series(Fraction(1, 2), Series.identity(2 * max_g + 1)).coeffs
    prefix = []
    for g in range(max_g + 1):
        # binom(g,k) 2^(8g+1-k) is the integer weight of root[2g+1-k]
        weight, coeff = 2 ** (8 * g + 1), 0
        for k in range(g + 1):
            coeff += weight * root[2 * g + 1 - k]
            weight = weight * (g - k) // (2 * (k + 1))
        prefix.append(_integer(coeff, "coefficient"))
    return prefix


def _integer(value: int | Fraction, route: str) -> int:
    """The integer `value`; raises AssertionError rather than truncate."""
    if value.denominator != 1:
        raise AssertionError("%s route produced a non-integer: %s" % (route, value))
    return int(value)


def genfun_series(order: int) -> Series:
    """The generating series sum_g A_g w^(2g+1), expanded to the given order.

    Built from 2w / (sqrt(1+64w^2+16w*s) + sqrt(1+64w^2-16w*s)) with
    s = sqrt(1+16w^2); every even coefficient vanishes.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    w = Series.identity(order)
    s = series_sqrt(1 + 16 * (w * w))
    even = 1 + 64 * (w * w)
    cross = 16 * (w * s)
    denom = series_sqrt(even + cross) + series_sqrt(even - cross)
    return (2 * w) * denom.inverse()


def fmod_series(order: int) -> Series:
    """Independent closed-form expansion of f(w):
    sqrt(64w^2 + 1 + 16w sqrt(16w^2+1)) / (8 sqrt(16w^2+1))."""
    w = Series.identity(order)
    s = series_sqrt(1 + 16 * (w * w))
    radicand = 1 + 64 * (w * w) + 16 * (w * s)
    return series_sqrt(radicand) * (8 * s).inverse()


def lagrange_pipeline(order: int):
    """Return (u, f, h) from the Lagrange-inversion route, with contracts checked.

    u solves u = w phi(u) with phi(z) = 16 (1+z/2)^(1/2); f = psi(u) / (1 - w
    phi'(u)) with psi(z) = (1/8) (1+z)^(1/2) (1+z/2)^(-1/2); h is the odd part
    of f and carries A_g at w^(2g+1). Raises AssertionError if u fails either
    of its defining relations or if f disagrees with the independent
    closed-form expansion.

    Nothing here is cubic in the order. Lagrange-Buermann inversion (Stanley,
    Enumerative Combinatorics II, section 5.4) gives u in closed form, since
    phi^n = 16^n (1+z/2)^(n/2):

        [w^n] u = (1/n) [z^(n-1)] phi^n = 16^n binom(n/2, n-1) 2^(1-n) / n.

    phi, phi' = 4 (1+z/2)^(-1/2) and psi all have binomial form, so each is
    composed with u by `binomial_series` in O(n^2).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    u = Series([0] + [
        16 ** n * binom_gen(Fraction(n, 2), n - 1) / (2 ** (n - 1) * n)
        for n in range(1, order + 1)
    ])
    half_u = Fraction(1, 2) * u

    phi_u = 16 * binomial_series(Fraction(1, 2), half_u)
    residual = u - phi_u.shifted(1).truncated(order)
    if not residual.is_zero():
        raise AssertionError("u = w*phi(u) violated: %r" % residual)
    # Algebraic form of the same relation: 256 w^2 (1 + u/2) = u^2.
    w = Series.identity(order)
    alg = 256 * ((w * w) * (1 + half_u)) - u * u
    if not alg.is_zero():
        raise AssertionError("256 w^2 (1+u/2) = u^2 violated: %r" % alg)

    inv_root = binomial_series(Fraction(-1, 2), half_u)  # (1+u/2)^(-1/2)
    w_dphi_u = (4 * inv_root).shifted(1).truncated(order)
    # f is 1/8 times an integral product; scaling last keeps both O(n^2)
    # products on ints.
    f = Fraction(1, 8) * (binomial_series(Fraction(1, 2), u) * inv_root
                          * (1 - w_dphi_u).inverse())

    if f != fmod_series(order):
        raise AssertionError("Lagrange route disagrees with closed-form f(w)")

    return u, f, f.odd_part()


def binomial_identity_check(g: int) -> bool:
    """sum_k (-1)^k 2^(g-k) C(g,k) C(g-k,i) == C(g,i) 2^i for every 0 <= i <= g."""
    for i in range(g + 1):
        lhs = sum(
            (-1) ** k * 2 ** (g - k) * binom_int(g, k) * binom_int(g - k, i)
            for k in range(g - i + 1)
        )
        if lhs != binom_int(g, i) * 2 ** i:
            return False
    return True


def catalan_half_binomial_check(n: int) -> bool:
    """Catalan(n) == (-1)^n 2^(2n+1) binom(1/2, n+1), the square-root-series rewrite."""
    return catalan(n) == (-1) ** n * 2 ** (2 * n + 1) * binom_gen(Fraction(1, 2), n + 1)


def sigma3_route_check(g: int) -> bool:
    """16^g * top((sigma_1 sigma_3)^g) in G(2,2g+2) equals the closed formula."""
    if not 1 <= g <= 8:
        raise ValueError("sigma3_route_check covers 1 <= g <= 8")
    from . import schubert

    s1s3 = schubert.SchubertVector.unit(2 * g + 2).pieri(3).pieri(1)
    top = schubert.top_power_prefix(s1s3.terms, g)[g]
    return 16 ** g * top == alt_catalan_closed(g)


ROUTES = ("closed", "coeff_form", "schubert", "genfun", "lagrange")


def route_prefix(route: str, max_g: int, n4: int = 16, n5: int = 16) -> list:
    """[A_0, ..., A_max_g] by one route.

    `genfun` and `lagrange` expand their series once, to order 2*max_g+1, and
    read every A_g off it, each checked to be an integer; `schubert` reads
    every A_g off one chain of products in G(2,2*max_g+2); `coeff_form` is
    `coeff_form_prefix`; `closed` computes each g on its own. `n4` and `n5`
    weight sigma_{4,0} and sigma_{3,1} in the Schubert route. Raises
    ValueError for an unknown route.
    """
    if max_g < 0:
        raise ValueError("max_g must be nonnegative")
    if route == "closed":
        return [alt_catalan_closed(g) for g in range(max_g + 1)]
    if route == "schubert":
        from . import schubert

        return schubert.top_power_prefix({(4, 0): n4, (3, 1): n5}, max_g)
    if route == "coeff_form":
        return coeff_form_prefix(max_g)
    if route not in ("genfun", "lagrange"):
        raise ValueError("unknown route %r" % route)
    order = 2 * max_g + 1
    expansion = genfun_series(order) if route == "genfun" else lagrange_pipeline(order)[2]
    return [_integer(expansion[2 * g + 1], route) for g in range(max_g + 1)]
