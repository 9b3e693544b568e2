"""A second opinion on the explicit covers, recomputed in sympy.

The maps over Q(sqrt 3) and Q(sqrt -3) certified by `covers` are written
down again here from their formulas, never taken from `oddcovers` objects:
sympy factors their Wronskians and fibers over the extension
(`factor_list(..., extension=...)`) and checks their Moebius and involution
identities. Only the results are compared with what `ratmap` returns, as
tuples of rational coefficient pairs (a, b) for a + b sqrt(d). A defect in
the one `Poly`, `QuadScalar` and `gcd` kernel under every covers check would
have to be repeated in sympy to go unseen (McKeeman, "Differential testing
for software", Digital Technical Journal 10(1), 1998).
"""

from fractions import Fraction
from functools import cache

import pytest
import sympy

from oddcovers.covers import (
    check_deg3_maps,
    check_paired_quartic_maps,
    deg3_maps,
    paired_quartic_maps,
)
from oddcovers.quadratic import QuadScalar
from oddcovers.ratmap import INFINITY, fiber_profile, ramification_data

t = sympy.Symbol("t")
R3 = sympy.sqrt(3)
S = sympy.sqrt(-3)  # i sqrt(3)

# f = N / D as in `covers.paired_quartic_maps` and `covers.deg3_maps`.
QUARTIC = t ** 2 * (t - 1) ** 2
FIRST = (48 * R3 * QUARTIC, (-2 * t + 1 + R3) * (R3 + 6 * t - 3) ** 3)
SECOND = (QUARTIC, t - (sympy.Rational(1, 2) + R3 / 4))
SHIFT = sympy.Rational(1, 2) - S / 6
CUBIC = ((t - SHIFT) ** 3, sympy.Integer(1))
CUBIC_CONJ = (-((t - sympy.conjugate(SHIFT)) ** 3), sympy.Integer(1))


def _pair(c, d):
    """(a, b) with c = a + b sqrt(d), both rational; flipping sqrt(3) is the
    conjugation of Q(sqrt 3) and of Q(sqrt -3) alike."""
    c = sympy.expand(c)
    conj = sympy.expand(c.subs(R3, -R3))
    a, b = sympy.expand((c + conj) / 2), sympy.expand((c - conj) / (2 * sympy.sqrt(d)))
    assert a.is_Rational and b.is_Rational, c
    return Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))


def _sympy_tuple(factor, d):
    """The monic polynomial `factor` as pairs, constant term first."""
    monic = sympy.Poly(factor, t, extension=sympy.sqrt(d)).monic()
    return tuple(_pair(c, d) for c in reversed(monic.all_coeffs()))


def _oddcovers_tuple(p):
    return tuple((c.a, c.b) if isinstance(c, QuadScalar) else (Fraction(c), Fraction(0))
                 for c in p.coeffs)


def _factors(expr, d):
    """[(irreducible factor, multiplicity)] of a polynomial over Q(sqrt d)."""
    return [(f, k) for f, k in sympy.factor_list(expr, t, extension=sympy.sqrt(d))[1]
            if sympy.degree(f, t) > 0]


def _squarefree_parts(factors, d):
    """{multiplicity: monic squarefree part as pairs}, the irreducible
    factors of each multiplicity multiplied together."""
    parts = {}
    for f, k in factors:
        parts[k] = parts.get(k, 1) * f
    return {k: _sympy_tuple(f, d) for k, f in parts.items()}


def _degree(expr):
    return sympy.degree(sympy.expand(expr), t)


@cache
def sympy_ramification(num, den, d):
    """{(place, index)} by the rule of `ratmap.ramification_data`: Wronskian
    factors prime to the poles at index k + 1, repeated pole factors at index
    k, and infinity at the order of f - f(infinity) there."""
    wronskian = sympy.expand(sympy.diff(num, t) * den - num * sympy.diff(den, t))
    pole_factors = [f for f, _ in _factors(den, d)]
    # irreducible factors: p divides f only when they agree up to a scalar
    prime_to_poles = [(f, k) for f, k in _factors(wronskian, d)
                      if all(sympy.rem(f, p, t, extension=sympy.sqrt(d)) != 0
                             for p in pole_factors)]
    places = {(place, k + 1) for k, place in _squarefree_parts(prime_to_poles, d).items()}
    places |= {(place, k) for k, place in _squarefree_parts(_factors(den, d), d).items()
               if k >= 2}
    degree = max(_degree(num), _degree(den))
    if _degree(den) < degree:
        at_infinity = degree - _degree(den)
    else:
        value = sympy.Poly(num, t).nth(degree) / sympy.Poly(den, t).nth(degree)
        at_infinity = degree - _degree(num - value * den)
    if at_infinity >= 2:
        places.add((INFINITY, at_infinity))
    return places


@cache
def sympy_profile_over_zero(num, den, d):
    """The fiber partition over 0: root multiplicities of N, one per conjugate
    root, and the rest of the degree at infinity."""
    parts = [k for f, k in _factors(num, d) for _ in range(_degree(f))]
    degree = max(_degree(num), _degree(den))
    if sum(parts) < degree:
        parts.append(degree - sum(parts))
    return sorted(parts, reverse=True)


CASES = [
    ("first quartic", 3, FIRST, lambda: paired_quartic_maps()[0]),
    ("second quartic", 3, SECOND, lambda: paired_quartic_maps()[1]),
    ("cubic", -3, CUBIC, lambda: deg3_maps()[0]),
    ("conjugate cubic", -3, CUBIC_CONJ, lambda: deg3_maps()[1]),
]


@pytest.mark.parametrize("d, formula, built", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_ramification_and_fiber_over_zero_match_sympy(d, formula, built):
    f = built()
    ours = {(INFINITY if place == INFINITY else _oddcovers_tuple(place), index)
            for place, index in ramification_data(f)}
    assert ours == sympy_ramification(*formula, d)
    assert fiber_profile(f, 0) == sympy_profile_over_zero(*formula, d)


def test_the_triple_points_sympy_finds():
    # spot values of the recomputation itself, from the covers docstrings
    assert (_sympy_tuple(t - (3 - R3) / 6, 3), 3) in sympy_ramification(*FIRST, 3)
    assert (INFINITY, 3) in sympy_ramification(*SECOND, 3)
    assert sympy_profile_over_zero(*FIRST, 3) == [2, 2]


def test_second_after_moebius_is_first_in_sympy():
    # M fixes 0 and 1 and sends infinity to 1/2 + sqrt(3)/6
    lam = sympy.radsimp(1 / (sympy.Rational(1, 2) + R3 / 6))
    moebius = t / ((1 - lam) + lam * t)
    (n1, d1), (n2, d2) = FIRST, SECOND
    composed = sympy.together(n2.subs(t, moebius) * d1 - n1 * d2.subs(t, moebius))
    assert sympy.expand(sympy.fraction(composed)[0]) == 0
    assert check_paired_quartic_maps() == (True, True)


def test_cubic_reflected_is_its_conjugate_in_sympy():
    assert sympy.expand(CUBIC[0].subs(t, 1 - t) - CUBIC_CONJ[0]) == 0
    assert check_deg3_maps()
