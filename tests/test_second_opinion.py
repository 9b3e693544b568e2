"""A second opinion on the certified facts, recomputed in sympy.

The maps over Q, Q(sqrt 3) and Q(sqrt -3) certified by `covers` are written
down again here from their formulas, never taken from `oddcovers` objects:
sympy factors their Wronskians and fibers over the extension
(`factor_list(..., extension=...)`) and checks their Moebius and involution
identities. What is compared with the package is what each check states:
its ramification points with their indices and its fibers with their
multiplicities (`covers.quartic_cover_claims` and the like), each point
(a : b) read as t = a/b in sympy, as tuples of rational coefficient pairs
(a, b) for a + b sqrt(d). The same goes for the two one-parameter families of
`covers` (derivative factorizations and the discriminants -15 and -320) and
for the Weierstrass identities of `weier`: the derivatives G' and G~' under
D^2 = 4(P-e1)(P-e2)(P-e3), the discriminants of their quadratic factors, the
six square-period specializations and the reduction by D^2 itself on drawn
products and powers, compared with the `WeierExpr` terms as dicts
{(i, j, k, l): int} of c P^i e1^j e2^k D^l. The counting checks
`bound_arithmetic` and `admissible_tally` are redone in plain arithmetic
from their citations. A wrong stated point, or a defect in the one `IntPoly`
kernel under those checks, would have to be repeated in sympy to go unseen
(McKeeman, "Differential testing for software", Digital Technical Journal
10(1), 1998).
"""

from fractions import Fraction
from functools import cache

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from oddcovers import checks, covers, weier
from oddcovers.covers import (
    check_deg3_maps,
    check_paired_quartic_maps,
    check_quartic_cover,
    family_condition_deg5_alpha1,
    family_condition_deg5_alpha2,
)
from oddcovers.poly import IntPoly, discriminant

t = sympy.Symbol("t")
R3 = sympy.sqrt(3)
S = sympy.sqrt(-3)  # i sqrt(3)
INFINITY = "infinity"  # the point t = infinity, in the sets compared here

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
    """{(place, index)}: Wronskian factors prime to the poles at index k + 1,
    repeated pole factors at index k, and infinity at the order of
    f - f(infinity) there; the finite places of one index as one monic
    squarefree polynomial."""
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
def sympy_fiber_over_zero(num, den, d):
    """{(place, multiplicity)} of the fiber over 0: the roots of N, those of
    one multiplicity as one monic squarefree polynomial, and infinity at the
    rest of the degree."""
    places = {(place, k) for k, place in _squarefree_parts(_factors(num, d), d).items()}
    degree = max(_degree(num), _degree(den))
    if _degree(num) < degree:
        places.add((INFINITY, degree - _degree(num)))
    return places


def _profile(places):
    """The partition of the degree a set of places gives."""
    return sorted((k for place, k in places
                   for _ in range(1 if place == INFINITY else len(place) - 1)), reverse=True)


def _scalar(c, d):
    """An int, or a scalar of `quadratic.form_ring(d)`, as a sympy number."""
    if type(c) is int:
        return sympy.Integer(c)
    assert all(k[:2] == (0, 0) for k in c.terms), c
    return c.terms.get((0, 0, 0), 0) + c.terms.get((0, 0, 1), 0) * sympy.sqrt(d)


def stated_places(stated, d):
    """The stated (point, k) pairs of a check, each point (a : b) read as
    t = a/b, in the form of `sympy_ramification`."""
    products, places = {}, set()
    for (a, b), k in stated:
        a, b = _scalar(a, d), _scalar(b, d)
        if b == 0:
            places.add((INFINITY, k))
        else:
            products[k] = products.get(k, 1) * (t - sympy.radsimp(a / b))
    return places | {(_sympy_tuple(p, d), k) for k, p in products.items()}


CASES = [
    ("first quartic", 3, FIRST, lambda: covers.paired_quartic_claims()[0]),
    ("second quartic", 3, SECOND, lambda: covers.paired_quartic_claims()[1]),
    ("cubic", -3, CUBIC, lambda: covers.deg3_claims()[0]),
    ("conjugate cubic", -3, CUBIC_CONJ, lambda: covers.deg3_claims()[1]),
]


def _stated_fiber(claims, value):
    [points] = [points for target, points in claims[1] if target == value]
    return points


@pytest.mark.parametrize("d, formula, claimed", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_ramification_and_fiber_over_zero_match_sympy(d, formula, claimed):
    claims = claimed()
    assert stated_places(claims[0], d) == sympy_ramification(*formula, d)
    over_zero = stated_places(_stated_fiber(claims, (0, 1)), d)
    assert over_zero == sympy_fiber_over_zero(*formula, d)
    assert _profile(over_zero) == _profile(sympy_fiber_over_zero(*formula, d))


def test_the_triple_points_sympy_finds():
    # spot values of the recomputation itself, from the covers docstrings
    assert (_sympy_tuple(t - (3 - R3) / 6, 3), 3) in sympy_ramification(*FIRST, 3)
    assert (INFINITY, 3) in sympy_ramification(*SECOND, 3)
    assert _profile(sympy_fiber_over_zero(*FIRST, 3)) == [2, 2]


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


# -- the quartic cover over Q ----------------------------------------------

# f = N / D as in `covers.quartic_cover_map`; over Q, written with d = 1
QUARTIC_COVER = (t ** 3 * (t - 4), t - 1)


def test_quartic_cover_matches_sympy():
    num, den = QUARTIC_COVER
    claims = covers.quartic_cover_claims()
    # triple points exactly at 0, 2 (the monic t(t-2)) and infinity
    places = sympy_ramification(num, den, 1)
    assert places == {(_sympy_tuple(t * (t - 2), 1), 3), (INFINITY, 3)}
    assert stated_places(claims[0], 1) == places
    # the fiber over c is the fiber over 0 of N - cD over D, and the fiber
    # over infinity that of D over N; (t-2)^3 (t+2) is the one over -16
    fibers = {(0, 1): (num, den), (-16, 1): (num + 16 * den, den), (1, 0): (den, num)}
    assert {target for target, _ in claims[1]} == set(fibers)
    for value, (n, d) in fibers.items():
        theirs = sympy_fiber_over_zero(sympy.expand(n), d, 1)
        assert _profile(theirs) == [3, 1]
        assert stated_places(_stated_fiber(claims, value), 1) == theirs
    assert sympy.factor(num + 16 * den) == (t - 2) ** 3 * (t + 2)
    # the involution f(2-t) = -f(t) - 16 pairing the branch values 0 and -16
    assert sympy.cancel((num / den).subs(t, 2 - t) + num / den + 16) == 0
    assert check_quartic_cover()


# -- the counting checks -----------------------------------------------------

def test_counting_checks_match_their_citations():
    by_name = {check.name: check for check in checks.CHECKS}
    bound, tally = by_name["bound_arithmetic"], by_name["admissible_tally"]
    # 4(5 - 2*2) = 4 per spin structure over 4 spin structures, and the
    # Veronese degree 2^2 = 4 per spin: 16 both ways
    assert "4(5-2*2) = 4 per spin structure, times 4 spins = 16" in bound.citation
    assert "Veronese degree 2^2 = 4 per spin, total 16" in bound.citation
    assert 4 * (5 - 2 * 2) == 4 and 4 * 4 == 16 and 2 ** 2 * 4 == 16
    assert bound.run(5) == (True, "")
    # the boundary configurations give 4 + 8 + 4 in degree 4 and 8 + 8 in degree 5
    assert "4+8+4 in degree 4 and 8+8 in degree 5" in tally.citation
    deg4, deg5 = 4 + 8 + 4, 8 + 8
    assert tally.run(5) == (True, "deg4 = %d, deg5 = %d" % (deg4, deg5))
    assert deg4 == deg5 == 16


# -- the one-parameter families of covers ----------------------------------

b = sympy.Symbol("b")


def _in_t_and_b(expr):
    """A polynomial in t and b as the `IntPoly` of `covers`."""
    return IntPoly(2, {key: int(c) for key, c in sympy.Poly(expr, t, b).as_dict().items()})


@pytest.mark.parametrize("family, cofactor, quadratic, scale, condition, value, check", [
    # t^3 (t-1)(t-b): f' = t^2 (5t^2 - 4(1+b)t + 3b), disc 4(4b^2 - 7b + 4)
    (t ** 3 * (t - 1) * (t - b), t ** 2, 5 * t ** 2 - 4 * (1 + b) * t + 3 * b,
     4, 4 * b ** 2 - 7 * b + 4, -15, family_condition_deg5_alpha1),
    # t^2 (t-1)^2 (t-b): f' = (t^2-t)(5t^2 - (3+4b)t + 2b), disc 16b^2 - 16b + 9
    (t ** 2 * (t - 1) ** 2 * (t - b), t ** 2 - t, 5 * t ** 2 - (3 + 4 * b) * t + 2 * b,
     1, 16 * b ** 2 - 16 * b + 9, -320, family_condition_deg5_alpha2),
], ids=["alpha1", "alpha2"])
def test_family_discriminants_match_sympy(family, cofactor, quadratic, scale,
                                          condition, value, check):
    assert sympy.expand(sympy.diff(family, t) - cofactor * quadratic) == 0
    disc = sympy.discriminant(quadratic, t)
    assert sympy.expand(disc - scale * condition) == 0
    # the condition has two distinct (non-real) roots
    assert sympy.discriminant(condition, b) == value
    assert len(sympy.roots(condition, b)) == 2
    # the IntPoly layer computes the same discriminant, in b over Z
    ours = discriminant(_in_t_and_b(quadratic), 0)
    assert ours == _in_t_and_b(disc)
    assert check()


# -- the Weierstrass identities --------------------------------------------

P, D, e1, e2 = sympy.symbols("P D e1 e2")
e3 = -e1 - e2
WEIER_CUBIC = 4 * (P - e1) * (P - e2) * (P - e3)
G2 = 4 * (e1 ** 2 + e1 * e2 + e2 ** 2)


def _derive(f):
    """The derivation P' = D, D' = 6P^2 - g2/2, on a rational function of P, D."""
    return sympy.diff(f, P) * D + sympy.diff(f, D) * (6 * P ** 2 - G2 / 2)


def _vanishes_on_the_curve(expr):
    """Whether the rational function expr of P, D is 0 once D^2 = the cubic."""
    numerator = sympy.expand(sympy.fraction(sympy.together(expr))[0])
    return sympy.rem(numerator, D ** 2 - WEIER_CUBIC, D) == 0


def _terms(expr):
    """expr as the dict {(i, j, k, l): int} of its terms c P^i e1^j e2^k D^l."""
    return {key: int(c) for key, c in sympy.Poly(expr, P, e1, e2, D).as_dict().items()}


def _normal_form(expr):
    """The polynomial expr of P, D reduced by D^2 = the cubic to even + odd*D,
    as the term dict of that remainder."""
    return _terms(sympy.rem(sympy.expand(expr), D ** 2 - WEIER_CUBIC, D))


# The quadratic factors of G' and G~', as their docstrings and citations state them.
G_FACTOR = 2 * (3 * P ** 2 + 2 * (e2 - e1) * P - 3 * e1 ** 2 - e1 * e2 + e2 ** 2)
GTILDE_FACTOR = 6 * P ** 2 - 2 * (e1 ** 2 + e1 * e2 + e2 ** 2) + 4 * (P - e2) * (P - e3)
DELTA0 = 10 * e1 ** 2 + e1 * e2 - 2 * e2 ** 2
GTILDE_DELTA = 16 * (5 * e1 ** 2 + 6 * e2 ** 2 + e3 ** 2 + 5 * e1 * e2 - 8 * e2 * e3)


def test_weierstrass_derivatives_match_sympy():
    # (D^2)' = 2 D D' is the derivative of the cubic
    assert _vanishes_on_the_curve(2 * D * _derive(D) - _derive(WEIER_CUBIC))
    # G = D (P-e2)/(P-e1): G' = ((P-e2)/(P-e1)) * G_FACTOR, and
    # G_FACTOR = D' + 4(e2-e1)(P-e3)
    g = D * (P - e2) / (P - e1)
    assert _vanishes_on_the_curve(_derive(g) - (P - e2) / (P - e1) * G_FACTOR)
    assert sympy.expand(G_FACTOR - (_derive(D) + 4 * (e2 - e1) * (P - e3))) == 0
    # G~ = D (P-e1): G~' = (P-e1) * GTILDE_FACTOR
    assert _vanishes_on_the_curve(_derive(D * (P - e1)) - (P - e1) * GTILDE_FACTOR)
    # the derivation itself, in normal form, on the pieces of G and G~
    for ours, expr in ((weier.P - weier.E1, P - e1),
                       (weier.D * (weier.P - weier.E2), D * (P - e2)),
                       (weier.D * (weier.P - weier.E1), D * (P - e1)),
                       (weier.CUBIC + weier.D * weier.P * weier.P, WEIER_CUBIC + D * P ** 2)):
        assert ours.derive().terms == _normal_form(_derive(expr))
    # the same quadratics as weier's sparse integer polynomials
    assert weier.G_QUADRATIC.terms == _terms(G_FACTOR)
    assert weier.GTILDE_QUADRATIC.terms == _terms(GTILDE_FACTOR)
    assert weier.CUBIC.terms == _terms(WEIER_CUBIC)
    assert weier.PSECOND.terms == _terms(6 * P ** 2 - G2 / 2)


def test_weierstrass_discriminants_match_sympy():
    assert sympy.expand(sympy.discriminant(G_FACTOR, P) - 16 * DELTA0) == 0
    assert sympy.expand(sympy.discriminant(GTILDE_FACTOR, P) - GTILDE_DELTA) == 0
    assert discriminant(weier.G_QUADRATIC, 0).terms == _terms(16 * DELTA0)
    assert weier.DELTA0.terms == _terms(DELTA0)
    assert discriminant(weier.GTILDE_QUADRATIC, 0).terms == _terms(GTILDE_DELTA)
    assert weier.GTILDE_DELTA.terms == _terms(GTILDE_DELTA)


# Terms {(i, j, k, l): c} of c P^i e1^j e2^k D^l, with D^l of any degree.
raw_terms = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=1),
              st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=5)),
    st.integers(min_value=-3, max_value=3), max_size=3)


def _from_terms(terms):
    return sum((c * P ** i * e1 ** j * e2 ** k * D ** l
                for (i, j, k, l), c in terms.items()), sympy.Integer(0))


@settings(max_examples=40, deadline=None)
@given(raw_terms, raw_terms, st.integers(min_value=0, max_value=4))
def test_weierstrass_reduction_matches_sympy(x, y, k):
    # the WeierExpr reduction by D^2 = the cubic is sympy's remainder on
    # division by D^2 - cubic, for raw terms, products and powers alike
    ours_x, ours_y = weier.WeierExpr(4, x), weier.WeierExpr(4, y)
    raw_x, raw_y = _from_terms(x), _from_terms(y)
    assert ours_x.terms == _normal_form(raw_x)
    assert (ours_x * ours_y).terms == _normal_form(raw_x * raw_y)
    assert (ours_x ** k).terms == _normal_form(raw_x ** k)


@pytest.mark.parametrize("expr, ours, values", [
    (DELTA0, weier.DELTA0, (-2 * e2 ** 2, 10 * e1 ** 2, 7 * e1 ** 2)),
    (GTILDE_DELTA, weier.GTILDE_DELTA, (240 * e2 ** 2, 96 * e1 ** 2, 96 * e1 ** 2)),
], ids=["Delta0", "Gtilde_Delta"])
def test_square_period_specializations_match_sympy(expr, ours, values):
    # e1 = 0, e2 = 0 and e3 = 0 (e2 = -e1), in weier.SPECIALIZATION_LABELS order
    substitutions = ({e1: 0}, {e2: 0}, {e2: -e1})
    ourselves = ((0, weier.E2), (weier.E1, 0), (weier.E1, -weier.E1))
    for subs, (x, y), value in zip(substitutions, ourselves, values):
        special = sympy.expand(expr.subs(subs))
        assert special == value
        assert len(sympy.Add.make_args(special)) == 1 and special != 0
        assert ours.substitute((weier.P, x, y, weier.D)).terms == _terms(special)
