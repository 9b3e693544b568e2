from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oddcovers.poly import (
    Poly,
    discriminant_quadratic,
    gcd,
    squarefree_decomposition,
)

coeff = st.fractions(
    max_denominator=8,
    min_value=Fraction(-9),
    max_value=Fraction(9),
)
polys = st.lists(coeff, min_size=0, max_size=6).map(Poly)


def test_zero_degree_is_none():
    assert Poly().degree is None
    assert Poly([0, 0]).degree is None
    assert Poly([0, 1]).degree == 1


def test_constants_at_any_depth_hash_alike():
    assert Poly([1]) == Poly([Poly([1])]) == 1
    assert len({Poly([1]), Poly([Poly([1])]), 1}) == 1
    assert len({Poly(), Poly([Poly()]), 0}) == 1
    assert hash(Poly([Poly([0, 1]), 2])) == hash(Poly([Poly([0, 1]), Poly([2])]))


def test_divmod_quartic_by_linear():
    # (t-2)^3 (t+2) divided by t-1 leaves remainder -3
    p = Poly([-16, 16, 0, -4, 1])
    q, r = divmod(p, Poly([-1, 1]))
    assert q == Poly([13, -3, -3, 1])
    assert r == Poly([-3])


@given(polys, polys)
def test_divmod_reconstructs(a, b):
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(polys, polys, polys)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


def test_gcd_of_shared_factor():
    t = Poly.x()
    a = (t - 1) ** 2 * (t + 3)
    b = (t - 1) * (t - 5)
    assert gcd(a, b) == t - 1


@given(polys, polys, polys)
def test_gcd_is_monic_common_divisor(a, b, c):
    # c divides both a*c and b*c, so it must divide their gcd as well.
    a, b = a * c, b * c
    g = gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    assert g.leading() == 1
    assert (a % g).is_zero() and (b % g).is_zero()
    if not c.is_zero():
        assert (g % c).is_zero()


def test_discriminant_quadratic():
    assert discriminant_quadratic(Poly([4, -7, 4])) == Fraction(-15)
    assert discriminant_quadratic(Poly([9, -16, 16])) == Fraction(-320)


def test_squarefree_decomposition_recovers_multiplicities():
    t = Poly.x()
    p = (t ** 2) * (t - 1) ** 3 * (t + 2)
    decomp = squarefree_decomposition(p)
    assert decomp == [(t + 2, 1), (t, 2), (t - 1, 3)]
    rebuilt = Poly([1])
    for factor, mult in decomp:
        rebuilt = rebuilt * factor ** mult
    assert rebuilt == p.monic()


def test_root_order():
    t = Poly.x()
    p = (t - 2) ** 3 * (t + 1)
    assert p.root_order(2) == 3
    assert p.root_order(-1) == 1
    assert p.root_order(0) == 0


def test_reversed_coeffs_flip():
    # s^4 * p(1/s) for p = t^4 - 4t^3
    p = Poly([0, 0, 0, -4, 1])
    assert p.reversed_coeffs(4) == Poly([1, -4])


def test_compose_fractional_clears_denominators():
    # p(t) = t^2 + 1 at t = (s+1)/s, homogenized to degree 2
    p = Poly([1, 0, 1])
    s = Poly.x()
    assert p.compose_fractional(s + 1, s, 2) == (s + 1) ** 2 + s ** 2


def test_poly_rejects_float_coefficient():
    with pytest.raises(TypeError, match="float"):
        Poly([0.5, 1])
