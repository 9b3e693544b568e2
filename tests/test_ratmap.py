from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oddcovers.covers import deg3_maps, paired_quartic_maps, quartic_cover_map
from oddcovers.poly import Poly, gcd, squarefree_decomposition
from oddcovers.ratmap import (
    INFINITY,
    RationalMap,
    fiber_profile,
    mobius_fixing_0_1,
    point_indices,
    ramification_data,
    vanishing_order,
)

T = Poly.x()


def test_construction_cancels_and_normalizes():
    f = RationalMap((T - 1) * (T - 2), 2 * (T - 1) * (T - 3))
    assert f.num == Fraction(1, 2) * (T - 2)
    assert f.den == (T - 3).monic()
    assert f.degree == 1


def hurwitz_sum(f):
    """sum(index - 1) over every ramification point of f, conjugates counted."""
    return sum(index - 1 for index in point_indices(ramification_data(f)))


def test_square_map():
    assert ramification_data(RationalMap(T * T)) == [(T, 2), (INFINITY, 2)]


def test_quartic_cover_ram_scheme():
    f = RationalMap(T ** 3 * (T - 4), T - 1)
    assert ramification_data(f) == [(T * (T - 2), 3), (INFINITY, 3)]


def test_family_member_critical_factor():
    b = Fraction(7)
    f = RationalMap(T ** 3 * (T - 1) * (T - b))
    critical = (5 * T ** 2 - 4 * (1 + b) * T + 3 * b).monic()
    assert ramification_data(f) == [(critical, 2), (T, 3), (INFINITY, 5)]


def test_vanishing_orders_of_quartic_cover():
    f = RationalMap(T ** 3 * (T - 4), T - 1)
    assert vanishing_order(f, 0, 0) == 3
    assert vanishing_order(f, -16, 2) == 3
    assert vanishing_order(f, INFINITY, INFINITY) == 3
    assert vanishing_order(f, 0, 5) == 0
    assert vanishing_order(f, INFINITY, 1) == 1


def test_fiber_profiles_of_quartic_cover():
    f = RationalMap(T ** 3 * (T - 4), T - 1)
    for value in (0, -16, INFINITY):
        assert fiber_profile(f, value) == [3, 1]
    assert fiber_profile(f, 1) == [1, 1, 1, 1]


def test_fiber_profile_with_visible_double_points():
    b = Fraction(7)
    f = RationalMap(T ** 2 * (T - 1) ** 2 * (T - b))
    assert fiber_profile(f, 0) == [2, 2, 1]


def test_ramification_at_a_multiple_pole():
    f = RationalMap(Poly([1]), T ** 3)
    data = ramification_data(f)
    assert (T, 3) in data and (INFINITY, 3) in data
    assert hurwitz_sum(f) == 4


def test_evaluate_and_flip():
    f = RationalMap(T ** 3 * (T - 4), T - 1)
    assert f(2) == -16
    assert f(1) == INFINITY
    assert f(INFINITY) == INFINITY
    assert vanishing_order(f, f(INFINITY), INFINITY) == 3


def test_compose_source_with_reflection():
    f = RationalMap(T ** 3 * (T - 4), T - 1)
    reflected = f.compose_source(RationalMap(Poly([2, -1])))
    assert reflected == RationalMap(-f.num - 16 * f.den, f.den)


def test_mobius_fixing_0_1():
    m = mobius_fixing_0_1(Fraction(5))
    assert m(0) == 0 and m(1) == 1 and m(INFINITY) == 5


small = st.integers(min_value=-4, max_value=4)


@settings(max_examples=80, deadline=None)
@given(st.lists(small, min_size=2, max_size=5), st.lists(small, min_size=1, max_size=5))
def test_riemann_hurwitz_on_random_maps(num, den):
    p, q = Poly(num), Poly(den)
    if p.is_zero() or q.is_zero():
        return
    f = RationalMap(p, q)
    if f.is_constant():
        return
    assert hurwitz_sum(f) == 2 * f.degree - 2


@settings(max_examples=50, deadline=None)
@given(st.lists(small, min_size=2, max_size=5), st.lists(small, min_size=1, max_size=4),
       st.integers(min_value=-3, max_value=3))
def test_profile_sums_to_degree(num, den, value):
    p, q = Poly(num), Poly(den)
    if p.is_zero() or q.is_zero():
        return
    f = RationalMap(p, q)
    if f.is_constant():
        return
    assert sum(fiber_profile(f, value)) == f.degree


def _flip(f):
    """Oracle: the map t -> f(1/t), from both coefficient lists reversed after
    padding them to deg f."""
    d = f.degree
    return RationalMap(Poly([f.num[d - i] for i in range(d + 1)]),
                       Poly([f.den[d - i] for i in range(d + 1)]))


def _flipped_order(f, value):
    """Oracle: order of f - value at infinity, read at 0 on the flipped map."""
    g = _flip(f)
    fib = g.den if value == INFINITY else g.num - value * g.den
    return fib.root_order(0)


def assert_infinity_matches_flip(f, finite_value):
    at_infinity = _flip(f)(0)
    assert f(INFINITY) == at_infinity
    assert vanishing_order(f, f(INFINITY), INFINITY) == _flipped_order(f, at_infinity)
    if finite_value == at_infinity:
        finite_value = finite_value + 1
    for value in (at_infinity, finite_value, INFINITY):
        assert vanishing_order(f, value, INFINITY) == _flipped_order(f, value)


@settings(max_examples=80, deadline=None)
@given(st.lists(small, min_size=2, max_size=5), st.lists(small, min_size=1, max_size=5),
       small)
def test_infinity_by_degrees_matches_the_flip_on_random_maps(num, den, value):
    p, q = Poly(num), Poly(den)
    if p.is_zero() or q.is_zero():
        return
    f = RationalMap(p, q)
    if f.is_constant():
        return
    assert_infinity_matches_flip(f, value)


@pytest.mark.parametrize("f", [quartic_cover_map(), *paired_quartic_maps(), *deg3_maps()])
def test_infinity_by_degrees_matches_the_flip_on_the_covers(f):
    assert_infinity_matches_flip(f, 0)


def test_constant_map_rejected():
    with pytest.raises(ValueError):
        ramification_data(RationalMap(Poly([5])))


def two_path_ramification(f):
    """Oracle: ramification by two computations. The Wronskian with every pole
    factor stripped gives index k + 1 at a root of order k, and the
    denominator's factors of multiplicity m >= 2 give the poles of index m."""
    w = f.wronskian().monic()
    while True:
        g = gcd(w, f.den)
        if not (g.degree and g.degree > 0):
            break
        w = (w // g).monic()
    data = [(factor, mult + 1) for factor, mult in squarefree_decomposition(w)]
    data += [(factor, mult) for factor, mult in squarefree_decomposition(f.den) if mult >= 2]
    at_infinity = vanishing_order(f, f(INFINITY), INFINITY)
    if at_infinity >= 2:
        data.append((INFINITY, at_infinity))
    return data


def by_index(data):
    """{index: product of the finite places of that index}, and the index at
    infinity (1 when it is unramified)."""
    products, at_infinity = {}, 1
    for place, index in data:
        if place == INFINITY:
            at_infinity = index
        else:
            products[index] = products.get(index, Poly([1])) * place
    return products, at_infinity


@settings(max_examples=80, deadline=None)
@given(st.lists(small, min_size=1, max_size=5), st.lists(small, min_size=1, max_size=3),
       small, st.sampled_from([2, 3]))
def test_ramification_matches_two_path_oracle_at_multiple_poles(num, rest, a, m):
    # a pole of order m at a, unless num cancels part of it
    p, r = Poly(num), Poly(rest)
    if p.is_zero() or r.is_zero():
        return
    f = RationalMap(p, (T - a) ** m * r)
    if f.is_constant():
        return
    assert by_index(ramification_data(f)) == by_index(two_path_ramification(f))


@pytest.mark.parametrize("f", [quartic_cover_map(), *paired_quartic_maps(), *deg3_maps()])
def test_ramification_matches_two_path_oracle_on_the_covers(f):
    assert ramification_data(f) == two_path_ramification(f)
