"""Maps of the line: the binary-form layer of `oddcovers.ratmap`, checked at
stated points, and the search stack it replaced, kept as test oracles in
`map_oracles` (a RationalMap num/den, the point INFINITY, and
`ramification_data`, which finds the ramification instead of checking it)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from map_oracles import (
    INFINITY,
    Poly,
    QuadScalar,
    RationalMap,
    as_rational_map,
    fiber_profile,
    gcd,
    mobius_fixing_0_1,
    point_indices,
    ramification_data,
    squarefree_decomposition,
    vanishing_order,
)
from oddcovers import covers, ratmap
from oddcovers.covers import deg3_maps, paired_quartic_maps, quartic_cover_map
from oddcovers.poly import IntPoly
from oddcovers.quadratic import form_ring

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


# The maps of covers as the oracle's RationalMaps, dehomogenized at z = 1.
COVERS = [as_rational_map(f) for f in (quartic_cover_map(), *paired_quartic_maps(), *deg3_maps())]


@pytest.mark.parametrize("f", COVERS)
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


@pytest.mark.parametrize("f", COVERS)
def test_ramification_matches_two_path_oracle_on_the_covers(f):
    assert ramification_data(f) == two_path_ramification(f)


# -- maps as pairs of binary forms, checked at stated points -----------------

X, Z = IntPoly.variables(2)


def form(coeffs):
    """sum c_i x^i z^(d-i) for the coefficients c_0..c_d, d = len - 1."""
    d = len(coeffs) - 1
    return sum((c * X ** i * Z ** (d - i) for i, c in enumerate(coeffs)), IntPoly(2))


def t_value(point, d):
    """The point (a : b) of covers as the oracle's t = a/b (a QuadScalar over
    Q(sqrt d), a rational for d = 1), or INFINITY for b = 0."""
    def scalar(c):
        if type(c) is int:
            return c if d == 1 else QuadScalar(c, 0, d)
        return QuadScalar(c.terms.get((0, 0, 0), 0), c.terms.get((0, 0, 1), 0), d)
    a, b = map(scalar, point)
    return INFINITY if b == 0 else a * _invert(b)


def _invert(c):
    return Fraction(1, c) if isinstance(c, int) else c.inverse()


def stated_by_index(places, d):
    """{index: product of t - a/b over the finite stated points}, and the index
    at infinity: the form `by_index` reads the oracle's data in."""
    products, at_infinity = {}, 1
    for point, index in places:
        t = t_value(point, d)
        if t == INFINITY:
            at_infinity = index
        else:
            products[index] = products.get(index, Poly([1])) * Poly([-t, 1])
    return products, at_infinity


CLAIMED = [
    (quartic_cover_map(), covers.quartic_cover_claims(), 1),
    *((f, claims, 3) for f, claims in zip(paired_quartic_maps(), covers.paired_quartic_claims())),
    *((f, claims, -3) for f, claims in zip(deg3_maps(), covers.deg3_claims())),
]


@pytest.mark.parametrize("f, claims, d", CLAIMED, ids=["quartic cover", "first quartic",
                                                        "second quartic", "cubic", "conjugate"])
def test_stated_places_are_what_the_oracle_search_finds(f, claims, d):
    ramification, fibers = claims
    assert ratmap.ramified_exactly_at(f, ramification)
    assert by_index(ramification_data(as_rational_map(f))) == stated_by_index(ramification, d)
    for target, points in fibers:
        assert ratmap.fiber_is(f, target, points)
        value = t_value(target, d)
        assert fiber_profile(as_rational_map(f), value) == sorted(
            (m for _, m in points), reverse=True)
        for point, m in points:
            assert vanishing_order(as_rational_map(f), value, t_value(point, d)) == m


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.tuples(st.lists(small, min_size=d + 1, max_size=d + 1),
                        st.lists(small, min_size=d + 1, max_size=d + 1))))
def test_jacobian_is_the_degree_times_the_wronskian(coeffs):
    # Euler's identity x F_x + z F_z = d F gives J(t, 1) = d (p'q - pq')
    # for p = F(t, 1) and q = G(t, 1)
    F, G = form(coeffs[0]), form(coeffs[1])
    d = len(coeffs[0]) - 1
    p, q = Poly(coeffs[0]), Poly(coeffs[1])
    J = ratmap.jacobian((F, G))
    assert Poly([J.terms.get((i, 2 * d - 2 - i), 0) for i in range(2 * d - 1)]) \
        == d * (p.derivative() * q - p * q.derivative())
    assert all(sum(k) == 2 * d - 2 for k in J.terms)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-4, max_value=4),
                          st.integers(min_value=1, max_value=3)),
                min_size=1, max_size=4, unique_by=lambda p: p[0]),
       st.integers(min_value=1, max_value=3), st.integers(min_value=-3, max_value=3))
def test_fiber_of_split_forms(roots, at_infinity, c):
    # F = c z^e prod (x - a z)^m has the fiber {a: m, infinity: e} over 0
    if c == 0:
        return
    F = c * Z ** at_infinity
    for a, m in roots:
        F = F * (X - a * Z) ** m
    d = sum(m for _, m in roots) + at_infinity
    G = X ** d + Z ** d + X * Z ** (d - 1)
    points = [((a, 1), m) for a, m in roots] + [((1, 0), at_infinity)]
    assert ratmap.fiber_is((F, G), (0, 1), points)
    wrong = [(points[0][0], points[0][1] + 1)] + points[1:]
    assert not ratmap.fiber_is((F, G), (0, 1), wrong)
    assert not ratmap.fiber_is((F, G), (0, 1), points[1:])
    assert not ratmap.fiber_is((F, G), (0, 1), points + [points[0]])


@settings(max_examples=80, deadline=None)
@given(st.tuples(small, small, small, small), st.tuples(small, small, small, small),
       st.integers(min_value=2, max_value=4))
def test_stated_point_check_agrees_with_the_search(inner, outer, d):
    # f = N o (t -> t^d) o M for integer Moebius maps M, N ramifies exactly
    # at the two points M sends to 0 and infinity, each of index d
    p, q, r, u = inner
    a, b, c, e = outer
    if p * u - q * r == 0 or a * e - b * c == 0:
        return
    X1, Z1 = p * X + q * Z, r * X + u * Z
    f = (a * X1 ** d + b * Z1 ** d, c * X1 ** d + e * Z1 ** d)
    places = [((-q, p), d), ((-u, r), d)]
    assert ratmap.ramified_exactly_at(f, places)
    assert by_index(ramification_data(as_rational_map(f))) == stated_by_index(places, 1)
    assert not ratmap.ramified_exactly_at(f, [((-q, p), d + 1), places[1]])
    assert not ratmap.ramified_exactly_at(f, places[1:])
    # the point M sends to 1 instead of the one it sends to 0
    assert not ratmap.ramified_exactly_at(f, [((u - q, p - r), d), places[1]])
    # with a common factor of F and G, no statement fits
    line = X - Z
    common = (f[0] * line, f[1] * line)
    assert not ratmap.ramified_exactly_at(common, places)
    assert not ratmap.ramified_exactly_at(common, places + [((1, 1), 2)])


def test_points_and_values_compare_projectively():
    assert ratmap.same_point((2, 4), (1, 2)) and ratmap.same_point((1, 0), (-5, 0))
    assert not ratmap.same_point((1, 0), (0, 1))
    f = quartic_cover_map()
    # t = 1 is a pole, t = 2 goes to -16, infinity to infinity
    assert ratmap.same_point(ratmap.value_at(f, (1, 1)), (1, 0))
    assert ratmap.same_point(ratmap.value_at(f, (4, 2)), (-16, 1))
    assert ratmap.same_point(ratmap.value_at(f, (1, 0)), (1, 0))
    x, z, r = form_ring(3).variables(3)
    # (1 + sqrt3)/2 = 1/(sqrt3 - 1), and not 2/(sqrt3 - 1)
    assert ratmap.same_point((1 + r, 2), (1, r - 1))
    assert not ratmap.same_point((1 + r, 2), (2, r - 1))


def test_maps_compare_projectively_and_compose_linearly():
    F, G = f = quartic_cover_map()
    assert ratmap.same_map(f, (3 * F, 3 * G)) and not ratmap.same_map(f, (3 * F, G))
    # f(2 - t) = -f(t) - 16, and the reflection t -> 2 - t is an involution
    reflected = ratmap.compose(f, (2 * Z - X, Z))
    assert ratmap.same_map(reflected, (-F - 16 * G, G))
    assert ratmap.compose(reflected, (2 * Z - X, Z)) == f


@pytest.mark.parametrize("point", [(5, 1), (2, 3), (1, 0)])
def test_mobius_fixing_0_1_as_forms(point):
    images = ratmap.mobius_fixing_0_1(point, X, Z)
    m = (images[0], images[1])
    for source, target in (((0, 1), (0, 1)), ((1, 1), (1, 1)), ((1, 0), point)):
        assert ratmap.same_point(ratmap.value_at(m, source), target)


def test_wrong_claims_fail_the_checks():
    f = quartic_cover_map()
    ramification, fibers = covers.quartic_cover_claims()
    assert ratmap.ramified_exactly_at(f, ramification)
    planted = {
        "wrong index": (((0, 1), 2),) + ramification[1:],
        "missing point": ramification[1:],
        "wrong point": (((3, 1), 3),) + ramification[1:],
        "repeated point": ramification + (((0, 2), 1),),
    }
    for name, places in planted.items():
        assert not ratmap.ramified_exactly_at(f, places), name
    # a common factor x - 5z of F and G: the check fails whether or not its
    # point is stated, at any index
    line = X - 5 * Z
    common = (f[0] * line, f[1] * line)
    for extra in ((), (((5, 1), 2),), (((5, 1), 3),)):
        assert not ratmap.ramified_exactly_at(common, ramification + extra)
    # a wrong fiber multiplicity
    target, points = fibers[0]
    assert ratmap.fiber_is(f, target, points)
    assert not ratmap.fiber_is(f, target, (((0, 1), 2), ((4, 1), 2)))
    assert not ratmap.fiber_is(f, target, (((0, 1), 3), ((4, 1), 1), ((7, 1), 1)))


def test_a_constant_map_fails_every_statement():
    # (2x : x) is the constant 2: its Jacobian and its fiber form over 2 are
    # 0, which is no nonzero multiple of any stated product
    f = (2 * X, X)
    assert ratmap.jacobian(f).is_zero()
    for places in ([((1, 1), 2)], [((1, 1), 2), ((3, 1), 2)]):
        assert not ratmap.ramified_exactly_at(f, places)
    assert not ratmap.fiber_is(f, (2, 1), [((1, 1), 1)])
