"""The operator contract every exact ring class inherits from RingElement,
and equality across the IntPoly classes."""

import operator
from decimal import Decimal
from fractions import Fraction

import pytest

from hypothesis import given, strategies as st

from map_oracles import Poly, QuadScalar
from oddcovers.poly import IntPoly
from oddcovers.quadratic import form_ring
from oddcovers.schubert import SchubertVector
from oddcovers.series import binomial_series
from oddcovers.weier import E1, E2, D, P, WeierExpr
from schubert_helpers import sigma
from series_oracles import Series

T, B = IntPoly.variables(2)
X3, Z3, R3 = form_ring(3).variables(3)

# (x, y, unit): two elements of one ring and its unit. The unit is the int 1
# exactly for the classes that coerce ints.
CASES = {
    "Poly": (Poly([1, 2, Fraction(1, 3)]), Poly([-4, 0, 5, 1]), 1),
    # 1 - 2w + 5w^2 + w^3/2: int numerators over one denominator
    "Series": (Series([2, -4, 10, 1], 2), Series([0, 3, -7, 2]), 1),
    "QuadScalar": (QuadScalar(1, 2, 3), QuadScalar(Fraction(-1, 2), 5, 3), 1),
    "SchubertVector": (
        SchubertVector(6, {(1, 0): 2, (1, 1): -1}),
        SchubertVector(6, {(2, 0): 3, (0, 0): 1}),
        SchubertVector.unit(6),
    ),
    # an integer polynomial in t and b, as the covers families compute them
    "IntPoly": (T * T * B - 2 * B + 1, 5 * T - 3 * B * B, 1),
    # the integer polynomials in P, E1, E2 of weier: free of D
    "WeierPoly": (P * P - 2 * E1, E1 * E2 + 3 * P, 1),
    # even + odd*D, reduced by D^2 = the cubic
    "WeierExpr": (P - E1 + (E2 + 1) * D, E2 + 2 * P * D, 1),
    # binary forms over Z[sqrt 3], reduced by r^2 = 3
    "QuadForm": (X3 * X3 - 2 * R3 * Z3 + 1, (3 - R3) * X3 + 6 * Z3, 1),
}

elements = pytest.mark.parametrize("x, y, unit", CASES.values(), ids=CASES.keys())
INT_CASES = {name: case for name, case in CASES.items() if case[2] == 1}


@elements
def test_setting_an_attribute_raises(x, y, unit):
    # the first slot along the MRO: a subclass of ring.SparseElement adds none
    slot = next(name for cls in type(x).__mro__ for name in getattr(cls, "__slots__", ()))
    with pytest.raises(AttributeError, match="%s is immutable" % type(x).__name__):
        setattr(x, slot, None)


@elements
def test_subtraction_is_adding_the_negative(x, y, unit):
    assert x - y == x + (-y)
    assert y - x == -(x - y)
    assert (x - x) + y == y


@pytest.mark.parametrize("x, y, unit", INT_CASES.values(), ids=INT_CASES.keys())
def test_reflected_subtraction_of_an_int(x, y, unit):
    assert 3 - x == -(x - 3)
    assert (3 - x) + x == 3


def _sparse(cls, n, key):
    return st.dictionaries(key, st.integers(-4, 4), max_size=5).map(
        lambda terms: cls(n, terms))


# Random elements of each SparseElement ring, with whether it coerces ints.
SPARSE = {
    "IntPoly": (_sparse(IntPoly, 2, st.tuples(*[st.integers(0, 3)] * 2)), True),
    # D^2 and D^3 reduce by the cubic
    "WeierExpr": (_sparse(WeierExpr, 4, st.tuples(*[st.integers(0, 3)] * 4)), True),
    "QuadForm": (_sparse(form_ring(3), 3, st.tuples(*[st.integers(0, 3)] * 3)), True),
    "SchubertVector": (_sparse(SchubertVector, 6, st.tuples(*[st.integers(0, 5)] * 2).map(
        lambda ab: (max(ab), min(ab)))), False),
}


@pytest.mark.parametrize("name", SPARSE)
@given(data=st.data(), k=st.integers(-3, 3))
def test_sparse_subtraction_is_adding_the_negative(name, data, k):
    ring, coerces_ints = SPARSE[name]
    a, b = data.draw(ring), data.draw(ring)
    for difference, expected in ((a - b, a + (-b)), (b - a, -(a - b)), (a - a, 0 * a)):
        assert type(difference) is type(a) and difference.n == a.n
        assert difference.terms == expected.terms and 0 not in difference.terms.values()
    if coerces_ints:
        assert (a - k).terms == (a + (-k)).terms
        assert (k - a).terms == (-(a - k)).terms
        assert type(k - a) is type(a)
    else:
        with pytest.raises(TypeError):
            a - k
        with pytest.raises(TypeError):
            k - a


@elements
def test_powers_by_repeated_multiplication(x, y, unit):
    assert x ** 0 == unit
    assert x ** 0 * x == x
    assert x ** 1 == x
    assert x ** 3 == x * x * x
    assert x ** 6 == (x * x * x) * (x * x * x)


@elements
def test_negative_power_raises(x, y, unit):
    with pytest.raises(ValueError, match="negative power of a %s" % type(x).__name__):
        x ** -1


@elements
def test_foreign_operand_raises_type_error(x, y, unit):
    with pytest.raises(TypeError):
        x - "a"
    with pytest.raises(TypeError):
        "a" - x


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_schubert_ambients_must_match(op):
    x = sigma(1, 0, 5)
    y = sigma(1, 0, 6)
    with pytest.raises(ValueError, match="mismatched ambient"):
        op(x, y)


def test_schubert_classes_in_different_ambients_are_unequal():
    # the point class of G(2,2) and the unit of G(2,3) share their terms
    assert SchubertVector.unit(2).terms == SchubertVector.unit(3).terms
    assert SchubertVector.unit(2) != SchubertVector.unit(3)
    assert not SchubertVector.unit(2) == SchubertVector.unit(3)
    assert sigma(0, 0, 5) != sigma(0, 0, 6) and sigma(0, 0, 5) == sigma(0, 0, 5)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_int_polys_in_different_variable_counts_do_not_mix(op):
    (x,) = IntPoly.variables(1)
    p = IntPoly.variables(3)[0]
    with pytest.raises(ValueError, match="mismatched variable counts 2 vs 1"):
        op(T, x)
    with pytest.raises(ValueError, match="mismatched variable counts 3 vs 2"):
        op(p, T)
    # non-constants in different variable counts are unequal; constants
    # compare by their int values, as they hash
    assert T != x and IntPoly(2) == IntPoly(3) and x + 2 != T + 2


def test_int_operands_keep_the_variable_count():
    for q in (IntPoly(2), T, IntPoly(3)):
        for value in (3 + q, q + 3, 3 - q, q - 3, 3 * q, q * 3, sum([q, q]), q ** 0):
            assert type(value) is IntPoly and value.n == q.n
            assert all(len(k) == q.n for k in value.terms)
    assert 3 + IntPoly(2) == 3 and (3 + IntPoly(2)).terms == {(0, 0): 3}


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_poly_and_series_do_not_mix(op):
    # a Series is not a Poly scalar, whatever attributes it has
    p, s = Poly([1, 2]), Series([1, 1])
    with pytest.raises(TypeError):
        op(p, s)
    with pytest.raises(TypeError):
        op(s, p)


# The src constructors and the Series oracle take ints alone; the Q oracles
# of map_oracles take ints and Fractions.
INT_CONSTRUCTORS = {
    "Series": lambda c: Series([1, c], 3),
    "Series.den": lambda c: Series([1, 2], c),
    # sqrt(1 + 4w) has integer coefficients, so an int c gives a result
    "binomial_series": lambda c: binomial_series((c, 2), [0, 4, 0, 0]),
    "binomial_series.f": lambda c: binomial_series((1, 1), [0, c, 0]),
    "IntPoly": lambda c: IntPoly(2, {(0, 0): c}),
    "SchubertVector": lambda c: SchubertVector(4, {(1, 0): c}),
}
RATIONAL_CONSTRUCTORS = {
    "QuadScalar": lambda c: QuadScalar(c, 2, 3),
    "Poly": lambda c: Poly([Fraction(1, 3), c]),
}


@pytest.mark.parametrize("inexact", [0.5, 1 + 2j, Decimal("0.1"), "1/3"],
                         ids=lambda x: type(x).__name__)
def test_constructors_reject_inexact_numbers(inexact):
    # nothing inexact is parsed: a constructor names the type it refuses
    for build in {**INT_CONSTRUCTORS, **RATIONAL_CONSTRUCTORS}.values():
        with pytest.raises(TypeError, match=type(inexact).__name__):
            build(inexact)
    for build in INT_CONSTRUCTORS.values():
        for exact in (1, True):
            build(exact)
        with pytest.raises(TypeError, match="Fraction"):
            build(Fraction(1, 3))
    for build in RATIONAL_CONSTRUCTORS.values():
        for exact in (1, True, Fraction(1, 3)):
            build(exact)


# Constants and non-constants of every IntPoly class: ints, IntPolys in 2, 3
# and 4 variables, WeierExprs and forms over Z[sqrt 3] and Z[sqrt -3].
def _int_poly_values(c):
    forms3, forms_3 = form_ring(3).variables(3), form_ring(-3).variables(3)
    return [c, IntPoly(2, {(0, 0): c}), IntPoly(3, {(0, 0, 0): c}),
            IntPoly(4, {(0, 0, 0, 0): c}), WeierExpr(4, {(0, 0, 0, 0): c}),
            form_ring(3)(3, {(0, 0, 0): c}), form_ring(-3)(3, {(0, 0, 0): c}),
            T + c, IntPoly.variables(3)[0] + c, IntPoly.variables(4)[0] + c,
            P + c, forms3[2] + c, forms_3[2] + c, forms3[0] + c]


@given(st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=3))
def test_int_poly_equality_is_transitive_and_hash_consistent(constants):
    values = [v for c in constants for v in _int_poly_values(c)]
    for x in values:
        for y in values:
            if x == y:
                assert y == x and hash(x) == hash(y), (x, y)
                assert all((x == z) == (y == z) for z in values), (x, y)
    # a set keeps one value per equality class, whatever the insertion order
    classes = len(set(values))
    assert len(set(reversed(values))) == classes
    assert classes == sum(1 for i, x in enumerate(values) if all(x != y for y in values[:i]))


def test_constants_compare_by_value_across_classes():
    one = [1, IntPoly(2, {(0, 0): 1}), IntPoly(3, {(0, 0, 0): 1}), WeierExpr(4, {(0, 0, 0, 0): 1}),
           form_ring(3)(3, {(0, 0, 0): 1}), R3 * R3 - 2, D ** 0]
    assert all(x == y and hash(x) == hash(y) for x in one for y in one)
    assert len(set(one)) == 1 and len({IntPoly(2), WeierExpr(4), 0}) == 1
    # non-constants stay apart across classes, equal terms or not
    assert P != IntPoly.variables(4)[0] and R3 != IntPoly.variables(3)[2]
    assert form_ring(3).variables(3)[2] != form_ring(-3).variables(3)[2]
