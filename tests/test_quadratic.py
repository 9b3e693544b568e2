"""The binary forms over Z[sqrt d] of `oddcovers.quadratic`, and the
`QuadScalar` of Q(sqrt d) kept as a test oracle in `map_oracles`."""

import operator
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import map_oracles
from map_oracles import QuadScalar, sqrt_of
from oddcovers import poly, weier
from oddcovers.poly import IntPoly
from oddcovers.quadratic import QuadForm, form_ring

rationals = st.fractions(max_denominator=6, min_value=Fraction(-8), max_value=Fraction(8))
scalars = st.builds(lambda a, b: QuadScalar(a, b, 3), rationals, rationals)


def test_sqrt_squares_to_d():
    r3 = sqrt_of(3)
    assert r3 * r3 == 3


def test_mixed_contexts_raise():
    with pytest.raises(ValueError):
        sqrt_of(3) + sqrt_of(5)


@given(scalars)
def test_inverse_roundtrip(x):
    if not x:
        return
    assert x * x.inverse() == 1


@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)


@given(scalars, scalars)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


def test_rational_comparison():
    assert QuadScalar(Fraction(5, 2), 0, 3) == Fraction(5, 2)
    assert QuadScalar(Fraction(5, 2), 1, 3) != Fraction(5, 2)


def test_conjugate_fixes_norm_and_trace():
    x = QuadScalar(2, 5, 3)
    assert x + x.conjugate() == 4
    assert x * x.conjugate() == x.norm()


def test_rejects_float_components():
    for args in ((0.1, 0, 3), (0, 0.5, 3), (1, 1, 3.0)):
        with pytest.raises(TypeError, match="float"):
            QuadScalar(*args)


# Fraction-only reference arithmetic on (a, b) pairs, sharing no code with
# QuadScalar.

D = 3


def _pair_mul(x, y):
    return (Fraction(x[0]) * y[0] + D * Fraction(x[1]) * y[1],
            Fraction(x[0]) * y[1] + Fraction(x[1]) * y[0])


def _pair_inverse(x):
    n = Fraction(x[0]) ** 2 - D * Fraction(x[1]) ** 2
    return (Fraction(x[0]) / n, -Fraction(x[1]) / n)


def _assert_canonical(x):
    for c in (x.a, x.b, x.d):
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


mixed = st.one_of(st.integers(min_value=-12, max_value=12), rationals)


@given(mixed, mixed, mixed, mixed, mixed)
def test_kernels_match_fraction_only_arithmetic(a, b, c, e, r):
    x, y = QuadScalar(a, b, D), QuadScalar(c, e, D)
    _assert_canonical(x)
    product = x * y
    assert (product.a, product.b) == _pair_mul((a, b), (c, e))
    _assert_canonical(product)
    for scaled in (x * r, r * x):
        assert (scaled.a, scaled.b) == _pair_mul((a, b), (r, 0))
        _assert_canonical(scaled)
    if x:
        inverse = x.inverse()
        assert (inverse.a, inverse.b) == _pair_inverse((a, b))
        _assert_canonical(inverse)


def test_integral_components_are_ints():
    x = QuadScalar(Fraction(4, 2), Fraction(1, 2), Fraction(3))
    assert (type(x.a), type(x.b), type(x.d)) == (int, Fraction, int)
    assert type(x.norm()) is Fraction
    y = (x * 2).inverse()
    assert (y.a, y.b) == (Fraction(4, 13), Fraction(-1, 13))
    assert sqrt_of(3).inverse().b == Fraction(1, 3)
    assert type((sqrt_of(3) * sqrt_of(3)).a) is int


# The stored form (n + m*sqrt(d)) / den: reduced, den > 0, and the same
# whether a value comes from the checked constructor or a ring operation.

def _stored(x):
    return (x.n, x.m, x.den, x.d)


@given(mixed, mixed, mixed, mixed, mixed)
def test_stored_form_is_reduced_with_positive_den(a, b, c, e, r):
    x, y = QuadScalar(a, b, D), QuadScalar(c, e, D)
    values = [x, x + y, x - y, x * y, x * r, -x, x.conjugate(), x.numerator]
    if x:
        values.append(x.inverse())
    for z in values:
        assert all(type(v) is int for v in _stored(z))
        assert z.den > 0 and gcd(z.n, z.m, z.den) == 1
        assert (z.a, z.b) == (Fraction(z.n, z.den), Fraction(z.m, z.den))
    assert x.numerator == x * x.denominator


@given(mixed, mixed, mixed, mixed, mixed)
def test_operations_build_what_the_checked_constructor_builds(a, b, c, e, r):
    x, y = QuadScalar(a, b, D), QuadScalar(c, e, D)
    checked = {
        "add": QuadScalar(x.a + y.a, x.b + y.b, D),
        "mul": QuadScalar(*_pair_mul((x.a, x.b), (y.a, y.b)), D),
        "scale": QuadScalar(x.a * r, x.b * r, D),
        "neg": QuadScalar(-x.a, -x.b, D),
        "conjugate": QuadScalar(x.a, -x.b, D),
    }
    made = {"add": x + y, "mul": x * y, "scale": r * x, "neg": -x, "conjugate": x.conjugate()}
    if x:
        checked["inverse"] = QuadScalar(*_pair_inverse((x.a, x.b)), D)
        made["inverse"] = x.inverse()
    for name, value in made.items():
        assert _stored(value) == _stored(checked[name]), name
        assert value == checked[name] and hash(value) == hash(checked[name])
        assert repr(value) == repr(checked[name])


HASH_MODULUS = sys.hash_info.modulus


@given(st.fractions(), st.fractions())
@example(Fraction(1, HASH_MODULUS), 0)
@example(Fraction(-3, 2 * HASH_MODULUS), 0)
@example(Fraction(-1, 2), 0)
@example(Fraction(-1, 2), Fraction(5, 6))
def test_hash_and_repr_read_the_stored_ints(a, b):
    # hash and repr agree with those of the rational parts a and b
    x = QuadScalar(a, b, D)
    a, b = (c.numerator if c.denominator == 1 else c for c in (a, b))
    if b == 0:
        assert hash(x) == hash(a) == hash(Fraction(a)) and repr(x) == repr(a)
    else:
        assert hash(x) == hash((x * 6).over(6)) and x != a
        assert repr(x) == "(%s + %s*sqrt(%s))" % (a, b, D)


def test_hash_and_repr_load_no_fractions():
    script = ("import sys; from map_oracles import QuadScalar\n"
              "for x in (QuadScalar(1, 0, 3).over(2), QuadScalar(1, 1, 3).over(2)):\n"
              "    hash(x), repr(x)\n"
              "print('fractions' in sys.modules)")
    paths = (Path(poly.__file__).resolve().parents[1], Path(map_oracles.__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_rational_discriminant_is_refused():
    assert _stored(QuadScalar(0, 1, Fraction(-6, 2))) == (0, 1, 1, -3)
    with pytest.raises(ValueError, match="integer discriminant"):
        QuadScalar(0, 1, Fraction(1, 2))


@given(st.floats(allow_nan=False, allow_infinity=False), scalars)
def test_float_operands_are_refused(f, x):
    with pytest.raises(TypeError, match="float"):
        QuadScalar(f, 0, 3)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert getattr(x, op)(f) is NotImplemented
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(x, f)
        with pytest.raises(TypeError):
            op(f, x)


# -- the form ring Z[x, z, r]/(r^2 - d) ---------------------------------------

def forms(d):
    return form_ring(d).variables(3)


def test_r_squares_to_d():
    for d in (3, -3, 5):
        x, z, r = forms(d)
        assert r * r == d and (r * r).terms == {(0, 0, 0): d}
        assert form_ring(d)(3, {(0, 0, 3): 1}) == d * r
        assert type(r * r) is form_ring(d) and form_ring(d).d == d


def test_form_rings_are_one_class_per_d():
    assert form_ring(3) is form_ring(3) and form_ring(3) is not form_ring(-3)
    assert issubclass(form_ring(3), QuadForm) and issubclass(QuadForm, IntPoly)


@pytest.mark.parametrize("d", [0, 1, 4, 9])
def test_square_d_is_refused(d):
    # r^2 - d factors for a square d, so the ring is no domain
    with pytest.raises(ValueError, match="is a square"):
        form_ring(d)


@pytest.mark.parametrize("d", [Fraction(3), 3.0, "3"], ids=["Fraction", "float", "str"])
def test_non_int_d_is_refused(d):
    form_ring(3)  # built first, so that a cache keyed by value would hand it out
    with pytest.raises(TypeError, match="int d"):
        form_ring(d)


def test_different_d_do_not_mix():
    (x3, _, r3), (x5, _, r5) = forms(3), forms(5)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(r3, r5)
    # the same terms over two d, or in the polynomial ring, are unequal
    assert x3 != x5 and x3.terms == x5.terms
    assert x3 != IntPoly.variables(3)[0]
    with pytest.raises(ValueError, match="3 variables, not 2"):
        form_ring(3)(2, {(1, 0): 1})


form_terms = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 2, st.integers(min_value=0, max_value=3)),
    st.integers(min_value=-5, max_value=5), max_size=4)


@settings(max_examples=60, deadline=None)
@given(form_terms, form_terms, form_terms, st.sampled_from([3, -3]))
def test_form_ring_axioms_and_normal_form(a, b, c, d):
    ring = form_ring(d)
    x, y, w = ring(3, a), ring(3, b), ring(3, c)
    assert x * (y + w) == x * y + x * w
    assert (x * y) * w == x * (y * w)
    for value in (x, x + y, x - y, -x, x * y, 3 * x, x ** 2, x.substitute((y, w, forms(d)[2]))):
        assert type(value) is ring and all(k[2] <= 1 for k in value.terms)
    # multiplying by r twice multiplies by d
    r = forms(d)[2]
    assert x * r * r == d * x and (x * r * r).terms == (d * x).terms


@pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), Fraction(2, 1), "1"],
                         ids=lambda v: type(v).__name__)
def test_form_ring_refuses_floats_fractions_and_strings(bad):
    ring = form_ring(3)
    x, z, r = forms(3)
    with pytest.raises(TypeError, match="ints, not %s" % type(bad).__name__):
        ring(3, {(1, 0, 0): bad})
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert getattr(r, op)(bad) is NotImplemented
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(x + r, bad)
        with pytest.raises(TypeError):
            op(bad, x + r)
    with pytest.raises(TypeError):
        x.substitute((bad, z, r))


def test_weier_and_forms_share_one_reduction(monkeypatch):
    # both quotient rings reduce through IntPoly._reduced, on constructor
    # dicts and products only: sums, negations and int coercions do not scan
    calls = []
    original = IntPoly._reduced.__func__

    def counting(cls, terms):
        calls.append(cls)
        return original(cls, terms)

    monkeypatch.setattr(IntPoly, "_reduced", classmethod(counting))
    x, z, r = forms(3)
    calls.clear()
    total = (x + r) - z + 2 - (-r)
    assert calls == [] and total.terms == {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 0): 2,
                                           (0, 0, 1): 2}
    assert r * r == 3 and calls == [form_ring(3)]
    assert weier.D * weier.D == weier.CUBIC and calls == [form_ring(3), weier.WeierExpr]
    assert weier.WeierExpr(4, {(0, 0, 0, 2): 1}) == weier.CUBIC
    assert calls[-1] is weier.WeierExpr and len(calls) == 3
