import operator
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from oddcovers import quadratic
from oddcovers.quadratic import QuadScalar, sqrt_of

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
    script = ("import sys; from oddcovers.quadratic import QuadScalar\n"
              "for x in (QuadScalar(1, 0, 3).over(2), QuadScalar(1, 1, 3).over(2)):\n"
              "    hash(x), repr(x)\n"
              "print('fractions' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(quadratic.__file__).resolve().parents[1]))
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
