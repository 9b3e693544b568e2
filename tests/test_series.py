from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from oddcovers.combinat import catalan
from oddcovers.series import _scaled_power, binomial_series, product

from series_oracles import (Series, binom_gen, compose, lagrange_invert, reciprocal,
                            series_of, series_power, values_of)


def test_geometric_inverse():
    # 1/(1 - w) = 1 + w + w^2 + ...
    assert binomial_series((-1, 1), [0, -1, 0, 0, 0]) == [1, 1, 1, 1, 1]
    one_minus_w = Series([1, -1, 0, 0, 0])
    assert series_power((-1, 1), one_minus_w - 1) == Series([1, 1, 1, 1, 1])


def test_sqrt_coefficients():
    z = Series.identity(3)
    root = series_power((1, 2), z)
    assert values_of(root) == [1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16)]
    # sqrt(1 + 4w) = 1 + 2w - 2w^2 + 4w^3: the same binomials times 4^k, integers
    assert binomial_series((1, 2), [0, 4, 0, 0]) == [1, 2, -2, 4]


def test_sqrt_requires_unit_constant_term():
    with pytest.raises(ValueError, match=r"f\(0\) = 0"):
        binomial_series((1, 2), [3, 1, 1])
    with pytest.raises(ValueError, match=r"inner\(0\) = 0"):
        series_power((1, 2), Series([4, 1, 1]) - 1)


small = st.fractions(max_denominator=5, min_value=Fraction(-5), max_value=Fraction(5))


@given(st.lists(small, min_size=5, max_size=9))
def test_sqrt_round_trip(tail):
    f = series_of([1] + tail)
    root = series_power((1, 2), f - 1)
    assert root * root == f


@given(st.lists(small, min_size=4, max_size=8), st.lists(small, min_size=4, max_size=8))
def test_mul_commutes_and_min_order(a, b):
    f, g = series_of([1] + a), series_of([2] + b)
    assert f * g == g * f
    assert (f * g).order == min(f.order, g.order)


def test_series_rejects_float_coefficient():
    # Fraction(0.1) would silently store 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="float"):
        Series([0.1, 1])


@pytest.mark.parametrize("nums, den, bad", [
    ([Fraction(1, 3), 1], 1, Fraction(1, 3)),
    ([1, 2], 2.0, 2.0),
    ([1, "2"], 1, "2"),
    ([1, 2], Fraction(1, 2), Fraction(1, 2)),
], ids=["Fraction", "float-den", "str", "Fraction-den"])
def test_series_takes_int_numerators_and_denominator_only(nums, den, bad):
    with pytest.raises(TypeError, match=type(bad).__name__):
        Series(nums, den)
    with pytest.raises(TypeError, match=type(bad).__name__):
        Series.constant(bad, 3)
    with pytest.raises(TypeError):
        Series([1, 2]) + bad


def test_series_int_input_is_stored_reduced():
    # bools count as ints; a negative denominator moves its sign up
    assert Series([True, 2], 4) == Series([1, 2], 4) == Series([-1, -2], -4)
    assert (Series([2, 4, 6], -4).nums, Series([2, 4, 6], -4).den) == ((-1, -2, -3), 2)
    with pytest.raises(ZeroDivisionError):
        Series([1, 2], 0)
    assert repr(Series([1, 2], 4)) == "Series([1, 2]/4; order=1)"


def test_shifted_raises_order():
    f = Series([1, 2, 3])
    assert f.shifted(2) == Series([0, 0, 1, 2, 3])
    assert f.shifted(2).order == f.order + 2


def test_over_zero_raises():
    # den 0 would store negated numerators, equal Series([3, 6]).over(0) and
    # fail only when a coefficient is read
    with pytest.raises(ZeroDivisionError):
        Series([1, 2]).over(0)


def test_negative_truncation_raises():
    # order -1 would keep no terms, a series the constructor refuses
    with pytest.raises(ValueError, match="nonnegative"):
        Series([1, 2]).truncated(-1)


def test_negative_shift_raises():
    # (0,) * -1 is empty, so the series would come back unshifted
    with pytest.raises(ValueError, match="nonnegative"):
        Series([1, 2]).shifted(-1)


def test_compose_requires_nilpotent_inner():
    with pytest.raises(ValueError):
        compose(Series([1, 1]), Series([1, 1]))


def test_lagrange_invert_catalan_oracle():
    # u = w/(1-u) has [w^n] u = Catalan(n-1)
    order = 10
    phi = series_power((-1, 1), Series([1, -1] + [0] * (order - 2)) - 1)  # 1/(1-z)
    u = lagrange_invert(phi, order)
    assert values_of(u)[1:] == [catalan(n - 1) for n in range(1, order + 1)]
    # and u really solves the fixed-point equation
    residual = u - compose(phi, u).shifted(1).truncated(order)
    assert residual.is_zero()


def test_lagrange_invert_needs_enough_terms():
    with pytest.raises(ValueError):
        lagrange_invert(Series([1, 1]), 5)


def test_binomial_series_integer_exponent_matches_power():
    w = [0, 1, 0, 0, 0, 0, 0]
    power = [1, 0, 0, 0, 0, 0, 0]
    for a in range(6):
        assert binomial_series((a, 1), w) == power
        power = product(power, [1, 1, 0, 0, 0, 0, 0])


def test_binomial_series_order_below_inner_order():
    inner = [0, 4, 8, 12, 16, 20]
    assert binomial_series((1, 2), inner[:4]) == binomial_series((1, 2), inner)[:4]
    assert binomial_series((-1, 1), inner[:1]) == [1]


def test_binomial_series_rejects_bad_input():
    with pytest.raises(ValueError):
        binomial_series((1, 2), [1, 1, 1])  # nonzero f(0)
    with pytest.raises(ValueError, match="q > 0"):
        binomial_series((1, 0), [0, 1, 0, 0])
    with pytest.raises(ValueError, match="q > 0"):
        binomial_series((1, -2), [0, 1, 0, 0])


def test_binomial_series_rejects_float_exponent():
    with pytest.raises(TypeError, match="float"):
        binomial_series(0.5, [0, 1, 0, 0])


@pytest.mark.parametrize("f, name", [
    ([0, 1.0, 0], "float"), ([0, Fraction(1, 2)], "Fraction"), ([0, "1"], "str"),
])
def test_binomial_series_takes_int_coefficients_only(f, name):
    with pytest.raises(TypeError, match="int coefficients, not %s" % name):
        binomial_series((1, 1), f)


@pytest.mark.parametrize("a, name", [
    ((2.0, 1), "float"), ((1, 2.0), "float"), (("1", 2), "str"),
    (Fraction(1, 2), "Fraction"), (2, "int"), ((1, 2, 3), "tuple"),
])
def test_binomial_series_takes_an_int_pair_only(a, name):
    # (2.0, 1) once gave Series([1, 2.0, 1.0, 0.0, 0]): a float in the numerators
    with pytest.raises(TypeError, match="int pair \\(p, q\\), not %s" % name):
        binomial_series(a, [0, 1, 0, 0, 0])


def _binomial_naive(a, inner):
    """Reference (1 + inner)^a as the power sum sum_k binom(a, k) inner^k."""
    order = inner.order
    power = Series.constant(1, order)
    result = Series.constant(1, order)
    for k in range(1, order + 1):
        power = power * inner
        b = binom_gen(a, k)
        result = result + (b.numerator * power).over(b.denominator)
    return result


exponents = st.one_of(
    st.fractions(max_denominator=7, max_value=Fraction(0)),
    st.integers(min_value=0, max_value=8).map(Fraction),
    st.integers(min_value=-8, max_value=8).map(lambda m: Fraction(2 * m + 1, 2)),
)
inner_tails = st.lists(st.one_of(st.just(Fraction(0)), small), max_size=12)


@given(exponents, inner_tails, st.integers(min_value=0, max_value=12))
@example(Fraction(1, 2), [Fraction(0)] * 12, 12)
@example(Fraction(-3, 2), [Fraction(0), Fraction(0), Fraction(1)], 3)
def test_binomial_series_matches_power_sum(a, tail, order):
    inner = series_of([0] + tail)
    inner = inner.truncated(min(order, inner.order))
    assert series_power((a.numerator, a.denominator), inner) == _binomial_naive(a, inner)


ints = st.integers(min_value=-9, max_value=9)


@given(exponents, st.lists(ints, max_size=10))
@example(Fraction(1, 2), [1, 0, 0])
@example(Fraction(-1, 2), [4, 4, 4])
def test_binomial_series_is_the_oracle_power_when_integral(a, tail):
    # the int kernel returns the oracle's coefficients when all are integers,
    # and raises, never floors, when one is not: sqrt(1 + w) has [w^1] = 1/2
    f = [0] + tail
    oracle = series_power((a.numerator, a.denominator), Series(f))
    if oracle.den == 1:
        assert binomial_series((a.numerator, a.denominator), f) == list(oracle.nums)
    else:
        with pytest.raises(ArithmeticError, match="not integral at scale 1"):
            binomial_series((a.numerator, a.denominator), f)


@given(st.sampled_from([(1, 2), (-1, 2), (-1, 1), (3, 2), (-3, 2)]), st.lists(ints, max_size=12))
def test_binomial_series_of_four_times_an_integral_series_is_integral(a, tail):
    # the premise of the Lagrange route: 4^k binom(+-1/2, k) is an integer
    f = [0] + [4 * c for c in tail]
    assert binomial_series(a, f) == list(series_power(a, Series(f)).nums)


@given(st.lists(ints, min_size=1, max_size=10), st.lists(ints, min_size=1, max_size=10))
def test_product_is_the_oracle_product(a, b):
    assert product(a, b) == list((Series(a) * Series(b)).nums) == _convolve(a, b)
    assert product(a, b) == product(b, a)
    assert len(product(a, b)) == min(len(a), len(b))


def test_genfun_square_roots_match_power_sum_at_order_41():
    w = Series.identity(41)
    s_radicand = 1 + 16 * (w * w)
    s = series_power((1, 2), s_radicand - 1)
    assert s == _binomial_naive(Fraction(1, 2), s_radicand - 1)
    radicand = 1 + 64 * (w * w) + 16 * (w * s)
    assert series_power((1, 2), radicand - 1) == _binomial_naive(Fraction(1, 2), radicand - 1)


# Fraction-only reference kernels on plain lists, sharing no code with Series
# or the int kernels.

def _convolve(a, b):
    n = min(len(a), len(b))
    return [sum((Fraction(a[i]) * Fraction(b[k - i]) for i in range(k + 1)), Fraction(0))
            for k in range(n)]


def _miller(a, f):
    # (1 + f)^a with f[0] = 0: g_n = (1/n) sum_k ((a+1)k - n) f_k g_{n-k}
    a = Fraction(a)
    g = [Fraction(1)]
    for n in range(1, len(f)):
        total = sum(((a + 1) * k - n) * Fraction(f[k]) * g[n - k] for k in range(1, n + 1))
        g.append(total / n)
    return g


mixed = st.one_of(st.integers(min_value=-40, max_value=40), small)
nonzero = mixed.filter(lambda c: c != 0)


@given(st.lists(mixed, min_size=1, max_size=10), st.lists(mixed, min_size=1, max_size=10),
       nonzero, exponents)
@example([2, Fraction(1, 2)], [Fraction(2), 3], Fraction(1, 3), Fraction(1, 2))
def test_kernels_match_fraction_only_arithmetic(a, b, lead, exponent):
    f, g = series_of(a), series_of(b)
    for s in (f, g):
        _assert_reduced(s)
    product = f * g
    assert values_of(product) == _convolve(a, b)
    _assert_reduced(product)
    # lead / (lead + h) = (1 + h/lead)^(-1)
    inverse = series_power((-1, 1), series_of([0] + [Fraction(c) / lead for c in b[1:]]))
    assert values_of(inverse) == [lead * c for c in reciprocal([lead] + b[1:])]
    _assert_reduced(inverse)
    inner = [0] + a[1:]
    power = series_power((exponent.numerator, exponent.denominator), series_of(inner))
    assert values_of(power) == _miller(exponent, inner)
    _assert_reduced(power)


# The stored form: int numerators over one positive int den, reduced.

def _assert_reduced(series):
    assert all(type(c) is int for c in series.nums) and type(series.den) is int
    assert series.den > 0
    assert gcd(series.den, *series.nums) == 1


def test_canonical_form_of_integral_fractions():
    # 4/2, 1 and 3/4 over the denominator 4: numerators 8, 4, 3
    s = Series([8, 4, 3], 4)
    assert [type(c) for c in values_of(s)] == [int, int, Fraction]
    assert series_of([Fraction(4, 2), Fraction(1, 2) * 2, Fraction(3, 4)]) == s
    half = Series([1, 0, 0], 2)
    assert (half.nums, half.den) == ((1, 0, 0), 2)
    assert ((half * 2).nums, (half * 2).den) == ((1, 0, 0), 1)
    _assert_reduced(half)
    _assert_reduced(half * 2)


@given(st.lists(mixed, min_size=1, max_size=10), st.lists(mixed, min_size=1, max_size=10),
       nonzero, st.integers(min_value=-12, max_value=12).filter(bool))
def test_stored_numerators_are_reduced(a, b, lead, k):
    f, g = series_of(a), series_of(b)
    unit_minus_1 = series_of([0] + [Fraction(c) / lead for c in b[1:]])
    results = [f, g, f + g, f - g, -f, f * g, k * f, f.over(k),
               series_power((-1, 1), unit_minus_1),
               f.shifted(2), f.truncated(0),
               series_power((1, 2), series_of([0] + a[1:]))]
    for s in results:
        _assert_reduced(s)
    assert values_of(f.over(k)) == [Fraction(c) / k for c in a]


@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6), min_size=1, max_size=10),
       st.integers(min_value=1, max_value=10 ** 4))
def test_make_equals_init(nums, den):
    made = Series._make(nums, den)
    for built in (Series(nums, den), series_of([Fraction(c, den) for c in nums])):
        assert made == built
        assert (made.nums, made.den) == (built.nums, built.den)
        assert values_of(made) == values_of(built)
        assert hash(made) == hash(built)


@given(exponents, inner_tails, st.integers(min_value=0, max_value=12))
def test_binomial_series_steps_divide_exactly(a, tail, order):
    # the integrality argument of series_power: no step of _scaled_power
    # leaves a remainder, which would raise ArithmeticError here
    inner = series_of([0] + tail)
    inner = inner.truncated(min(order, inner.order))
    power = series_power((a.numerator, a.denominator), inner)
    _assert_reduced(power)
    # a pair not in lowest terms only scales the integers up
    assert power == series_power((3 * a.numerator, 3 * a.denominator), inner)


@pytest.mark.parametrize("p, q, f, d, scale", [
    (1, 2, [0, 1, 0, 0], 1, 2),      # sqrt(1 + w) needs 4^n, not 2^n
    (-1, 2, [0, 1, 1, 1], 3, 6),     # (1 + (w+w^2+w^3)/3)^(-1/2) needs 12^n, not 6^n
    (1, 3, [0, 1, 0, 0, 0], 1, 3),   # cube root needs 9^n
])
def test_scaled_power_refuses_a_wrong_scale(p, q, f, d, scale):
    # a scale too small for the integrality argument raises, never floors
    with pytest.raises(ArithmeticError, match="not integral at scale %d" % scale):
        _scaled_power(p, q, f, d, scale, len(f) - 1)
    assert len(_scaled_power(p, q, f, d, q * q * d, len(f) - 1)) == len(f)
