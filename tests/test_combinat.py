from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from oddcovers.combinat import catalan

from growth_oracles import decimal_root_string, integer_nth_root
from series_oracles import binom_gen

CATALANS = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_catalan_small_values():
    assert [catalan(n) for n in range(11)] == CATALANS


def test_binom_gen_extends_integer_binomials():
    for n in range(8):
        for k in range(n + 1):
            assert binom_gen(n, k) == comb(n, k)


def test_binom_gen_half():
    assert binom_gen(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom_gen(Fraction(1, 2), 3) == Fraction(1, 16)


def test_binom_gen_rejects_float_exponent():
    with pytest.raises(TypeError, match="float"):
        binom_gen(0.5, 2)


@given(st.integers(min_value=0, max_value=10 ** 18), st.integers(min_value=1, max_value=7))
def test_integer_nth_root_brackets(x, n):
    r = integer_nth_root(x, n)
    assert r ** n <= x < (r + 1) ** n


def test_decimal_root_string_exact_cube():
    assert decimal_root_string(27, 3, digits=4).startswith("3.0000")


def test_decimal_root_string_truncates_down():
    # 2^(1/2) = 1.41421356...; the string is the exact truncation
    assert decimal_root_string(2, 2, digits=5) == "1.41421"


@given(st.fractions(max_denominator=12, min_value=Fraction(-30), max_value=Fraction(30)),
       st.integers(min_value=0, max_value=40))
def test_binom_gen_matches_falling_factorial(a, k):
    expected = Fraction(1)
    for i in range(k):
        expected = expected * (a - i) / (i + 1)
    assert binom_gen(a, k) == expected
