import functools
import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from oddcovers import cli, weier
from oddcovers.poly import IntPoly, discriminant
from oddcovers.weier import CUBIC, E1, E2, E3, D, P, WeierExpr


def test_generator_derivatives():
    assert P.derive() == D
    assert D.derive() == weier.PSECOND


def test_half_period_values_sum_to_zero():
    assert (E1 + E2 + E3).is_zero()


def test_d_squared_reduces_to_cubic():
    assert D * D == CUBIC
    assert (D * D).terms == CUBIC.terms


def test_derivation_consistency():
    assert weier.check_derivation_consistency()


coeffs = st.integers(min_value=-3, max_value=3)
monos = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
)


def from_monomials(terms):
    return sum((c * P ** i * E1 ** j * E2 ** k for (i, j, k), c in terms.items()),
               WeierExpr(4))


polys = st.dictionaries(monos, coeffs, max_size=3).map(from_monomials)
# the normal form even + odd*D
exprs = st.builds(lambda even, odd: even + odd * D, polys, polys)


@settings(max_examples=60)
@given(exprs, exprs)
def test_leibniz_rule(x, y):
    assert (x * y).derive() == x.derive() * y + x * y.derive()


@settings(max_examples=40)
@given(exprs, exprs)
def test_normal_form_is_canonical(x, y):
    # equality is coefficientwise equality of the normal forms
    assert (x == y) == ((x - y).coefficient(3, 0).is_zero()
                        and (x - y).coefficient(3, 1).is_zero())


def test_equal_expressions_hash_alike():
    # a constant left by cancellation hashes as the constant it equals
    assert len({P * P - P * P + 1, WeierExpr(4, {(0, 0, 0, 0): 1})}) == 1
    assert len({D * D - CUBIC + 1, P ** 0}) == 1
    assert len({(E1 + 1) - E1, 1}) == 1
    assert len({E1 - E1, WeierExpr(4), 0}) == 1


@settings(max_examples=40)
@given(st.dictionaries(monos, coeffs, max_size=3))
def test_monomials_round_trip(terms):
    nonzero = {k + (0,): c for k, c in terms.items() if c != 0}
    assert from_monomials(terms).terms == nonzero
    assert WeierExpr(4, {k + (0,): c for k, c in terms.items()}).terms == nonzero
    assert WeierExpr(4, {k + (0,): c for k, c in terms.items()}) == from_monomials(terms)
    assert IntPoly(3, terms).terms == {k: c for k, c in terms.items() if c != 0}


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_plain_int_polys_do_not_mix_with_the_quotient_ring(op):
    # IntPoly's operators would leave D^2 unreduced, so a plain IntPoly in
    # four variables is foreign to a WeierExpr in either operand order
    plain = IntPoly(4, {(1, 0, 0, 1): 2, (0, 0, 0, 0): 1})
    for x, y in ((plain, D), (D, plain), (plain, P * D + E1), (CUBIC, plain)):
        with pytest.raises(TypeError):
            op(x, y)
    # the same terms in the two rings are still unequal
    assert plain != WeierExpr(4, plain.terms) and plain.terms == WeierExpr(4, plain.terms).terms


def test_construction_reduces_by_the_relation():
    assert WeierExpr(4, {(0, 0, 0, 2): 1}) == CUBIC
    assert WeierExpr(4, {(1, 0, 0, 3): 2}) == 2 * P * D * CUBIC
    assert WeierExpr(4, {(0, 0, 0, 4): 1, (0, 0, 0, 2): -1}) == CUBIC * CUBIC - CUBIC
    assert WeierExpr(4, {(0, 0, 0, 5): 1}).terms == (D * CUBIC * CUBIC).terms
    assert type(WeierExpr(4)) is WeierExpr and WeierExpr(4).is_zero()


def test_quotient_ring_has_four_variables():
    with pytest.raises(ValueError, match="4 variables"):
        WeierExpr(3, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="4 variables"):
        WeierExpr(3)
    with pytest.raises(ValueError, match="4 variables"):
        WeierExpr.variables(3)
    with pytest.raises(ValueError, match="invalid exponents"):
        WeierExpr(4, {(0, 0, 2): 1})


raw_exprs = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 3, st.integers(min_value=0, max_value=4)),
    coeffs, max_size=4).map(lambda terms: WeierExpr(4, terms))


def in_normal_form(value):
    return (type(value) is WeierExpr and value.n == 4
            and all(len(k) == 4 and k[3] <= 1 for k in value.terms))


@settings(max_examples=60, deadline=None)
@given(raw_exprs, raw_exprs, st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2),
       st.sampled_from([(0, E2), (E1, 0), (E1, -E1), (1, 2)]))
def test_every_result_stays_in_normal_form(x, y, k, var, e, values):
    results = [x, x + y, x - y, 3 - x, x + 1, -x, x * y, 2 * x, x ** k, x.derive(),
               x.derivative(var), x.coefficient(var, e), x.substitute((P, *values, D))]
    assert all(in_normal_form(r) for r in results)


def test_G_identities():
    assert weier.check_G_identities()


def test_Gtilde_identities():
    assert weier.check_Gtilde_identities()


def test_delta0_specializations():
    by_label = dict(zip(weier.SPECIALIZATION_LABELS, weier.specializations(weier.DELTA0)))
    assert by_label["e1=0"].format(weier.NAMES) == "-2*E2^2"
    assert by_label["e2=0"].format(weier.NAMES) == "10*E1^2"
    # the computed coefficient at e3=0 is 7; only nonvanishing is load-bearing
    assert by_label["e3=0 (e2=-e1)"].format(weier.NAMES) == "7*E1^2"
    assert all(len(v.terms) == 1 for v in by_label.values())


def test_gtilde_delta_specializations():
    values = weier.specializations(weier.GTILDE_DELTA)
    assert [v.format(weier.NAMES) for v in values] == ["240*E2^2", "96*E1^2", "96*E1^2"]
    assert not any(v.is_zero() for v in values)


def test_discriminant_constants():
    disc = discriminant(weier.G_QUADRATIC, 0)
    assert disc == 16 * weier.DELTA0
    assert weier.DELTA0 == 10 * E1 * E1 + E1 * E2 - 2 * E2 * E2
    assert discriminant(weier.GTILDE_QUADRATIC, 0) == weier.GTILDE_DELTA
    with pytest.raises(ValueError, match="degree exactly 2 in x_0"):
        discriminant(CUBIC, 0)


def test_substitution_numeric():
    # Delta0 at (e1, e2) = (1, 2): 10 + 2 - 8 = 4
    value = weier.DELTA0.substitute((P, 1, 2, D))
    assert value == 4
    assert value.terms == {(0, 0, 0, 0): 4}


def test_verify_specializes_each_discriminant_once(monkeypatch, capsys):
    calls = []
    original = weier.specializations.__wrapped__

    def counting(expr):
        calls.append(expr)
        return original(expr)

    # an empty cache of its own, so earlier tests leave nothing cached
    monkeypatch.setattr(weier, "specializations", functools.cache(counting))
    assert cli.main(["verify", "--suite", "weierstrass"]) == 0
    assert "9 checks, 0 failed" in capsys.readouterr().out
    assert calls == [weier.DELTA0, weier.GTILDE_DELTA]
    # the module's own cache misses once per expression, too
    monkeypatch.undo()
    weier.specializations.cache_clear()
    assert cli.main(["verify", "--suite", "weierstrass"]) == 0
    assert weier.specializations.cache_info().misses == 2
    assert type(weier.specializations(weier.DELTA0)) is tuple


@pytest.mark.parametrize("operand", [Fraction(1, 2), Fraction(2, 1), 0.5])
def test_weier_polynomials_take_ints_only(operand):
    with pytest.raises(TypeError):
        operand * E1
    with pytest.raises(TypeError):
        E1 + operand
    with pytest.raises(TypeError, match="ints, not %s" % type(operand).__name__):
        IntPoly(3, {(0, 1, 0): operand})
    with pytest.raises(TypeError, match="ints, not %s" % type(operand).__name__):
        WeierExpr(4, {(0, 0, 0, 0): operand})
    with pytest.raises(TypeError):
        P * operand


def test_weier_polynomials_refuse_bad_exponents():
    with pytest.raises(ValueError, match="invalid exponents"):
        IntPoly(3, {(0, -1, 0): 1})
    with pytest.raises(ValueError, match="invalid exponents"):
        IntPoly(3, {(1, 0): 1})


def monomial_dicts(n):
    return st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=3)] * n),
                           st.integers(min_value=-20, max_value=20), max_size=6)


def sympy_terms(poly):
    """The nonzero terms {exponents: int} of a sympy.Poly."""
    return {key: int(c) for key, c in poly.as_dict().items() if c}


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_arithmetic_matches_sympy(n, data):
    x, y = data.draw(monomial_dicts(n), "x"), data.draw(monomial_dicts(n), "y")
    gens = sympy.symbols("x0:%d" % n)
    a, b = IntPoly(n, x), IntPoly(n, y)
    sa, sb = (sympy.Poly.from_dict(terms or {(0,) * n: 0}, *gens, domain="ZZ")
              for terms in (x, y))
    assert a.terms == sympy_terms(sa) and b.terms == sympy_terms(sb)
    assert (a + b).terms == sympy_terms(sa + sb)
    assert (a - b).terms == sympy_terms(sa - sb)
    assert (a * b).terms == sympy_terms(sa * sb)
    assert (3 * a).terms == sympy_terms(3 * sa)
    for var, gen in enumerate(gens):
        assert a.derivative(var).terms == sympy_terms(sa.diff(gen))
        for e in range(5):
            # the coefficient of gen^e, a polynomial in the other generators
            want = sympy.Poly(sa.as_expr().coeff(gen, e), *gens, domain="ZZ")
            assert a.coefficient(var, e).terms == sympy_terms(want)
