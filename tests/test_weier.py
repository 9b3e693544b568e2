import functools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from oddcovers import cli, weier
from oddcovers.poly import IntPoly, discriminant
from oddcovers.weier import E1, E2, E3, P, WeierExpr


def test_generator_derivatives():
    p = WeierExpr(P)
    d = WeierExpr(0, 1)
    assert p.derive() == d
    assert d.derive() == WeierExpr(weier.PSECOND)


def test_half_period_values_sum_to_zero():
    assert (E1 + E2 + E3).is_zero()


def test_d_squared_reduces_to_cubic():
    d = WeierExpr(0, 1)
    assert d * d == WeierExpr(weier.CUBIC)


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
               IntPoly(3))


polys = st.dictionaries(monos, coeffs, max_size=3).map(from_monomials)
exprs = st.builds(WeierExpr, polys, polys)


@settings(max_examples=60)
@given(exprs, exprs)
def test_leibniz_rule(x, y):
    assert (x * y).derive() == x.derive() * y + x * y.derive()


@settings(max_examples=40)
@given(exprs, exprs)
def test_normal_form_is_canonical(x, y):
    # equality is coefficientwise equality of the normal forms
    assert (x == y) == ((x - y).even.is_zero() and (x - y).odd.is_zero())


def test_equal_expressions_hash_alike():
    # a constant left by cancellation hashes as the constant it equals
    assert len({WeierExpr(P * P - P * P + 1), WeierExpr(1)}) == 1
    assert len({WeierExpr((E1 + 1) - E1), WeierExpr(1)}) == 1
    assert len({(E1 + 1) - E1, 1}) == 1
    assert len({E1 - E1, IntPoly(3), 0}) == 1


@settings(max_examples=40)
@given(st.dictionaries(monos, coeffs, max_size=3))
def test_monomials_round_trip(terms):
    nonzero = {k: c for k, c in terms.items() if c != 0}
    assert from_monomials(terms).terms == nonzero
    assert IntPoly(3, terms).terms == nonzero
    assert IntPoly(3, terms) == from_monomials(terms)


def test_G_identities():
    assert weier.check_G_identities()


def test_Gtilde_identities():
    assert weier.check_Gtilde_identities()


def test_delta0_specializations():
    by_label = {s.label: s for s in weier.delta0_specializations()}
    assert by_label["e1=0"].value == "-2*E2^2"
    assert by_label["e2=0"].value == "10*E1^2"
    # the computed coefficient at e3=0 is 7; only nonvanishing is load-bearing
    assert by_label["e3=0 (e2=-e1)"].value == "7*E1^2"
    assert all(s.nonzero and s.monomial for s in by_label.values())


def test_gtilde_delta_specializations():
    values = [s.value for s in weier.gtilde_delta_specializations()]
    assert values == ["240*E2^2", "96*E1^2", "96*E1^2"]
    assert all(s.nonzero for s in weier.gtilde_delta_specializations())


def test_discriminant_constants():
    disc = discriminant(weier.G_QUADRATIC, 0)
    assert disc == 16 * weier.DELTA0
    assert weier.DELTA0 == 10 * E1 * E1 + E1 * E2 - 2 * E2 * E2
    assert discriminant(weier.GTILDE_QUADRATIC, 0) == weier.GTILDE_DELTA
    with pytest.raises(ValueError, match="degree exactly 2 in x_0"):
        discriminant(weier.CUBIC, 0)


def test_substitution_numeric():
    # Delta0 at (e1, e2) = (1, 2): 10 + 2 - 8 = 4
    value = weier.substitute(weier.DELTA0, 1, 2)
    assert value == 4
    assert value.terms == {(0, 0, 0): 4}


def test_verify_specializes_each_discriminant_once(monkeypatch, capsys):
    calls = []
    original = weier._specialize.__wrapped__

    def counting(expr):
        calls.append(expr)
        return original(expr)

    # an empty cache of its own, so earlier tests leave nothing cached
    monkeypatch.setattr(weier, "_specialize", functools.cache(counting))
    assert cli.main(["verify", "--suite", "weierstrass"]) == 0
    assert "9 checks, 0 failed" in capsys.readouterr().out
    assert calls == [weier.DELTA0, weier.GTILDE_DELTA]
    # the module's own cache misses once per expression, too
    monkeypatch.undo()
    weier._specialize.cache_clear()
    assert cli.main(["verify", "--suite", "weierstrass"]) == 0
    assert weier._specialize.cache_info().misses == 2
    assert type(weier.delta0_specializations()) is tuple


@pytest.mark.parametrize("operand", [Fraction(1, 2), Fraction(2, 1), 0.5])
def test_weier_polynomials_take_ints_only(operand):
    with pytest.raises(TypeError):
        operand * E1
    with pytest.raises(TypeError):
        E1 + operand
    with pytest.raises(TypeError, match="ints, not %s" % type(operand).__name__):
        IntPoly(3, {(0, 1, 0): operand})
    with pytest.raises(TypeError):
        WeierExpr(operand)
    with pytest.raises(TypeError):
        WeierExpr(P) * operand


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
