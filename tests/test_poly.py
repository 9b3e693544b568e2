"""The polynomial kernels: `IntPoly` and `discriminant` of `oddcovers.poly`,
and the univariate `Poly`, `gcd` and squarefree decomposition kept as test
oracles in `map_oracles`."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import map_oracles as poly
from map_oracles import Poly, QuadScalar, gcd, squarefree_decomposition
from oddcovers.covers import deg3_maps, paired_quartic_maps, quartic_cover_map
from oddcovers.poly import IntPoly, discriminant
from oddcovers.quadratic import form_ring
from oddcovers.weier import WeierExpr

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


def test_poly_coefficient_raises_type_error():
    # Poly is univariate: several variables are an IntPoly
    for coeffs in ([Poly([1])], [0, Poly([0, 1])], [1, IntPoly(2)]):
        with pytest.raises(TypeError, match="not (Poly|IntPoly)"):
            Poly(coeffs)
    assert Poly([1]) == 1 and len({Poly([1]), 1}) == 1 and len({Poly(), 0}) == 1


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
    t, b = IntPoly.variables(2)
    assert discriminant(4 * b * b - 7 * b + 4, 1) == -15
    assert discriminant(16 * t * t - 16 * t + 9, 0) == -320
    # in t over b: b^2 t^2 + t - 1 has discriminant 1 + 4 b^2
    assert discriminant(b * b * t * t + t - 1, 0) == 1 + 4 * b * b
    for q, var in ((t * t * t, 0), (t * b, 0), (IntPoly(2), 1)):
        with pytest.raises(ValueError, match="degree exactly 2"):
            discriminant(q, var)


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


def test_compose_fractional_clears_denominators():
    # p(t) = t^2 + 1 at t = (s+1)/s, homogenized to degree 2
    p = Poly([1, 0, 1])
    s = Poly.x()
    assert p.compose_fractional(s + 1, s, 2) == (s + 1) ** 2 + s ** 2


def test_poly_rejects_float_coefficient():
    with pytest.raises(TypeError, match="float"):
        Poly([0.5, 1])


@pytest.mark.parametrize("inexact", [1.0, Fraction(1, 1)], ids=lambda x: type(x).__name__)
def test_int_poly_exponents_must_be_ints(inexact):
    # IntPoly, and the quotient rings that inherit its constructor
    name = type(inexact).__name__
    with pytest.raises(TypeError, match="IntPoly exponents are ints, not " + name):
        IntPoly(2, {(inexact, 0): 3})
    with pytest.raises(TypeError, match="WeierExpr exponents are ints, not " + name):
        WeierExpr(4, {(0, 0, 0, inexact): 1})
    with pytest.raises(TypeError, match="QuadForm_3 exponents are ints, not " + name):
        form_ring(3)(3, {(0, inexact, 0): 1})
    assert IntPoly(2, {(1, 0): 3}) == IntPoly.variables(2)[0] * 3



def _elements(cls, n, top):
    """Elements of `cls` in n variables, with exponents up to top[v] before
    the constructor reduces them."""
    keys = st.tuples(*(st.integers(min_value=0, max_value=e) for e in top))
    return st.dictionaries(keys, st.integers(min_value=-4, max_value=4),
                           max_size=4).map(lambda terms: cls(n, terms))


# (ring, n, exponent bounds, the variable whose image is itself): r in
# Z[x, z, r]/(r^2 - d) stays r, and any images of x and z give a ring map
@pytest.mark.parametrize("cls, n, top, kept", [
    (IntPoly, 2, (2, 2), None),
    (IntPoly, 3, (2, 1, 2), None),
    (form_ring(3), 3, (2, 2, 3), 2),
    (form_ring(-3), 3, (2, 2, 3), 2),
], ids=["IntPoly2", "IntPoly3", "QuadForm_3", "QuadForm_-3"])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitute_is_a_ring_map(cls, n, top, kept, data):
    elements = _elements(cls, n, top)
    a, b = data.draw(elements), data.draw(elements)
    gens = cls.variables(n)
    images = tuple(gens[v] if v == kept
                   else data.draw(st.one_of(st.integers(min_value=-3, max_value=3), elements))
                   for v in range(n))
    for op in (operator.add, operator.mul):
        assert op(a, b).substitute(images) == op(a.substitute(images), b.substitute(images))
    assert a.substitute(gens) == a


# D^2 reduces by a cubic in P, E1 and E2, so only the identity images give a
# ring map of Z[P, E1, E2, D]/(D^2 - CUBIC)
@given(_elements(WeierExpr, 4, (2, 1, 1, 3)))
def test_substituting_the_generators_gives_a_weier_expr_back(a):
    assert a.substitute(WeierExpr.variables(4)) == a


# Fraction-only reference arithmetic on tuples of (a, b) pairs, a + b*sqrt(D),
# sharing no code with Poly or QuadScalar.

D = 3


def _pairs(p):
    return tuple((c.a, c.b) if isinstance(c, QuadScalar) else (c, 0) for c in p.coeffs)


def _trim(p):
    p = [(Fraction(a), Fraction(b)) for a, b in p]
    while p and p[-1] == (0, 0):
        p.pop()
    return tuple(p)


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _mul(x, y, d=D):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _inv(x, d=D):
    n = x[0] * x[0] - d * x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _poly_mul(p, q):
    out = [(Fraction(0), Fraction(0))] * max(len(p) + len(q) - 1, 0)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] = _add(out[i + j], _mul(x, y))
    return _trim(out)


def _poly_divmod(p, q, d=D):
    rem, dq = list(p), len(q) - 1
    quot = [(Fraction(0), Fraction(0))] * max(len(p) - dq, 0)
    inv_lead = _inv(q[-1], d)
    for i in range(len(p) - 1, dq - 1, -1):
        c = _mul(rem[i], inv_lead, d)
        quot[i - dq] = c
        for j in range(dq + 1):
            rem[i - dq + j] = _add(rem[i - dq + j], _mul((-c[0], -c[1]), q[j], d))
    return _trim(quot), _trim(rem[:dq])


def _poly_monic(p, d=D):
    return _trim(_mul(c, _inv(p[-1], d), d) for c in p) if p else p


def _poly_gcd(p, q, d=D):
    """Plain Euclid with a monic remainder at every step."""
    while q:
        p, q = q, _poly_monic(_poly_divmod(p, q, d)[1], d)
    return _poly_monic(p, d)


def _assert_canonical(p):
    for c in p.coeffs:
        for v in (c.a, c.b, c.d) if isinstance(c, QuadScalar) else (c,):
            assert type(v) is int or (type(v) is Fraction and v.denominator > 1), v


mixed = st.one_of(st.integers(min_value=-9, max_value=9), coeff)
scalar = st.one_of(mixed, st.builds(lambda a, b: QuadScalar(a, b, D), mixed, mixed))
scalar_polys = st.lists(scalar, min_size=0, max_size=5).map(Poly)


@given(scalar_polys, scalar_polys, scalar_polys)
def test_kernels_match_fraction_only_arithmetic(a, b, c):
    for p in (a, b, c):
        _assert_canonical(p)
    pa, pb = _trim(_pairs(a)), _trim(_pairs(b))
    product = a * b
    assert _trim(_pairs(product)) == _poly_mul(pa, pb)
    _assert_canonical(product)
    if not b.is_zero():
        q, r = divmod(a, b)
        assert (_trim(_pairs(q)), _trim(_pairs(r))) == _poly_divmod(pa, pb)
        _assert_canonical(q)
        _assert_canonical(r)
    # A common factor c makes the gcd nontrivial.
    ac, bc = a * c, b * c
    g = gcd(ac, bc)
    assert _trim(_pairs(g)) == _poly_gcd(_trim(_pairs(ac)), _trim(_pairs(bc)))
    _assert_canonical(g)


def test_integral_coefficients_are_ints():
    p = Poly([Fraction(4, 2), Fraction(3, 4), True, QuadScalar(Fraction(6, 3), 0, D)])
    assert [type(c) for c in p.coeffs] == [int, Fraction, int, QuadScalar]
    assert type(p[7]) is int and type(Poly()(5)) is int
    assert Poly([2, 4]).monic().coeffs == (Fraction(1, 2), 1)
    # the maps of covers are forms with cleared denominators: int coefficients
    for f in (quartic_cover_map(), *paired_quartic_maps(), *deg3_maps()):
        assert all(type(c) is int for form in f for c in form.terms.values())


def _scalar_polys(d, max_size):
    quad = st.builds(lambda a, b: QuadScalar(a, b, d), mixed, mixed)
    return st.lists(st.one_of(mixed, quad), max_size=max_size).map(Poly)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((3, -3)), st.data())
def test_subresultant_gcd_matches_monic_euclid(d, data):
    # Degree <= 8 with a common factor of degree <= 3; the second operand is
    # drawn shorter by `gap`, so remainder steps with delta >= 2 occur.
    common = data.draw(_scalar_polys(d, 4), "common")
    a = data.draw(_scalar_polys(d, 6), "a")
    gap = data.draw(st.integers(min_value=0, max_value=5), "gap")
    b = data.draw(_scalar_polys(d, max(len(a.coeffs) - gap, 0)), "b")
    ac, bc = a * common, b * common
    quotients = []

    def recording(x, y):
        quotients.append(exact_quotient(x, y))
        return quotients[-1]

    exact_quotient = poly._exact_quotient
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly, "_exact_quotient", recording)
        for x, y in ((ac, bc), (bc, ac)):
            g = gcd(x, y)
            assert _trim(_pairs(g)) == _poly_gcd(_trim(_pairs(x)), _trim(_pairs(y)), d)
            _assert_canonical(g)
    # Fraction-free: every exact division of the sequence lands in Z[sqrt d].
    for q in quotients:
        assert all(type(v) is int for v in ((q.a, q.b) if isinstance(q, QuadScalar) else (q,)))


@given(_scalar_polys(D, 5), _scalar_polys(D, 4))
def test_pseudo_quotient_divides_out_exactly(w, v):
    # lc(v)^(deg u - deg v + 1) u = q v for u = w v, with no division
    u = w * v
    if u.is_zero():
        return
    q = Poly(poly._pseudo_quotient(u.coeffs, v.coeffs))
    assert q * v == v.leading() ** (u.degree - v.degree + 1) * u


def test_gcd_with_zero_operands():
    t = Poly.x()
    p = 2 * t ** 2 - Fraction(1, 3)
    assert gcd(Poly(), Poly()) == Poly() and gcd(Poly(), Poly()).is_zero()
    assert gcd(p, Poly()) == gcd(Poly(), p) == p.monic()
    assert gcd(p, Poly([QuadScalar(0, 5, -3)])) == Poly([1])


@settings(max_examples=100, deadline=None)
@given(_scalar_polys(D, 5), _scalar_polys(D, 3), _scalar_polys(D, 3),
       st.integers(min_value=0, max_value=2))
def test_compose_fractional_matches_the_naive_sum(p, num, den, extra):
    total = (p.degree or 0) + extra
    naive = Poly()
    for i, c in enumerate(p.coeffs):
        naive = naive + c * num ** i * den ** (total - i)
    assert p.compose_fractional(num, den, total) == naive
    if extra == 0:
        assert p.compose_fractional(num, den) == naive


def _typed(p):
    return [(type(c), c) for c in p.coeffs]


def _inverse_scalar(c):
    return c.inverse() if isinstance(c, QuadScalar) else 1 / Fraction(c)


@given(scalar_polys, scalar_polys)
def test_operations_build_what_the_checked_constructor_builds(a, b):
    # The reference results go through Poly.__init__, which checks and
    # canonicalizes every coefficient; the operators build through Poly._make.
    n = max(len(a.coeffs), len(b.coeffs))
    product = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            product[i + j] = product[i + j] + x * y
    checked = {
        "add": Poly([a[i] + b[i] for i in range(n)]),
        "sub": Poly([a[i] - b[i] for i in range(n)]),
        "mul": Poly(product),
        "neg": Poly([-c for c in a.coeffs]),
        "derivative": Poly([i * c for i, c in enumerate(a.coeffs)][1:]),
    }
    made = {"add": a + b, "sub": a - b, "mul": a * b, "neg": -a, "derivative": a.derivative()}
    if not a.is_zero():
        inverse = 1 if a.leading() == 1 else _inverse_scalar(a.leading())
        checked["monic"] = Poly([c * inverse for c in a.coeffs])
        made["monic"] = a.monic()
    if not b.is_zero():
        q, r = divmod(a, b)
        checked["divmod"] = (Poly(q.coeffs), Poly(r.coeffs))
        made["divmod"] = (q, r)
    for name, value in made.items():
        for got, want in zip(*((value, checked[name]) if name == "divmod"
                               else ((value,), (checked[name],)))):
            assert _typed(got) == _typed(want), name
            assert got == want and hash(got) == hash(want)


@given(mixed)
def test_equal_values_hash_alike(r):
    values = [r, Fraction(r), QuadScalar(r, 0, D), Poly([r]), Poly([QuadScalar(r, 0, D)])]
    if Fraction(r).denominator == 1:
        values.append(int(r))
    for x in values:
        for y in values:
            assert x == y and hash(x) == hash(y), (x, y)


@given(st.floats(allow_nan=False, allow_infinity=False), scalar_polys)
def test_float_coefficients_and_operands_are_refused(f, p):
    with pytest.raises(TypeError, match="float"):
        Poly([f])
    with pytest.raises(TypeError, match="float"):
        Poly([1, f, QuadScalar(1, 1, D)])
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__divmod__"):
        assert getattr(p, op)(f) is NotImplemented
    for op in (operator.add, operator.sub, operator.mul, divmod):
        with pytest.raises(TypeError):
            op(p, f)
        with pytest.raises(TypeError):
            op(f, p)
