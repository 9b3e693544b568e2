from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oddcovers import checks, cli, routes
from oddcovers.checks import catalan_alternating_sum
from oddcovers.combinat import catalan
from oddcovers.schubert import SchubertVector, top_power_prefix
from oddcovers.sigma12 import sigma12_rows
from schubert_helpers import poly_mul, schur_at_t, sigma, torus_top, torus_top_powers


def top_eval(v):
    """The coefficient of the point class sigma_{n-2,n-2} of a class v of top
    degree (or zero) in G(2,n)."""
    top = 2 * (v.n - 2)
    if not v.degrees() <= {top}:
        raise ValueError("top_eval on a class not of top degree %d" % top)
    return v.terms.get((v.n - 2, v.n - 2), 0)


def giambelli(a, b, n):
    """sigma_{a,b} built from special classes: sigma_a sigma_b - sigma_{a+1} sigma_{b-1}."""
    if not (a >= b >= 0):
        raise ValueError("giambelli requires a >= b >= 0")
    if a > n - 2:
        raise ValueError("sigma_{%d,%d} outside the box of G(2,%d)" % (a, b, n))
    unit = SchubertVector.unit(n)
    result = unit.pieri(a).pieri(b)
    if b >= 1:
        result = result - unit.pieri(a + 1).pieri(b - 1)
    return result


def test_pieri_sigma1_squared():
    # sigma_1^2 = sigma_2 + sigma_{1,1} whenever the box allows both
    v = SchubertVector.unit(5).pieri(1).pieri(1)
    assert v == sigma(2, 0, 5) + sigma(1, 1, 5)


def test_pieri_box_annihilation():
    # in G(2,4) the box is 2x2, so sigma_3 vanishes
    assert SchubertVector.unit(4).pieri(3).is_zero()


def test_giambelli_matches_pieri_route():
    for n in (5, 6, 7):
        for a in range(n - 1):
            for b in range(a + 1):
                direct = sigma(a, b, n)
                assert giambelli(a, b, n) == direct


def test_giambelli_rejects_box_violation():
    with pytest.raises(ValueError):
        giambelli(4, 0, 5)


def test_sigma3_reduction_in_special_classes():
    # sigma_3 = 2 sigma_1 sigma_2 - sigma_1^3 for n >= 5
    for n in (5, 6, 7, 8):
        unit = SchubertVector.unit(n)
        lhs = unit.pieri(3)
        rhs = 2 * unit.pieri(1).pieri(2) - unit.pieri(1).pieri(1).pieri(1)
        assert lhs == rhs


def test_sigma1_sigma3_decomposition():
    # sigma_1 sigma_3 = sigma_4 + sigma_{3,1} when the box allows both
    for n in (6, 7, 8):
        assert SchubertVector.unit(n).pieri(3).pieri(1) == sigma(4, 0, n) + sigma(3, 1, n)


def test_duality_pairing():
    # sigma_{a,b} . sigma_{n-2-b, n-2-a} = point class; all other top pairings vanish
    for n in range(4, 11):
        box = n - 2
        classes = [(a, b) for a in range(box + 1) for b in range(a + 1)]
        for a, b in classes:
            for c, d in classes:
                if a + b + c + d != 2 * box:
                    continue
                value = top_eval(sigma(a, b, n) * sigma(c, d, n))
                expected = 1 if (c, d) == (box - b, box - a) else 0
                assert value == expected


pairs = st.integers(min_value=0, max_value=4).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(min_value=0, max_value=a))
)
vectors = st.builds(
    lambda terms: SchubertVector(7, dict(terms)),
    st.lists(st.tuples(pairs, st.integers(min_value=-4, max_value=4)), max_size=4),
)


@settings(max_examples=60)
@given(vectors, vectors)
def test_multiplication_commutes(u, v):
    assert u * v == v * u


@given(vectors, st.integers(min_value=-5, max_value=5))
def test_int_scaling_from_either_side(v, k):
    assert v * k == k * v == v * (k * SchubertVector.unit(7))
    assert (SchubertVector(6, {(1, 0): 2}) * 2).terms == {(1, 0): 4}
    with pytest.raises(TypeError):
        v + 1


@settings(max_examples=40)
@given(vectors, vectors, vectors)
def test_multiplication_associates(u, v, w):
    assert (u * v) * w == u * (v * w)


@settings(max_examples=60)
@given(vectors, st.integers(min_value=0, max_value=4))
def test_general_product_extends_pieri(v, c):
    assert v * sigma(c, 0, 7) == v.pieri(c)


def pieri_oracle(terms, n, c):
    """sigma_c times the class `terms` in G(2,n), one horizontal strip at a time."""
    out = {}
    for (a, b), coeff in terms.items():
        for j in range(c + 1):
            na, nb = a + c - j, b + j
            if nb <= a and na <= n - 2:
                out[(na, nb)] = out.get((na, nb), 0) + coeff
    return {k: v for k, v in out.items() if v}


def product_oracle(u, v, n):
    """u * v in G(2,n) by Giambelli, with every Pieri step from the oracle."""
    out = {}
    for (a, b), coeff in u.items():
        parts = [(1, pieri_oracle(pieri_oracle(v, n, a), n, b))]
        if b:
            parts.append((-1, pieri_oracle(pieri_oracle(v, n, a + 1), n, b - 1)))
        for sign, part in parts:
            for k, c in part.items():
                out[k] = out.get(k, 0) + sign * coeff * c
    return {k: c for k, c in out.items() if c}


@st.composite
def ambient_classes(draw, count):
    """n, then `count` classes of mixed degrees in G(2,n), 2 <= n <= 9."""
    n = draw(st.integers(min_value=2, max_value=9))
    part = st.integers(min_value=0, max_value=n - 2).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(min_value=0, max_value=a)))
    terms = st.dictionaries(part, st.integers(min_value=-4, max_value=4), max_size=8)
    return [n] + [SchubertVector(n, draw(terms)) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(ambient_classes(1), st.data())
def test_pieri_matches_horizontal_strip_oracle(drawn, data):
    n, v = drawn
    c = data.draw(st.integers(min_value=0, max_value=n))  # c = n annihilates everything
    assert v.pieri(c).terms == pieri_oracle(v.terms, n, c)


@settings(max_examples=100, deadline=None)
@given(ambient_classes(2))
def test_product_matches_giambelli_oracle(drawn):
    n, u, v = drawn
    assert (u * v).terms == product_oracle(u.terms, v.terms, n)


def _count_pieri(monkeypatch):
    """The list of c of every Pieri call from now on."""
    calls = []
    pieri = SchubertVector.pieri

    def counted(self, c):
        calls.append(c)
        return pieri(self, c)

    monkeypatch.setattr(SchubertVector, "pieri", counted)
    return calls


def test_top_power_prefix_makes_three_pieri_calls_per_step(monkeypatch):
    # unequal weights: 8 sigma_{4,0} + 5 sigma_{3,1} = 3 sigma_4 + 5 sigma_3 sigma_1,
    # so each step needs r sigma_4, r sigma_3 and (r sigma_3) sigma_1
    calls = _count_pieri(monkeypatch)
    tops = top_power_prefix({(4, 0): 8, (3, 1): 5}, 12)
    assert sorted(calls) == sorted([4, 3, 1] * 12)
    monkeypatch.undo()
    n, r, oracle = 26, {(0, 0): 1}, []
    for g in range(13):
        oracle.append(r.get((2 * g, 2 * g), 0))
        r = product_oracle({(4, 0): 8, (3, 1): 5}, r, n)
    assert tops == oracle


def test_top_power_prefix_makes_two_pieri_calls_per_step(monkeypatch):
    # 16 sigma_{4,0} + 16 sigma_{3,1} = 16 sigma_3 sigma_1: the sigma_4 weights
    # cancel, so each step is r sigma_3 and (r sigma_3) sigma_1
    calls = _count_pieri(monkeypatch)
    tops = top_power_prefix({(4, 0): 16, (3, 1): 16}, 12)
    assert calls == [3, 1] * 12
    assert tops == routes.route_prefix("closed", 12)


@pytest.mark.parametrize("n", [6, 8, 11])
def test_product_with_cancelling_giambelli_weights(monkeypatch, n):
    # sigma_{4,0} + sigma_{3,1} + sigma_{2,2} = sigma_2^2: the weights on
    # sigma_3 sigma_1 and on sigma_4 cancel, leaving 2 Pieri calls
    u = giambelli(4, 0, n) + giambelli(3, 1, n) + giambelli(2, 2, n)
    assert u == SchubertVector(n, {(4, 0): 1, (3, 1): 1, (2, 2): 1})
    v = SchubertVector(n, {(a, b): 2 * a - b + 1 for a in range(n - 1) for b in range(a + 1)})
    calls = _count_pieri(monkeypatch)
    product = u * v
    assert calls == [2, 2]
    monkeypatch.undo()
    assert product == v.pieri(2).pieri(2)
    assert product.terms == product_oracle(u.terms, v.terms, n)


@pytest.mark.parametrize("inexact", [0.5, Fraction(1, 2), Fraction(2, 1)],
                         ids=lambda x: type(x).__name__)
def test_coefficients_must_be_ints(inexact):
    with pytest.raises(TypeError, match=type(inexact).__name__):
        SchubertVector(5, {(1, 0): inexact})
    with pytest.raises(TypeError, match=type(inexact).__name__):
        top_power_prefix({(4, 0): inexact, (3, 1): 16}, 3)


@pytest.mark.parametrize("inexact", [2.0, Fraction(2, 1)], ids=lambda x: type(x).__name__)
def test_partition_parts_must_be_ints(inexact):
    # a float part would pass the box check and fail later, inside pieri
    message = "Schubert partition parts are ints, not %s" % type(inexact).__name__
    with pytest.raises(TypeError, match=message):
        SchubertVector(6, {(inexact, 1): 1})
    with pytest.raises(TypeError, match=message):
        SchubertVector(6, {(3, inexact): 1})
    with pytest.raises(TypeError, match=message):
        top_power_prefix({(inexact + 2, 0): 16, (3, 1): 16}, 3)
    assert SchubertVector(6, {(2, 1): 1}).pieri(1).terms == {(3, 1): 1, (2, 2): 1}


def grassmannian_degree(n):
    """Oracle: sigma_1^(2(n-2)) by its own chain in G(2,n), on the point class."""
    v = SchubertVector.unit(n)
    for _ in range(2 * (n - 2)):
        v = v.pieri(1)
    return top_eval(v)


SIGMA1_SQUARED = {(2, 0): 1, (1, 1): 1}  # sigma_1^2 = sigma_2 + sigma_{1,1}


def test_grassmannian_degree_is_catalan():
    for n in range(2, 13):
        assert grassmannian_degree(n) == catalan(n - 2)
    # the one-chain reading agrees with the per-n chains, also past n = 12
    degrees = top_power_prefix(SIGMA1_SQUARED, 14)
    assert degrees == [grassmannian_degree(n) for n in range(2, 17)]
    assert degrees == [catalan(n - 2) for n in range(2, 17)]
    assert top_power_prefix(SIGMA1_SQUARED, 0) == [1]
    with pytest.raises(ValueError, match="n >= 2"):
        SchubertVector.unit(1)
    with pytest.raises(ValueError, match="not of top degree 4"):
        top_eval(sigma(1, 0, 4))


def sigma12_power(g, m):
    """Oracle: sigma_1^(2m) sigma_2^(2g-m) in G(2,2g+2) by one chain per m."""
    v = SchubertVector.unit(2 * g + 2)
    for _ in range(2 * m):
        v = v.pieri(1)
    for _ in range(2 * g - m):
        v = v.pieri(2)
    return top_eval(v)


def sigma12_row(g):
    """Oracle: the row of g off one sigma_1 and one sigma_2 chain in its own
    G(2,2g+2), paired by Poincare duality."""
    box = 2 * g
    ones = [SchubertVector.unit(box + 2)]  # ones[m] = sigma_1^(2m)
    twos = [ones[0]]  # twos[k] = sigma_2^k
    for _ in range(box):
        ones.append(ones[-1].pieri(1).pieri(1))
        twos.append(twos[-1].pieri(2))
    return [
        sum(c * twos[box - m].terms.get((box - b, box - a), 0)
            for (a, b), c in ones[m].terms.items())
        for m in range(box + 1)
    ]


def test_sigma12_row_matches_oracle_and_alternating_sum():
    rows = sigma12_rows(range(13))
    for g in range(0, 13):
        row = sigma12_row(g)
        assert rows[g] == row
        assert row == [sigma12_power(g, m) for m in range(2 * g + 1)]
        assert row == [catalan_alternating_sum(g, m) for m in range(2 * g + 1)]
    # one row alone, and rows in any order, read off the chains of the largest g
    assert sigma12_rows([7]) == [sigma12_row(7)]
    assert sigma12_rows([5, 0, 9, 5]) == [rows[5], rows[0], rows[9], rows[5]]
    assert sigma12_rows([]) == []


def test_sigma12_row_rejects_negative_g():
    with pytest.raises(ValueError, match="nonnegative"):
        sigma12_rows([-1])
    with pytest.raises(ValueError, match="nonnegative"):
        sigma12_rows([3, -1])


def test_sigma2_fourth_power():
    # sigma_2^4 in G(2,6) is 3: sigma_2^2 = sigma_{4}+sigma_{3,1}+sigma_{2,2}
    # is self-dual term by term
    assert sigma12_rows([2])[0][0] == 3


def test_schubert_route_small_values():
    assert [routes.route_prefix("schubert", g)[g] for g in range(6)] == [
        1, 0, 512, 32768, 3014656, 285212672,
    ]


def test_schubert_route_vanishing_weights():
    assert routes.route_prefix("schubert", 1, 1, 0)[1] == 0
    assert routes.route_prefix("schubert", 2, 1, 0)[2] == 1  # sigma_4^2 top in G(2,6) by duality


def even_degree_class(degree):
    """(e, terms): a class of degree 2e = `degree` with small weights on
    every partition of that degree; all of them may be 0."""
    weight = st.integers(min_value=-3, max_value=3)
    return st.tuples(st.just(degree // 2), st.fixed_dictionaries(
        {(degree - b, b): weight for b in range(degree // 2 + 1)}))


@settings(max_examples=40, deadline=None)
@given(st.one_of(*map(even_degree_class, (0, 2, 4, 6)), st.just((0, {}))),
       st.integers(min_value=0, max_value=10))
def test_top_power_prefix_matches_per_ambient_powers(degree_class, max_g):
    # oracle: v^g by square-and-multiply in each G(2,e*g+2) separately
    e, terms = degree_class
    assert top_power_prefix(terms, max_g) == [
        top_eval(SchubertVector(e * g + 2, terms) ** g) for g in range(max_g + 1)
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(lambda e: even_degree_class(2 * e)),
       st.integers(min_value=0, max_value=12))
def test_top_power_prefix_matches_the_torus_formula(degree_class, max_g):
    # a second opinion that shares no Pieri or Giambelli step with schubert.py
    _, terms = degree_class
    assert top_power_prefix(terms, max_g) == torus_top_powers(terms, max_g)


# The window of the identity checks: the default of `verify --max-g`.
VERIFY_MAX_G = next(default for flag, _, default, *_ in cli.COMMANDS["verify"][1]
                    if flag == "--max-g")


@pytest.mark.parametrize("n4, n5", [(16, 16), (1, 0), (0, 1), (3, -7)])
def test_schubert_route_matches_the_torus_formula_over_the_verify_window(n4, n5):
    assert routes.route_prefix("schubert", VERIFY_MAX_G, n4, n5) == torus_top_powers(
        {(4, 0): n4, (3, 1): n5}, VERIFY_MAX_G)


def test_torus_formula_gives_the_grassmannian_degrees_and_sigma12_rows():
    assert torus_top_powers(SIGMA1_SQUARED, 14) == [catalan(n - 2) for n in range(2, 17)]
    ones, twos = [[1]], [[1]]  # Schur forms of sigma_1^(2m) and sigma_2^k
    for _ in range(16):
        ones.append(poly_mul(ones[-1], schur_at_t(SIGMA1_SQUARED)))
        twos.append(poly_mul(twos[-1], schur_at_t({(2, 0): 1})))
    assert sigma12_rows(range(9)) == [
        [torus_top(poly_mul(ones[m], twos[2 * g - m]), 2 * g + 2) for m in range(2 * g + 1)]
        for g in range(9)]


def test_top_power_prefix_rejects_bad_input():
    with pytest.raises(ValueError, match="one even degree, not \\[3\\]"):
        top_power_prefix({(3, 0): 1}, 3)
    with pytest.raises(ValueError, match="one even degree, not \\[3, 4\\]"):
        top_power_prefix({(4, 0): 1, (2, 1): 2}, 3)
    with pytest.raises(ValueError, match="one even degree, not \\[2, 4\\]"):
        top_power_prefix({(4, 0): 1, (2, 0): 1}, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        top_power_prefix({(4, 0): 1}, -1)


def test_top_power_prefix_checks_every_step(monkeypatch):
    # a product that leaves degree 4g must raise, not be read
    monkeypatch.setattr(SchubertVector, "__mul__", SchubertVector.__add__)
    with pytest.raises(ValueError, match="v\\^1 is not homogeneous of degree 4"):
        top_power_prefix({(4, 0): 1}, 3)


def test_schubert_prefix_matches_closed_to_g_40():
    assert routes.route_prefix("schubert", 40) == routes.route_prefix("closed", 40)


def test_each_schubert_check_reads_one_chain(monkeypatch, capsys):
    # sigma12_vs_alternating_sum: a sigma_1^2 chain of 16 steps and a sigma_2
    # chain of 16 in G(2,18); grassmannian_degree: a sigma_1^2 chain of 10
    # steps in G(2,12); the two route checks: 8 products of 2 Pieri calls
    # each (the sigma_4 weights of sigma_{4,0} + sigma_{3,1} cancel), plus 2
    # to build sigma_1 sigma_3
    calls = []
    original = SchubertVector.pieri

    def counting(self, c):
        calls.append((self.n, c))
        return original(self, c)

    monkeypatch.setattr(SchubertVector, "pieri", counting)
    per_check = {}
    for check in checks.CHECKS:
        before = len(calls)
        assert check.run(5)[0]
        if len(calls) > before:
            per_check[check.name] = calls[before:]
    assert {name: len(made) for name, made in per_check.items()} == {
        "sigma12_vs_alternating_sum": 48, "grassmannian_degree": 20,
        "schubert_route": 16, "sigma3_reduction": 18}
    assert {n for n, _ in per_check["sigma12_vs_alternating_sum"]} == {18}
    assert {n for n, _ in per_check["grassmannian_degree"]} == {12}
    calls.clear()
    assert cli.main(["verify", "--suite", "all", "--max-g", "5"]) == 0
    assert "23 checks, 0 failed" in capsys.readouterr().out
    assert len(calls) == 102
