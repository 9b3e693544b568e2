import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from oddcovers import checks, routes, series
from oddcovers.combinat import binom_ratio
from oddcovers.schubert import SchubertVector, top_power_prefix
from oddcovers.series import Series

from growth_oracles import RATIO_BOUND, ROOT_WINDOW_START, growth_report
from series_oracles import (
    alt_catalan_closed,
    binom_gen,
    compose,
    derivative,
    genfun_radicals,
    lagrange_invert,
    reciprocal,
    series_of,
    values_of,
)

# Frozen by an independent pre-build evaluation of the alternating sum.
FROZEN = [
    1,
    0,
    512,
    32768,
    3014656,
    285212672,
    28521267200,
    2950642532352,
    313455303196672,
]

# Initial coefficients of f(w) from the inversion route, likewise frozen.
F_COEFFS = [
    Fraction(1, 8), 1, -1, 0, -52, 512, -3744, 32768,
]


def test_closed_formula_frozen_values():
    assert routes.route_prefix("closed", 8) == FROZEN
    assert [alt_catalan_closed(g) for g in range(9)] == FROZEN


def test_coeff_form_matches_closed():
    # A_g as the last entry of its own prefix, for every g
    for g in range(31):
        assert routes.route_prefix("coeff_form", g)[g] == alt_catalan_closed(g)


def test_closed_prefix_matches_the_per_g_sum_to_g_200():
    # one Catalan table and ratio-stepped binomial rows against a fresh
    # binomial and Catalan number for every term of every g
    assert routes.route_prefix("closed", 200) == [alt_catalan_closed(g) for g in range(201)]


def test_coeff_form_prefix_matches_closed_to_g_100():
    assert routes.route_prefix("coeff_form", 100) == routes.route_prefix("closed", 100)


def test_genfun_is_odd_with_A_g_coefficients():
    order = 25
    f = values_of(series.genfun_series(order))
    for n in range(order + 1):
        if n % 2 == 0:
            assert f[n] == 0
        else:
            assert f[n] == alt_catalan_closed((n - 1) // 2)


def test_genfun_agrees_with_closed_to_order_201():
    f = values_of(series.genfun_series(201))
    for g in range(100 + 1):
        assert f[2 * g] == 0
        assert f[2 * g + 1] == alt_catalan_closed(g)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 11, 41, 100, 101, 201, 401])
def test_genfun_root_of_P_equals_the_nested_radicals(order):
    # the root of the quadratic in W = w^2 against 2w / (R(w) + R(-w)),
    # stored alike: the same numerators over the same denominator
    new, old = series.genfun_series(order), genfun_radicals(order)
    assert (new.nums, new.den) == (old.nums, old.den)


def test_genfun_computes_order_zero_directly():
    assert series.genfun_series(0) == Series([0])
    assert series.genfun_series(1) == Series([0, 1])


def test_genfun_refuses_a_negative_order():
    with pytest.raises(ValueError, match="nonnegative"):
        series.genfun_series(-1)


def test_genfun_and_lagrange_series_are_integral():
    # the integer kernel's premise: no denominator survives in either series
    assert series.genfun_series(201).den == 1
    assert routes.lagrange_pipeline(81)[0].den == 1


def _off_by_one(monkeypatch, route, num, den):
    """Make routes._integer see num + 1 for the one division (route, num, den),
    and return the list of every (route, num, den) it is asked to divide."""
    real, seen = routes._integer, []

    def wrapped(n, d, r):
        seen.append((r, n, d))
        return real(n + 1 if (r, n, d) == (route, num, den) else n, d, r)
    monkeypatch.setattr(routes, "_integer", wrapped)
    return seen


def test_coeff_form_integer_checks_its_dot_product(monkeypatch):
    # at max_g = 2 each of these divisions occurs once: the step h_1 -> h_2 =
    # 2(1-2)·2/2, the weight step k = 1 -> 2 at g = 2, 2·1024/2, and the
    # halving of 2 A_2 = 1024
    for num, den, fraction in [(-4, 2, "-3/2"), (2048, 2, "2049/2"), (1024, 2, "1025/2")]:
        with monkeypatch.context() as patch:
            seen = _off_by_one(patch, "coefficient", num, den)
            with pytest.raises(AssertionError,
                               match="coefficient route produced a non-integer: %s$" % fraction):
                routes.route_prefix("coeff_form", 2)
        assert seen.count(("coefficient", num, den)) == 1


def test_coeff_form_divides_only_through_integer(monkeypatch):
    # every h step, every weight step and every halving, and nothing else
    seen = _off_by_one(monkeypatch, None, None, None)
    assert routes.route_prefix("coeff_form", 2) == [1, 0, 512]
    assert [(n, d) for _, n, d in seen] == [
        (2, 1), (-4, 2), (12, 3), (-40, 4), (140, 5),  # h_1 .. h_5
        (0, 1), (2, 2),                                  # g = 0
        (32, 1), (0, 2), (0, 2),                         # g = 1
        (1024, 1), (2048, 2), (0, 3), (1024, 2)]         # g = 2
    assert {r for r, _, _ in seen} == {"coefficient"}


def test_a_bad_closed_step_fails_route_agreement(monkeypatch):
    # the closed weight step 8/2 = 4 (g = 2, i = 1) occurs once in the
    # route_agreement window; read as 9/2 it is reported, not raised
    seen = _off_by_one(monkeypatch, "closed", 8, 2)
    results = {r["name"]: r for r in checks.run_checks({"identities"}, 5)}
    assert seen.count(("closed", 8, 2)) == 1
    assert results["route_agreement"]["pass"] is False
    assert results["route_agreement"]["detail"] == (
        "assertion failed: closed route produced a non-integer: 9/2")
    assert results["binomial_identity"]["pass"] and results["catalan_half_binomial"]["pass"]


def test_lagrange_pipeline_matches_closed():
    order = 41
    u, f = routes.lagrange_pipeline(order)
    assert values_of(f)[:8] == F_COEFFS
    for g in range(20 + 1):
        assert values_of(f)[2 * g + 1] == alt_catalan_closed(g)


def _binomial_coeffs(a, scale, order):
    """(1 + scale*z)^a as the coefficient list binom(a, k) scale^k."""
    return series_of([binom_gen(a, k) * scale ** k for k in range(order + 1)])


def test_lagrange_pipeline_matches_generic_inversion_at_order_41():
    # The cubic generic pipeline: power-by-power inversion and Horner composition.
    order = 41
    half, minus_half = Fraction(1, 2), Fraction(-1, 2)
    phi = 16 * _binomial_coeffs(half, half, order)
    psi = (_binomial_coeffs(half, 1, order)
           * _binomial_coeffs(minus_half, half, order)).over(8)
    u = lagrange_invert(phi, order)
    f = compose(psi, u) * series_of(reciprocal(values_of(
        1 - compose(derivative(phi), u).shifted(1))))
    assert routes.lagrange_pipeline(order) == (u, f)


def _perturbed_binom_ratio(by):
    # binom(5/2, 4) + by, as the ratio (num + by * den) / den
    def perturbed(p, q, k):
        num, den = binom_ratio(p, q, k)
        return (num + by * den, den) if (p, q, k) == (5, 2, 4) else (num, den)
    return perturbed


def test_lagrange_pipeline_rejects_perturbed_inversion_coefficient(monkeypatch):
    # + 5 keeps [w^5] u = 2^16 binom(5/2, 4) / 5 an integer, so the relation
    # u = w phi(u) is what catches it
    monkeypatch.setattr(routes, "binom_ratio", _perturbed_binom_ratio(5))
    with pytest.raises(AssertionError, match=r"u = w\*phi\(u\) violated"):
        routes.lagrange_pipeline(11)


def test_lagrange_pipeline_refuses_a_non_integral_inversion_coefficient(monkeypatch):
    # + 1 makes [w^5] u = -512 + 2^16/5 = 62976/5, which _integer refuses
    monkeypatch.setattr(routes, "binom_ratio", _perturbed_binom_ratio(1))
    with pytest.raises(AssertionError, match="lagrange route produced a non-integer: 62976/5"):
        routes.lagrange_pipeline(11)


def test_lagrange_pipeline_contracts_run_to_order_41():
    # the pipeline itself raises if u = w phi(u), the algebraic relation of u,
    # or agreement with the independent closed-form expansion fails
    routes.lagrange_pipeline(41)


def test_binomial_identity_full_window():
    assert all(checks.binomial_identity_check(g) for g in range(31))


def test_catalan_half_binomial_full_window():
    assert all(checks.catalan_half_binomial_check(n) for n in range(61))


def sigma3_top(g):
    """Oracle: top((sigma_1 sigma_3)^g) with sigma_1 sigma_3 built by Pieri in
    G(2,2g+2) itself and raised to the g-th power there, for this g only."""
    s1s3 = SchubertVector.unit(2 * g + 2).pieri(3).pieri(1)
    return top_power_prefix(s1s3.terms, g)[g]


def test_sigma3_route():
    # the sigma3_reduction check reads every g off one chain in G(2,18); by
    # the restriction map each value is the one of its own G(2,2g+2)
    one_chain = top_power_prefix(SchubertVector.unit(18).pieri(3).pieri(1).terms, 8)
    assert one_chain[1:] == [sigma3_top(g) for g in range(1, 9)]
    assert all(16 ** g * sigma3_top(g) == alt_catalan_closed(g) for g in range(1, 9))
    [result] = [r for r in checks.run_checks(["schubert"], 5) if r["name"] == "sigma3_reduction"]
    assert result["pass"]


def test_growth_report_bounds_hold():
    rows = growth_report(20)
    assert rows[0].g == ROOT_WINDOW_START
    assert rows[-1].g == 20 and rows[-1].ratio is None
    for row in rows[:-1]:
        assert row.ratio < RATIO_BOUND
    # the decimal estimates are monotone as strings of equal precision
    estimates = [Fraction(r.root_estimate.replace(".", "")) for r in rows]
    assert estimates == sorted(estimates)


def test_route_prefix_dispatch():
    for route in routes.ROUTES:
        assert routes.route_prefix(route, 3)[3] == 32768
    with pytest.raises(ValueError, match="unknown route 'nonsense'"):
        routes.route_prefix("nonsense", 3)


def _reach(route):
    """The (module, owner) of every oddcovers function that route_prefix(route, 4)
    enters, owner being the class or function a qualname starts with, so a
    method or comprehension counts as its owner."""
    reached = set()

    def hook(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("oddcovers."):
            reached.add((module[len("oddcovers."):], frame.f_code.co_qualname.split(".")[0]))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        routes.route_prefix(route, 4)
    finally:
        sys.setprofile(previous)
    return reached


# What two routes may both reach. Every pair may share the dispatcher and its
# integer check; the two series routes may share the Series ring (with the
# subtraction RingElement derives for it) and Miller's power recurrence.
ANY_PAIR = {("routes", "route_prefix"), ("routes", "_integer")}
SERIES_ROUTES = {"genfun", "lagrange"}
SERIES_KERNEL = {("series", "Series"), ("ring", "RingElement"),
                 ("series", "binomial_series"), ("series", "_scaled_power")}


def test_routes_share_only_the_allowlisted_code():
    previous = sys.getprofile()
    reach = {route: _reach(route) for route in routes.ROUTES}
    assert sys.getprofile() is previous
    for route in routes.ROUTES:
        assert ("routes", "route_prefix") in reach[route]
    for first, second in combinations(routes.ROUTES, 2):
        allowed = ANY_PAIR | (SERIES_KERNEL if {first, second} <= SERIES_ROUTES else set())
        assert reach[first] & reach[second] <= allowed, (first, second)


def _half_at_top(order):
    return Series([0] * order + [1], 2)


@pytest.mark.parametrize("route, name, fake", [
    ("genfun", "genfun_series", _half_at_top),
    ("lagrange", "lagrange_pipeline", lambda order: (None, _half_at_top(order))),
])
def test_route_prefix_rejects_non_integer(monkeypatch, route, name, fake):
    monkeypatch.setattr(series if route == "genfun" else routes, name, fake)
    with pytest.raises(AssertionError, match="%s route produced a non-integer: 1/2" % route):
        routes.route_prefix(route, 3)


@pytest.mark.parametrize("route", routes.ROUTES)
def test_route_prefix_matches_closed(route):
    top = 12 if route == "schubert" else 20
    assert routes.route_prefix(route, top) == [
        alt_catalan_closed(g) for g in range(top + 1)
    ]
    assert routes.route_prefix(route, 0) == [1]


def test_lagrange_route_prefix_matches_closed_to_g_80():
    # one expansion to order 161, every contract checked on the way
    assert routes.route_prefix("lagrange", 80) == [
        alt_catalan_closed(g) for g in range(81)
    ]


@pytest.mark.parametrize("route", routes.ROUTES)
def test_route_prefix_rejects_negative_max_g(route):
    with pytest.raises(ValueError):
        routes.route_prefix(route, -1)


def test_route_prefix_rejects_unknown_route():
    with pytest.raises(ValueError):
        routes.route_prefix("nonsense", 3)


def _half_at_g2(order):
    # 1/2 at w^5 (g = 2), below the top index the prefix reads
    return Series([1 if n == 5 else 0 for n in range(order + 1)], 2)


@pytest.mark.parametrize("route, name, fake", [
    ("genfun", "genfun_series", _half_at_g2),
    ("lagrange", "lagrange_pipeline", lambda order: (None, _half_at_g2(order))),
])
def test_route_prefix_checks_every_coefficient(monkeypatch, route, name, fake):
    monkeypatch.setattr(series if route == "genfun" else routes, name, fake)
    with pytest.raises(AssertionError, match="%s route produced a non-integer: 1/2" % route):
        routes.route_prefix(route, 5)


def test_negative_g_rejected():
    with pytest.raises(ValueError):
        routes.closed_prefix(-1)
    with pytest.raises(ValueError):
        alt_catalan_closed(-1)


@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6), st.integers(min_value=1, max_value=10 ** 4))
def test_integer_names_a_non_integer_as_its_reduced_fraction(num, den):
    if num % den:
        with pytest.raises(AssertionError) as failure:
            routes._integer(num, den, "closed")
        assert str(failure.value) == "closed route produced a non-integer: %s" % Fraction(num, den)
    else:
        assert routes._integer(num, den, "closed") == num // den
