import sys
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from oddcovers import checks, genfun, routes, series
from oddcovers.schubert import SchubertVector, top_power_prefix

from growth_oracles import RATIO_BOUND, ROOT_WINDOW_START, growth_report
from planted import assert_planted_defect_fails
from series_oracles import (
    Series,
    alt_catalan_closed,
    binom_gen,
    compose,
    derivative,
    genfun_radicals,
    genfun_wform,
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

# Initial coefficients of f(w) from the inversion route, likewise frozen; the
# route returns them times 8, as ints.
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


def _series_coeffs(order):
    """The coefficients the `series` command prints, w^0..w^order."""
    payload = genfun.cmd_series(SimpleNamespace(order=order))[1]
    return [int(row["values"]["genfun"]) for row in payload["rows"]]


def test_genfun_is_odd_with_A_g_coefficients():
    order = 25
    f = _series_coeffs(order)
    assert len(f) == order + 1
    for n in range(order + 1):
        if n % 2 == 0:
            assert f[n] == 0
        else:
            assert f[n] == alt_catalan_closed((n - 1) // 2)


def test_genfun_agrees_with_closed_to_order_201():
    assert genfun.genfun_prefix(100) == [alt_catalan_closed(g) for g in range(101)]


def test_genfun_prefix_matches_closed_prefix_to_g_200():
    assert genfun.genfun_prefix(200) == routes.closed_prefix(200)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 11, 41, 100, 101, 201, 401])
def test_genfun_root_of_P_equals_the_nested_radicals(order):
    # the integer recurrence from P against both series forms of its root:
    # the binomial expansion in W = w^2 and 2w / (R(w) + R(-w)), each stored
    # as integer numerators over the denominator 1
    new = _series_coeffs(order)
    for old in (genfun_wform(order), genfun_radicals(order)):
        assert (list(old.nums), old.den) == (new, 1)


def test_genfun_computes_order_zero_directly():
    assert genfun.genfun_prefix(0) == [1]
    assert genfun.genfun_prefix(1) == [1, 0]
    assert _series_coeffs(0) == [0]
    assert _series_coeffs(1) == [0, 1]


def test_genfun_refuses_a_negative_order():
    with pytest.raises(ValueError, match="nonnegative"):
        genfun.genfun_prefix(-1)
    assert genfun.cmd_series(SimpleNamespace(order=-1)) == (
        "--order must be nonnegative", None, 2)


def test_genfun_and_lagrange_series_are_integral():
    # the integer recurrence's premise: no denominator survives in either series
    assert genfun_wform(201).den == 1
    # and the Lagrange route's: u and every power it takes of u are integral,
    # and only f = F/8 has a denominator; each kernel raises on a remainder
    u, big_f = series.lagrange_pipeline(81)
    assert all(type(c) is int for c in u + big_f)
    assert series_of(big_f).over(8).den == 8
    # v_2(u_n) >= n + 3 - log_2 n >= 4, so u = 16x with x integral: with
    # v = v_2(u_n), n 2^v >= 2^(n+3)
    assert u[:6] == [0, 16, 64, 128, 0, -512]
    assert all(c == 0 or (n << ((c & -c).bit_length() - 1)) >= (1 << (n + 3))
               for n, c in enumerate(u[1:], 1))


def _off_by_one(monkeypatch, route, num, den, module=routes, by=1):
    """Make module._integer see num + by (default 1) for the one division
    (route, num, den), and return the list of every (route, num, den) it is
    asked to divide."""
    real, seen = module._integer, []

    def wrapped(n, d, r):
        seen.append((r, n, d))
        return real(n + by if (r, n, d) == (route, num, den) else n, d, r)
    monkeypatch.setattr(module, "_integer", wrapped)
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


def test_genfun_divides_only_through_integer(monkeypatch):
    # one halving per step, 2 Z_n = S_n - sum_{i=1..n-1} Z_i Z_(n-i), and nothing else
    seen = _off_by_one(monkeypatch, None, None, None, genfun)
    assert routes.route_prefix("genfun", 3) == [1, 0, 512, 32768]
    assert seen == [("genfun", 0, 2), ("genfun", 1024, 2), ("genfun", 65536, 2)]


@pytest.mark.parametrize("max_g", [2, 5])
def test_genfun_halves_every_step_through_integer(monkeypatch, max_g):
    # 2 A_2 = 1024 is halved at the step g = 2: the top of the prefix at
    # max_g = 2, a step below it at 5; read as 1025 it is refused, not floored
    seen = _off_by_one(monkeypatch, "genfun", 1024, 2, genfun)
    with pytest.raises(AssertionError, match="genfun route produced a non-integer: 1025/2$"):
        routes.route_prefix("genfun", max_g)
    assert seen.count(("genfun", 1024, 2)) == 1


# One-token defects in the genfun recurrence: each constant of the S step,
# the halving, and the doubling in `_square_at`.
GENFUN_DEFECTS = [
    pytest.param("64 * f[n] +", "63 * f[n] +", id="64F-63F"),
    pytest.param("1024 * f[n - 1]", "1023 * f[n - 1]", id="1024F-1023F"),
    pytest.param("- 64 * s[n - 1]", "- 63 * s[n - 1]", id="64S-63S"),
    pytest.param('_square_at(z, n), 2, "genfun")', '_square_at(z, n), 4, "genfun")',
                 id="halving-by-4"),
    pytest.param("twice = 2 * sum", "twice = 1 * sum", id="square-single-cross-terms"),
]


# One-token defects in the Lagrange route: Miller's factor ((p+q)k - nq) and
# the product's window in its integer kernels, the algebraic contract of u,
# and the inner series 16 w^2 of the closed-form expansion it is checked by.
LAGRANGE_DEFECTS = [
    pytest.param("series.py", "(p + q) * k - n * q)", "(p + q) * k - n * q + 1)",
                 id="miller-factor-plus-1"),
    pytest.param("series.py", "_integer(total, n * q,", "_integer(total, n * q + 1,",
                 id="miller-divisor-plus-1"),
    pytest.param("series.py", "for j in range(n - i):", "for j in range(n - i - 1):",
                 id="product-window-short-by-1"),
    pytest.param("series.py", "alg = [256 * c", "alg = [255 * c", id="algebraic-256-255"),
    pytest.param("series.py", "sixteen_w2 = [16 *", "sixteen_w2 = [15 *", id="fmod-16-15"),
]


@pytest.mark.parametrize("old, new", GENFUN_DEFECTS)
def test_a_planted_genfun_defect_fails_route_agreement(tmp_path, old, new):
    assert_planted_defect_fails(tmp_path, "genfun.py", old, new, "identities", {"route_agreement"})


@pytest.mark.parametrize("module, old, new", LAGRANGE_DEFECTS)
def test_a_planted_lagrange_defect_fails_route_agreement(tmp_path, module, old, new):
    assert_planted_defect_fails(tmp_path, module, old, new, "identities", {"route_agreement"})


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
    u, big_f = series.lagrange_pipeline(order)
    assert big_f[:8] == [8 * c for c in F_COEFFS]
    for g in range(20 + 1):
        assert big_f[2 * g + 1] == 8 * alt_catalan_closed(g)


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
    new_u, big_f = series.lagrange_pipeline(order)
    assert (series_of(new_u), series_of(big_f)) == (u, 8 * f)


def test_lagrange_pipeline_steps_u_through_integer(monkeypatch):
    # u_n = 16(4-n) u_(n-2) / (n-1) from u_1 = 16, u_2 = 64, then one halving
    # of each coefficient, then the Miller steps n q G_n of the seven binomial
    # powers, (1/2, -1/2, -1, 1/2) in the pipeline and (1/2, 1/2, -1/2) in
    # fmod_series, and nothing else
    seen = _off_by_one(monkeypatch, None, None, None, series)
    u, _ = series.lagrange_pipeline(7)
    assert u == [0, 16, 64, 128, 0, -512, 0, 4096]
    steps = [("lagrange", 16 * (4 - n) * u[n - 2], n - 1) for n in range(3, 8)] + [
        ("lagrange", c, 2) for c in u]
    assert seen[:len(steps)] == steps
    assert [(r, d) for r, _, d in seen[len(steps):]] == [
        ("lagrange", n * q) for q in (2, 2, 1, 2, 2, 2, 2) for n in range(1, 8)]


def test_lagrange_pipeline_rejects_perturbed_inversion_coefficient(monkeypatch):
    # the step to [w^5] u = 16(4-5)·128/4 = -512, read with + 64, gives -496:
    # u stays 16 times an integral series, so every kernel divides exactly and
    # the relation u = w phi(u) is what catches it
    seen = _off_by_one(monkeypatch, "lagrange", -2048, 4, series, by=64)
    with pytest.raises(AssertionError, match=r"u = w\*phi\(u\) violated"):
        series.lagrange_pipeline(11)
    assert seen.count(("lagrange", -2048, 4)) == 1


def test_lagrange_pipeline_refuses_a_non_integral_inversion_coefficient(monkeypatch):
    # + 1 makes [w^5] u = -2047/4, which _integer refuses
    seen = _off_by_one(monkeypatch, "lagrange", -2048, 4, series)
    with pytest.raises(AssertionError, match="lagrange route produced a non-integer: -2047/4$"):
        series.lagrange_pipeline(11)
    assert seen.count(("lagrange", -2048, 4)) == 1


def test_lagrange_pipeline_contracts_run_to_order_41():
    # the pipeline itself raises if u = w phi(u), the algebraic relation of u,
    # or agreement with the independent closed-form expansion fails
    series.lagrange_pipeline(41)


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


# What two routes may both reach: the dispatcher and the integer check.
ANY_PAIR = {("routes", "route_prefix"), ("combinat", "_integer")}


def test_routes_share_only_the_allowlisted_code():
    previous = sys.getprofile()
    reach = {route: _reach(route) for route in routes.ROUTES}
    assert sys.getprofile() is previous
    for route in routes.ROUTES:
        assert ("routes", "route_prefix") in reach[route]
    for first, second in combinations(routes.ROUTES, 2):
        assert reach[first] & reach[second] <= ANY_PAIR, (first, second)
    # the integer series kernels and the pipeline on them serve the Lagrange
    # route alone, which reaches nothing in `routes` but the dispatcher
    assert {route for route in routes.ROUTES
            if any(module == "series" for module, _ in reach[route])} == {"lagrange"}
    assert {owner for module, owner in reach["lagrange"] if module == "series"} == {
        "binomial_series", "product", "fmod_series", "lagrange_pipeline"}
    assert {owner for module, owner in reach["lagrange"] if module == "routes"} == {
        "route_prefix"}


def _half_at_top(order):
    # 8 f with 4 at the top index: A_g = 4/8 there
    return [0] * order + [4]


@pytest.mark.parametrize("route, name, fake", [
    ("lagrange", "lagrange_pipeline", lambda order: (None, _half_at_top(order))),
])
def test_route_prefix_rejects_non_integer(monkeypatch, route, name, fake):
    monkeypatch.setattr(series, name, fake)
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
    # 1/2 at w^5 (g = 2), below the top index the prefix reads: 8 f has 4 there
    return [4 if n == 5 else 0 for n in range(order + 1)]


@pytest.mark.parametrize("route, name, fake", [
    ("lagrange", "lagrange_pipeline", lambda order: (None, _half_at_g2(order))),
])
def test_route_prefix_checks_every_coefficient(monkeypatch, route, name, fake):
    monkeypatch.setattr(series, name, fake)
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
