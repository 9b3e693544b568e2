from fractions import Fraction

import pytest

from oddcovers import routes
from oddcovers.series import Series

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
    assert [routes.alt_catalan_closed(g) for g in range(9)] == FROZEN


def test_coeff_form_matches_closed():
    for g in range(31):
        assert routes.alt_catalan_coeff_form(g) == routes.alt_catalan_closed(g)


def test_genfun_is_odd_with_A_g_coefficients():
    order = 25
    f = routes.genfun_series(order)
    for n in range(order + 1):
        if n % 2 == 0:
            assert f[n] == 0
        else:
            assert f[n] == routes.alt_catalan_closed((n - 1) // 2)


def test_genfun_agrees_with_closed_to_order_201():
    f = routes.genfun_series(201)
    for g in range(100 + 1):
        assert f[2 * g] == 0
        assert f[2 * g + 1] == routes.alt_catalan_closed(g)


def test_lagrange_pipeline_matches_closed():
    order = 41
    u, f, h = routes.lagrange_pipeline(order)
    assert [f[n] for n in range(8)] == F_COEFFS
    for g in range(20 + 1):
        assert h[2 * g + 1] == routes.alt_catalan_closed(g)


def test_lagrange_pipeline_contracts_run_to_order_41():
    # the pipeline itself raises if u = w phi(u), the algebraic relation of u,
    # or agreement with the independent closed-form expansion fails
    routes.lagrange_pipeline(41)


def test_binomial_identity_full_window():
    assert all(routes.binomial_identity_check(g) for g in range(31))


def test_catalan_half_binomial_full_window():
    assert all(routes.catalan_half_binomial_check(n) for n in range(61))


def test_sigma3_route():
    assert all(routes.sigma3_route_check(g) for g in range(1, 9))


def test_growth_report_bounds_hold():
    rows = routes.growth_report(20)
    assert rows[0].g == routes.ROOT_WINDOW_START
    assert rows[-1].g == 20 and rows[-1].ratio is None
    for row in rows[:-1]:
        assert row.ratio < routes.RATIO_BOUND
    # the decimal estimates are monotone as strings of equal precision
    estimates = [Fraction(r.root_estimate.replace(".", "")) for r in rows]
    assert estimates == sorted(estimates)


def test_compute_route_dispatch():
    for route in routes.ROUTES:
        assert routes.compute_route(3, route) == 32768
    with pytest.raises(ValueError):
        routes.compute_route(3, "nonsense")


def _half_at_top(order):
    return Series([0] * order + [Fraction(1, 2)])


@pytest.mark.parametrize("route, name, fake", [
    ("genfun", "genfun_series", _half_at_top),
    ("lagrange", "lagrange_pipeline", lambda order: (None, None, _half_at_top(order))),
])
def test_compute_route_rejects_non_integer(monkeypatch, route, name, fake):
    monkeypatch.setattr(routes, name, fake)
    with pytest.raises(AssertionError, match="%s route produced a non-integer: 1/2" % route):
        routes.compute_route(3, route)


@pytest.mark.parametrize("route", routes.ROUTES)
def test_route_prefix_matches_closed(route):
    top = 12 if route == "schubert" else 20
    assert routes.route_prefix(route, top) == [
        routes.alt_catalan_closed(g) for g in range(top + 1)
    ]
    assert routes.route_prefix(route, 0) == [1]


@pytest.mark.parametrize("route", routes.ROUTES)
def test_route_prefix_rejects_negative_max_g(route):
    with pytest.raises(ValueError):
        routes.route_prefix(route, -1)


def test_route_prefix_rejects_unknown_route():
    with pytest.raises(ValueError):
        routes.route_prefix("nonsense", 3)


def _half_at_g2(order):
    # 1/2 at w^5 (g = 2), below the top index the prefix reads
    return Series([Fraction(1, 2) if n == 5 else 0 for n in range(order + 1)])


@pytest.mark.parametrize("route, name, fake", [
    ("genfun", "genfun_series", _half_at_g2),
    ("lagrange", "lagrange_pipeline", lambda order: (None, None, _half_at_g2(order))),
])
def test_route_prefix_checks_every_coefficient(monkeypatch, route, name, fake):
    monkeypatch.setattr(routes, name, fake)
    with pytest.raises(AssertionError, match="%s route produced a non-integer: 1/2" % route):
        routes.route_prefix(route, 5)


def test_negative_g_rejected():
    with pytest.raises(ValueError):
        routes.alt_catalan_closed(-1)
