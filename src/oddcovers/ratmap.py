"""Maps of the projective line as pairs of binary forms, certified at stated
points.

A map of degree d is a pair f = (F, G) of binary forms of degree d in (x, z)
(Silverman, The Arithmetic of Dynamical Systems, GTM 241, ch. 1): `IntPoly`s
over Q, `quadratic.form_ring(d)` elements over Q(sqrt d), with integral
scalars, since maps and points are defined up to a scalar. A point is a pair
(a, b), the point (a : b) with linear form b x - a z; infinity is (1 : 0).
Each test is written once: points, values and maps compare by one
cross-multiplication, `same_point`; `value` is the one substitution, and a
value of f is `compose` with a point; and one stated-product test,
`_vanishes_exactly_at`, ends both certificates below.

Nothing here searches or divides: a check states its places and this layer
only multiplies (McConnell, Mehlhorn, Naher & Schweitzer, "Certifying
algorithms", Computer Science Review 5(2), 2011). The Jacobian
J = F_x G_z - F_z G_x has degree 2d - 2 and vanishes to order exactly k - 1
at a point of index k. `ramified_exactly_at` passes iff F and G do not both
vanish at any stated place, the places are distinct, and J is a nonzero
multiple of prod (b x - a z)^(k-1) over them: a common zero of F and G is a
zero of J, so F and G are coprime, the degree is right, and comparing
degrees is Riemann-Hurwitz. `fiber_is` ends in the same test for the fiber
over (v : w): w F - v G = c * prod (b x - a z)^m.
"""


def value(form, point):
    """F(a, b) for the point (a : b): a scalar of the ring of `form`."""
    return form.substitute(tuple(point) + type(form).variables(form.n)[2:])


def same_point(p, q) -> bool:
    """(a : b) = (a' : b'), that is a b' = a' b; neither is (0 : 0). A map
    (F : G) is a point of the line over the function field, so this also
    tells whether two maps agree: F G' = F' G."""
    return p[0] * q[1] == q[0] * p[1]


def compose(f, images):
    """f after the map of the source sending (x : z) to the pair of linear
    forms `images`: (F(X, Z), G(X, Z)). For a point (a, b) as `images`, this
    is the value (F(a, b) : G(a, b)) of f there."""
    return value(f[0], images), value(f[1], images)


def mobius_fixing_0_1(point, x, z) -> tuple:
    """The linear forms of the Moebius map fixing 0 and 1 and sending
    infinity to the point (a : b): (x : z) -> (a x : b x + (a - b) z)."""
    a, b = point
    return a * x, b * x + (a - b) * z


def jacobian(f):
    """J = F_x G_z - F_z G_x, of degree 2d - 2: a point of index k is a zero
    of order k - 1."""
    F, G = f
    return F.derivative(0) * G.derivative(1) - F.derivative(1) * G.derivative(0)


def proportional(a, b) -> bool:
    """a = c b for a nonzero scalar c, b a nonzero form: with i, j the
    exponents of a term of b, a b_ij = b a_ij and a_ij != 0, for the
    coefficients a_ij, b_ij of x^i z^j; the scalars form a domain."""
    if b.is_zero():
        return False
    i, j = next(iter(b.terms))[:2]
    a_ij = a.coefficient(0, i).coefficient(1, j)
    b_ij = b.coefficient(0, i).coefficient(1, j)
    return not a_ij.is_zero() and a * b_ij == b * a_ij


def _vanishes_exactly_at(form, stated) -> bool:
    """Whether the stated (point, e) pairs have distinct points and `form` is
    a nonzero multiple of prod (b x - a z)^e over them."""
    points = [point for point, _ in stated]
    if any(same_point(p, q) for i, p in enumerate(points) for q in points[:i]):
        return False
    x, z = type(form).variables(form.n)[:2]
    product = form ** 0
    for (a, b), e in stated:
        line = b * x - a * z
        for _ in range(e):
            product = product * line
    return proportional(form, product)


def ramified_exactly_at(f, places) -> bool:
    """Whether the map f ramifies at exactly the stated places, given as
    (point, index) pairs, with exactly those indices, and F and G are coprime."""
    if any(value(f[0], p).is_zero() and value(f[1], p).is_zero() for p, _ in places):
        return False
    return _vanishes_exactly_at(jacobian(f), [(point, index - 1) for point, index in places])


def fiber_is(f, target, points) -> bool:
    """Whether the fiber of f over the value (v : w) is exactly the stated
    (point, multiplicity) pairs: w F - v G = c * prod (b x - a z)^m."""
    v, w = target
    return _vanishes_exactly_at(w * f[0] - v * f[1], points)
