"""Exact certification of the explicit cover constructions and counts.

Three independent strands meet here: symbolic one-parameter families of
covers of the line (discriminant conditions with the parameter b kept as an
indeterminate, in the integer polynomials `poly.IntPoly` in t and b),
explicit low-degree maps over Q, Q(sqrt(3)) and Q(sqrt(-3)) whose
ramification is verified point by point, and the bookkeeping that
turns local cover counts into the two intersection numbers 16 feeding the
Schubert route. Everything is an exact polynomial identity; no numerics.
Each check ramifies each of its maps once, by `ratmap.ramification_data`,
which certifies Riemann-Hurwitz itself, and reads every index off that list.
"""

from .poly import IntPoly, Poly, discriminant
from .quadratic import QuadScalar, sqrt_of
from .ratmap import (
    INFINITY,
    RationalMap,
    fiber_profile,
    mobius_fixing_0_1,
    point_indices,
    ramification_data,
    vanishing_order,
)
from .ring import exact_div


def family_condition_deg5_alpha1() -> bool:
    """The family t^3 (t-1) (t-b) with a triple point at 0.

    Certifies that its derivative is t^2 (5t^2 - 4(1+b)t + 3b), that the
    quadratic factor has discriminant 4(4b^2 - 7b + 4), and that
    4b^2 - 7b + 4 has two distinct roots (its own discriminant is -15,
    incidentally negative: the two parameter values are non-real).
    """
    t, b = IntPoly.variables(2)
    family = t ** 3 * (t - 1) * (t - b)
    quad = 5 * t * t - 4 * (1 + b) * t + 3 * b
    if family.derivative(0) != t ** 2 * quad:
        return False
    condition = 4 * b * b - 7 * b + 4
    if discriminant(quad, 0) != 4 * condition:
        return False
    return discriminant(condition, 1) == -15


def family_condition_deg5_alpha2() -> bool:
    """The family t^2 (t-1)^2 (t-b) with double points at 0 and 1.

    Certifies the derivative factorization (t^2 - t)(5t^2 - (3+4b)t + 2b),
    with the product-rule expansion 2(t^2-t)(2t-1)(t-b) + (t^2-t)^2 checked
    as well, and that the double-root condition on the quadratic factor is
    16b^2 - 16b + 9 = 0, again with two distinct roots (discriminant -320).
    """
    t, b = IntPoly.variables(2)
    tt = t * t - t
    family = tt * tt * (t - b)
    quad = 5 * t * t - (3 + 4 * b) * t + 2 * b
    derivative = family.derivative(0)
    if derivative != tt * quad:
        return False
    if derivative != 2 * tt * (2 * t - 1) * (t - b) + tt * tt:
        return False
    condition = 16 * b * b - 16 * b + 9
    if discriminant(quad, 0) != condition:
        return False
    return discriminant(condition, 1) == -320


def quartic_cover_map() -> RationalMap:
    """The degree-4 cover t^3 (t-4) / (t-1) with triple points over 0 and -16."""
    return RationalMap(Poly([0, 0, 0, -4, 1]), Poly([-1, 1]))


def check_quartic_cover() -> bool:
    """Full ramification audit of the degree-4 cover t^3 (t-4) / (t-1).

    Triple points at t = 0, 2 and infinity and nothing else; fiber profiles
    {3,1} over 0, -16 and infinity; the quartic identity
    (t-2)^3 (t+2) = t^4 - 4t^3 + 16t - 16 behind the -16 fiber; and the
    involution identity f(2-t) = -f(t) - 16 pairing the two branch values.
    """
    f = quartic_cover_map()
    t = Poly.x()
    if ramification_data(f) != [(t * (t - 2), 3), (INFINITY, 3)]:
        return False
    if vanishing_order(f, 0, 0) != 3 or vanishing_order(f, -16, 2) != 3:
        return False
    if vanishing_order(f, INFINITY, INFINITY) != 3:
        return False
    for value in (0, -16, INFINITY):
        if fiber_profile(f, value) != [3, 1]:
            return False
    if (t - 2) ** 3 * (t + 2) != Poly([-16, 16, 0, -4, 1]):
        return False
    reflected = f.compose_source(RationalMap(Poly([2, -1])))
    negated = RationalMap(-f.num - 16 * f.den, f.den)
    return reflected == negated


def paired_quartic_maps():
    """The two degree-4 maps over Q(sqrt(3)) with double points at 0 and 1."""
    r3 = sqrt_of(3)
    t = Poly([QuadScalar(0, 0, 3), QuadScalar(1, 0, 3)])
    quartic = (t * t) * (t - 1) * (t - 1)
    first = RationalMap(
        48 * r3 * quartic,
        (-2 * t + 1 + r3) * (r3 + 6 * t - 3) ** 3,
    )
    second = RationalMap(
        quartic,
        t - QuadScalar(2, 1, 3).over(4),  # 1/2 + sqrt(3)/4
    )
    return first, second


def check_paired_quartic_maps() -> tuple:
    """(ramification_ok, identical) for the two degree-4 maps over Q(sqrt(3)).

    Each map must have fiber profile {2,2} over 0, a triple point at its
    degree-3 pole (at t = (3 - sqrt 3)/6 for the first map, at infinity for
    the second), exactly one further triple point, and no ramification
    beyond the two double points over 0 and those two triple points. The
    maps must then satisfy second o M = first on the nose, for the Moebius
    map M fixing 0 and 1 with M(infinity) = 1/2 + sqrt(3)/6. `ramification_ok`
    is everything before that equation, for both maps; `identical` is the
    equation.
    """
    first, second = paired_quartic_maps()
    ramification_ok = True
    pole_of_first = QuadScalar(3, -1, 3).over(6)  # 1/2 - sqrt(3)/6
    for f, triple_at in ((first, pole_of_first), (second, INFINITY)):
        data = ramification_data(f)
        if (fiber_profile(f, 0) != [2, 2]
                or vanishing_order(f, f(triple_at), triple_at) != 3
                # two double points (the fiber over 0) and two triple points, only
                or sorted(point_indices(data)) != [2, 2, 3, 3]
                or vanishing_order(f, 0, 0) != 2 or vanishing_order(f, 0, 1) != 2):
            ramification_ok = False
    tau = mobius_fixing_0_1(QuadScalar(3, 1, 3).over(6))  # 1/2 + sqrt(3)/6
    return ramification_ok, second.compose_source(tau) == first


def deg3_maps():
    """The conjugate pair of degree-3 covers over Q(sqrt(-3))."""
    s = sqrt_of(-3)  # i * sqrt(3)
    t = Poly([QuadScalar(0, 0, -3), QuadScalar(1, 0, -3)])
    shift = (3 - s).over(6)  # 1/2 - sqrt(-3)/6
    f = RationalMap((t - shift) ** 3)
    conj = RationalMap(-((t - shift.conjugate()) ** 3))
    return f, conj


def check_deg3_maps() -> bool:
    """The two totally-ramified cubics t -> +/-(t - 1/2 +/- sqrt(-3)/6)^3.

    Certifies f(0) = f(1) (so 0 and 1 share a fiber), that each map ramifies
    exactly at one finite triple point and at infinity, and the involution
    identity f(1-t) = conj(t).
    """
    f, conj = deg3_maps()
    for g in (f, conj):
        data = ramification_data(g)
        if sorted(point_indices(data)) != [3, 3] or not any(p == INFINITY for p, _ in data):
            return False
    if f(0) != f(1):
        return False
    return f.compose_source(RationalMap(Poly([1, -1]))) == conj


def chern_upper_bound(c1F: int, c1V: int) -> int:
    """Top Chern number 4 (c1V - 2 c1F) bounding the degree-4 count per spin."""
    return 4 * (c1V - 2 * c1F)


def c1_dma(m: int, degA: int) -> int:
    """First Chern class m * deg(A) of the twisted principal-parts bundle."""
    return m * degA


VERONESE_PER_SPIN = 2 ** 2  # degree of the plane re-embedded by quadrics
SPIN_STRUCTURES = 4  # even theta characteristics of a genus-2 curve


def veronese_bound() -> int:
    """Degree-5 count bound: 4 intersection points per spin structure,
    16 over the four spin structures."""
    return VERONESE_PER_SPIN * SPIN_STRUCTURES


# Boundary configurations of the local cover counts, by degree, as
# (label, node indices, automorphism order, copies): the node indices are the
# ramification indices of the two branches over the node (their sum is the
# local intersection multiplicity), and `copies` counts configurations
# identical to the listed one by symmetry. Every configuration has the same
# SOURCE_CHOICES choices of source.
SOURCE_CHOICES = 2
TALLY_CASES = {
    4: (("triple point at an end node", (3, 1), 2, 1),
        ("triple point at the middle node", (2, 2), 1, 1),
        ("cubic pieces on both sides", (1, 1), 1, 1)),
    5: (("triple point at an end node (two symmetric ends)", (3, 1), 2, 2),
        ("triple point at the middle node", (2, 2), 1, 1)),
}


def tally_contributions(deg: int) -> list:
    """Each configuration's share of the degree-4 or degree-5 count:
    copies * SOURCE_CHOICES * sum(node indices) / automorphism order."""
    if deg not in TALLY_CASES:
        raise ValueError("tally tables exist for degrees 4 and 5 only")
    contributions = []
    for label, nodes, automorphisms, copies in TALLY_CASES[deg]:
        value = exact_div(copies * SOURCE_CHOICES * sum(nodes), automorphisms)
        if value <= 0:
            raise AssertionError("non-positive tally contribution in %s" % label)
        contributions.append(value)
    return contributions


def admissible_tally(deg: int) -> int:
    """Total local count over the boundary configurations for degree 4 or 5."""
    return sum(tally_contributions(deg))
