"""Exact certification of the explicit cover constructions and counts.

Three independent strands meet here: symbolic one-parameter families of
covers of the line (discriminant conditions with the parameter b kept as an
indeterminate, in the integer polynomials `poly.IntPoly` in t and b),
explicit low-degree maps over Q, Q(sqrt(3)) and Q(sqrt(-3)) whose
ramification is verified point by point, and the bookkeeping that
turns local cover counts into the two intersection numbers 16 feeding the
Schubert route. Everything is an exact polynomial identity, and every tally
share is checked to be a whole number; no numerics.
Each map is a pair of binary forms (`ratmap`) with cleared denominators, and
each check states its points: `certified` tests the claimed ramification
and fibers of a map with one Jacobian and products alone.
"""

from .poly import IntPoly, discriminant
from .quadratic import form_ring
from .ratmap import compose, fiber_is, mobius_fixing_0_1, ramified_exactly_at, same_point


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


def certified(f, claims) -> bool:
    """Whether the map f has exactly the claimed ramification and fibers.

    A check's claims about one map are a pair (ramification, fibers): every
    ramification point as a pair (point, index), and fibers as pairs
    (value, ((point, multiplicity), ...)); a point or value (a, b) stands
    for (a : b), infinity for (1 : 0).
    """
    ramification, fibers = claims
    return (ramified_exactly_at(f, ramification)
            and all(fiber_is(f, target, points) for target, points in fibers))


def quartic_cover_map():
    """The degree-4 cover t^3 (t-4) / (t-1) with triple points over 0 and -16,
    as the forms (x^3 (x - 4z), z^3 (x - z))."""
    x, z = IntPoly.variables(2)
    return x ** 3 * (x - 4 * z), z ** 3 * (x - z)


def quartic_cover_claims() -> tuple:
    """Triple points at 0, 2 and infinity; fibers {3,1} over 0, -16 and
    infinity, at 0 and 4, at 2 and -2, at infinity and 1."""
    return ((((0, 1), 3), ((2, 1), 3), ((1, 0), 3)),
            (((0, 1), (((0, 1), 3), ((4, 1), 1))),
             ((-16, 1), (((2, 1), 3), ((-2, 1), 1))),
             ((1, 0), (((1, 0), 3), ((1, 1), 1)))))


def check_quartic_cover() -> bool:
    """Full ramification audit of the degree-4 cover t^3 (t-4) / (t-1).

    Triple points at t = 0, 2 and infinity and nothing else; fiber profiles
    {3,1} over 0, -16 and infinity; the quartic identity
    (t-2)^3 (t+2) = t^4 - 4t^3 + 16t - 16 behind the -16 fiber; and the
    involution identity f(2-t) = -f(t) - 16 pairing the two branch values.
    """
    f = quartic_cover_map()
    if not certified(f, quartic_cover_claims()):
        return False
    x, z = IntPoly.variables(2)
    if (x - 2 * z) ** 3 * (x + 2 * z) != x ** 4 - 4 * x ** 3 * z + 16 * x * z ** 3 - 16 * z ** 4:
        return False
    F, G = f
    return same_point(compose(f, (2 * z - x, z)), (-F - 16 * G, G))


def paired_quartic_maps():
    """The two degree-4 maps over Q(sqrt(3)) with double points at 0 and 1,
    48 sqrt3 t^2 (t-1)^2 / ((1 + sqrt3 - 2t)(sqrt3 + 6t - 3)^3) and
    t^2 (t-1)^2 / (t - 1/2 - sqrt3/4), as forms over Z[sqrt 3]."""
    x, z, r = form_ring(3).variables(3)
    quartic = x * x * (x - z) ** 2
    first = (48 * r * quartic, (-2 * x + (1 + r) * z) * (6 * x + (r - 3) * z) ** 3)
    second = (4 * quartic, z ** 3 * (4 * x - (2 + r) * z))
    return first, second


def paired_quartic_claims() -> tuple:
    """For each map: double points at 0 and 1, the whole fiber over 0; triple
    points at its degree-3 pole and at one further point."""
    x, z, r = form_ring(3).variables(3)
    double = (((0, 1), 2), ((1, 1), 2))
    return ((double + (((3 - r, 6), 3), ((1, 0), 3)), (((0, 1), double),)),
            (double + (((1, 0), 3), ((3 + r, 6), 3)), (((0, 1), double),)))


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
    maps = paired_quartic_maps()
    ramification_ok = all(certified(f, claims)
                          for f, claims in zip(maps, paired_quartic_claims()))
    x, z, r = form_ring(3).variables(3)
    tau = mobius_fixing_0_1((3 + r, 6), x, z)  # 1/2 + sqrt(3)/6
    return ramification_ok, same_point(compose(maps[1], tau), maps[0])


def deg3_maps():
    """The conjugate pair of degree-3 covers over Q(sqrt(-3)),
    +/-(t - 1/2 +/- sqrt(-3)/6)^3, as forms over Z[sqrt -3]."""
    x, z, s = form_ring(-3).variables(3)  # s = i * sqrt(3)
    return ((6 * x + (s - 3) * z) ** 3, 216 * z ** 3), (-(6 * x - (3 + s) * z) ** 3, 216 * z ** 3)


def deg3_claims() -> tuple:
    """For each cubic: triple points at infinity and at (3 -/+ sqrt(-3))/6,
    the whole fiber over 0."""
    x, z, s = form_ring(-3).variables(3)
    return tuple((((point, 3), ((1, 0), 3)), (((0, 1), ((point, 3),)),))
                 for point in ((3 - s, 6), (3 + s, 6)))


def check_deg3_maps() -> bool:
    """The two totally-ramified cubics t -> +/-(t - 1/2 +/- sqrt(-3)/6)^3.

    Certifies f(0) = f(1) (so 0 and 1 share a fiber), that each map ramifies
    exactly at one finite triple point and at infinity, and the involution
    identity f(1-t) = conj(t).
    """
    f, conj = deg3_maps()
    if not all(certified(g, claims) for g, claims in zip((f, conj), deg3_claims())):
        return False
    if not same_point(compose(f, (0, 1)), compose(f, (1, 1))):
        return False
    x, z, s = form_ring(-3).variables(3)
    return same_point(compose(f, (z - x, z)), conj)


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
    copies * SOURCE_CHOICES * sum(node indices) / automorphism order, a
    positive integer; a share that is not raises AssertionError."""
    if deg not in TALLY_CASES:
        raise ValueError("tally tables exist for degrees 4 and 5 only")
    contributions = []
    for label, nodes, automorphisms, copies in TALLY_CASES[deg]:
        value, rest = divmod(copies * SOURCE_CHOICES * sum(nodes), automorphisms)
        if rest:
            raise AssertionError("non-integral tally contribution in %s" % label)
        if value <= 0:
            raise AssertionError("non-positive tally contribution in %s" % label)
        contributions.append(value)
    return contributions


def admissible_tally(deg: int) -> int:
    """Total local count over the boundary configurations for degree 4 or 5."""
    return sum(tally_contributions(deg))
