
import pytest

from oddcovers import checks, covers, ratmap
from oddcovers.poly import IntPoly
from oddcovers.quadratic import form_ring
from oddcovers.ratmap import fiber_is, ramified_exactly_at, same_point, value_at

MAP_CHECKS = {"check_quartic_cover", "check_deg3_maps", "check_paired_quartic_maps"}


def hurwitz_sum(claims):
    """sum(index - 1) over the claimed ramification points."""
    return sum(index - 1 for _, index in claims[0])


def test_family_condition_alpha1():
    assert covers.family_condition_deg5_alpha1()


def test_family_condition_alpha2():
    assert covers.family_condition_deg5_alpha2()


def test_quartic_cover_check():
    assert covers.check_quartic_cover()


def test_quartic_cover_fibers_directly():
    f = covers.quartic_cover_map()
    # fibers {3, 1} over 0, -16 and infinity, at the stated points
    assert fiber_is(f, (0, 1), (((0, 1), 3), ((4, 1), 1)))
    assert fiber_is(f, (-16, 1), (((2, 1), 3), ((-2, 1), 1)))
    assert fiber_is(f, (1, 0), (((1, 0), 3), ((1, 1), 1)))
    assert not fiber_is(f, (-16, 1), (((2, 1), 2), ((-2, 1), 2)))
    claims = covers.quartic_cover_claims()
    assert covers.certified(f, claims)
    assert hurwitz_sum(claims) == 6


def test_paired_quartic_report():
    ramification_ok, identical = covers.check_paired_quartic_maps()
    assert ramification_ok
    assert identical


def test_paired_quartic_maps_must_agree_exactly(monkeypatch):
    # 2*first has the same ramification as first but agrees with second o M
    # only after the target Moebius map x -> 2x, which no longer passes
    first, second = covers.paired_quartic_maps()
    doubled = (2 * first[0], first[1])
    monkeypatch.setattr(covers, "paired_quartic_maps", lambda: (doubled, second))
    ramification_ok, identical = covers.check_paired_quartic_maps()
    assert ramification_ok
    assert not identical
    result, = (r for r in checks.run_checks(("covers",), 5)
               if r["name"] == "check_paired_quartic_maps")
    assert not result["pass"] and result["detail"] == "relation found: none"


def test_paired_quartic_maps_share_branch_structure():
    maps = covers.paired_quartic_maps()
    for f, claims in zip(maps, covers.paired_quartic_claims()):
        assert all(sum(k[:2]) == 4 for form in f for k in form.terms)
        # double points at 0 and 1 over 0
        assert fiber_is(f, (0, 1), (((0, 1), 2), ((1, 1), 2)))
        assert covers.certified(f, claims)
        assert hurwitz_sum(claims) == 6
    # each map's first triple point is its degree-3 pole: (3 - sqrt3)/6 for
    # the first, infinity for the second
    x, z, r = form_ring(3).variables(3)
    assert fiber_is(maps[0], (1, 0), (((3 - r, 6), 3), ((1 + r, 2), 1)))
    assert fiber_is(maps[1], (1, 0), (((1, 0), 3), ((2 + r, 4), 1)))
    assert ((3 - r, 6), 3) in covers.paired_quartic_claims()[0][0]
    assert ((1, 0), 3) in covers.paired_quartic_claims()[1][0]


def test_deg3_maps():
    assert covers.check_deg3_maps()
    f, conj = covers.deg3_maps()
    assert same_point(value_at(f, (0, 1)), value_at(f, (1, 1)))
    # infinity is a triple point, the whole fiber over f(infinity)
    assert fiber_is(f, value_at(f, (1, 0)), (((1, 0), 3),))
    assert ramified_exactly_at(f, covers.deg3_claims()[0][0])


def test_chern_upper_bound():
    assert covers.chern_upper_bound(2, 5) == 4
    assert covers.chern_upper_bound(0, 0) == 0
    assert 4 * covers.chern_upper_bound(2, 5) == 16


def test_c1_dma():
    assert covers.c1_dma(1, 3) == 3
    assert covers.c1_dma(2, 4) == 8
    assert covers.c1_dma(0, 9) == 0
    # the bundle inputs feeding the Chern bound: c1(V) = 8 - 3 = 5
    assert covers.c1_dma(2, 4) - covers.c1_dma(1, 3) == 5


def test_veronese_bound():
    assert covers.VERONESE_PER_SPIN == 4
    assert covers.veronese_bound() == 16


def test_admissible_tallies():
    assert covers.admissible_tally(5) == 16
    assert covers.admissible_tally(4) == 16
    with pytest.raises(ValueError):
        covers.admissible_tally(6)


def test_tally_case_breakdown():
    deg5 = covers.tally_contributions(5)
    assert deg5 == [8, 8]
    # a single end-node configuration contributes 2 * 4 * 1/2 = 4
    label, nodes, automorphisms, copies = covers.TALLY_CASES[5][0]
    assert deg5[0] / copies == 4
    deg4 = covers.tally_contributions(4)
    assert deg4 == [4, 8, 4]
    assert all(type(c) is int for c in deg4 + deg5)


def test_non_positive_tally_contribution_is_named(monkeypatch):
    broken = ("a configuration with no node", (0, 0), 1, 1)
    monkeypatch.setitem(covers.TALLY_CASES, 5, covers.TALLY_CASES[5] + (broken,))
    with pytest.raises(AssertionError, match="non-positive tally contribution in "
                                             "a configuration with no node"):
        covers.tally_contributions(5)
    [result] = [r for r in checks.run_checks(["covers"], 5) if r["name"] == "admissible_tally"]
    assert not result["pass"]
    assert result["detail"] == ("assertion failed: non-positive tally contribution in "
                                "a configuration with no node")


def test_non_integral_tally_contribution_is_named(monkeypatch):
    # automorphism order 3: the share 1 * 2 * (2 + 2) / 3 = 8/3 is no integer
    label, nodes, _, copies = covers.TALLY_CASES[5][1]
    cases = (covers.TALLY_CASES[5][0], (label, nodes, 3, copies))
    monkeypatch.setitem(covers.TALLY_CASES, 5, cases)
    with pytest.raises(AssertionError, match="non-integral tally contribution in " + label):
        covers.admissible_tally(5)
    [result] = [r for r in checks.run_checks(["covers"], 5) if r["name"] == "admissible_tally"]
    assert not result["pass"]
    assert result["detail"] == "assertion failed: non-integral tally contribution in " + label


def test_three_routes_to_sixteen_coincide():
    chern_total = 4 * covers.chern_upper_bound(2, 5)
    assert chern_total == covers.veronese_bound() == covers.admissible_tally(4) \
        == covers.admissible_tally(5) == 16


@pytest.mark.parametrize("check, maps", [
    (lambda: all(covers.check_paired_quartic_maps()), covers.paired_quartic_maps),
    (covers.check_deg3_maps, covers.deg3_maps),
    (covers.check_quartic_cover, lambda: (covers.quartic_cover_map(),)),
])
def test_each_map_is_ramified_once_per_check(monkeypatch, check, maps):
    # one Jacobian per map: the ramification of each is computed once
    seen = []
    original = ratmap.jacobian

    def counting(f):
        seen.append(f)
        return original(f)

    monkeypatch.setattr(ratmap, "jacobian", counting)
    assert check()
    assert seen == list(maps())


def test_broken_ramification_count_fails_its_checks(monkeypatch):
    # a Jacobian with one zero too many matches no statement of the places,
    # so the three map checks report FAIL, and the others still pass
    original = ratmap.jacobian

    def broken(f):
        J = original(f)
        return J * type(J).variables(J.n)[0]

    monkeypatch.setattr(ratmap, "jacobian", broken)
    results = checks.run_checks(("covers",), 5)
    assert len(results) == 7
    for result in results:
        assert result["pass"] is (result["name"] not in MAP_CHECKS), result["name"]
    assert MAP_CHECKS <= {result["name"] for result in results}


def _first_claims(claims, change):
    """claims with the first map's claims replaced by change(its claims)."""
    return (change(claims[0]),) + claims[1:]


# Wrong claims, each planted into the claims of one map of each check:
# (ramification, fibers) -> the same with one thing wrong.
def _wrong_index(claims):
    (point, index), *rest = claims[0]
    return ((point, index + 1), *rest), claims[1]


def _missing_point(claims):
    return claims[0][1:], claims[1]


def _wrong_point(claims):
    (_, index), *rest = claims[0]
    return (((7, 1), index), *rest), claims[1]


def _wrong_fiber_multiplicity(claims):
    (target, ((point, m), *points)), *fibers = claims[1]
    return claims[0], ((target, ((point, m + 1), *points)), *fibers)


PLANTED = {"wrong index": _wrong_index, "missing point": _missing_point,
           "wrong point": _wrong_point, "wrong fiber multiplicity": _wrong_fiber_multiplicity}


@pytest.mark.parametrize("plant", PLANTED.values(), ids=PLANTED.keys())
def test_planted_wrong_claims_fail_their_checks(monkeypatch, plant):
    quartic = covers.quartic_cover_claims()
    paired = covers.paired_quartic_claims()
    cubics = covers.deg3_claims()
    monkeypatch.setattr(covers, "quartic_cover_claims", lambda: plant(quartic))
    monkeypatch.setattr(covers, "paired_quartic_claims", lambda: _first_claims(paired, plant))
    monkeypatch.setattr(covers, "deg3_claims", lambda: _first_claims(cubics, plant))
    assert not covers.check_quartic_cover()
    assert covers.check_paired_quartic_maps() == (False, True)
    assert not covers.check_deg3_maps()
    results = {r["name"]: r for r in checks.run_checks(("covers",), 5)}
    for name in MAP_CHECKS:
        assert not results[name]["pass"], name
    assert results["check_paired_quartic_maps"]["detail"] == "relation found: identity"


def test_a_common_factor_of_F_and_G_fails_the_check(monkeypatch):
    # (x - 5z) F / (x - 5z) G is the same map of the line, but not a pair of
    # coprime forms of degree 5: the check fails whatever it states at 5
    F, G = covers.quartic_cover_map()
    x, z = IntPoly.variables(2)
    line = x - 5 * z
    monkeypatch.setattr(covers, "quartic_cover_map", lambda: (line * F, line * G))
    claims = covers.quartic_cover_claims()
    for extra in ((), (((5, 1), 2),), (((5, 1), 3),)):
        monkeypatch.setattr(covers, "quartic_cover_claims",
                            lambda extra=extra: (claims[0] + extra, claims[1]))
        assert not covers.check_quartic_cover()
    [result] = [r for r in checks.run_checks(("covers",), 5)
                if r["name"] == "check_quartic_cover"]
    assert not result["pass"]
