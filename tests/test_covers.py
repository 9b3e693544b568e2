
import pytest

from oddcovers import checks, covers, ratmap
from oddcovers.ratmap import (
    INFINITY,
    RationalMap,
    fiber_profile,
    point_indices,
    ramification_data,
    vanishing_order,
)


def hurwitz_sum(f):
    """sum(index - 1) over every ramification point of f, conjugates counted."""
    return sum(index - 1 for index in point_indices(ramification_data(f)))


def test_family_condition_alpha1():
    assert covers.family_condition_deg5_alpha1()


def test_family_condition_alpha2():
    assert covers.family_condition_deg5_alpha2()


def test_quartic_cover_check():
    assert covers.check_quartic_cover()


def test_quartic_cover_fibers_directly():
    f = covers.quartic_cover_map()
    assert fiber_profile(f, 0) == [3, 1]
    assert fiber_profile(f, -16) == [3, 1]
    assert fiber_profile(f, INFINITY) == [3, 1]
    assert hurwitz_sum(f) == 6


def test_paired_quartic_report():
    ramification_ok, identical = covers.check_paired_quartic_maps()
    assert ramification_ok
    assert identical


def test_paired_quartic_maps_must_agree_exactly(monkeypatch):
    # 2*first has the same ramification as first but agrees with second o M
    # only after the target Moebius map x -> 2x, which no longer passes
    first, second = covers.paired_quartic_maps()
    doubled = RationalMap(2 * first.num, first.den)
    monkeypatch.setattr(covers, "paired_quartic_maps", lambda: (doubled, second))
    ramification_ok, identical = covers.check_paired_quartic_maps()
    assert ramification_ok
    assert not identical
    result, = (r for r in checks.run_checks(("covers",), 5)
               if r["name"] == "check_paired_quartic_maps")
    assert not result["pass"] and result["detail"] == "relation found: none"


def test_paired_quartic_maps_share_branch_structure():
    first, second = covers.paired_quartic_maps()
    for f in (first, second):
        assert f.degree == 4
        assert vanishing_order(f, 0, 0) == 2
        assert vanishing_order(f, 0, 1) == 2
        assert hurwitz_sum(f) == 6
    assert vanishing_order(second, INFINITY, INFINITY) == 3


def test_deg3_maps():
    assert covers.check_deg3_maps()
    f, conj = covers.deg3_maps()
    assert f(0) == f(1)
    assert vanishing_order(f, f(INFINITY), INFINITY) == 3


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
    seen, wronskians = [], []
    original = ratmap.ramification_data
    original_wronskian = ratmap.RationalMap.wronskian

    def counting(f):
        seen.append(f)
        return original(f)

    def counting_wronskian(f):
        wronskians.append(f)
        return original_wronskian(f)

    # covers holds its own reference; patching both also counts any call
    # made through ratmap itself
    monkeypatch.setattr(ratmap, "ramification_data", counting)
    monkeypatch.setattr(covers, "ramification_data", counting)
    monkeypatch.setattr(ratmap.RationalMap, "wronskian", counting_wronskian)
    assert check()
    assert seen == list(maps())
    assert wronskians == list(maps())


def test_broken_ramification_count_fails_its_checks(monkeypatch):
    # dropping one squarefree factor loses ramification, so Riemann-Hurwitz
    # fails inside ramification_data and verify reports FAIL, not a traceback
    original = ratmap.squarefree_decomposition
    monkeypatch.setattr(ratmap, "squarefree_decomposition", lambda p: original(p)[1:])
    broken = {"check_quartic_cover", "check_deg3_maps", "check_paired_quartic_maps"}
    results = checks.run_checks(("covers",), 5)
    assert len(results) == 7
    for result in results:
        if result["name"] in broken:
            assert not result["pass"]
            assert result["detail"].startswith(
                "assertion failed: ramification bookkeeping off: ")
        else:
            assert result["pass"], result["name"]
    assert broken <= {result["name"] for result in results}
