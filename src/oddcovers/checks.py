"""The checks `verify` runs, by suite, with the identity checks only they use,
and the `verify` command (`cmd_verify`). Only `verify` and the acceptance gate
import this module, so no other command loads `covers`, `weier` and the `poly`,
`ratmap` and `quadratic` layers under them; the Schubert suite shares
`sigma12` with the `schubert` command. Each check reads its value off the
one function computing it; the three map checks of `covers` state points and only multiply."""

import sys
from collections import namedtuple
from math import comb

from . import covers, routes, schubert, sigma12, weier
from .combinat import binom_ratio, catalan

# One certified fact; `run(max_g)` returns (passed, detail). `max_g` is the
# identity window, --max-g but never below 5. A citation may name it as %(g)d.
Check = namedtuple("Check", "suite name citation run")


def binomial_identity_check(g: int) -> bool:
    """sum_k (-1)^k 2^(g-k) C(g,k) C(g-k,i) == C(g,i) 2^i for every 0 <= i <= g."""
    return all(sum((-1) ** k * 2 ** (g - k) * comb(g, k) * comb(g - k, i)
                   for k in range(g - i + 1)) == comb(g, i) * 2 ** i
               for i in range(g + 1))


def catalan_half_binomial_check(n: int) -> bool:
    """Catalan(n) == (-1)^n 2^(2n+1) binom(1/2, n+1), the square-root-series
    rewrite, compared in ints: binom(1/2, n+1) = num/den with den > 0, so it
    holds iff Catalan(n) den == (-1)^n 2^(2n+1) num."""
    num, den = binom_ratio(1, 2, n + 1)
    return catalan(n) * den == (-1) ** n * 2 ** (2 * n + 1) * num


def catalan_alternating_sum(g: int, m: int) -> int:
    """Alternating binomial-Catalan sum equal to entry m of the sigma12 row of g."""
    if not 0 <= m <= 2 * g:
        raise ValueError("need 0 <= m <= 2g")
    return sum(
        (-1) ** i * comb(2 * g - m, i) * catalan(2 * g - i)
        for i in range(2 * g - m + 1)
    )


def _sigma3_reduction(max_g):
    # sigma_1 sigma_3 = sigma_{4,0} + sigma_{3,1}; one chain in G(2,18) gives
    # top((sigma_1 sigma_3)^g) in every G(2,2g+2), g <= 8, by restriction
    s1s3 = schubert.SchubertVector.unit(18).pieri(3).pieri(1)
    tops = schubert.top_power_prefix(s1s3.terms, 8)
    return [16 ** g * top for g, top in enumerate(tops)] == routes.route_prefix("closed", 8), ""


def _paired_quartic(max_g):
    ramification_ok, identical = covers.check_paired_quartic_maps()
    relation = "identity" if identical else "none"
    return ramification_ok and identical, "relation found: %s" % relation


def _bound_arithmetic(max_g):
    return (covers.chern_upper_bound(2, 5) == 4
            and 4 * covers.chern_upper_bound(2, 5) == 16
            and covers.veronese_bound() == 16
            and covers.c1_dma(1, 3) == 3
            and covers.c1_dma(2, 4) == 8), ""


def _admissible_tally(max_g):
    t4, t5 = covers.admissible_tally(4), covers.admissible_tally(5)
    return t4 == 16 and t5 == 16, "deg4 = %s, deg5 = %s" % (t4, t5)


E3_NOTE = (" (informational: the certified fact is nonvanishing; "
           "the coefficient itself is reported, not assumed)")


def _nonzero_monomial(expr, i, name, note=""):
    """(passed, detail): specialization i of `expr` is a nonzero monomial."""
    v = weier.specializations(expr)[i]
    return len(v.terms) == 1, "%s -> %s%s" % (name, v.format(weier.NAMES), note)


def _route_agreement(max_g):
    prefixes = [routes.route_prefix(r, max_g)
                for r in ("closed", "coeff_form", "genfun", "lagrange")]
    return all(p == prefixes[0] for p in prefixes), ""


# Every check `verify` runs, grouped by suite; `all` runs them in this order.
CHECKS = (
    Check("covers", "family_condition_deg5_alpha1",
          "critical factor of t^3(t-1)(t-b) is 5t^2-4(1+b)t+3b with "
          "discriminant 4(4b^2-7b+4), which has two distinct roots",
          lambda max_g: (covers.family_condition_deg5_alpha1(), "")),
    Check("covers", "family_condition_deg5_alpha2",
          "critical factor of t^2(t-1)^2(t-b) is (t^2-t)(5t^2-(3+4b)t+2b); "
          "double-root condition 16b^2-16b+9 has two distinct roots",
          lambda max_g: (covers.family_condition_deg5_alpha2(), "")),
    Check("covers", "check_quartic_cover",
          "t^3(t-4)/(t-1) has triple points exactly at 0, 2, infinity; "
          "profiles {3,1} over 0, -16, infinity; f(2-t) = -f(t)-16",
          lambda max_g: (covers.check_quartic_cover(), "")),
    Check("covers", "check_deg3_maps",
          "the cubics +/-(t-1/2 +/- sqrt(-3)/6)^3 identify 0 and 1, ramify "
          "only at one finite triple point and infinity, and f(1-t) = conj(t)",
          lambda max_g: (covers.check_deg3_maps(), "")),
    Check("covers", "check_paired_quartic_maps",
          "both degree-4 maps over Q(sqrt(3)) have profile {2,2} over 0, a triple "
          "point at the designated pole, one further triple point, nothing else",
          _paired_quartic),
    Check("covers", "bound_arithmetic",
          "4(5-2*2) = 4 per spin structure, times 4 spins = 16; Veronese degree "
          "2^2 = 4 per spin, total 16; both match the admissible-cover tallies",
          _bound_arithmetic),
    Check("covers", "admissible_tally",
          "boundary-configuration tallies give 16 in both degrees: "
          "4+8+4 in degree 4 and 8+8 in degree 5",
          _admissible_tally),
    Check("weierstrass", "derivation_consistency",
          "(D^2)' via the Leibniz rule matches the derivative of "
          "4(P-e1)(P-e2)(P-e3)",
          lambda max_g: (weier.check_derivation_consistency(), "")),
    Check("weierstrass", "check_G_identities",
          "G = D(P-e2)/(P-e1) has G' = ((P-e2)/(P-e1)) * "
          "2(3P^2+2(e2-e1)P-3e1^2-e1e2+e2^2); discriminant 16*Delta0 with "
          "Delta0 = 10e1^2+e1e2-2e2^2, nonzero in every square-period case",
          lambda max_g: (weier.check_G_identities(), "")),
    Check("weierstrass", "check_Gtilde_identities",
          "G~ = D(P-e1) has G~' = (P-e1)(6P^2-2(e1^2+e1e2+e2^2)"
          "+4(P-e2)(P-e3)); discriminant 16(5e1^2+6e2^2+e3^2+5e1e2-8e2e3), "
          "nonzero in every square-period case",
          lambda max_g: (weier.check_Gtilde_identities(), "")),
    *(Check("weierstrass", "delta0[%s]" % label,
            "Delta0 specialization is a nonzero monomial",
            lambda max_g, i=i, note=note: _nonzero_monomial(weier.DELTA0, i, "Delta0", note))
      for i, (label, note) in enumerate(zip(weier.SPECIALIZATION_LABELS, ("", "", E3_NOTE)))),
    *(Check("weierstrass", "gtilde_delta[%s]" % label,
            "degree-5 discriminant specialization is a nonzero monomial",
            lambda max_g, i=i: _nonzero_monomial(weier.GTILDE_DELTA, i, "Delta"))
      for i, label in enumerate(weier.SPECIALIZATION_LABELS)),
    Check("identities", "binomial_identity",
          "sum_k (-1)^k 2^(g-k) C(g,k) C(g-k,i) = C(g,i) 2^i for g <= %(g)d",
          lambda max_g: (all(binomial_identity_check(g)
                             for g in range(max_g + 1)), "")),
    Check("identities", "catalan_half_binomial",
          "Catalan(n) = (-1)^n 2^(2n+1) binom(1/2, n+1) for n <= 60",
          lambda max_g: (all(catalan_half_binomial_check(n)
                             for n in range(61)), "")),
    Check("identities", "route_agreement",
          "closed sum, coefficient extraction, series expansion and "
          "Lagrange inversion agree for g <= %(g)d",
          _route_agreement),
    Check("schubert", "sigma12_vs_alternating_sum",
          "sigma_1^(2m) sigma_2^(2g-m) = sum_i (-1)^i C(2g-m,i) Cat(2g-i) "
          "in G(2,2g+2) for g <= 8, 0 <= m <= 2g",
          lambda max_g: (sigma12.sigma12_rows(range(9)) == [
              [catalan_alternating_sum(g, m) for m in range(2 * g + 1)]
              for g in range(9)], "")),
    Check("schubert", "grassmannian_degree",
          "sigma_1^(2(n-2)) evaluates to Catalan(n-2) on G(2,n), n <= 12",
          # sigma_1^2 = sigma_2 + sigma_{1,1}; its g-th power lives in G(2,g+2)
          lambda max_g: (schubert.top_power_prefix({(2, 0): 1, (1, 1): 1}, 10)
                         == [catalan(n) for n in range(11)], "")),
    Check("schubert", "schubert_route",
          "(16 sigma_{4,0} + 16 sigma_{3,1})^g equals the closed formula, g <= 8",
          lambda max_g: (routes.route_prefix("schubert", 8)
                         == routes.route_prefix("closed", 8), "")),
    Check("schubert", "sigma3_reduction",
          "16^g (sigma_1 sigma_3)^g equals the closed formula, g <= 8",
          _sigma3_reduction),
)

# Suite names in registry order; `cli.SUITES` spells out the same tuple.
SUITES = tuple(dict.fromkeys(check.suite for check in CHECKS))


def run_checks(suites, max_g: int) -> list:
    """Run the checks of `suites` in registry order; one dict per check. A
    check that raises an Exception is reported as failed and the remaining
    checks still run; a MemoryError stays `cli`'s resource exit (exit 3)."""
    max_g = max(max_g, 5)
    results = []
    for check in CHECKS:
        if check.suite not in suites:
            continue
        try:
            passed, detail = check.run(max_g)
        except MemoryError:
            raise
        except AssertionError as err:
            passed, detail = False, "assertion failed: %s" % err
        except Exception as err:
            passed, detail = False, "raised %s: %s" % (type(err).__name__, err)
        results.append({"name": check.name, "citation": check.citation % {"g": max_g},
                        "pass": bool(passed), "detail": detail})
    return results


def cmd_verify(args):
    """(text, payload, exit code) of `verify`, as `cli` emits them."""
    if args.max_g < 0:
        return "--max-g must be nonnegative", None, 2
    if 2 * args.max_g + 2 > sys.maxsize:  # route_agreement: series to order 2 max_g + 1
        return "--max-g is too large: a sequence holds at most %d items" % sys.maxsize, None, 2
    suites = SUITES if args.suite == "all" else (args.suite,)
    if "identities" in suites:
        # route_agreement's window, allocated before the first check as each
        # route allocates its lists before its first step: a size that cannot
        # be allocated fails at once, not after binomial_identity's loop
        [0] * (2 * args.max_g + 2)
    checks = run_checks(suites, args.max_g)
    lines = ["%s  %-35s %s" % ("PASS" if check["pass"] else "FAIL", check["name"],
                               check["detail"] or check["citation"]) for check in checks]
    failed = sum(not check["pass"] for check in checks)
    lines.append("%d checks, %d failed" % (len(checks), failed))
    payload = {"command": "verify", "rows": [], "checks": checks}
    return "\n".join(lines) + "\n", payload, 1 if failed else 0
