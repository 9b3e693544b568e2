"""Independent correctness oracle for the benchmark's CLI outputs.

Nothing here imports `oddcovers`: A_g comes from this file's own exact
closed sum, and every CLI payload is checked against it. Each check returns
a list of problems; an empty list means the output is correct.
"""

from math import comb

# Exactly the checks `verify --suite all` runs, in the order it reports them.
VERIFY_CHECKS = (
    "family_condition_deg5_alpha1",
    "family_condition_deg5_alpha2",
    "check_quartic_cover",
    "check_deg3_maps",
    "check_paired_quartic_maps",
    "bound_arithmetic",
    "admissible_tally",
    "derivation_consistency",
    "check_G_identities",
    "check_Gtilde_identities",
    "delta0[e1=0]",
    "delta0[e2=0]",
    "delta0[e3=0 (e2=-e1)]",
    "gtilde_delta[e1=0]",
    "gtilde_delta[e2=0]",
    "gtilde_delta[e3=0 (e2=-e1)]",
    "binomial_identity",
    "catalan_half_binomial",
    "route_agreement",
    "sigma12_vs_alternating_sum",
    "grassmannian_degree",
    "schubert_route",
    "sigma3_reduction",
)


def alt_catalan(g: int) -> int:
    """A_g = 16^g * sum_i (-2)^i C(g,i) Cat(2g-i), Cat(n) = C(2n,n)/(n+1)."""
    total = 0
    for i in range(g + 1):
        n = 2 * g - i
        total += (-2) ** i * comb(g, i) * (comb(2 * n, n) // (n + 1))
    return 16 ** g * total


def _rows(payload, command: str, key: str = "rows"):
    """The list under `key` of a payload from `command`, or None."""
    if not isinstance(payload, dict) or payload.get("command") != command:
        return None
    rows = payload.get(key)
    return rows if isinstance(rows, list) else None


def check_table(payload, max_g: int, route_names) -> list:
    """Rows g = 0..max_g, each route's value equal to A_g, `agree` true."""
    rows = _rows(payload, "table")
    if rows is None or len(rows) != max_g + 1:
        return ["expected a table of %d rows" % (max_g + 1)]
    problems = []
    for g, row in enumerate(rows):
        if row.get("g") != g:
            problems.append("row %d has g = %r" % (g, row.get("g")))
            continue
        values = row.get("values", {})
        if sorted(values) != sorted(route_names):
            problems.append("g=%d routes %s" % (g, sorted(values)))
        want = str(alt_catalan(g))
        for route, value in values.items():
            if value != want:
                problems.append("g=%d %s = %s, oracle %s" % (g, route, value, want))
        if row.get("agree") is not True:
            problems.append("g=%d agree is %r" % (g, row.get("agree")))
    return problems


def check_series(payload, order: int) -> list:
    """Coefficients of w^0..w^order: even ones 0, the one at 2g+1 equal to A_g."""
    rows = _rows(payload, "series")
    if rows is None or len(rows) != order + 1:
        return ["expected %d series coefficients" % (order + 1)]
    problems = []
    for n, row in enumerate(rows):
        want = "0" if n % 2 == 0 else str(alt_catalan((n - 1) // 2))
        got = row.get("values", {}).get("genfun") if row.get("g") == n else None
        if got != want:
            problems.append("w^%d coefficient %s, oracle %s" % (n, got, want))
    return problems


def check_verify(payload) -> list:
    """Exactly the expected checks, each with "pass": true."""
    checks = _rows(payload, "verify", key="checks")
    if checks is None:
        return ["payload has no checks"]
    names = tuple(c.get("name") for c in checks)
    problems = []
    if names != VERIFY_CHECKS:
        problems.append("check names differ: %s" % (names,))
    problems.extend("check %s did not pass" % c.get("name")
                    for c in checks if c.get("pass") is not True)
    return problems
