"""Command-line front end: A_g tables, series coefficients, verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource cap
exceeded. Big integers are serialized as decimal strings in JSON and CSV so
consumers never overflow; values parse back to identical integers.
"""

import argparse
import json
import sys
from math import gcd

from . import routes

# The default cap on g for the Schubert route and the `schubert` command is a
# CLI contract (exit code 3, pinned by tests/test_cli.py::test_resource_cap_exit_code),
# not a resource limit. With --cap 50, `table --max-g 50 --routes schubert`
# takes 0.11-0.13 s and `schubert --g 50` 0.12-0.14 s (process start to exit,
# no bytecode cache, medians of 3 x 21 runs, shared 2-core Xeon VM, Python 3.11).
SCHUBERT_CAP_DEFAULT = 12

# The suites of `checks.SUITES`, in registry order: the --suite choices besides
# `all`. Spelled out so that parsing arguments does not load the registry.
SUITES = ("covers", "weierstrass", "identities", "schubert")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddcovers",
        description="Alternating Catalan numbers by independent exact routes, "
        "with verification suites for the underlying identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--output", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")

    table = sub.add_parser("table", parents=[common],
                           help="A_g for g = 0..max_g by the requested routes")
    table.add_argument("--max-g", type=int, default=8)
    table.add_argument("--routes", default="closed",
                       help="comma-separated subset of: %s" % ",".join(routes.ROUTES))
    table.add_argument("--n4", type=int, default=16)
    table.add_argument("--n5", type=int, default=16)
    table.add_argument("--cap", type=int, default=SCHUBERT_CAP_DEFAULT,
                       help="resource cap on g for the schubert route")

    series = sub.add_parser("series", parents=[common],
                            help="generating-series coefficients up to an order")
    series.add_argument("--order", type=int, default=11)

    verify = sub.add_parser("verify", parents=[common],
                            help="run the verification suites")
    verify.add_argument("--suite", default="all",
                        choices=("all",) + SUITES)
    verify.add_argument("--max-g", type=int, default=30,
                        help="upper g for the identity checks")

    schub = sub.add_parser("schubert", parents=[common],
                           help="intersection-number tables for one g")
    schub.add_argument("--g", type=int, default=2)
    schub.add_argument("--n4", type=int, default=16)
    schub.add_argument("--n5", type=int, default=16)
    schub.add_argument("--cap", type=int, default=SCHUBERT_CAP_DEFAULT)
    return parser


# -- emission -------------------------------------------------------------


def _emit(args, text: str, payload: dict, code: int = 0) -> int:
    """Write the output; return `code`, or 2 if --output cannot be written."""
    if args.format == "text":
        body = text
    elif args.format == "json":
        body = json.dumps(payload, indent=2) + "\n"
    else:
        body = _to_csv(payload)
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(body)
        except OSError as err:
            sys.stderr.write("cannot write %s: %s\n" % (args.output, err.strerror or err))
            return 2
    else:
        sys.stdout.write(body)
    return code


def _to_csv(payload: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    if payload.get("rows"):
        route_names = sorted(payload["rows"][0]["values"])
        writer.writerow(["g"] + route_names + ["agree"])
        for row in payload["rows"]:
            writer.writerow(
                [row["g"]]
                + [row["values"][r] for r in route_names]
                + [str(row["agree"]).lower()]
            )
    if payload.get("checks"):
        writer.writerow(["name", "citation", "pass", "detail"])
        for check in payload["checks"]:
            writer.writerow([check["name"], check["citation"],
                             str(check["pass"]).lower(), check["detail"]])
    return buf.getvalue()


# -- subcommands ----------------------------------------------------------


def cmd_table(args) -> int:
    route_list = [r.strip() for r in args.routes.split(",") if r.strip()]
    if not route_list or any(r not in routes.ROUTES for r in route_list):
        sys.stderr.write("unknown route in %r; choose from %s\n"
                         % (args.routes, ",".join(routes.ROUTES)))
        return 2
    if args.max_g < 0:
        sys.stderr.write("--max-g must be nonnegative\n")
        return 2
    if "schubert" in route_list and args.max_g > args.cap:
        sys.stderr.write("schubert route capped at g = %d (raise with --cap)\n"
                         % args.cap)
        return 3
    prefixes = {r: routes.route_prefix(r, args.max_g, args.n4, args.n5) for r in route_list}
    rows = []
    for g in range(args.max_g + 1):
        values = {r: prefixes[r][g] for r in route_list}
        rows.append({"g": g, "values": {r: str(v) for r, v in values.items()},
                     "agree": len(set(values.values())) == 1})
    all_agree = all(row["agree"] for row in rows)
    lines = ["g\t" + "\t".join(route_list) + "\tagree"]
    for row in rows:
        lines.append("%d\t%s\t%s" % (
            row["g"],
            "\t".join(row["values"][r] for r in route_list),
            "yes" if row["agree"] else "NO",
        ))
    payload = {"command": "table", "rows": rows, "checks": []}
    return _emit(args, "\n".join(lines) + "\n", payload, 0 if all_agree else 1)


def cmd_series(args) -> int:
    if args.order < 0:
        sys.stderr.write("--order must be nonnegative\n")
        return 2
    series = routes.genfun_series(max(args.order, 1)).truncated(args.order)
    coeffs, den = series.nums, series.den
    if den != 1:  # reduced, so some numerator is no multiple of den
        c = next(c for c in coeffs if c % den)
        raise AssertionError("non-integer series coefficient %d/%d"
                             % (c // gcd(c, den), den // gcd(c, den)))
    note = ("coefficient of w^n at index n; A_g sits at the odd index n = 2g+1, "
            "every even index is 0")
    rows = [{"g": n, "values": {"genfun": str(c)}, "agree": True}
            for n, c in enumerate(coeffs)]
    lines = ["# " + note]
    lines.extend("%d\t%d" % (n, c) for n, c in enumerate(coeffs))
    payload = {"command": "series", "note": note, "rows": rows, "checks": []}
    return _emit(args, "\n".join(lines) + "\n", payload)


def cmd_schubert(args) -> int:
    if args.g < 0:
        sys.stderr.write("--g must be nonnegative\n")
        return 2
    if args.g > args.cap:
        sys.stderr.write("capped at g = %d (raise with --cap)\n" % args.cap)
        return 3
    from . import schubert

    value = routes.route_prefix("schubert", args.g, args.n4, args.n5)[args.g]
    matrix = dict(enumerate(schubert.sigma12_rows([args.g])[0]))
    lines = ["top intersections sigma_1^(2m) sigma_2^(2g-m) in G(2,%d), g=%d"
             % (2 * args.g + 2, args.g)]
    for m, v in matrix.items():
        lines.append("m=%d\t%d" % (m, v))
    lines.append("(%d*sigma_{4,0} + %d*sigma_{3,1})^%d -> %d"
                 % (args.n4, args.n5, args.g, value))
    rows = [{"g": args.g, "values": {"schubert": str(value)}, "agree": True}]
    payload = {"command": "schubert", "rows": rows,
               "matrix": {str(m): str(v) for m, v in matrix.items()}, "checks": []}
    return _emit(args, "\n".join(lines) + "\n", payload)


def cmd_verify(args) -> int:
    if args.max_g < 0:
        sys.stderr.write("--max-g must be nonnegative\n")
        return 2
    from .checks import run_checks

    checks = run_checks(SUITES if args.suite == "all" else (args.suite,), args.max_g)
    lines = []
    for check in checks:
        lines.append("%s  %-35s %s" % (
            "PASS" if check["pass"] else "FAIL", check["name"],
            check["detail"] or check["citation"],
        ))
    ok = all(c["pass"] for c in checks)
    lines.append("%d checks, %d failed" % (len(checks),
                                           sum(not c["pass"] for c in checks)))
    payload = {"command": "verify", "rows": [], "checks": checks}
    return _emit(args, "\n".join(lines) + "\n", payload, 0 if ok else 1)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"table": cmd_table, "series": cmd_series,
                "verify": cmd_verify, "schubert": cmd_schubert}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
