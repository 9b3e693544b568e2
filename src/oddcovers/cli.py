"""Command-line front end: A_g tables, series coefficients, verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource cap
exceeded or a size that cannot be allocated. Big integers are serialized as
decimal strings in JSON and CSV so consumers never overflow; values parse back
to identical integers.
"""

import json
import sys
import types
from math import gcd

from . import routes

# The default cap on g for the Schubert route and the `schubert` command is a
# CLI contract (exit code 3, pinned by tests/test_cli.py::test_resource_cap_exit_code),
# not a resource limit. With --cap 50, `table --max-g 50 --routes schubert`
# takes 0.063-0.093 s and `schubert --g 50` 0.069-0.102 s, against
# 0.048-0.070 s for a bare `python -c pass` (process start to exit, no
# bytecode cache, medians of 6 x 21 interleaved runs, shared 2-core Xeon VM,
# Python 3.11).
SCHUBERT_CAP_DEFAULT = 12

# The suites of `checks.SUITES`, in registry order: the --suite choices besides
# `all`. Spelled out so that parsing arguments does not load the registry.
SUITES = ("covers", "weierstrass", "identities", "schubert")

# The one option table. Each command maps to its help line and its options,
# each option being (flag, kind, default, metavar, help) with kind int, str or
# a tuple of choices. `_read` and `build_parser` are both built from it.
_COMMON = (
    ("--format", ("text", "json", "csv"), "text", None, None),
    ("--output", str, None, "PATH", "write output to PATH instead of stdout"),
)
COMMANDS = {
    "table": ("A_g for g = 0..max_g by the requested routes", _COMMON + (
        ("--max-g", int, 8, None, None),
        ("--routes", str, "closed", None,
         "comma-separated subset of: %s" % ",".join(routes.ROUTES)),
        ("--n4", int, 16, None, None),
        ("--n5", int, 16, None, None),
        ("--cap", int, SCHUBERT_CAP_DEFAULT, None,
         "resource cap on g for the schubert route"),
    )),
    "series": ("generating-series coefficients up to an order", _COMMON + (
        ("--order", int, 11, None, None),
    )),
    "verify": ("run the verification suites", _COMMON + (
        ("--suite", ("all",) + SUITES, "all", None, None),
        ("--max-g", int, 30, None, "upper g for the identity checks"),
    )),
    "schubert": ("intersection-number tables for one g", _COMMON + (
        ("--g", int, 2, None, None),
        ("--n4", int, 16, None, None),
        ("--n5", int, 16, None, None),
        ("--cap", int, SCHUBERT_CAP_DEFAULT, None, None),
    )),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _read(argv):
    """The namespace argparse gives for `COMMAND (--flag VALUE)*`, with every
    flag spelled in full and every value valid; None for any other argv.

    A value may begin with `-` only as an int option's negative decimal,
    which argparse also reads as a value (its `^-\\d+$`). Everything this
    declines, from help to usage errors, is left to `build_parser`."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    options = COMMANDS[argv[0]][1]
    kinds = {flag: kind for flag, kind, *_ in options}
    fields = {_dest(flag): default for flag, _, default, *_ in options}
    fields["command"] = argv[0]
    for flag, value in zip(argv[1::2], argv[2::2]):
        kind = kinds.get(flag)
        if kind is None:
            return None
        if value.startswith("-") and not (kind is int and value[1:].isdecimal()):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        fields[_dest(flag)] = value
    return types.SimpleNamespace(**fields)


def build_parser() -> "argparse.ArgumentParser":
    import argparse

    parser = argparse.ArgumentParser(
        prog="oddcovers",
        description="Alternating Catalan numbers by independent exact routes, "
        "with verification suites for the underlying identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=summary)
        for flag, kind, default, metavar, text in options:
            command_parser.add_argument(
                flag, type=int if kind is int else None,
                choices=kind if type(kind) is tuple else None,
                default=default, metavar=metavar, help=text)
    return parser


# -- emission -------------------------------------------------------------


def _refuse(text: str, code: int = 2) -> int:
    """Write `text` as one line to stderr; return the exit code `code`."""
    sys.stderr.write(text + "\n")
    return code


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
            return _refuse("cannot write %s: %s" % (args.output, err.strerror or err))
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
        return _refuse("unknown route in %r; choose from %s"
                       % (args.routes, ",".join(routes.ROUTES)))
    if args.max_g < 0:
        return _refuse("--max-g must be nonnegative")
    if "schubert" in route_list and args.max_g > args.cap:
        return _refuse("schubert route capped at g = %d (raise with --cap)" % args.cap, 3)
    if 2 * args.max_g + 2 > sys.maxsize:  # a series to order 2 max_g + 1
        return _refuse("--max-g is too large: a sequence holds at most %d items" % sys.maxsize)
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
        return _refuse("--order must be nonnegative")
    if args.order + 1 > sys.maxsize:
        return _refuse("--order is too large: a sequence holds at most %d items" % sys.maxsize)
    series = routes.genfun_series(args.order)
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
        return _refuse("--g must be nonnegative")
    if args.g > args.cap:
        return _refuse("capped at g = %d (raise with --cap)" % args.cap, 3)
    if 2 * args.g + 2 > sys.maxsize:  # the sigma_1 chain holds 2g + 1 classes
        return _refuse("--g is too large: a sequence holds at most %d items" % sys.maxsize)
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
        return _refuse("--max-g must be nonnegative")
    if 2 * args.max_g + 2 > sys.maxsize:  # route_agreement: series to order 2 max_g + 1
        return _refuse("--max-g is too large: a sequence holds at most %d items" % sys.maxsize)
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
    """Run one command; return its exit code. A size that passes every check
    but cannot be allocated ends in exit 3, as a resource cap does.

    A call without `argv` is the program entry: it reads `sys.argv` and, once
    the command has written its output, freezes the garbage collector
    (`gc.freeze`), so that interpreter shutdown does not traverse every object
    the process made just before it exits. Long-lived callers pass `argv` and
    keep normal collection."""
    program = argv is None
    if program:
        argv = sys.argv[1:]
    try:
        args = _read(argv) or build_parser().parse_args(argv)
        handlers = {"table": cmd_table, "series": cmd_series,
                    "verify": cmd_verify, "schubert": cmd_schubert}
        try:
            return handlers[args.command](args)
        except MemoryError:
            return _refuse("%s: the requested size needs more memory than can be allocated"
                           % args.command, 3)
    finally:
        if program:
            import gc

            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
