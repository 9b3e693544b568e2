"""Command-line front end: A_g tables, series coefficients, verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource cap
exceeded or a size that cannot be allocated. Big integers are serialized as
decimal strings in JSON and CSV so consumers never overflow; values parse back
to identical integers.

This module is the front end alone: the option table, the reader of
well-formed command lines, its own JSON writer and the one emission point. It
imports no computing module. Each command's handler lives with the code it
runs and is imported only when that command runs: `table`'s from `routes`,
`series`'s from `genfun`, `verify`'s from `checks` and `schubert`'s from
`sigma12`. A handler returns (text, payload, exit code), a refusal with
payload None. CSV output and argparse, for help and usage errors, come from
`cli_extra` only on those branches.
"""

import sys
import types

# The default cap on g for the Schubert route and `schubert`: a CLI contract, not a resource
# limit (exit 3, pinned by tests/test_cli.py::test_resource_cap_exit_code); README times --cap 50.
SCHUBERT_CAP_DEFAULT = 12

# The suites of `checks.SUITES`, in registry order: the --suite choices besides
# `all`. Spelled out so that parsing arguments does not load the registry.
SUITES = ("covers", "weierstrass", "identities", "schubert")

# The routes of `routes.ROUTES`, in its order: the --routes help text. Spelled
# out so that loading the CLI does not load the routes.
ROUTES = ("closed", "coeff_form", "schubert", "genfun", "lagrange")

# The one option table. Each command maps to its help line and its options,
# each option being (flag, kind, default, metavar, help) with kind int, str or
# a tuple of choices. `_read` and `cli_extra.build_parser` are both built from it.
_COMMON = (
    ("--format", ("text", "json", "csv"), "text", None, None),
    ("--output", str, None, "PATH", "write output to PATH instead of stdout"),
)
COMMANDS = {
    "table": ("A_g for g = 0..max_g by the requested routes", _COMMON + (
        ("--max-g", int, 8, None, None),
        ("--routes", str, "closed", None,
         "comma-separated subset of: %s" % ",".join(ROUTES)),
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
    declines, from help to usage errors, is left to `cli_extra.build_parser`."""
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


# -- emission -------------------------------------------------------------

# JSON's two-character escapes; every other character outside ' '..'~' is
# written as \uXXXX, as `json.dumps` does with its default ensure_ascii.
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
            "\b": "\\b", "\f": "\\f"}


def _escape(char: str) -> str:
    code = ord(char)
    if code > 0xFFFF:  # past the BMP: a UTF-16 surrogate pair
        return "\\u%04x\\u%04x" % (0xD7C0 + (code >> 10), 0xDC00 | code & 0x3FF)
    return _ESCAPES.get(char) or (char if " " <= char <= "~" else "\\u%04x" % code)


def _string(text) -> str:
    # str.isascii raises TypeError for a dict key that is no str
    if str.isascii(text) and text.isprintable():  # all in ' '..'~'
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return '"' + "".join(map(_escape, text)) + '"'


def _json(value, newline: str = "\n") -> str:
    """`json.dumps(value, indent=2)`, byte for byte, for a payload: dicts with
    str keys, lists, str, int and bool. Any other type raises TypeError."""
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return repr(value)
    inner = newline + "  "
    if kind is list:
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if kind is dict:
        items = [_string(key) + ": " + _json(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    raise TypeError("no JSON payload holds a %s" % kind.__name__)


def _refuse(text: str, code: int = 2) -> int:
    """Write `text` as one line to stderr; return the exit code `code`."""
    sys.stderr.write(text + "\n")
    return code


def _emit(args, text: str, payload: dict, code: int) -> int:
    """Write the output; return `code`, or 2 if it cannot be written."""
    if args.format == "text":
        body = text
    elif args.format == "json":
        body = _json(payload) + "\n"
    else:
        from .cli_extra import to_csv

        body = to_csv(payload)
    try:
        if args.output is None:
            sys.stdout.write(body)
            sys.stdout.flush()
        else:
            with open(args.output, "w") as handle:
                handle.write(body)
    except OSError as err:
        target = "standard output" if args.output is None else args.output
        return _refuse("cannot write %s: %s" % (target, err.strerror or err))
    return code


def main(argv=None) -> int:
    """Run one command; return its exit code. A size that passes every check
    but cannot be allocated ends in exit 3, as a resource cap does.

    A call without `argv` is the program entry: it reads `sys.argv` and, once
    the command has written its output, freezes the garbage collector
    (`gc.freeze`), so that interpreter shutdown does not traverse every object
    the process made just before it exits. A stdout that refused the output
    is then pointed at the null device, so the interpreter's exit flush does
    not report it again. Long-lived callers pass `argv` and keep normal
    collection and their stdout."""
    program = argv is None
    if program:
        argv = sys.argv[1:]
    try:
        args = _read(argv)
        if args is None:
            from .cli_extra import build_parser

            args = build_parser(COMMANDS).parse_args(argv)
        if args.command == "table":
            from .routes import cmd_table as handler
        elif args.command == "series":
            from .genfun import cmd_series as handler
        elif args.command == "verify":
            from .checks import cmd_verify as handler
        else:
            from .sigma12 import cmd_schubert as handler
        try:
            text, payload, code = handler(args)
            return _refuse(text, code) if payload is None else _emit(args, text, payload, code)
        except MemoryError:
            return _refuse("%s: the requested size needs more memory than can be allocated"
                           % args.command, 3)
    finally:
        if program:
            try:
                sys.stdout.flush()
            except OSError:
                # a stdout that refused the output keeps the bytes it could not
                # write, and the interpreter's exit flush would report them a
                # second time: point the descriptor at the null device instead
                import os

                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            import gc

            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
