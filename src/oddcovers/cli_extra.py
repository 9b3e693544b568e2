"""The command-line branches that `cli` imports only when a job takes them:
CSV output, and argparse for help and usage errors."""


def build_parser(commands) -> "argparse.ArgumentParser":
    """The argparse parser of the option table `commands` (`cli.COMMANDS`)."""
    import argparse

    parser = argparse.ArgumentParser(prog="oddcovers", description=(
        "Alternating Catalan numbers by independent exact routes, "
        "with verification suites for the underlying identities."))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in commands.items():
        command_parser = sub.add_parser(command, help=summary)
        for flag, kind, default, metavar, text in options:
            command_parser.add_argument(
                flag, type=int if kind is int else None,
                choices=kind if type(kind) is tuple else None,
                default=default, metavar=metavar, help=text)
    return parser


def to_csv(payload: dict) -> str:
    """The CSV form of a payload: its rows, then its checks."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    rows, checks = payload.get("rows"), payload.get("checks")
    if rows:
        names = sorted(rows[0]["values"])
        writer.writerow(["g"] + names + ["agree"])
        writer.writerows([row["g"]] + [row["values"][r] for r in names]
                         + [str(row["agree"]).lower()] for row in rows)
    if checks:
        writer.writerow(["name", "citation", "pass", "detail"])
        writer.writerows([check["name"], check["citation"], str(check["pass"]).lower(),
                          check["detail"]] for check in checks)
    return buf.getvalue()
