"""The CLI contract in Tier-1: every command of `tools/cli_compare.py`, run in
process, matches its committed digest in `tests/cli_digests.txt`.

The file is written by `python3 tools/cli_compare.py --write-digests`, which runs
each command as its own process; a change that moves an output byte on purpose
rewrites it, and `cli_compare` against the parent tree shows the difference
itself. These tests only read the file.
"""

import contextlib
import importlib.util
import io
import shlex
import sys
from pathlib import Path

import pytest

from oddcovers import checks, cli

_SPEC = importlib.util.spec_from_file_location(
    "cli_compare", Path(__file__).resolve().parent.parent / "tools" / "cli_compare.py")
cli_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_compare)

VERSION = "%d.%d" % sys.version_info[:2]

# (digest, Python version of argparse's text or "-", command), one per line
ROWS = [tuple(line.split("\t", 2)) for line in cli_compare.DIGESTS.read_text().splitlines()
        if not line.startswith("#")]


def _run(command, tmp_path):
    """What `cli_compare.capture` records for `command`, from one `cli.main`
    call in this process: stdout and stderr as bytes, the exit code (argparse's
    SystemExit included) and the bytes written to `{out}`, or None."""
    out = tmp_path / "out"
    out.unlink(missing_ok=True)
    argv = [arg.replace("{out}", str(out)) for arg in shlex.split(command)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as done:  # argparse: 0 after help, 2 after a usage error
            code = done.code
    written = out.read_bytes() if out.exists() else None
    return stdout.getvalue().encode(), stderr.getvalue().encode(), code, written


def _moved(rows, tmp_path, monkeypatch):
    """The commands of `rows` whose outputs no longer give their digest."""
    monkeypatch.setenv("COLUMNS", cli_compare.COLUMNS)
    return [command for digest, _, command in rows
            if cli_compare.digest(*_run(command, tmp_path)) != digest]


def test_the_file_has_one_row_per_cli_compare_command():
    assert [command for _, _, command in ROWS] == list(cli_compare.COMMANDS)
    assert all(len(digest) == 64 and (version == "-" or version.count(".") == 1)
               for digest, version, _ in ROWS)


def _assert_unmoved(rows, tmp_path, monkeypatch):
    moved = _moved(rows, tmp_path, monkeypatch)
    assert not moved, "output differs from its digest: " + "; ".join(map(repr, moved))


def test_each_command_matches_its_committed_digest(tmp_path, monkeypatch):
    _assert_unmoved([row for row in ROWS if row[1] == "-"], tmp_path, monkeypatch)


def test_each_argparse_command_matches_its_digest_on_its_python(tmp_path, monkeypatch):
    # argparse's help and usage text changes across Python versions, so a row
    # recorded under another version is named, not compared
    rows = [row for row in ROWS if row[1] != "-"]
    assert rows
    _assert_unmoved([row for row in rows if row[1] == VERSION], tmp_path, monkeypatch)
    other = ["%s (Python %s)" % (command, version) for _, version, command in rows
             if version != VERSION]
    if other:
        pytest.skip("not compared on Python %s: %s" % (VERSION, "; ".join(other)))


def test_a_one_byte_change_in_a_citation_names_each_command_it_moves(tmp_path, monkeypatch):
    # binomial_identity's citation, which every format prints, with one byte
    # changed: each identities command moves, and no covers command
    index = [check.name for check in checks.CHECKS].index("binomial_identity")
    check = checks.CHECKS[index]
    planted = check._replace(citation=check.citation.replace("C(g,k)", "C(g,j)"))
    assert planted.citation != check.citation
    monkeypatch.setattr(checks, "CHECKS",
                        checks.CHECKS[:index] + (planted,) + checks.CHECKS[index + 1:])
    rows = [row for row in ROWS if row[2].startswith(("verify --suite identities",
                                                      "verify --suite covers"))]
    identities = [command for _, _, command in rows if "identities" in command]
    assert len(identities) == 3 and len(rows) > 3
    assert _moved(rows, tmp_path, monkeypatch) == identities
