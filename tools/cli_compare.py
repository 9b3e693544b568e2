"""Check that CLI outputs are byte-identical between two source trees.

    git archive BASE_COMMIT | tar -x -C BASE_DIR
    python3 tools/cli_compare.py BASE_DIR/src [NEW_SRC]
    python3 tools/cli_compare.py --write-digests [NEW_SRC]

Runs every command in COMMANDS as `python -m oddcovers.cli ...` once with
BASE_DIR/src and once with NEW_SRC (default: this checkout's `src`) on
PYTHONPATH, and compares stdout, stderr, the exit code and the bytes of the
file the command writes. Each command is the argv list `shlex.split` makes of
its string, so a quoted value may be empty or hold spaces; `{out}` in it
becomes a path in a fresh temporary directory on each side, for `--output`.
Every run sees COLUMNS=80, the width argparse wraps its help and usage to.
Prints one line per command and exits 1 if any of them differ.

`--write-digests` runs each command once, with NEW_SRC, and writes DIGESTS:
one line per command, `digest(...)` of its four outputs, the Python version
for a command that argparse answers (help and usage text change across
versions), else `-`, and the command, separated by tabs.
`tests/test_cli_digests.py` recomputes each line in process.
"""

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "cli_digests.txt"
DIGESTS_HEADER = ("# digest, Python version of argparse's text or -, command; tab-separated.\n"
                  "# Written by `python3 tools/cli_compare.py --write-digests`.\n")
COLUMNS = "80"

COMMANDS = (
    "table --max-g 16 --routes closed,coeff_form,genfun,lagrange --format json",
    "verify --suite all --max-g 30",
    "verify --suite all --max-g 5 --format json",
    "series --order 101 --format json",
    "series --order 201",
    "table --max-g 50 --routes closed,schubert --cap 50 --format json",
    "schubert --g 3",
    "verify --suite covers --max-g 5 --format csv",
    "table --max-g 8 --routes closed,coeff_form,schubert,genfun,lagrange --format csv",
    "verify --suite bogus",
    "table --routes bogus",
    "verify --max-g -1",
    "schubert --g 3 --format csv",
    "verify --suite weierstrass --format json",
    "table --max-g 100 --routes closed,coeff_form --format json",
    "schubert --g 12 --n4 1 --n5 0 --format json",
    "schubert --g 13",
    "schubert --g 50 --cap 50 --format json",
    "table --max-g 30 --routes schubert,closed --n4 3 --n5 -7 --cap 30 --format json",
    "schubert --g 20 --n4 0 --n5 1 --cap 20",
    "table --max-g 80 --routes coeff_form,genfun,lagrange --format json",
    "series --order 0",
    "series --order 1 --format csv",
    "table --max-g 0 --routes coeff_form,genfun,lagrange",
    "verify --suite covers --format json",
    "verify --suite schubert --max-g 0 --format csv",
    "verify --suite weierstrass --max-g 0",
    "schubert --g 8 --format json",
    "verify --suite identities --format csv",
    "verify --suite schubert --format json",
    "table --max-g 200 --routes closed,coeff_form --format json",
    "table --max-g 60 --routes closed --format csv",
    "table --max-g 40 --routes schubert,closed --cap 40 --format json",
    "verify --suite covers",
    "verify --suite weierstrass --format csv",
    "table --max-g 5 --routes schubert,closed --n4 0 --n5 0 --format json",
    "schubert --g 3 --n4 0 --n5 0 --format csv",
    "series --order -1",
    "schubert --g -1",
    "table --max-g -1",
    "table --max-g 3 --routes lagrange --format csv",
    "--help",
    "table -h",
    "verify -h",
    "",
    "table --max 3",
    "table --max-g=3 --format=json",
    "verify --max-g x",
    "table --routes -x",
    "table --format yaml",
    "table --max-g 3 --max-g 4",
    "table --routes ''",
    "table --max-g ' 5'",
    "table --max-g '-1 '",
    "table --max-g 13 --routes schubert",
    "series --order 3 --output '/nonexistent dir/out.txt'",
    "series --order 2",
    "series --order 401 --format json",
    "table --max-g 200 --routes genfun,closed --format json",
    "series --order 100000000000000000000",
    "table --max-g 100000000000000000000 --routes genfun",
    "table --max-g 100000000000000000000 --routes coeff_form",
    "series --order 9223372036854775806",
    "table --max-g 4611686018427387902 --routes genfun",
    "table --max-g 300 --routes closed,coeff_form --format csv",
    "table --max-g 1 --routes coeff_form",
    "verify --suite identities --max-g 40",
    "table --max-g 5 --routes closed,genfun --format json --output {out}",
    "verify --suite covers --format csv --output {out}",
    "series --order 0 --format json",
    "schubert --g 0 --format json",
    "table --max-g 2 --routes closed,closed",
    "series --order 7 --format csv --output {out}",
    "series --order 3 --format json --output {out}",
    "series -h",
    "series --order x",
    "schubert -h",
    "table --max-g 3 --routes genfun,lagrange --format csv",
    "table --max-g 120 --routes lagrange,closed --format json",
    "verify --suite identities --max-g 60 --format json",
    # suites that ignore --max-g run to the end at a size the identities
    # suite cannot allocate
    "verify --suite covers --max-g 4611686018427387902",
    "verify --suite weierstrass --max-g 4611686018427387902 --format json",
    "verify --suite schubert --max-g 4611686018427387902",
)


def capture(src: str, command: str):
    """(stdout, stderr, exit code, bytes written to `{out}` or None) of one CLI
    command run from `src`."""
    env = dict(os.environ, PYTHONPATH=src, COLUMNS=COLUMNS)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        argv = [arg.replace("{out}", str(out)) for arg in shlex.split(command)]
        done = subprocess.run([sys.executable, "-m", "oddcovers.cli", *argv],
                              env=env, capture_output=True, timeout=600)
        written = out.read_bytes() if out.exists() else None
    return done.stdout, done.stderr, done.returncode, written


def digest(stdout: bytes, stderr: bytes, code: int, written) -> str:
    """The SHA-256, in hex, of one command's outputs, each part length-prefixed
    so that no two different outputs share an encoding."""
    h = hashlib.sha256()
    file = b"none" if written is None else b"file" + written
    for part in (stdout, stderr, str(code).encode(), file):
        h.update(b"%d:" % len(part) + part)
    return h.hexdigest()


def write_digests(src: str) -> None:
    sys.path.insert(0, src)
    from oddcovers.cli import _read  # None for an argv that argparse answers

    version = "%d.%d" % sys.version_info[:2]
    DIGESTS.write_text(DIGESTS_HEADER + "".join(
        "%s\t%s\t%s\n" % (digest(*capture(src, command)),
                          version if _read(shlex.split(command)) is None else "-", command)
        for command in COMMANDS))


def _src(args) -> str:
    """The source tree `args` names, or this checkout's `src`."""
    return str(Path(args[0] if args else ROOT / "src").resolve())


def main(argv) -> int:
    if argv[:1] == ["--write-digests"] and len(argv) <= 2:
        write_digests(_src(argv[1:]))
        return 0
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    base, new = _src(argv[:1]), _src(argv[1:])
    differ = False
    for command in COMMANDS:
        old, cur = capture(base, command), capture(new, command)
        changed = [name for name, a, b in zip(("stdout", "stderr", "exit", "file"), old, cur)
                   if a != b]
        differ = differ or bool(changed)
        print("%-9s %s%s" % ("DIFFERS" if changed else "IDENTICAL", command,
                             " (%s)" % ", ".join(changed) if changed else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
