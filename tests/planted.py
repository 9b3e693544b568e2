"""Planted defects: `verify` on a copy of the package with one edit.

`assert_planted_defect_fails` copies the package into a temporary directory,
replaces the one occurrence of `old` in one module by `new`, and runs
`verify --suite SUITE --max-g 5` on the copy in a fresh interpreter. The
defect is caught if the run exits 1 with nothing on stderr, reports FAIL for
exactly the named checks and PASS for every other check of the suite, in
registry order: a defect is reported as a failed check, never raised."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from oddcovers import checks


def assert_planted_defect_fails(tmp_path, module, old, new, suite, failed):
    package = Path(checks.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "oddcovers",
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "oddcovers" / module
    text = target.read_text()
    assert text.count(old) == 1
    target.write_text(text.replace(old, new))
    done = subprocess.run(
        [sys.executable, "-m", "oddcovers.cli", "verify", "--suite", suite,
         "--max-g", "5"], env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (1, "")
    names = [check.name for check in checks.CHECKS if check.suite == suite]
    *lines, summary = done.stdout.splitlines()
    assert len(lines) == len(names)
    for line, name in zip(lines, names):
        assert line.startswith("%s  %s " % ("FAIL" if name in failed else "PASS", name)), line
    assert summary == "%d checks, %d failed" % (len(names), len(failed))
