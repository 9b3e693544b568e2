import ast
import csv
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from oddcovers import cli, cli_extra, genfun, routes, series

from series_oracles import alt_catalan_closed


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_table_text_closed(capsys):
    code, out = run(capsys, "table", "--max-g", "2", "--routes", "closed")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("0", "1"), ("1", "0"), ("2", "512")]


def test_table_cross_route_agreement(capsys):
    code, out = run(capsys, "table", "--max-g", "8", "--routes", "closed,schubert")
    assert code == 0
    assert "NO" not in out


def test_table_schubert_weights(capsys):
    code, out = run(capsys, "table", "--max-g", "1", "--routes", "schubert",
                    "--n4", "1", "--n5", "0")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("1\t0")


def test_table_json_round_trips(capsys):
    code, out = run(capsys, "table", "--max-g", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "table"
    for row in payload["rows"]:
        assert int(row["values"]["closed"]) == alt_catalan_closed(row["g"])
        assert row["agree"] is True


def test_csv_and_json_carry_identical_values(capsys):
    code, json_out = run(capsys, "table", "--max-g", "6", "--format", "json")
    assert code == 0
    code, csv_out = run(capsys, "table", "--max-g", "6", "--format", "csv")
    assert code == 0
    payload = json.loads(json_out)
    records = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(records) == len(payload["rows"])
    for row, record in zip(payload["rows"], records):
        assert record["g"] == str(row["g"])
        assert record["closed"] == row["values"]["closed"]
    # a route named twice is read once, where it first stands, in every format
    for routes_arg in ("closed,closed", "genfun,closed,genfun,closed"):
        argv = ["table", "--max-g", "2", "--routes", routes_arg]
        code, text_out = run(capsys, *argv)
        assert code == 0
        header = text_out.splitlines()[0].split("\t")
        named = list(dict.fromkeys(routes_arg.split(",")))
        assert header == ["g"] + named + ["agree"]
        code, csv_out = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert next(csv.reader(io.StringIO(csv_out)))[1:-1] == sorted(named)
        code, json_out = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert [list(row["values"]) for row in json.loads(json_out)["rows"]] == [named] * 3


def test_table_series_routes_agree_with_closed(capsys):
    code, out = run(capsys, "table", "--max-g", "16", "--routes",
                    "closed,coeff_form,genfun,lagrange", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["g"] for row in rows] == list(range(17))
    for row in rows:
        assert row["agree"] is True
        expected = str(alt_catalan_closed(row["g"]))
        assert row["values"] == {r: expected for r in
                                 ("closed", "coeff_form", "genfun", "lagrange")}


def test_series_order_five(capsys):
    code, out = run(capsys, "series", "--order", "5")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert [l.split("\t")[1] for l in lines] == ["0", "1", "0", "0", "0", "512"]


def test_series_order_zero(capsys):
    code, out = run(capsys, "series", "--order", "0")
    assert code == 0
    assert out.strip().splitlines()[-1] == "0\t0"


def _halving_sees(monkeypatch, numerators):
    """Make genfun's halving of each numerator key of `numerators` see its value."""
    real = genfun._integer
    monkeypatch.setattr(genfun, "_integer", lambda num, den, route:
                        real(numerators.get(num, num), den, route))


def test_series_refuses_a_non_integer_coefficient(monkeypatch):
    # 2 A_2 = 1024, read as 1025, is refused rather than floored to 512
    _halving_sees(monkeypatch, {1024: 1025})
    with pytest.raises(AssertionError, match="genfun route produced a non-integer: 1025/2$"):
        cli.main(["series", "--order", "5"])


def test_series_names_a_non_integer_coefficient_reduced(monkeypatch, capsys):
    # the first halving, 2 A_1 = 0, read as -3, and the top one of order 7,
    # 2 A_3 = 65536, read as 65537; nothing is written before either
    _halving_sees(monkeypatch, {0: -3})
    with pytest.raises(AssertionError, match="genfun route produced a non-integer: -3/2$"):
        cli.main(["series", "--order", "3"])
    monkeypatch.undo()
    _halving_sees(monkeypatch, {65536: 65537})
    with pytest.raises(AssertionError, match="genfun route produced a non-integer: 65537/2$"):
        cli.main(["series", "--order", "7"])
    assert capsys.readouterr().out == ""


def test_series_header_documents_indexing(capsys):
    _, out = run(capsys, "series", "--order", "3")
    assert "2g+1" in out.splitlines()[0]


def test_schubert_command(capsys):
    code, out = run(capsys, "schubert", "--g", "2")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("512")
    code, out = run(capsys, "schubert", "--g", "1")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("0")
    code, out = run(capsys, "schubert", "--g", "2", "--n4", "1", "--n5", "0")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("1")


def test_resource_cap_exit_code(capsys):
    code, _ = run(capsys, "schubert", "--g", "13")
    assert code == 3
    code, _ = run(capsys, "table", "--max-g", "13", "--routes", "schubert")
    assert code == 3
    code, _ = run(capsys, "table", "--max-g", "13", "--routes", "schubert",
                  "--cap", "13")
    assert code == 0


HUGE = "100000000000000000000"  # past sys.maxsize, so no sequence holds it


@pytest.mark.parametrize("argv, flag", [
    (["series", "--order", HUGE], "--order"),
    (["table", "--max-g", HUGE, "--routes", "genfun"], "--max-g"),
    (["table", "--max-g", HUGE, "--routes", "coeff_form"], "--max-g"),
    (["verify", "--max-g", HUGE], "--max-g"),
])
def test_a_size_no_sequence_can_hold_is_a_usage_error(capsys, argv, flag):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "%s is too large: a sequence holds at most %d items\n" % (
        flag, sys.maxsize)


def test_a_huge_size_still_meets_the_cap_first(capsys):
    code = cli.main(["schubert", "--g", HUGE])
    assert (code, capsys.readouterr().err) == (3, "capped at g = 12 (raise with --cap)\n")
    code = cli.main(["table", "--max-g", HUGE, "--routes", "schubert,genfun"])
    assert code == 3


def test_usage_error_exit_code(capsys):
    code, _ = run(capsys, "table", "--routes", "bogus")
    assert code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["table", "--format", "yaml"])
    assert err.value.code == 2


# Tokens the direct reader must decline wherever they stand, or read exactly
# as argparse does: help, an abbreviation, an inline value, a short option,
# negative and padded numbers (`int` reads "-1_0", argparse takes it for an
# option), a non-ASCII digit, the empty string, the end-of-options marker and
# an unknown command.
JUNK = ["-h", "--max", "--max-g=3", "-x", "-1", "-1 ", "-1_0", " 5", "\u0663", "", "--",
        "bogus"]
OPTIONS = [option for _, options in cli.COMMANDS.values() for option in options]
VALUES = {int: ["-3", "-0", "0", "13", " 5", "\u0663", "-\u0663", "-1 ", "-1_0", "x"],
          str: ["closed,schubert", "out.json", "", "yaml"]}
TOKENS = sorted({flag for flag, *_ in OPTIONS}
                | {v for kind in VALUES.values() for v in kind}
                | {choice for _, kind, *_ in OPTIONS if type(kind) is tuple
                   for choice in kind}) + JUNK


def _values(kind):
    """Mostly values of `kind`, sometimes any token."""
    fitting = st.sampled_from(VALUES.get(kind) or list(kind))
    return st.one_of(fitting, fitting, st.sampled_from(TOKENS))


def _pairs(options):
    return st.sampled_from(options).flatmap(
        lambda option: st.tuples(st.just(option[0]), _values(option[1])).map(list))


def _command_argv(command):
    """`command` with mostly its own flags and values, some of any command's,
    and some tokens of anything."""
    pair, other = _pairs(cli.COMMANDS[command][1]), _pairs(OPTIONS)
    token = st.sampled_from(TOKENS).map(lambda token: [token])
    return st.lists(st.one_of(pair, pair, pair, other, token), max_size=5).map(
        lambda parts: [command] + [t for part in parts for t in part])


ARGV = st.one_of(st.sampled_from(list(cli.COMMANDS)).flatmap(_command_argv),
                 st.lists(st.sampled_from(TOKENS + list(cli.COMMANDS)), max_size=4))


@settings(max_examples=400, deadline=None)
@given(ARGV)
def test_direct_reader_declines_or_reads_as_argparse_does(argv):
    read = cli._read(argv)
    if read is not None:
        assert vars(read) == vars(cli_extra.build_parser(cli.COMMANDS).parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["table"],
    ["table", "--max-g", "16", "--routes", "closed,genfun", "--format", "json"],
    ["table", "--max-g", "30", "--n5", "-7", "--n5", "\u0663", "--output", "out.csv"],
    ["series", "--order", "101", "--format", "csv"],
    ["verify", "--suite", "all", "--max-g", "5", "--format", "json"],
    ["schubert", "--g", "-1", "--cap", "50"],
])
def test_direct_reader_reads_well_formed_argv(argv):
    assert vars(cli._read(argv)) == vars(cli_extra.build_parser(cli.COMMANDS).parse_args(argv))


def test_verify_all_passes(capsys):
    code, out = run(capsys, "verify", "--suite", "all")
    assert code == 0
    assert "FAIL" not in out
    assert "0 failed" in out


def test_verify_json_schema(capsys):
    code, out = run(capsys, "verify", "--suite", "weierstrass", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify"
    assert payload["checks"]
    for check in payload["checks"]:
        assert set(check) == {"name", "citation", "pass", "detail"}
        assert check["pass"] is True
    # the e3=0 specialization is informational, not silently dropped
    assert any("informational" in c["detail"] for c in payload["checks"])


def test_verify_identities_window(capsys):
    code, out = run(capsys, "verify", "--suite", "identities", "--max-g", "30")
    assert code == 0
    assert "FAIL" not in out


# Every check `verify --suite all` reports, in order, by suite.
VERIFY_CHECKS = {
    "covers": [
        "family_condition_deg5_alpha1",
        "family_condition_deg5_alpha2",
        "check_quartic_cover",
        "check_deg3_maps",
        "check_paired_quartic_maps",
        "bound_arithmetic",
        "admissible_tally",
    ],
    "weierstrass": [
        "derivation_consistency",
        "check_G_identities",
        "check_Gtilde_identities",
        "delta0[e1=0]",
        "delta0[e2=0]",
        "delta0[e3=0 (e2=-e1)]",
        "gtilde_delta[e1=0]",
        "gtilde_delta[e2=0]",
        "gtilde_delta[e3=0 (e2=-e1)]",
    ],
    "identities": [
        "binomial_identity",
        "catalan_half_binomial",
        "route_agreement",
    ],
    "schubert": [
        "sigma12_vs_alternating_sum",
        "grassmannian_degree",
        "schubert_route",
        "sigma3_reduction",
    ],
}


def test_verify_reports_the_pinned_checks_in_order(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--max-g", "5",
                    "--format", "json")
    assert code == 0
    everything = [name for names in VERIFY_CHECKS.values() for name in names]
    assert len(everything) == 23
    assert [c["name"] for c in json.loads(out)["checks"]] == everything
    for suite, names in VERIFY_CHECKS.items():
        code, out = run(capsys, "verify", "--suite", suite, "--max-g", "5",
                        "--format", "json")
        assert code == 0
        assert [c["name"] for c in json.loads(out)["checks"]] == names


def _raises(error):
    def broken(order):
        raise error
    return broken


def test_verify_reports_a_check_that_raises_and_keeps_going(capsys, monkeypatch):
    monkeypatch.setattr(series, "lagrange_pipeline",
                        _raises(ArithmeticError("binomial step 3 is not integral at scale 4")))
    code, out = run(capsys, "verify", "--suite", "all", "--max-g", "5")
    assert code == 1
    lines = out.splitlines()
    everything = [name for names in VERIFY_CHECKS.values() for name in names]
    assert len(lines) == len(everything) + 1
    assert all(line[6:].startswith(name + " ") for line, name in zip(lines, everything))
    failed = [line for line in lines[:-1] if not line.startswith("PASS  ")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL  route_agreement ")
    assert failed[0].endswith(" raised ArithmeticError: binomial step 3 is not integral at scale 4")
    assert lines[-1] == "23 checks, 1 failed"


def test_verify_lets_memory_errors_and_interrupts_through(capsys, monkeypatch):
    # a MemoryError inside a check stays the resource exit; an interrupt is no
    # failed check and reaches the caller
    monkeypatch.setattr(series, "lagrange_pipeline", _raises(MemoryError()))
    code = cli.main(["verify", "--suite", "identities", "--max-g", "5"])
    assert (code, capsys.readouterr()) == (3, ("", "verify: the requested size needs "
                                               "more memory than can be allocated\n"))
    monkeypatch.setattr(series, "lagrange_pipeline", _raises(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        cli.main(["verify", "--suite", "identities", "--max-g", "5"])


def test_verify_reports_a_failed_assertion_and_keeps_going(capsys, monkeypatch):
    monkeypatch.setattr(series, "lagrange_pipeline",
                        _raises(AssertionError("u = w*phi(u) violated")))
    code, out = run(capsys, "verify", "--suite", "identities")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("PASS  binomial_identity ")
    assert lines[1].startswith("PASS  catalan_half_binomial ")
    assert lines[2].startswith("FAIL  route_agreement ")
    assert lines[2].endswith(" assertion failed: u = w*phi(u) violated")
    assert lines[3:] == ["3 checks, 1 failed"]


@pytest.mark.parametrize("argv", [
    ["series", "--order", str(sys.maxsize - 1)],
    ["table", "--max-g", str(sys.maxsize // 2 - 1), "--routes", "genfun"],
    ["table", "--max-g", str(sys.maxsize // 2 - 1), "--routes", "lagrange"],
    ["table", "--max-g", str(sys.maxsize // 2 - 1), "--routes", "closed"],
    ["table", "--max-g", str(sys.maxsize // 2 - 1), "--routes", "coeff_form"],
    ["verify", "--suite", "identities", "--max-g", str(sys.maxsize // 2 - 1)],
    ["verify", "--max-g", str(sys.maxsize // 2 - 1)],
])
def test_a_size_that_cannot_be_allocated_is_a_resource_exit(capsys, argv):
    # each passes the sys.maxsize bound, and its first list asks for more
    # bytes than the address space holds, so it fails at once
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("%s: the requested size needs more memory than can be "
                            "allocated\n" % argv[0])


def test_verify_rejects_negative_max_g(capsys):
    code = cli.main(["verify", "--suite", "identities", "--max-g", "-5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "--max-g must be nonnegative\n"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code = cli.main(["table", "--max-g", "2", "--format", "json",
                     "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["rows"][2]["values"]["closed"] == "512"


@pytest.mark.parametrize("argv", [
    ["table", "--max-g", "2"],
    ["series", "--order", "3"],
    ["verify", "--suite", "weierstrass"],
    ["schubert", "--g", "1"],
])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.json"
    code = cli.main(argv + ["--format", "json", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("cannot write %s: " % target)
    assert not target.exists()


def test_a_call_with_argv_leaves_the_collector_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["table", "--max-g", "3", "--routes", "closed,genfun"]) == 0
    assert cli.main(["table", "--routes", "bogus"]) == 2
    assert gc.get_freeze_count() == before


# Run in a fresh interpreter as the program entry, `cli.main()` on sys.argv:
# stdout and the exit code are the command's, and the last line of stderr is
# the collector's freeze count once main has returned or raised SystemExit.
PROGRAM_PROBE = """
import gc, sys
from oddcovers import cli
try:
    code = cli.main()
finally:
    sys.stderr.write("freeze count %d\\n" % gc.get_freeze_count())
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    ["table", "--max-g", "8", "--routes", "closed,genfun", "--format", "json"],
    ["verify", "--suite", "identities", "--max-g", "5"],
    ["verify", "--suite", "bogus"],
])
def test_the_program_entry_freezes_the_collector_after_the_command(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exit:  # argparse's usage error
        code = exit.code
    expected = capsys.readouterr()
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", PROGRAM_PROBE, *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=120)
    err, _, freeze = done.stderr.decode().rpartition("freeze count ")
    assert done.returncode == code
    assert done.stdout == expected.out.encode()
    assert err == expected.err
    assert int(freeze) > 0


# Run in a fresh interpreter: what `oddcovers.<name>` gives once the CLI is
# loaded, for two layers the CLI does not import, a name that is no
# submodule, and a submodule that fails to import a module of its own.
ATTRIBUTE_PROBE = """
import sys, types
import oddcovers, oddcovers.cli
preloaded = [name for name in ("weier", "covers") if "oddcovers." + name in sys.modules]
oddcovers.__path__.append(sys.argv[1])
try:
    oddcovers.broken
    broken = "no error"
except ModuleNotFoundError as err:
    broken = err.name
print(repr({
    "preloaded": preloaded,
    "modules": [isinstance(oddcovers.weier, types.ModuleType),
                isinstance(oddcovers.covers, types.ModuleType),
                oddcovers.weier is sys.modules["oddcovers.weier"]],
    "nope": hasattr(oddcovers, "nope"),
    "broken": broken,
}))
"""


def _probe(script, *args):
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


def test_cli_imports_no_package_module_when_it_loads():
    # every import of `cli` at module level is of the standard library; a
    # package module is imported inside a function, on the branch that runs it
    tree = ast.parse(Path(cli.__file__).read_text())
    top = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [alias.name for node in top for alias in node.names] == ["sys", "types"]


# Run in a fresh interpreter: `import NAME`, or one `cli.main(argv)` call with
# its stdout captured, and what it adds to the modules the interpreter had
# loaded before, its exit code and the public names of the package that are
# not modules. The snapshot comes before anything is imported, and the result
# is printed with `repr`, so all that the job loads, `json` included, shows.
GRAPH_PROBE = """
import sys
before = set(sys.modules)
import io  # loaded with the interpreter's own streams, so it adds nothing
if sys.argv[1] == "import":
    __import__(sys.argv[2])
    code = 0
else:
    from oddcovers import cli
    sys.stdout, stdout = io.StringIO(), sys.stdout
    code = cli.main(sys.argv[1:])
    sys.stdout = stdout
import oddcovers
print(repr({
    "code": code,
    "added": sorted(set(sys.modules) - before),
    "non_modules": sorted(name for name, value in vars(oddcovers).items()
                          if not name.startswith("_") and not isinstance(value, type(sys))),
}))
"""

# The import graph: each job, its exit code and the package modules it adds
# besides `oddcovers` itself. `cli` imports each handler with the code it
# runs; only `lagrange` runs the series kernels; `ring` comes only with
# `schubert` or `verify`; only the `schubert` command and `verify` load
# `sigma12`; only `verify` loads `checks` and the certification layers; only
# `--format csv` compiles `cli_extra` (and loads `csv`).
IMPORT_GRAPH = [
    ("import oddcovers.cli", 0, "cli"),
    ("import oddcovers.schubert", 0, "ring schubert"),
    ("table --max-g 4 --routes closed", 0, "cli combinat routes"),
    ("table --max-g 4 --routes coeff_form --format json", 0, "cli combinat routes"),
    ("table --max-g 4 --routes genfun", 0, "cli combinat genfun routes"),
    ("table --max-g 16 --routes lagrange", 0, "cli combinat routes series"),
    ("table --max-g 16 --routes lagrange --format json", 0, "cli combinat routes series"),
    ("table --max-g 4 --routes closed,schubert", 0, "cli combinat ring routes schubert"),
    ("table --max-g 4 --routes closed,coeff_form,schubert,genfun,lagrange --format csv", 0,
     "cli cli_extra combinat genfun ring routes schubert series"),
    ("series --order 101 --format json", 0, "cli combinat genfun"),
    ("series --order 11 --format csv", 0, "cli cli_extra combinat genfun"),
    ("schubert --g 3 --n4 -2", 0, "cli ring schubert sigma12"),
    ("verify --suite covers --max-g 5 --format csv", 0,
     "checks cli cli_extra combinat covers poly quadratic ratmap ring routes schubert sigma12 "
     "weier"),
    ("verify --suite identities --max-g 5", 0,
     "checks cli combinat covers genfun poly quadratic ratmap ring routes schubert series "
     "sigma12 weier"),
    ("verify --suite all --max-g 5 --format json", 0,
     "checks cli combinat covers genfun poly quadratic ratmap ring routes schubert series "
     "sigma12 weier"),
]

# Loaded by no row: the JSON writer is `cli`'s own, well-formed command lines
# skip argparse (and the gettext and locale it loads), everything is computed
# in ints or Z[sqrt d], and no class is a dataclass.
NEVER_LOADED = ("_json", "argparse", "gettext", "locale", "fractions", "decimal",
                "numbers", "dataclasses", "inspect")


@pytest.mark.parametrize("job, code, modules", IMPORT_GRAPH, ids=[row[0] for row in IMPORT_GRAPH])
def test_each_job_loads_exactly_its_import_graph_row(job, code, modules):
    argv = job.split()
    probe = _probe(GRAPH_PROBE, *argv)
    added = probe["added"]
    assert probe["code"] == code
    assert [m for m in added if m.startswith("oddcovers")] == sorted(
        ["oddcovers"] + ["oddcovers." + name for name in modules.split()])
    unwanted = [m for m in added if m in NEVER_LOADED or m.split(".")[0] == "json"]
    assert unwanted == [], "loads " + ", ".join(unwanted)
    assert ("csv" in added) is (argv[-2:] == ["--format", "csv"])
    assert probe["non_modules"] == []


def test_a_schubert_table_job_compiles_no_lagrange_route_and_no_schubert_command():
    # the argv of the `schubert_deep` benchmark workload: every module it loads
    # is read for the four definitions, which do exist in the package
    unused = {"lagrange_pipeline", "fmod_series", "sigma12_rows", "cmd_schubert"}
    assert unused <= set(vars(series)) | set(vars(importlib.import_module("oddcovers.sigma12")))
    probe = _probe(GRAPH_PROBE, "table", "--max-g", "50", "--routes", "closed,schubert",
                   "--cap", "50", "--format", "json")
    assert probe["code"] == 0
    loaded = [importlib.import_module(m) for m in probe["added"] if m.startswith("oddcovers.")]
    assert {"oddcovers.routes", "oddcovers.schubert"} <= {m.__name__ for m in loaded}
    assert {name for module in loaded for name in vars(module)} & unused == set()


# Text that reaches every branch of the string writer: the two-character
# escapes, other C0 controls, DEL, non-ASCII, astral characters and lone
# surrogates, mixed with plain ASCII.
SPECIAL = ['"', "\\", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f", "\x80",
           "\u00e9", "\u2028", "\uffff", "\U0001f600", "\U0010ffff", "\ud800", "\udfff"]
TEXT = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters(max_codepoint=0x7e),
                         st.characters(blacklist_categories=())))
PAYLOADS = st.recursive(
    st.one_of(st.booleans(), st.integers(), st.integers(-10 ** 300, 10 ** 300), TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_the_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    None, 1.5, (1, 2), {"a": None}, [1, 2.0], {"a": [True, {"b": (3,)}]},
    {1: "x"}, {True: 1}, {None: 1}, {"a": {2: 3}},
])
def test_the_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json(value)


def test_a_usage_error_still_goes_through_argparse():
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = ("import sys\nfrom oddcovers import cli\ntry:\n    cli.main(sys.argv[1:])\n"
              "finally:\n    print('argparse' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script, "verify", "--suite", "bogus"],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == "True\n"
    assert "invalid choice: 'bogus'" in done.stderr


def test_package_imports_a_layer_on_first_attribute_access(tmp_path):
    (tmp_path / "broken.py").write_text("import oddcovers_no_such_module\n")
    probe = _probe(ATTRIBUTE_PROBE, str(tmp_path))
    assert probe["preloaded"] == []
    assert probe["modules"] == [True, True, True]
    assert probe["nope"] is False
    assert probe["broken"] == "oddcovers_no_such_module"


def test_cli_suite_choices_are_the_registry_suites():
    from oddcovers import checks

    assert cli.SUITES == checks.SUITES


def test_cli_routes_are_the_registry_routes():
    assert cli.ROUTES == routes.ROUTES
    assert "comma-separated subset of: " + ",".join(routes.ROUTES) in [
        text for _, _, _, _, text in cli.COMMANDS["table"][1]]
