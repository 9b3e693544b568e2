"""The package contains no floating point: a syntax scan of every module."""

import ast
from pathlib import Path

import pytest

import oddcovers

MODULES = sorted(Path(oddcovers.__file__).parent.glob("*.py"))
INEXACT_NAMES = {"float", "complex"}
INEXACT_MODULES = {"math", "cmath", "decimal"}
ALLOWED_IMPORTS = {("math", "comb"), ("math", "gcd"), ("math", "isqrt")}


def inexact_nodes(tree):
    """(line, description) for each float or complex use in the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "literal %r" % node.value))
        elif isinstance(node, ast.Name) and node.id in INEXACT_NAMES:
            found.append((node.lineno, "name %s" % node.id))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in INEXACT_MODULES:
                    found.append((node.lineno, "import %s" % alias.name))
        elif isinstance(node, ast.ImportFrom) and node.module in INEXACT_MODULES:
            for alias in node.names:
                if (node.module, alias.name) not in ALLOWED_IMPORTS:
                    found.append((node.lineno, "from %s import %s"
                                  % (node.module, alias.name)))
    return found


def test_scan_sees_every_module():
    assert "weier.py" in {m.name for m in MODULES}
    assert len(MODULES) >= 10


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_module_has_no_floating_point(module):
    assert inexact_nodes(ast.parse(module.read_text(), str(module))) == []


@pytest.mark.parametrize("source", [
    "x = 0.5",
    "x = 2j",
    "x = float(1)",
    "ok = isinstance(x, complex)",
    "import math",
    "import cmath",
    "from math import sqrt",
    "from decimal import Decimal",
    "import decimal as d",
])
def test_scan_flags_inexact_source(source):
    assert inexact_nodes(ast.parse(source))


def test_scan_allows_exact_math():
    source = "from math import comb, isqrt\nfrom fractions import Fraction"
    assert inexact_nodes(ast.parse(source)) == []


# src computes in ints alone: no rational-number module, and none of the
# rational helpers the test oracles keep for themselves.
RATIONAL_MODULES = {"fractions", "decimal", "numbers"}
RATIONAL_HELPERS = {"is_rational", "canonical", "exact_div"}


def rational_nodes(tree):
    """(line, description) for each rational-number import or helper in the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import " + a.name) for a in node.names
                      if a.name.split(".")[0] in RATIONAL_MODULES]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in RATIONAL_MODULES:
                found.append((node.lineno, "from %s import" % node.module))
            found += [(node.lineno, "import " + a.name) for a in node.names
                      if a.name in RATIONAL_HELPERS]
        elif isinstance(node, ast.FunctionDef) and node.name in RATIONAL_HELPERS:
            found.append((node.lineno, "def " + node.name))
    return found


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_module_computes_in_ints_alone(module):
    assert rational_nodes(ast.parse(module.read_text(), str(module))) == []


@pytest.mark.parametrize("source", [
    "from fractions import Fraction",
    "import fractions",
    "import decimal as d",
    "from numbers import Rational",
    "from .ring import exact_div",
    "from oddcovers.ring import canonical as c",
    "def is_rational(x):\n    return True",
])
def test_rational_scan_flags_every_form(source):
    assert rational_nodes(ast.parse(source))


def test_scan_allows_only_the_listed_math_names():
    # gcd is exact integer arithmetic; the rest of `math` stays flagged beside it
    source = "from math import gcd, sqrt\nfrom math import gcd as int_gcd, exp, log"
    assert [d for _, d in inexact_nodes(ast.parse(source))] == [
        "from math import sqrt", "from math import exp", "from math import log"]
    assert inexact_nodes(ast.parse("from math import gcd")) == []


# The binary-form layers check stated points by multiplying alone.
DIVISION_FREE = ("ratmap.py", "quadratic.py")
DIVISION_NAMES = {"divmod", "exact_div", "inverse"}


def division_nodes(tree):
    """(line, description) for each division, remainder or inversion in the tree."""
    found = []
    for node in ast.walk(tree):
        op = getattr(node, "op", None)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                op, (ast.Div, ast.FloorDiv, ast.Mod)):
            found.append((node.lineno, type(op).__name__))
        elif isinstance(node, ast.Name) and node.id in DIVISION_NAMES:
            found.append((node.lineno, "name %s" % node.id))
        elif isinstance(node, ast.Attribute) and node.attr in DIVISION_NAMES:
            found.append((node.lineno, "attribute %s" % node.attr))
        elif isinstance(node, ast.alias) and node.name in DIVISION_NAMES:
            found.append((getattr(node, "lineno", 0), "import %s" % node.name))
    return found


@pytest.mark.parametrize("name", DIVISION_FREE)
def test_form_layers_do_not_divide(name):
    module = next(m for m in MODULES if m.name == name)
    assert division_nodes(ast.parse(module.read_text(), str(module))) == []


@pytest.mark.parametrize("source", [
    "x = a / b",
    "x = a // b",
    "x = a % b",
    "x %= 2",
    "label = 'd = %d' % d",
    "q, r = divmod(a, b)",
    "from oddcovers.ring import exact_div",
    "y = x.inverse()",
])
def test_division_scan_flags_every_form(source):
    assert division_nodes(ast.parse(source))


# The test oracles check the package by code it does not share: they import
# nothing from it but the ring base class.
ORACLES = sorted(Path(__file__).parent.glob("*_oracles.py"))
ORACLE_IMPORTS = {("oddcovers.ring", "RingElement")}


def package_imports(tree):
    """(line, description) for each import from oddcovers outside ORACLE_IMPORTS."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import " + a.name) for a in node.names
                      if a.name.split(".")[0] == "oddcovers"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "oddcovers"):
            module = "." * node.level + (node.module or "")
            found += [(node.lineno, "from %s import %s" % (module, a.name))
                      for a in node.names if (module, a.name) not in ORACLE_IMPORTS]
    return found


def test_oracle_scan_sees_every_oracle():
    names = {m.name for m in ORACLES}
    assert {"map_oracles.py", "series_oracles.py", "growth_oracles.py"} <= names


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda m: m.name)
def test_oracle_imports_nothing_from_the_package_but_the_ring(oracle):
    assert package_imports(ast.parse(oracle.read_text(), str(oracle))) == []


@pytest.mark.parametrize("source", [
    "from oddcovers.series import binomial_series",
    "from oddcovers.combinat import catalan",
    "from oddcovers.ring import exact_div",
    "from oddcovers import series",
    "from oddcovers import ring",
    "import oddcovers.series",
    "import oddcovers",
    "from .series import product",
    "def f():\n    from oddcovers.routes import route_prefix",
])
def test_oracle_scan_flags_every_package_import(source):
    assert package_imports(ast.parse(source))


def test_oracle_scan_allows_the_ring_base_class():
    source = "from oddcovers.ring import RingElement\nfrom map_oracles import exact_div"
    assert package_imports(ast.parse(source)) == []
