"""Static checks over the modules of cfcert, with the stdlib ``ast``, and
checks of what a fresh interpreter loads.

- Every name a module imports is used in that module.  ``__init__.py``
  is exempt: its imports are the public API it re-exports.
- Only ``reals.py`` reads CertifiedReal's integer fields ``lo_num``,
  ``hi_num`` and ``den``, so the representation is decided in one module;
  the others use its methods.  The table rows and ``expand`` use its
  integer queries (``compare``, ``compare_width``,
  ``relative_width_at_most``, ``scaled``, ``floor_log10`` and
  ``partial_quotients``), and other code may read its Fraction views.
- Every absolute import in the package names a standard-library module:
  the runtime has no dependencies, and mpmath stays a test-only oracle.
- No module imports an underscore-prefixed name from another module of
  the package, so every command runs the public function that the tests
  cover, and what a module keeps private (such as the decimal grid of
  ``reals.py``) is known to it alone.
- ``probe.py`` imports nothing from ``measure.py``: both table modules
  build on ``reals`` and ``convergents`` alone.
- ``import cfcert.cli`` loads none of the standard-library modules that
  no command needs, so every command starts without paying for them, and
  a well-formed command line loads no ``shutil``.
- A well-formed command line of each sub-command loads none of
  ``argparse``, ``gettext`` and ``locale``: the CLI's table parser reads
  it, and argparse is built only for help and usage errors.
- ``import cfcert.cli`` loads none of ``re``, ``fractions``, ``decimal``,
  ``numbers``, ``enum`` and ``functools``, each loaded only by the code
  that uses it.  A well-formed command on an irrational constant loads
  none of ``re``, ``fractions`` and ``decimal``, except that ``measure``
  loads ``decimal`` for its printed columns; an exact input loads
  ``fractions``.  The ``str`` checks that replace the regexes of integer
  fields and decimal literals accept the regexes' strings, and
  ``CertifiedReal.point`` reads its inputs as it did with ``Decimal`` and
  ``Fraction`` imported at start-up.
"""

import ast
import json
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfcert
import cfcert.cli as cli
from cfcert import DecimalLiteral

PACKAGE = sorted(Path(cfcert.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
INTEGER_FIELDS = {"lo_num", "hi_num", "den"}
# loaded only by the code that uses them: re by no command, fractions by
# an exact input's value, decimal by measure's printed columns
LAZY = ("re", "fractions", "decimal")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def integer_field_reads(source: str) -> list[str]:
    """Every ``x.lo_num``, ``x.hi_num`` or ``x.den`` in the source, and
    every ``getattr`` naming one of them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in INTEGER_FIELDS:
            found.append(f"{node.attr} (line {node.lineno})")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value in INTEGER_FIELDS):
            found.append(f"{node.value!r} (line {node.lineno})")
    return sorted(found)


def non_stdlib_imports(source: str) -> list[str]:
    """Absolute imports whose top-level module is not in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return sorted(found)


def private_package_imports(source: str) -> list[str]:
    """Underscore-prefixed names in the source's ``from .<module> import``."""
    return sorted(f"{alias.name} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level > 0
                  for alias in node.names if alias.name.startswith("_"))


def package_modules_imported(source: str) -> set[str]:
    """The package modules that the source imports from, by ``from .``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def loaded_after(statement: str, names: tuple[str, ...]) -> list[str]:
    """Those of ``names`` that a fresh interpreter has loaded after it ran
    ``statement`` with cfcert importable."""
    # -S: the interpreter's site hooks may load any of these themselves
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); {statement}; "
            f"print(*(m for m in {names!r} if m in sys.modules))")
    parent = str(Path(cfcert.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-S", "-c", code, parent],
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_cli_import_leaves_unneeded_modules_unloaded():
    # re loads enum, and fractions and decimal load numbers
    assert loaded_after("import cfcert.cli",
                        ("dataclasses", "typing", "inspect", "random", *LAZY,
                         "numbers", "enum", "functools")) == []


def test_exact_input_loads_fractions():
    # the control: a decimal literal's value is a Fraction
    statement = ("import io; from cfcert import cli; "
                 "assert cli.run(['expand', 'lit:0.25'], out=io.StringIO()) == 0")
    assert "fractions" in loaded_after(statement, LAZY)


TOKEN_TEXT = st.text(st.sampled_from("+-.0123456789٥５²_ \n"), max_size=8)


def accepts(make, text: str) -> bool:
    try:
        make(text)
    except ValueError:
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(TOKEN_TEXT)
@example("")
@example("+-1")
@example("1_0")
@example("١٢")
@example("1\n")
def test_integer_fields_read_as_the_regex(text):
    # a pi^t token's one field is read by the integer check alone
    assert (accepts(lambda t: cli.parse_constant(f"pi^{t}"), text)
            == bool(re.fullmatch(r"[+-]?[0-9]+", text)))


@settings(max_examples=400, deadline=None)
@given(TOKEN_TEXT)
@example("5.")
@example(".5")
@example("+0.50")
@example("-")
@example("1.2.3")
@example("0.5\n")
def test_decimal_literals_read_as_the_regex(text):
    assert (accepts(DecimalLiteral, text)
            == bool(re.fullmatch(r"[+-]?[0-9]+(\.[0-9]+)?", text)))


POINT_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from cfcert.reals import CertifiedReal


class Ratio:  # has as_integer_ratio, but is no numbers.Rational
    def as_integer_ratio(self):
        return 3, 4


def F(*args):
    from fractions import Fraction
    return Fraction(*args)


def D(text):
    from decimal import Decimal
    return Decimal(text)


value = eval(sys.argv[2])
loaded = "decimal" in sys.modules
try:
    x = CertifiedReal.point(value)
    outcome = ["ratio", x.lo_num, x.den]
except Exception as exc:
    outcome = [type(exc).__name__, str(exc)]
print(json.dumps([loaded, outcome]))
"""


def parent_point(value) -> tuple[int, int]:
    """``CertifiedReal.point``'s ratio as it was read with ``Decimal`` and
    ``Fraction`` imported at start-up."""
    if isinstance(value, float):
        raise TypeError(f"inexact float {value!r}; pass an int, Fraction, "
                        "Decimal or decimal string")
    if type(value) is int:
        return value, 1
    if isinstance(value, bool):
        raise TypeError(f"bool {value!r} is not a number; pass an int, "
                        "Fraction, Decimal or decimal string")
    return (value if isinstance(value, Decimal) else Fraction(value)).as_integer_ratio()


@pytest.mark.parametrize("expr", [
    "7", "-3", "2.5", "True", "False", "Ratio()", "'0.25'", "'-1.5'", "'1/3'",
    "'abc'", "F(1, 3)", "F(-10, 4)", "D('0.125')", "D('-7')", "D('NaN')",
    "D('-Infinity')",
])
def test_point_in_a_fresh_process_reads_as_before(expr):
    parent = str(Path(cfcert.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-S", "-c", POINT_SCRIPT, parent, expr],
                          capture_output=True, text=True, check=True)
    loaded, outcome = json.loads(done.stdout)
    # only building the input, a Fraction or a Decimal, has loaded decimal
    assert not loaded or expr.startswith(("F(", "D("))
    namespace = {"Ratio": type("Ratio", (), {"as_integer_ratio": lambda self: (3, 4)}),
                 "F": Fraction, "D": Decimal}
    try:
        want = ["ratio", *parent_point(eval(expr, namespace))]
    except Exception as exc:
        want = [type(exc).__name__, str(exc)]
    assert outcome == want


def test_command_without_help_leaves_shutil_unloaded():
    # argparse's formatters import shutil, and with it the compression
    # modules, for a terminal width that only printed help needs
    statement = ("import io; from cfcert import cli; "
                 "argv = ['expand', 'pi2', '--terms', '3']; "
                 "assert cli.run(argv, out=io.StringIO()) == 0")
    assert loaded_after(statement, ("shutil", "zlib", "bz2", "lzma", "fnmatch")) == []


@pytest.mark.parametrize("argv", [
    ["expand", "pi2", "--terms", "3", "--format", "csv"],
    ["convergents", "golden", "-n", "5", "--engine", "fast"],
    ["measure", "pi2", "--rows", "3", "--digits", "20", "--format", "plot"],
    ["probe", "pi2", "--rows", "3"],
    ["verify", "sqrt:2", "--terms", "5", "--digits", "20"],
    ["bench", "random", "--terms", "20", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_well_formed_command_leaves_argparse_unloaded(argv):
    # each on an irrational constant; measure prints its columns as Decimals
    lazy = ("re", "fractions") if argv[0] == "measure" else LAZY
    statement = ("import io; from cfcert import cli; "
                 f"assert cli.run({argv!r}, out=io.StringIO()) == 0")
    assert loaded_after(statement, ("argparse", "gettext", "locale", *lazy)) == []


def test_declined_line_loads_argparse():
    # the control: the same check sees argparse where a line needs it
    statement = ("import io; from cfcert import cli; "
                 "assert cli.run(['expand', 'pi2', '--ter', '3'], out=io.StringIO()) == 0")
    assert loaded_after(statement, ("argparse", "gettext", "locale")) != []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text()) == []


def test_detects_a_non_stdlib_import():
    source = ("import os, mpmath.libmp\n"
              "from hypothesis import given\n"
              "from . import reals\n"
              "from fractions import Fraction\n")
    assert non_stdlib_imports(source) == ["hypothesis (line 2)",
                                          "mpmath.libmp (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "reals.py"],
                         ids=lambda p: p.name)
def test_integer_fields_read_only_in_reals(path):
    assert integer_field_reads(path.read_text()) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_imports_no_private_name(path):
    assert private_package_imports(path.read_text()) == []


def test_probe_imports_nothing_from_measure():
    source = Path(cfcert.__file__).with_name("probe.py").read_text()
    assert "measure" not in package_modules_imported(source)
    assert "reals" in package_modules_imported(source)


def test_detects_a_private_package_import():
    source = ("from .measure import _mu_rows, measure_table\n"
              "from .reals import (PI2,\n    _floor_log10)\n"
              "from os import _exit\n")
    assert private_package_imports(source) == ["_floor_log10 (line 2)",
                                               "_mu_rows (line 1)"]


def test_detects_the_package_modules_imported():
    source = ("from .measure import mu_n\n"
              "from . import probe, reals\n"
              "from os import path\n")
    assert package_modules_imported(source) == {"measure", "probe", "reals"}


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import log, gcd\ngcd(4, 6)\n") == [
        "log (line 2)", "os (line 1)"]


def test_detects_integer_field_reads():
    source = ("a = x.lo_num * y.den\n"
              "b = getattr(x, 'hi_num')\n"
              "c = x.lo + x.denominator\n")
    assert integer_field_reads(source) == [
        "'hi_num' (line 2)", "den (line 1)", "lo_num (line 1)"]
    assert integer_field_reads(Path(cfcert.__file__).with_name("reals.py")
                               .read_text())
