"""Source checks that need no linter: dead module-level imports, long lines,
registry group names written more than once, and integer tests outside errors.py."""
import ast
from pathlib import Path

import pytest

from branchlab.verify import _REGISTRY

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "branchlab"
MAX_COLUMNS = 100


def _unread_imports(source: str) -> list:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_checker_finds_an_unread_import():
    source = "import os\nimport sys\nfrom math import pi, tau\n\n\ndef f():\n    return sys, tau\n"
    assert _unread_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_module_level_import_is_read(path):
    assert _unread_imports(path.read_text(encoding="utf-8")) == []


def test_no_line_is_longer_than_the_limit():
    long = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_COLUMNS
    ]
    assert long == []


def _integral_checks(source: str) -> list:
    """Lines that reach numbers.Integral, as an attribute or through a from-import."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "Integral")
        or (isinstance(node, ast.ImportFrom) and node.module == "numbers")
    )


def test_the_checker_finds_integral_checks():
    source = "import numbers\nfrom numbers import Real\n\n\ndef f():\n    return numbers.Integral\n"
    assert _integral_checks(source) == [2, 6]


def test_only_the_errors_module_says_what_a_count_is():
    # every count argument passes through errors.count, the one place the
    # rule for what a count is lives
    found = {
        path.name: _integral_checks(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert found.pop("errors.py") != []
    assert {name: lines for name, lines in found.items() if lines} == {}


def _string_constants(source: str) -> list:
    """Every str constant of a module, f-string pieces included, docstrings excluded."""
    tree = ast.parse(source)
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
    ]


def test_the_checker_skips_docstrings_and_reads_f_strings():
    source = '"""a"""\n\n\ndef f(k):\n    """b"""\n    return ["c", f"d.{k}"]\n'
    assert sorted(_string_constants(source)) == ["c", "d."]


def test_each_registry_group_is_named_once_in_verify():
    # verify_suite prefixes "<group>." to every entry name, so a group
    # function that names its group again can drift from the registry key
    constants = _string_constants((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    groups = [group for group, _ in _REGISTRY]
    assert [group for group in groups if constants.count(group) != 1] == []
    assert [c for c in constants if c.startswith(tuple(f"{g}." for g in groups))] == []
