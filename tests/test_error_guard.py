"""Input is refused one way: as a FoagenError, whose class name is the
code an ``error=`` line prints.

``cli.main`` turns a FoagenError into an ``error=`` line and lets any
other exception escape as a traceback, which marks a defect. So
``src/foagen`` raises no bare ValueError, nor any other builtin exception
class (a ``TypeError`` from foagen's own check would read as a defect),
every FoagenError subclass is raised somewhere in ``src/`` (a code nothing
raises is one no user can see), and README's error-code table has one row
for each subclass.
"""

import ast
import builtins
import re
from pathlib import Path

from foagen import errors

ROOT = Path(__file__).resolve().parents[1]

# README's error-code table, up to the blank line after it, and its rows.
_TABLE = re.compile(r"^\| code \| raised when \|\n(?:\|.*\n)+", re.M)
_ROW = re.compile(r"^\| `(\w+)` \|", re.M)


def _name(node: ast.expr) -> str | None:
    """The class a ``raise`` or a call names: ``Name`` or ``mod.Name``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _src_nodes():
    for path in sorted((ROOT / "src" / "foagen").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.relative_to(ROOT), node


def _codes() -> set[str]:
    """The FoagenError subclasses that ``foagen.errors`` defines."""
    return {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.FoagenError)
        and value is not errors.FoagenError
    }


def test_no_bare_value_error_is_raised():
    raised = [
        f"{path}:{node.lineno}" for path, node in _src_nodes()
        if isinstance(node, ast.Raise) and node.exc is not None and _name(node.exc) == "ValueError"
    ]
    assert raised == []


def test_no_builtin_exception_is_raised():
    builtin = {
        name for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    raised = [
        f"{path}:{node.lineno}" for path, node in _src_nodes()
        if isinstance(node, ast.Raise) and node.exc is not None and _name(node.exc) in builtin
    ]
    assert raised == []


def test_every_error_code_is_raised():
    # An error is built only to be raised; container builds IoFailure in a
    # helper and raises what it returns.
    built = {_name(node) for _, node in _src_nodes() if isinstance(node, ast.Call)}
    assert _codes() - built == set()


def test_readme_table_lists_every_error_code():
    (table,) = _TABLE.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    rows = _ROW.findall(table)
    assert len(rows) == len(set(rows))
    assert set(rows) == _codes()
