"""Every public name in foagen is reached from outside the unit tests.

A public function, class or constant that only tests use is code no user
runs: it widens the library and has to be kept working for nobody. This
walks the top-level definitions of every module in ``src/foagen`` and
looks for a reference to each public name in one of these places:

- another top-level statement of ``src/``: another module, or its own
  module outside the definition;
- ``perfbench/``, whose tracer also names its targets in strings;
- ``tests/test_acceptance.py``, the shipped guarantees;
- inline code or a code block in README.

A reference is a loaded name or an attribute of that name, matched by
name alone. Importing a name, or listing it in ``__all__``, is not one.
"""

import ast
import re
from pathlib import Path

import foagen
import foagen.flow

ROOT = Path(__file__).resolve().parents[1]
ACCEPTANCE = "tests/test_acceptance.py"

# Public names allowed to have no such reference, each with its reason.
ALLOWED: dict[str, str] = {}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
# A fenced block, or else an inline code span.
_README_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.S)


def _defined(stmt: ast.stmt) -> list[str]:
    """The public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _used(tree: ast.AST, strings: bool = False) -> set[str]:
    """Loaded names and attribute names in ``tree``; with ``strings``, also
    the identifiers inside its string constants."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(_IDENTIFIER.findall(node.value))
    return used


def _statements(root: Path):
    """(path, statement, names it uses) of each top-level statement in the package."""
    for path in sorted((root / "src" / "foagen").rglob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            yield path, stmt, _used(stmt)


def _references(root: Path) -> dict[str, set[str]]:
    """The names used outside ``src/``, keyed by the place that uses them."""
    perfbench = set()
    for path in sorted((root / "perfbench").rglob("*.py")):
        perfbench |= _used(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    readme = (root / "README.md").read_text(encoding="utf-8")
    return {
        "perfbench": perfbench,
        ACCEPTANCE: _used(ast.parse((root / ACCEPTANCE).read_text(encoding="utf-8"))),
        "README.md": set(_IDENTIFIER.findall(" ".join(_README_CODE.findall(readme)))),
    }


def _unreached(root: Path) -> list[str]:
    """``path:line name`` of each public name that nothing counted references."""
    statements = list(_statements(root))
    outside = set().union(*_references(root).values())
    unreached = []
    for path, stmt, _ in statements:
        for name in _defined(stmt):
            if name in outside or name in ALLOWED:
                continue
            if any(name in used for _, other, used in statements if other is not stmt):
                continue
            unreached.append(f"{path.relative_to(root).as_posix()}:{stmt.lineno} {name}")
    return unreached


def test_every_public_name_is_reached_outside_the_unit_tests():
    assert _unreached(ROOT) == []


def test_every_exported_name_resolves():
    for module in (foagen, foagen.flow):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names {missing}"


def test_the_guard_sees_each_place_and_flags_a_name_only_tests_use(tmp_path):
    references = _references(ROOT)
    assert "make_fov_cuts" in references[ACCEPTANCE]  # criterion 09 cuts a panorama
    assert "train_mixture" in references["README.md"]  # the library example
    training = [used for path, _, used in _statements(ROOT) if path.name == "training.py"]
    assert any("upsample_features" in used for used in training)
    assert "cfm_loss" in references["perfbench"]  # the tracer's string target

    package = tmp_path / "src" / "foagen"
    package.mkdir(parents=True)
    (package / "lib.py").write_text(
        "def tested_only():\n    pass\n\n\ndef used():\n    pass\n\n\nLIMIT = 3\n"
    )
    (package / "cli.py").write_text(
        "from .lib import tested_only, used\n\n__all__ = ['tested_only']\n\n\n"
        "def main():\n    return used()\n\n\nmain()\n"
    )
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / ACCEPTANCE).write_text("")
    (tmp_path / "tests" / "test_lib.py").write_text("from foagen.lib import tested_only\n\ntested_only()\n")
    (tmp_path / "README.md").write_text("Set `LIMIT` to bound tested_only.\n")
    assert _unreached(tmp_path) == ["src/foagen/lib.py:1 tested_only"]
