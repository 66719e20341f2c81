"""Work runs in parallel one way: ``pool.map`` over one pool per call.

Every ``ThreadPoolExecutor(...)`` in ``src/foagen`` must be the context
expression of a ``with ... as name``, and the function holding it must use
``name`` only as ``name.map``, so each task's result comes back in input
order and no ``submit``, ``as_completed`` or hand-built scheduler grows
around a pool. For the same reason ``src/foagen`` imports nothing from
``concurrent.futures`` but ``ThreadPoolExecutor``, and no other threading
or process module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "foagen"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.Module)
_OTHER_MODULES = {"threading", "_thread", "multiprocessing", "asyncio"}


def _is_pool(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "ThreadPoolExecutor"


def _bad_imports(tree: ast.Module) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top in _OTHER_MODULES or alias.name.startswith("concurrent"):
                    found.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom) and node.module:
            top = node.module.split(".")[0]
            for alias in node.names:
                if top in _OTHER_MODULES or (top == "concurrent" and alias.name != "ThreadPoolExecutor"):
                    found.append((node.lineno, f"from {node.module} import {alias.name}"))
    return found


def _misuses(tree: ast.Module) -> tuple[int, list[tuple[int, str]]]:
    """The number of pools in ``tree`` and the (line, reason) of each way
    one of them, or the imports around them, breaks the single pattern."""
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = _bad_imports(tree)
    pools = 0
    for node in ast.walk(tree):
        if not _is_pool(node):
            continue
        pools += 1
        item = parent.get(node)
        if not (
            isinstance(item, ast.withitem)
            and item.context_expr is node
            and isinstance(item.optional_vars, ast.Name)
        ):
            found.append((node.lineno, "ThreadPoolExecutor outside a `with ... as name`"))
            continue
        name = item.optional_vars.id
        scope = parent[item]
        while not isinstance(scope, _SCOPES):
            scope = parent[scope]
        for use in ast.walk(scope):
            if not (isinstance(use, ast.Name) and use.id == name and isinstance(use.ctx, ast.Load)):
                continue
            holder = parent.get(use)
            if not (isinstance(holder, ast.Attribute) and holder.attr == "map"):
                found.append((use.lineno, f"{name} used other than as {name}.map"))
    return pools, found


def _package():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(ROOT), ast.parse(path.read_text(encoding="utf-8"))


def test_every_pool_is_mapped_in_a_with_block():
    found, pooled = [], set()
    for path, tree in _package():
        pools, misuses = _misuses(tree)
        if pools:
            pooled.add(path.name)
        found += [f"{path}:{line} {reason}" for line, reason in misuses]
    assert found == []
    assert {"cli.py", "metrics.py"} <= pooled  # the guard sees eval-doa's, cut-fov's and eval-stft's pools


def _reasons(source: str) -> list[str]:
    return [reason for _, reason in _misuses(ast.parse(source))[1]]


def test_the_guard_passes_a_mapped_pool_and_its_bound_map():
    assert _reasons(
        "from concurrent.futures import ThreadPoolExecutor\n"
        "def f(xs, jobs):\n"
        "    with ThreadPoolExecutor(max_workers=jobs) as pool:\n"
        "        return list(pool.map(g, xs)), h(xs, pool.map)\n"
    ) == []


def test_the_guard_refuses_submit_a_bare_pool_and_other_schedulers():
    assert _reasons(
        "def f(xs):\n"
        "    with ThreadPoolExecutor(2) as pool:\n"
        "        return [pool.submit(g, x) for x in xs]\n"
    ) == ["pool used other than as pool.map"]
    assert _reasons(
        "def f(xs):\n"
        "    def run(k):\n"
        "        return g(pool, k)\n"
        "    with ThreadPoolExecutor(2) as pool:\n"
        "        return list(pool.map(run, xs))\n"
    ) == ["pool used other than as pool.map"]
    assert _reasons("pool = ThreadPoolExecutor(2)\n") == [
        "ThreadPoolExecutor outside a `with ... as name`"
    ]
    assert _reasons("with futures.ThreadPoolExecutor(2):\n    pass\n") == [
        "ThreadPoolExecutor outside a `with ... as name`"
    ]
    assert _reasons(
        "from concurrent.futures import ThreadPoolExecutor, as_completed\nimport threading\n"
    ) == ["from concurrent.futures import as_completed", "import threading"]
