"""Every defaulted parameter in foagen is one some caller sets.

A default that no call overrides is a constant in disguise: it widens the
signature, and its value is stated where no reader looks for a constant.
This walks every function in ``src/foagen`` and every call in ``src/``,
``tests/`` and ``perfbench/``, matching calls by name. A call of a class
counts as a call of its ``__init__``, and the defaulted fields of a
``@dataclass`` are that ``__init__``'s parameters, in field order, with
``ClassVar`` ones left out; ``<x>.call(f, *args, **kwargs)``,
how the benchmark times a library call, counts as ``f(*args, **kwargs)``;
a ``*args`` or ``**kwargs`` at a call site counts as passing every
parameter it could fill.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "foagen"
CALLERS = ("src", "tests", "perfbench")

# (function name, parameter) pairs allowed to keep a default no call sets.
ALLOWED: set[tuple[str, str]] = set()


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _defaulted(func: ast.FunctionDef, method: bool):
    """(position or None, name) of each defaulted parameter; the position
    counts from the first argument a caller passes, None for keyword-only."""
    positional = func.args.posonlyargs + func.args.args
    skip = 1 if method else 0
    first_default = len(positional) - len(func.args.defaults)
    for index in range(first_default, len(positional)):
        yield index - skip, positional[index].arg
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _fields(cls: ast.ClassDef):
    """(line, position, name) of each defaulted field of a ``@dataclass``
    class, else nothing."""
    if not any(
        _name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in cls.decorator_list
    ):
        return
    assert not cls.bases, f"{cls.name}: inherited fields would shift the positions"
    fields = [
        item for item in cls.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and "ClassVar" not in ast.unparse(item.annotation)
    ]
    for position, item in enumerate(fields):
        if item.value is not None:
            yield item.lineno, position, item.target.id


def _functions():
    """(called name, file, line, position, parameter) of each defaulted
    parameter in the package; an ``__init__`` or a dataclass field is
    called by its class name."""
    for path, tree in _trees(PACKAGE):
        methods = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for line, position, param in _fields(node):
                    yield node.name, path.relative_to(ROOT), line, position, param
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        static = any(
                            isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in item.decorator_list
                        )
                        methods[item] = (node.name, not static)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner, method = methods.get(node, (None, False))
            name = owner if node.name == "__init__" and owner else node.name
            for position, param in _defaulted(node, method):
                yield name, path.relative_to(ROOT), node.lineno, position, param


def _name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _called(call: ast.Call) -> tuple[str | None, list[ast.expr]]:
    """The called name and the positional arguments it receives; through
    ``<x>.call(f, ...)`` that is f's name and the arguments after f."""
    func, args = call.func, call.args
    if isinstance(func, ast.Attribute) and func.attr == "call" and args:
        return _name(args[0]), args[1:]
    return _name(func), args


def _passed(callers=CALLERS):
    """Called name -> the positions and keywords some call passes; "*" and
    "**" stand for a star argument that could fill any of them."""
    passed = defaultdict(set)
    for directory in callers:
        for _, tree in _trees(ROOT / directory):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name, args = _called(node)
                if name is None:
                    continue
                seen = passed[name]
                for position, arg in enumerate(args):
                    seen.add("*" if isinstance(arg, ast.Starred) else position)
                for keyword in node.keywords:
                    seen.add("**" if keyword.arg is None else keyword.arg)
    return passed


def _unset_defaults():
    passed = _passed()
    unset = []
    for name, path, line, position, param in _functions():
        seen = passed.get(name, set())
        by_position = position is not None and (
            "*" in seen or any(isinstance(p, int) and p >= position for p in seen)
        )
        if by_position or param in seen or "**" in seen:
            continue
        if (name, param) not in ALLOWED:
            unset.append(f"{path}:{line} {name}({param}=...)")
    return unset


def test_every_default_is_set_by_some_call():
    assert _unset_defaults() == []


def test_the_guard_sees_positional_keyword_and_class_calls():
    functions = {(name, param): position for name, _, _, position, param in _functions()}
    # container.Reader(head, FRAME_MAGIC, size) passes size by position.
    assert functions[("Reader", "size")] == 2
    passed = _passed()
    assert 2 in passed["Reader"]
    assert "bit_depth" in passed["write_frame"]
    # perfbench's infill pass samples through ops.call(flow.euler_sample, ...).
    benchmark = _passed(("perfbench",))
    assert {"masked_cond", "local"} <= benchmark["euler_sample"]
    assert 1 in benchmark["euler_sample"]  # steps, after the model


def test_the_guard_sees_dataclass_fields():
    functions = {(name, param): position for name, _, _, position, param in _functions()}
    # panorama.fov_cameras builds CameraSpec(yaw, pitch, hfov, out_width, out_height).
    assert functions[("CameraSpec", "out_height")] == 4
    assert 4 in _passed(("src",))["CameraSpec"]
    # flow/fixtures.py freezes MIXTURE_TRAIN with TrainConfig(..., lr_tail=0.5).
    assert ("TrainConfig", "lr_tail") in functions
    assert "lr_tail" in _passed(("src",))["TrainConfig"]
    # A ClassVar is no parameter and takes no position.
    cls = ast.parse(
        "@dataclass(frozen=True)\nclass C:\n    a: int\n    k: ClassVar[int] = 4\n    b: int = 1\n"
    ).body[0]
    assert list(_fields(cls)) == [(5, 1, "b")]
