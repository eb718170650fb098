"""Guard against code in ``src/etp`` that nothing in ``src/etp`` uses.

Every function and class defined in the package (methods and nested
functions included, dunders excepted) must be referenced somewhere in
the package besides its own definition: as a name, as an attribute, or
as an imported name, so a re-export from ``etp/__init__`` counts. Code
that only the tests call belongs in ``tests/``. Two more checks keep a
moved name from leaving a copy or a stale export behind: every name in
a module's ``__all__`` exists in that module, and no two modules define
a top-level function or class of the same name. Last, state must be
read: every attribute the package assigns (``x.name = ...``) is read
somewhere in the package, the tests or the benchmark, and every
parameter a function takes is read in its body.
"""

import ast
import importlib
from pathlib import Path

import etp

SRC = Path(etp.__file__).parent
REPO = Path(__file__).resolve().parent.parent


def _definitions_and_references():
    defined: dict[str, list[str]] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rsplit(".", 1)[-1])
    return defined, referenced


def test_every_definition_is_used_inside_the_package():
    defined, referenced = _definitions_and_references()
    unused = {
        name: where
        for name, where in defined.items()
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    }
    assert not unused, f"defined in src/etp but used only outside it: {unused}"


def test_every_exported_name_exists():
    missing = {}
    for path in sorted(SRC.glob("*.py")):
        name = "etp" if path.stem == "__init__" else f"etp.{path.stem}"
        module = importlib.import_module(name)
        absent = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if absent:
            missing[name] = absent
    assert not missing, f"names in __all__ that their module does not define: {missing}"


def test_no_two_modules_define_the_same_top_level_name():
    owners: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owners.setdefault(node.name, []).append(path.name)
    shared = {name: where for name, where in owners.items() if len(where) > 1}
    assert not shared, f"top-level names defined in more than one module: {shared}"


def _attributes(paths, ctx) -> dict[str, list[str]]:
    """Attribute names used in ``ctx`` (``ast.Load`` or ``ast.Store``), by where."""
    found: dict[str, list[str]] = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx):
                found.setdefault(node.attr, []).append(f"{path.name}:{node.lineno}")
    return found


def test_every_assigned_attribute_is_read():
    src = sorted(SRC.glob("*.py"))
    outside = [path for d in ("tests", "perfbench") for path in sorted((REPO / d).glob("*.py"))]
    read = _attributes(src + outside, ast.Load)
    write_only = {
        name: where for name, where in _attributes(src, ast.Store).items() if name not in read
    }
    assert not write_only, f"assigned in src/etp but never read: {write_only}"


def test_every_parameter_is_read():
    ignored = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if dunder or all(isinstance(stmt, ast.Pass) for stmt in node.body):  # a hook
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread = [p for p in params if p not in read and p not in ("self", "cls")]
            if unread:
                ignored[f"{path.name}:{node.lineno} {node.name}"] = unread
    assert not ignored, f"parameters that their function never reads: {ignored}"
