"""Source hygiene: every module-level private name, every public
constant, function and class and every parameter of the library is read."""

import ast
import json
from pathlib import Path

import isacbeam

SRC = Path(isacbeam.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"
BENCHMARK = SRC.parents[1] / "BENCHMARK.json"


def _trees(directory=SRC):
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree):
    """Names bound at module level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _references(tree, imports=True):
    """Names read, attributes taken and, with ``imports``, names imported
    anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif imports and isinstance(node, ast.alias):
            yield node.name


def _read_by_library_or_benchmark():
    """Names read by a library module, by ``perfbench/*.py`` or in a
    BENCHMARK.json per-layer metric name, which the benchmark's tracer
    resolves to a function. Tests do not count as readers: a name only a
    test reads is dead. Nor do the package re-exports, the import
    aliases of ``__init__.py``."""
    used = {name for module, tree in _trees().items()
            for name in _references(tree, imports=module != "__init__.py")}
    used.update(name for tree in _trees(PERFBENCH).values() for name in _references(tree))
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    used.update(part for metric in metrics for part in metric["name"].split("."))
    return used


def test_every_private_module_name_is_referenced():
    trees = _trees()
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in _private_definitions(tree)
                    if _is_private(name) and name not in used)
    assert unused == []


def test_every_public_constant_is_read_by_the_library_or_the_benchmark():
    used = _read_by_library_or_benchmark()
    constants = sorted(f"{module}:{name}" for module, tree in _trees().items()
                       for name in _private_definitions(tree)
                       if name.isupper() and not name.startswith("_"))
    assert len(constants) > 10
    assert [c for c in constants if c.split(":")[1] not in used] == []


def test_every_public_function_and_class_is_read_by_the_library_or_the_benchmark():
    # a module calling its own function is a reader
    used = _read_by_library_or_benchmark()
    public = sorted(f"{module}:{node.name}" for module, tree in _trees().items()
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_"))
    assert len(public) > 40
    assert [name for name in public if name.split(":")[1] not in used] == []


def test_private_name_check_sees_definitions_and_uses():
    tree = ast.parse("import m\nfrom m import _imp\n_A = 1\ndef _f():\n    return _A\n"
                     "class _C:\n    pass\nm._g()\n")
    assert set(_private_definitions(tree)) == {"_A", "_f", "_C"}
    assert {"_A", "_imp", "_g"} <= set(_references(tree))
    assert "_f" not in set(_references(tree)) and "_C" not in set(_references(tree))
    # a re-export alone is no read
    assert {"_A", "_g"} <= set(_references(tree, imports=False))
    assert "_imp" not in set(_references(tree, imports=False))


def _unread_parameters(tree):
    """(function, parameter) for each parameter of a def or lambda in
    ``tree`` that its body never reads; names starting with ``_`` are
    exempt, the way to keep a slot that a caller's signature fixes."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        yield from ((name, p) for p in params if not p.startswith("_") and p not in read)


def test_every_parameter_is_read():
    unread = sorted(f"{module}:{function}({param})" for module, tree in _trees().items()
                    for function, param in _unread_parameters(tree))
    assert unread == []


def test_unread_parameter_check_sees_every_kind_of_parameter():
    tree = ast.parse("def f(a, b=1, *c, d, _e, **g):\n    return a + (lambda x, y: x)(d, 0)\n"
                     "def h(u):\n    def inner():\n        return u\n    return inner\n")
    assert sorted(_unread_parameters(tree)) == [
        ("<lambda>", "y"), ("f", "b"), ("f", "c"), ("f", "g")]
