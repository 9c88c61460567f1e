"""Names other code depends on, and the shape of the library's code.

Every function the traced benchmark wraps (perfbench/spans.py) and every
name in polysmash.__all__ must resolve, so that deleting one fails here and
not only in the benchmark's own smoke run.  Two AST scans keep the library
lean and its checks live: every function and method is reached by library
code or by the benchmark, so test-only code lives in tests/, and no assert
statement stands in for an invariant check that python -O would remove.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import polysmash

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
LIBRARY = sorted((ROOT / "src" / "polysmash").glob("*.py"))

# Kept without a caller, and so are the functions it calls: the realization
# of A(K) in the standard configuration is what certifying the W-union as an
# embedded complex (ROADMAP item 3) will check.
UNREACHED_ALLOWED = {"realization_AK"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_span_targets_resolve():
    mods = SimpleNamespace(**{
        info.name: importlib.import_module(f"polysmash.{info.name}")
        for info in pkgutil.iter_modules(polysmash.__path__)
    })
    targets = load_spans().targets(mods)
    assert targets
    missing = [(owner, attr) for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing, missing


def test_all_names_resolve():
    missing = [name for name in polysmash.__all__ if not hasattr(polysmash, name)]
    assert not missing, missing


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def references(*trees):
    """(names read, attributes taken) anywhere in trees."""
    names, attrs = set(), set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def test_every_library_function_is_reached():
    """Every function in src/polysmash, module-level or a method, is reached
    from what the library runs on its own or from perfbench.

    The roots are perfbench's names, attributes and strings (span targets)
    and the library's statements outside any function: module and class
    level code, decorators and the bodies of dunder methods, which Python
    calls by syntax.  A function is reached when a reached body names it, by
    name or attribute, and its own body is then reached: a chain of
    functions that call only each other stays unreached.  A method counts
    only as an attribute (x.name), or a perfbench string; a module-level
    function also by a bare name.  __init__'s re-exports do not count.  The
    match is by name alone, so a function sharing its name with any reached
    attribute (or, module-level, variable) passes.
    """
    names, attrs = set(), set(UNREACHED_ALLOWED)

    def reach(*trees):
        found_names, found_attrs = references(*trees)
        names.update(found_names)
        attrs.update(found_attrs)

    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = parse(path)
        reach(tree)
        attrs.update(node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str))
    functions = {}  # "module.[Class.]name" -> (its definition, is a method)
    for path in LIBRARY:
        if path.name == "__init__.py":
            continue
        for node in parse(path).body:
            scope, items = path.stem, [node]
            if isinstance(node, ast.ClassDef):
                reach(*node.decorator_list, *node.bases, *node.keywords)
                scope, items = f"{path.stem}.{node.name}", node.body
            for item in items:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    reach(item)
                elif item.name.startswith("__") and item.name.endswith("__"):
                    reach(item)
                else:
                    reach(*item.decorator_list)
                    functions[f"{scope}.{item.name}"] = (item, item is not node)
    unreached = dict(functions)
    while True:
        found = [q for q, (fn, method) in unreached.items()
                 if fn.name in attrs or (not method and fn.name in names)]
        if not found:
            break
        for q in found:
            reach(unreached.pop(q)[0])
    assert not unreached, sorted(unreached)


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}" for path in LIBRARY
             for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert not found, found
