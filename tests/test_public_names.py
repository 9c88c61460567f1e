"""Names other code depends on, and the shape of the library's code.

Every function the traced benchmark wraps (perfbench/spans.py) and every
name in polysmash.__all__ must resolve, and each of the benchmark's counter
hooks must read a real result of the function it wraps, so that deleting a
name or reshaping a result fails here and not only in the benchmark's own
smoke run.  The library's value classes are written out by hand, so that
importing it generates no code: the tests pin that the import loads no
dataclasses, and the behaviour the classes keep from the decorator.  Three AST scans keep the library
lean and its checks live: every function and method is reached by library
code or by the benchmark, with no exception, so test-only code lives in
tests/; no assert statement stands in for an invariant check that python -O
would remove; and one function, the face-mask assembler, builds every
ChainComplex.  The scan matches names; tests/traffic_trace.py runs the
commands and lists the library lines none of them executes.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import polysmash
from polysmash import chains, complexes, exactlin, geomjoin, smashmodel
from polysmash.chains import ChainComplex, HomologyGroup, face_levels
from polysmash.exactlin import LPResult, RationalLP, SmithForm, SparseIntMatrix
from polysmash.geomjoin import EmbeddedComplex, StandardConfig

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
LIBRARY = sorted((ROOT / "src" / "polysmash").glob("*.py"))

# Functions kept without a caller: none.  Test-only code lives in tests/
# (A(K)'s realization and the checked from_simplices in config_views.py).
UNREACHED_ALLOWED = frozenset()


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


def test_benchmark_counter_hooks_read_real_results():
    # each counter hook runs on a real result of the function it wraps, so a
    # change to that result's shape fails here and not only in the smoke run
    spans = load_spans()
    rec = spans.Recorder()

    def traced(name, hook, fn, *args):
        result, span = rec.span(name, fn, *args)
        hook(rec, args, result, span)
        return result

    K = complexes.from_facets(3, [(1, 2), (1, 3), (2, 3)])
    model = traced("smashmodel.assemble", spans._assemble_counts, smashmodel._assemble,
                   face_levels(K), 0b011, 2)
    assert isinstance(model, ChainComplex)
    traced("complexes.double", spans._double_counts, complexes.double_iterated, K, (1, 0, 0))
    traced("exactlin.snf", spans._snf_counts, exactlin.smith_normal_form,
           SparseIntMatrix(2, 2, {(0, 0): 2, (1, 1): 30}))
    # an LP with optimum 0 inside a proper-intersection span, and one with
    # optimum 2 outside any span
    rec.span("geomjoin.proper", traced, "exactlin.lp", spans._lp_counts, exactlin.lp_max,
             RationalLP(objective=[-1], a_ub=[[1]], b_ub=[2]))
    traced("exactlin.lp", spans._lp_counts, exactlin.lp_max,
           RationalLP(objective=[1], a_ub=[[1]], b_ub=[2]))
    vertices = ((0, 0), (1, 0), (0, 1))
    traced("geomjoin.bary", spans._bary_counts, geomjoin.barycentric_coords, vertices,
           (Fraction(1, 3), Fraction(1, 3)))
    # the direct model on the triangle's boundary: 7 cells, 3 edges of two
    # terms and 3 vertices of one; K(1, 0, 0) has 15 faces, the empty one too
    assert dict(rec.counts) == {
        "smashmodel.cells": 7, "smashmodel.nnz": 9, "complexes.kj_faces": 15,
        "exactlin.snf_nnz_in": 2, "exactlin.snf_pivots": 2,
        "exactlin.snf_nonunit_factors": 2, "exactlin.lp_zero": 1, "geomjoin.proper_lp": 1,
    }
    assert rec.max_digits == 2
    assert rec.bary_refs == {frozenset(vertices)}


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


def test_one_library_function_builds_chain_complexes():
    # C(K), the direct model and C(K(J)) come from one assembler, the one the
    # benchmark traces as smashmodel._assemble
    builders = [
        f"{path.stem}.{fn.name}" for path in LIBRARY for fn in ast.walk(parse(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(node, ast.Call)
                and "ChainComplex" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None))
                for node in ast.walk(fn))
    ]
    assert builders == ["chains._assemble"], builders
    assert smashmodel._assemble is chains._assemble


def test_importing_the_cli_loads_no_code_generation_modules():
    # dataclasses generates each class's methods at import and loads inspect,
    # ast, dis and tokenize; the difference is taken in the child, so a module
    # a site hook loads first does not count
    code = ("import json, sys; before = set(sys.modules); import polysmash.cli; "
            "print(json.dumps(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
            " & (set(sys.modules) - before))))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded == [], loaded


@pytest.mark.parametrize("make, field", [
    (lambda: HomologyGroup(1, (2,)), "betti"),
    (lambda: complexes.from_facets(3, [(1, 2), (2, 3)]), "facets"),
    (lambda: SmithForm((1, 2), 2), "rank"),
    (lambda: LPResult("optimal", Fraction(1, 2), (Fraction(1, 2),)), "point"),
    (lambda: EmbeddedComplex(2, frozenset([frozenset([(0, 0), (1, 0)])])), "maximal"),
    (lambda: StandardConfig(2, 1), "k"),
], ids=["HomologyGroup", "SimplicialComplex", "SmithForm", "LPResult",
        "EmbeddedComplex", "StandardConfig"])
def test_values_are_read_only_and_equal_by_their_fields(make, field):
    a, b = make(), make()
    assert a is not b and a == b and len({a, b}) == 1
    for change in (lambda: setattr(a, field, None), lambda: delattr(a, field)):
        with pytest.raises(AttributeError):
            change()
    assert a == b and hash(a) == hash(b)


def test_lp_values_print_and_default_as_dataclasses_did():
    # proper_intersection's RuntimeError prints an LPResult
    assert str(LPResult("unbounded")) == "LPResult(status='unbounded', value=None, point=None)"
    P, Q = RationalLP([1]), RationalLP([1])
    P.a_ub.append([1])
    P.b_ub.append(2)
    assert (Q.a_eq, Q.b_eq, Q.a_ub, Q.b_ub) == ([], [], [], [])
    assert P.a_eq is not Q.a_eq and P.b_eq is not Q.b_eq
