"""Every name a module lists in `__all__` exists: a name moved or deleted
without its `__all__` entry would otherwise fail only at a star import.
Every definition in the library has a caller there, or a stated reason to
stay."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import spinnets
from test_tracer_names import _load_tracer


def test_all_entries_resolve():
    checked = 0
    for info in pkgutil.iter_modules(spinnets.__path__):
        module = importlib.import_module(f"spinnets.{info.name}")
        names = getattr(module, "__all__", ())
        assert [n for n in names if not hasattr(module, n)] == [], info.name
        checked += len(names)
    missing = [n for n in spinnets.__all__ if not hasattr(spinnets, n)]
    assert checked and not missing


# definitions kept with no caller in the library, each with its reason
_KEPT = {
    "cli._Parser.error": "argparse calls it on a usage error",
}

# definitions whose name another library definition shares, so that a
# reference by name cannot tell which one it reaches; each names its caller
_SHARED = {
    "asymptotics.HypothesesReport.to_obj": "the check and asymptote reports (cli)",
    "haar.MCEstimate.to_obj": "the integrate report (cli)",
    "polyring.Namespace.encode": "MPoly.var, MPoly.coefficient and series' monomial keys",
    "polyring.Namespace.decode": "MPoly.__repr__",
    "polyring._Residues.encode": "the series recurrence and the row kernel",
    "polyring._Residues.decode": "the series recurrence and the row kernel",
}


def _definitions(tree):
    """(qualified name, name, node, is a method) of every top-level function
    and class of a module and every method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item, True


def _references(node, attributes_only: bool) -> Counter:
    """Every name the code under node reads or calls as an attribute, and
    unless attributes_only as a bare name too; imports do not count."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, kinds))


def test_every_definition_has_a_library_caller():
    """A function, class or method under src/spinnets is referenced by the
    library outside its own body, listed in an `__all__`, a dunder, patched
    by perfbench/tracer.py, or kept in _KEPT: code only the tests run lives
    under tests/.  References are matched by name, a method's only as an
    attribute (a bare `pow` or `error` calls no method).  A name that two
    definitions share matches either, so each such definition must be in
    _SHARED as well; an attribute of a name from outside the library (a
    `bytes.decode`, say) still matches a method of that name."""
    tracer = _load_tracer()
    # the tracer patches a function by its name in a module that imports it,
    # and a method on MPoly alone
    traced = {attr for _, attr, _ in tracer.FUNCTIONS} | {
        f"polyring.MPoly.{name}" for name, _ in tracer.METHODS}
    trees, exported = {}, set()
    for info in pkgutil.iter_modules(spinnets.__path__):
        module = importlib.import_module(f"spinnets.{info.name}")
        trees[info.name] = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        exported |= set(getattr(module, "__all__", ()))
    refs = {kind: sum((_references(tree, kind) for tree in trees.values()), Counter())
            for kind in (False, True)}
    defined = Counter(d[1] for tree in trees.values() for d in _definitions(tree))
    shared, orphans = set(), []
    for mod, tree in trees.items():
        for qualname, name, node, method in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if defined[name] > 1:
                shared.add(f"{mod}.{qualname}")
            called = refs[method][name] > _references(node, method)[name] and (
                defined[name] == 1 or f"{mod}.{qualname}" in _SHARED)
            if not (called or name in exported or f"{mod}.{qualname}" in _KEPT
                    or (f"{mod}.{qualname}" if method else name) in traced):
                orphans.append(f"{mod}.{qualname}")
    assert orphans == []
    assert set(_SHARED) <= shared, "a _SHARED entry whose name is no longer shared"
