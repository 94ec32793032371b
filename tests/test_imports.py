"""The runtime is pure standard library: every module-level import of the
package is the standard library or hypersym itself, and is used.  Every
definition of the package is used as well, no context is shared across
the process, and the cold start loads no introspection module."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hypersym

SRC = Path(hypersym.__file__).parent


def _used_names(module: ast.Module) -> set:
    used = {n.id for n in ast.walk(module) if isinstance(n, ast.Name)}
    for node in module.body:  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def test_module_imports_are_stdlib_or_package_and_used():
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        module = ast.parse(text)
        lines = text.splitlines()
        used = _used_names(module)
        where = path.relative_to(SRC)
        for node in module.body:
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = ["hypersym" if node.level else
                         node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                if root != "hypersym" and root not in sys.stdlib_module_names:
                    problems.append(f"{where}:{node.lineno} imports {root}")
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            marked = any("# noqa" in lines[i - 1]
                         for i in range(node.lineno, node.end_lineno + 1))
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and not marked:
                    problems.append(f"{where}:{node.lineno} leaves "
                                    f"{bound} unused")
    assert not problems, problems


def _definitions(module: ast.Module):
    """Module-level functions and classes, and the methods of those classes
    that are not dunders (Python calls those itself)."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not (sub.name.startswith("__")
                                 and sub.name.endswith("__"))):
                    yield sub


def _references(node: ast.AST):
    """Every name that node reads, writes, imports or takes as an
    attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.split(".")[-1]
            if n.asname:
                yield n.asname


def test_every_definition_is_referenced():
    """A function, class or method of the package whose name occurs in
    the package or its tests only inside its own definition is dead.  The
    match is by name, so a method counts as used when any attribute of that
    name is read."""
    tests = Path(__file__).parent
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.rglob("*.py")) + sorted(
                   tests.rglob("*.py"))}
    seen = Counter()
    for module in modules.values():
        seen.update(_references(module))
    dead = [f"{path.relative_to(SRC)}:{d.lineno} {d.name}"
            for path, module in modules.items() if path.is_relative_to(SRC)
            for d in _definitions(module)
            if seen[d.name] == Counter(_references(d))[d.name]]
    assert not dead, dead


def _builds_context(node: ast.AST) -> bool:
    """node names the Context type or calls default_context."""
    return any(isinstance(n, ast.Name) and n.id in (
        "Context", "default_context") for n in ast.walk(node))


def test_no_context_is_shared():
    """A context belongs to the catalog or equation that made it, and
    nothing is process-wide: no function but Catalog.__init__ lets ctx
    default to None, and no module keeps a context at module level,
    assigned there or through a global statement."""
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        where = path.relative_to(SRC)
        problems += [f"{where}:{n.lineno} keeps a context" for n in module.body
                     if isinstance(n, (ast.Assign, ast.AnnAssign))
                     and _builds_context(n)]
        catalog_init = {id(f) for c in module.body
                        if isinstance(c, ast.ClassDef) and c.name == "Catalog"
                        for f in c.body
                        if getattr(f, "name", None) == "__init__"}
        for fn in ast.walk(module):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            defaults = [*zip(positional[len(positional) - len(a.defaults):],
                             a.defaults), *zip(a.kwonlyargs, a.kw_defaults)]
            if id(fn) not in catalog_init and any(
                    arg.arg == "ctx" and isinstance(d, ast.Constant)
                    and d.value is None for arg, d in defaults):
                problems.append(f"{where}:{fn.lineno} lets ctx default to "
                                "None")
            declared = {nm for n in ast.walk(fn) if isinstance(n, ast.Global)
                        for nm in n.names}
            problems += [f"{where}:{n.lineno} keeps a context in a global"
                         for n in ast.walk(fn) if isinstance(n, ast.Assign)
                         and _builds_context(n.value)
                         and any(isinstance(t, ast.Name) and t.id in declared
                                 for t in n.targets)]
    assert not problems, problems


_COLD_START = """
import sys
before = set(sys.modules)
import hypersym.transforms, hypersym.verify
from hypersym.catalog import Catalog
Catalog()
loaded = set(sys.modules) - before
print(" ".join(sorted(loaded & {"dataclasses", "inspect",
                                "importlib.resources"})))
before = set(sys.modules)
import hypersym.numeval
loaded = set(sys.modules) - before
print("hypersym.numeval" in loaded, "dataclasses" in loaded)
"""


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["plain", "no-site"])
def test_cold_start_loads_no_introspection_modules(flags):
    """Every CLI call and verify_all worker pays for import plus Catalog():
    neither loads dataclasses (which pulls in inspect, ast and dis) nor
    importlib.resources.  Under -S no site hook loads them first."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, *flags, "-c", _COLD_START],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["", "True False"]
