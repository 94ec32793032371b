"""The runtime is pure standard library: every module-level import of the
package is the standard library or hypersym itself, and is used."""

import ast
import sys
from pathlib import Path

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
