"""The package ships only code that ``modpoints.cli.main`` can reach.

Reachability is by name: a function or method is reached when its name
occurs (as a name or an attribute) in code that is reached.  The roots are
``cli.main``, every module's import-time code (module and class bodies,
decorators, default values) and every dunder method, which Python calls
without naming it.  Test-only helpers belong in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "modpoints"

UNREACHED_ON_PURPOSE = set()


def _names(nodes):
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def _definitions():
    """Every function and method by qualified name, the root functions among
    them, and the other root nodes."""
    functions, root_functions, roots = {}, set(), []

    def visit(module, prefix, body):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[f"{module}.{prefix}{stmt.name}"] = stmt
                roots.extend(stmt.decorator_list + stmt.args.defaults + stmt.args.kw_defaults)
                dunder = stmt.name.startswith("__") and stmt.name.endswith("__")
                if dunder or (module, prefix, stmt.name) == ("cli", "", "main"):
                    root_functions.add(f"{module}.{prefix}{stmt.name}")
            elif isinstance(stmt, ast.ClassDef):
                roots.extend(stmt.bases + stmt.decorator_list)
                visit(module, f"{prefix}{stmt.name}.", stmt.body)
            else:
                roots.append(stmt)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path.stem, "", ast.parse(path.read_text(encoding="utf-8")).body)
    return functions, root_functions, [node for node in roots if node is not None]


def test_every_function_is_reachable_from_main():
    functions, reached, roots = _definitions()
    pending = _names(roots + [functions[name] for name in reached])
    while pending:
        name = pending.pop()
        for qualified, node in functions.items():
            if qualified.rsplit(".", 1)[1] == name and qualified not in reached:
                reached.add(qualified)
                pending |= _names([node])
    unreached = set(functions) - reached
    assert unreached == UNREACHED_ON_PURPOSE, sorted(unreached ^ UNREACHED_ON_PURPOSE)
