"""The package keeps only what the program calls.

`systemt/__init__.py` binds no name: callers import from the modules.  Every
top-level name of a module, public or private, is used, outside the statement
that defines it, by the package itself or by the benchmark in `perfbench/`; a
name that only tests use belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "systemt"
#: The modules whose uses count: the package and the benchmark, not the tests.
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _statements(path: Path) -> "list[ast.stmt]":
    return ast.parse(path.read_text(encoding="utf-8"), str(path)).body


def _defined(stmt: ast.stmt) -> "set[str]":
    """The names a top-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {n.id for target in stmt.targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _used(stmt: ast.stmt) -> "set[str]":
    """The names a statement mentions, as a name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_package_init_binds_no_name():
    stmts = _statements(PACKAGE / "__init__.py")
    assert ast.get_docstring(ast.Module(body=stmts, type_ignores=[]))
    assert stmts[1:] == []


def test_every_top_level_name_has_a_caller_outside_the_tests():
    uses = {(path, i): _used(stmt) for path in CALLERS for i, stmt in enumerate(_statements(path))}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for i, stmt in enumerate(_statements(path)):
            for name in sorted(_defined(stmt)):
                if not any(name in used for where, used in uses.items() if where != (path, i)):
                    unused.append(f"{path.name}: {name}")
    assert unused == []
