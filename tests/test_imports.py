"""Layout checks on the package source."""

import ast
import pathlib

import realrmt

PACKAGE = pathlib.Path(realrmt.__file__).parent


def _function_level_package_imports(tree):
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "realrmt"):
                yield node.lineno
            elif isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "realrmt" for a in node.names):
                yield node.lineno


def test_no_module_imports_the_package_inside_a_function():
    found = ["%s:%d" % (path.name, line)
             for path in sorted(PACKAGE.glob("*.py"))
             for line in _function_level_package_imports(ast.parse(path.read_text()))]
    assert found == []
