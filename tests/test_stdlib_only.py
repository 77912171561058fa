"""econvex imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "econvex"


def absolute_imports(path):
    """(line, top-level name) of every absolute import in a module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name.partition(".")[0]


def test_every_module_imports_only_the_standard_library():
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    outside = [
        f"{path.relative_to(SOURCE)}:{line}: {name}"
        for path in modules
        for line, name in absolute_imports(path)
        if name != "econvex" and name not in sys.stdlib_module_names
    ]
    assert outside == []
