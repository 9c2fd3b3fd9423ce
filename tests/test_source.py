"""Static checks over the package source, run without a linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blockprnu"
# the package's own imports are its exports, so they count as used
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement that the module never reads,
    counting names inside quoted annotations."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_finds_an_unread_name():
    tree = ast.parse("from x import a, b\nimport c.d\nfrom __future__ import "
                     "annotations\ndef f() -> 'b':\n    return c\n")
    assert unused_imports(tree) == ["a (line 1)"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_what_it_uses(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert unused_imports(tree) == []
