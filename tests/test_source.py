"""Static checks over the package source, run without a linter."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blockprnu"
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


def identifiers(tree: ast.AST) -> set[str]:
    """Names an AST reads: loaded names, attribute names and every part of
    an imported name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.update(node.name.split("."))
    return read


def unread_definitions(package: dict[str, ast.Module],
                       readers: list[ast.Module]) -> list[str]:
    """Top-level functions and classes of the package modules that nothing
    reads outside their own definition: neither another part of a package
    module nor any of `readers`."""
    read = set().union(*map(identifiers, readers))
    defined = []
    for module, tree in package.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append(f"{module}.{node.name}")
                read |= identifiers(node) - {node.name}
            else:
                read |= identifiers(node)
    return [name for name in defined if name.partition(".")[2] not in read]


def test_unread_definitions_finds_a_name_only_its_own_body_reads():
    package = {"a": ast.parse("def f():\n    return f()\ndef g():\n    return h\n"
                              "class C:\n    pass\n"),
               "b": ast.parse("def h():\n    pass\nX = C\n")}
    readers = [ast.parse("from blockprnu.a import g\n")]
    assert unread_definitions(package, readers) == ["a.f"]


def test_every_definition_is_read_outside_the_tests():
    # the package's __init__ only re-exports, so it does not count
    package = {name.removesuffix(".py"):
               ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
               for name in MODULES}
    sources = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("bench/*.py")])
    readers = [ast.parse(path.read_text(encoding="utf-8")) for path in sources]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readers += [ast.parse(block) for block in
                re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)]
    assert unread_definitions(package, readers) == []
