"""Static checks over the package source, run without a linter."""

import ast
import re
from collections import Counter
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


def unread_methods(package: dict[str, ast.Module],
                   readers: list[ast.Module]) -> list[str]:
    """Methods and properties of the package's top-level classes whose name
    nothing reads as an attribute outside the method's own body: neither
    the package nor any of `readers`. Dunder methods are called by Python
    itself, so they are not counted."""
    def attributes(tree: ast.AST) -> Counter:
        return Counter(node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, ast.Load))

    read = sum(map(attributes, [*package.values(), *readers]), Counter())
    unread = []
    for module, tree in package.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not re.fullmatch(r"__\w+__", node.name)
                        and read[node.name] == attributes(node)[node.name]):
                    unread.append(f"{module}.{cls.name}.{node.name}")
    return unread


def test_unread_methods_finds_a_method_only_its_own_body_reads():
    package = {"a": ast.parse(
        "class C:\n"
        "    def __init__(self):\n        self.m()\n        self.r = None\n"
        "    def m(self):\n        return self.n\n"
        "    def n(self):\n        return self.n()\n"
        "    @property\n    def p(self):\n        return 1\n"
        "    @property\n    def q(self):\n        return C().q\n"
        "    def r(self):\n        pass\n")}
    readers = [ast.parse("from blockprnu.a import C\nC().p\nr = C\n")]
    # n is read by m as well as by itself; r is only stored as an
    # attribute and bound as a bare name, which reads neither
    assert unread_methods(package, readers) == ["a.C.q", "a.C.r"]


# Methods that only tests read, each with the reason it stays.
TEST_ONLY_METHODS = {
    # the record list that criterion 07's oracle compares against
    "trace.TraceFile.records",
}


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
    assert set(unread_methods(package, readers)) == TEST_ONLY_METHODS
