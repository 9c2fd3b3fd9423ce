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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_names(func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    """Names a function binds in its own scope other than by an import:
    its parameters, and the names its body assigns or defines. Nested
    functions and classes are not entered."""
    args = func.args
    bound = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a}
    todo = [func.body] if isinstance(func, ast.Lambda) else list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return bound


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement that the module never reads,
    counting names inside quoted annotations. A read inside a function
    counts only when no enclosing function binds the name."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = set()

    def visit(node: ast.AST, local: frozenset) -> None:
        if isinstance(node, _SCOPES):
            local = local | local_names(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                return
            visit(quoted, local)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_finds_an_unread_name():
    tree = ast.parse("from x import a, b\nimport c.d\nfrom __future__ import "
                     "annotations\ndef f() -> 'b':\n    return c\n")
    assert unused_imports(tree) == ["a (line 1)"]


def test_unused_imports_finds_a_name_read_only_as_a_local():
    tree = ast.parse("from x import f, g\ndef h():\n    def f():\n        pass\n"
                     "    return f(), (lambda g: g)(0), [k for k in g]\n")
    assert unused_imports(tree) == ["f (line 1)"]


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


def package_and_readers() -> tuple[dict[str, ast.Module], list[ast.Module]]:
    """The package modules, without the __init__ that only re-exports, and
    the code that reads them outside the tests: the demos, the benchmark
    scripts and the README's Python blocks."""
    package = {name.removesuffix(".py"):
               ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
               for name in MODULES}
    sources = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("bench/*.py")])
    readers = [ast.parse(path.read_text(encoding="utf-8")) for path in sources]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readers += [ast.parse(block) for block in
                re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)]
    return package, readers


def test_every_definition_is_read_outside_the_tests():
    package, readers = package_and_readers()
    assert unread_definitions(package, readers) == []
    assert set(unread_methods(package, readers)) == TEST_ONLY_METHODS


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def passed_arguments(tree: ast.AST) -> Counter:
    """What the calls in an AST pass, counted by (callee name, slot): a
    slot is a keyword, a position, "*" for a starred argument or "**" for
    an unpacked mapping. A call of `partial` passes what follows its first
    argument to that argument."""
    passed = Counter()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        for k, arg in enumerate(args):
            passed[name, "*" if isinstance(arg, ast.Starred) else k] += 1
        for keyword in node.keywords:
            passed[name, keyword.arg or "**"] += 1
    return passed


def _defaulted(func: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter with a default, counting
    positions after a bound `self` or `cls`; keyword-only ones have None."""
    args = func.args
    positional = [*args.posonlyargs, *args.args][bound:]
    first = len(positional) - len(args.defaults)
    return ([(p.arg, k) for k, p in enumerate(positional) if k >= first]
            + [(p.arg, None) for p, default in zip(args.kwonlyargs,
                                                   args.kw_defaults)
               if default is not None])


def unpassed_parameters(package: dict[str, ast.Module],
                        readers: list[ast.Module]) -> list[str]:
    """Parameters with a default, of the package's top-level functions and
    of the non-dunder methods of its top-level classes, that no call passes
    by keyword or by position outside the function's own body: neither in
    the package nor in any of `readers`. Calls are matched by name."""
    passed = sum(map(passed_arguments, [*package.values(), *readers]),
                 Counter())
    functions = []
    for module, tree in package.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((f"{module}.{node.name}", node, False))
            elif isinstance(node, ast.ClassDef):
                functions += [(f"{module}.{node.name}.{f.name}", f,
                               "staticmethod" not in map(_callee,
                                                         f.decorator_list))
                              for f in node.body
                              if isinstance(f, ast.FunctionDef)
                              and not re.fullmatch(r"__\w+__", f.name)]
    unpassed = []
    for qualified, func, bound in functions:
        outside = passed - passed_arguments(func)
        for name, k in _defaulted(func, bound):
            slots = [name, "**"] + ([] if k is None else [k, "*"])
            if not any(outside[func.name, slot] for slot in slots):
                unpassed.append(f"{qualified}.{name}")
    return unpassed


def test_unpassed_parameters_finds_a_default_only_its_own_body_passes():
    package = {"a": ast.parse(
        "def f(x, y=1, *, z=2):\n    return f(x, y=y, z=z)\n"
        "def g(x, y=1, z=2):\n    pass\n"
        "def h(x=1):\n    pass\n"
        "class C:\n"
        "    def __init__(self, q=0):\n        pass\n"
        "    def m(self, p=0, q=1):\n        pass\n"
        "    @staticmethod\n    def s(p=0):\n        pass\n")}
    readers = [ast.parse("from blockprnu.a import C, g, h\n"
                         "g(0, 1)\nC().m(5)\nC.s(**{})\n"
                         "partial(h, x=3)\n")]
    # g's y is passed by position and h's x through partial; f passes its
    # own y and z, which does not count, and C.__init__ is Python's to call
    assert unpassed_parameters(package, readers) == [
        "a.f.y", "a.f.z", "a.g.z", "a.C.m.q"]


# Parameters that only tests pass, each with the reason it stays.
TEST_ONLY_PARAMETERS = {
    # acceptance criterion 02 compares the unnormalized fingerprint
    "prnu.finalize.normalize",
    # acceptance criterion 05 averages over a chosen set of videos
    "evaluation.scheme_mean_pce.video_ids",
    # they mirror pce's, which the CLI sets, and pin the matrix as equal
    # to per-pair pce under any config
    "matching.batch_match.config",
    "matching.batch_match.threshold",
}


def test_every_parameter_is_passed_outside_the_tests():
    package, readers = package_and_readers()
    assert set(unpassed_parameters(package, readers)) == TEST_ONLY_PARAMETERS


def hand_block_layouts(tree: ast.AST) -> list[str]:
    """Calls of `reshape` or `repeat` that pass MACROBLOCK anywhere in their
    arguments, by callee and line in source order: a block layout spelled
    out by hand rather than read through `trace.blocks`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee(node.func) in ("reshape",
                                                                 "repeat"):
            args = [*node.args, *(k.value for k in node.keywords)]
            if "MACROBLOCK" in set().union(*map(identifiers, args)):
                found.append((node.lineno, _callee(node.func)))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_hand_block_layouts_finds_macroblock_reshapes_and_repeats():
    tree = ast.parse(
        "a.reshape(gh, MACROBLOCK, gw, MACROBLOCK).swapaxes(1, 2)\n"
        "np.repeat(np.ones(2), repeats=trace.MACROBLOCK)\n"
        "a.reshape(n, h // MACROBLOCK, -1)\n"
        "a.reshape(3, -1)\nnp.repeat(w, 2, 0)\nblocks(a, MACROBLOCK)\n"
        "np.pad(a, MACROBLOCK)\n")
    assert hand_block_layouts(tree) == [
        "reshape (line 1)", "repeat (line 2)", "reshape (line 3)"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "trace.py"])
def test_block_views_go_through_trace_blocks(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert hand_block_layouts(tree) == []


def pool_calls(tree: ast.AST) -> list[str]:
    """Calls of a `submit` or `map` attribute, as on an executor, outside
    any function named `_spread`, by name and line in source order: work
    handed to threads other than through the one helper."""
    found = []
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.FunctionDef) and node.name == "_spread":
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")):
            found.append((node.lineno, node.func.attr))
        todo.extend(ast.iter_child_nodes(node))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_pool_calls_finds_submit_and_map_outside_spread():
    tree = ast.parse(
        "def _spread(pool, fn, items):\n    return pool.submit(fn)\n"
        "def rows(pool):\n    list(pool.map(f, range(2)))\n"
        "    executor.submit(g).result()\n    map(f, range(2))\n"
        "    _spread(pool, f, [1])\n")
    assert pool_calls(tree) == ["map (line 4)", "submit (line 5)"]


@pytest.mark.parametrize("module", MODULES)
def test_threads_share_work_only_through_spread(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert pool_calls(tree) == []


def readers(tree: ast.AST, names: set[str]) -> list[str]:
    """The functions that read any of `names`, as a name or an attribute,
    by their name, or "<module>" for a read outside every function, in
    source order. A nested function is listed by its own name."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if ((isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             and node.id in names)
                or (isinstance(node, ast.Attribute) and node.attr in names)):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return list(dict.fromkeys(scope for _, scope in sorted(found)))


def test_readers_finds_each_function_reading_a_name_once():
    tree = ast.parse("A = 1\nB = A\ndef f():\n    return A + A\n"
                     "def g():\n    def h():\n        return m.A\n"
                     "    return 0\ndef k(A):\n    A = 2\n")
    # k's A is a parameter and a store, and neither is a read
    assert readers(tree, {"A"}) == ["<module>", "f", "h"]


SATURATION_BOUNDS = {"SATURATION_LOW", "SATURATION_HIGH"}


def test_one_function_reads_the_saturation_bounds():
    package, _ = package_and_readers()
    found = [f"{module}.{scope}" for module, tree in package.items()
             for scope in readers(tree, SATURATION_BOUNDS)]
    assert found == ["noise.unsaturated"]


def commands(tree: ast.AST) -> dict[str, list[str]]:
    """The commands a module hands to ``set_defaults(func=...)``, each
    with the parameters it takes: a function by its name and a lambda as
    "<lambda>"."""
    defined = {node.name: node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee(node.func) == "set_defaults":
            for keyword in node.keywords:
                if keyword.arg != "func":
                    continue
                func = keyword.value
                if isinstance(func, ast.Name):
                    func = defined[func.id]
                    name = func.name
                else:
                    name = "<lambda>"
                found[name] = [a.arg for a in func.args.args]
    return found


def test_commands_lists_each_command_with_its_parameters():
    tree = ast.parse("def run(args):\n    pass\n"
                     "def cmd(args, parser):\n    pass\n"
                     "p.set_defaults(func=run)\n"
                     "q.set_defaults(func=lambda a: cmd(a, parser), x=1)\n")
    assert commands(tree) == {"run": ["args"], "<lambda>": ["a"]}


def test_no_command_takes_the_parser():
    # a command refuses a setting by raising ConfigError, as the library
    # does, never by calling the parser's error method
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = commands(tree)
    assert len(found) == 6
    assert all(name.startswith("cmd_") for name in found)
    assert set(map(tuple, found.values())) == {("args",)}
    assert "error" not in {node.attr for node in ast.walk(tree)
                           if isinstance(node, ast.Attribute)}
