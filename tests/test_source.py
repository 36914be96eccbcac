"""Static checks over the package source, standing in for a linter."""

import ast
import importlib
import runpy
from collections import Counter
from pathlib import Path

import pytest

import su2rep
from su2rep import cli

MODULES = sorted(Path(su2rep.__file__).parent.glob("*.py"))
# the traced benchmark run's table of the functions it wraps by name
LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return sorted(name for name in imported if name not in used)


def defined_names(tree: ast.Module) -> list[str]:
    """Every name a module binds, once per binding."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.append(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_caught():
    tree = ast.parse("from .graded import Monomial, Poly\nimport os.path\nPoly()\n")
    assert unused_imports(tree) == ["Monomial", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_hard_caps_are_defined_only_in_cli(path):
    # the caps are run-time budgets of `verify`; library functions take any genus
    caps = [n for n in defined_names(ast.parse(path.read_text())) if n.endswith("_CAP")]
    expected = [] if path.name != "cli.py" else [
        "BRUTEFORCE_PRIM_CAP",
        "DEFAULT_GENUS_CAP",
        "E_INDEPENDENCE_CAP",
        "RESTRICTION_CAP",
        "TOP_IDENTITY_CAP",
    ]
    assert sorted(caps) == expected


def constant_bindings(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """The modules binding each UPPER_CASE name, once per binding.

    Only bindings outside a function, class or comprehension count; an import
    is not a binding here, since a constant is imported where it is used.
    """
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda,
              ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    owners: dict[str, list[str]] = {}

    def visit(node: ast.AST, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, scopes):
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                if child.id.isupper():
                    owners.setdefault(child.id, []).append(module)
            visit(child, module)

    for module, tree in trees.items():
        visit(tree, module)
    return owners


def test_each_constant_is_bound_in_one_module():
    # a constant has one definition; every other module imports it
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    bound = constant_bindings(trees)
    assert bound and {n: m for n, m in bound.items() if len(m) != 1} == {}


def test_constant_bound_twice_is_caught():
    trees = {
        "a.py": ast.parse("A = 1\nB: int = 2\nif A:\n    C, d = 3, 4\n"),
        "b.py": ast.parse(
            "from a import A\nB = 3\nC += 1\nE = [F for F in ()]\n"
            "def f():\n    G = 5\nclass K:\n    H = 6\n"
        ),
    }
    assert constant_bindings(trees) == {
        "A": ["a.py"], "B": ["a.py", "b.py"], "C": ["a.py", "b.py"], "E": ["b.py"]
    }


def imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the modules a module imports from."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules.add(node.module.split(".")[0])
    return modules


@pytest.mark.parametrize("name", ["linalg.py", "exterior.py"])
def test_exact_eliminations_import_nothing_from_fractions(name):
    # ranks are taken fraction-free over Z; rows are scaled once to integers
    path = Path(su2rep.__file__).parent / name
    assert "fractions" not in imported_modules(ast.parse(path.read_text()))


def test_fractions_import_is_caught():
    tree = ast.parse("from fractions import Fraction\nimport os.path\n")
    assert imported_modules(tree) == {"fractions", "os"}


def use_owners(tree: ast.Module, module: str, name: str | None = None) -> list[str]:
    """The innermost function around each use of `module.name`, "<module>" outside one.

    `from module import name` counts as a use where it is imported.  With no name,
    every use of the module counts: importing it, importing from it, or reading an
    attribute of it.
    """
    owners = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                if child.value.id == module and name in (None, child.attr):
                    owners.append(owner)
            elif isinstance(child, ast.ImportFrom) and child.module == module:
                owners.extend(owner for alias in child.names if name in (None, alias.name))
            elif isinstance(child, ast.Import) and name is None:
                owners.extend(owner for alias in child.names if alias.name == module)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(tree, "<module>")
    return owners


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_gc_freeze_is_called_only_in_cli_run(path):
    # run() is the process entry point; main() and the library are also called
    # in-process, where a freeze would pin each call's heap for good
    expected = ["run"] if path.name == "cli.py" else []
    assert use_owners(ast.parse(path.read_text()), "gc", "freeze") == expected


def test_gc_freeze_use_is_caught():
    tree = ast.parse(
        "import gc\ngc.freeze()\n"
        "def main():\n    def inner():\n        gc.freeze()\n    gc.collect()\n"
        "def run():\n    from gc import freeze\n    freeze()\n"
    )
    assert use_owners(tree, "gc", "freeze") == ["<module>", "inner", "run"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_process_exit_is_only_in_cli_run(path):
    # run() leaves by os._exit after the atexit handlers; anywhere else it would
    # end the tests and tracers that call main() and the library in-process
    tree = ast.parse(path.read_text())
    owners = use_owners(tree, "os", "_exit") + use_owners(tree, "atexit")
    assert set(owners) == ({"run"} if path.name == "cli.py" else set())


def test_process_exit_use_is_caught():
    tree = ast.parse(
        "import os, atexit\nos._exit(0)\n"
        "def main():\n    os.getpid()\n    def inner():\n        atexit.register(print)\n"
        "def run():\n    from os import _exit\n    from atexit import _run_exitfuncs\n"
        "    _run_exitfuncs()\n    _exit(0)\n"
    )
    assert use_owners(tree, "os", "_exit") == ["<module>", "run"]
    assert use_owners(tree, "atexit") == ["<module>", "inner", "run"]


def assert_lines(tree: ast.Module) -> list[int]:
    """Line of each `assert` statement, which `python -O` strips."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_statements(path):
    # a check must raise an exception of its own, so that it also runs under -O
    assert assert_lines(ast.parse(path.read_text())) == []


def test_assert_statement_is_caught():
    tree = ast.parse(
        "def f(x):\n    if x:\n        assert x > 0, x\n    return x\n"
        "class K:\n    def g(self):\n        assert self\n"
        "y = 'assert'\n"
    )
    assert assert_lines(tree) == [3, 7]


# the document's frame, which `cli.main` alone writes around a command's data and records
ENVELOPE_KEYS = {"command", "genus", "checks"}


def envelope_writes(tree: ast.Module) -> list[str]:
    """`function: key` for each envelope key a `cmd_*` function writes.

    A write is a string key of a dict display, a subscript assignment, or a keyword
    of a `dict(...)` or `.update(...)` call.  A check record is made by `CheckRecord`,
    so a literal "genus" key in a command is the envelope's.
    """
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")):
            continue
        for sub in ast.walk(node):
            keys = []
            if isinstance(sub, ast.Dict):
                keys = [k.value for k in sub.keys if isinstance(k, ast.Constant)]
            elif isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store):
                keys = [sub.slice.value] if isinstance(sub.slice, ast.Constant) else []
            elif isinstance(sub, ast.Call) and (
                isinstance(sub.func, ast.Name) and sub.func.id == "dict"
                or isinstance(sub.func, ast.Attribute) and sub.func.attr == "update"
            ):
                keys = [k.arg for k in sub.keywords]
            found += [f"{node.name}: {key}" for key in keys if key in ENVELOPE_KEYS]
    return found


def test_commands_write_no_document_envelope():
    # each command returns (data, checks); main frames the document and decides the exit
    assert envelope_writes(ast.parse(Path(cli.__file__).read_text())) == []


def test_envelope_write_is_caught():
    tree = ast.parse(
        "def cmd_a(args):\n    return {'command': 'a', 'data': {}}, []\n"
        "def cmd_b(args):\n    doc = {}\n    doc['genus'] = 2\n    doc.update(checks=[])\n"
        "    return dict(genus=None, data=doc), []\n"
        "def cmd_c(args):\n    return {'route': 'x', 'genus_cap': 4}, []\n"
        "def main(args):\n    return {'command': 'a', 'genus': 2, 'checks': []}\n"
    )
    assert envelope_writes(tree) == [
        "cmd_a: command", "cmd_b: genus", "cmd_b: checks", "cmd_b: genus",
    ]


def traced_specs() -> tuple:
    """`SPECS`, the functions the traced benchmark run wraps by name.

    layers.py is executed from its source, so nothing is written next to it.
    """
    return runpy.run_path(str(LAYERS))["SPECS"]


def unreferenced_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """`module.name` of each module-level function or class no other code reads.

    A read is a name or an attribute anywhere outside the definition itself, in
    any of the modules; an import alone is not a read.
    """
    defined, reads = [], []
    for module, tree in trees.items():
        for node in tree.body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
            reads.append((node, names))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module.removesuffix(".py"), node))
    return sorted(
        f"{module}.{node.name}" for module, node in defined
        if not any(node.name in names for other, names in reads if other is not node)
    )


def unreferenced_methods(trees: dict[str, ast.Module]) -> list[str]:
    """`module.Class.name` of each non-dunder method or property no other code reads.

    A read is an attribute of that name anywhere outside the method's own
    definition, in any of the modules; a call through the instance, the class
    or `self` all count.
    """
    reads = Counter(
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    )
    dead = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                own = sum(
                    isinstance(sub, ast.Attribute) and sub.attr == node.name
                    for sub in ast.walk(node)
                )
                if reads[node.name] == own:
                    dead.append(f"{module.removesuffix('.py')}.{cls.name}.{node.name}")
    return sorted(dead)


def test_no_dead_wrappers():
    # only the traced benchmark, which wraps functions by name, may keep one alive
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    specs = traced_specs()
    traced = {f"{spec.module}.{spec.attr.split('.')[0]}" for spec in specs}
    assert set(unreferenced_definitions(trees)) <= traced
    assert set(unreferenced_methods(trees)) <= {spec.name for spec in specs}


def test_unreferenced_definition_is_caught():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    trees["series.py"].body += ast.parse("def planted(n):\n    return planted(n - 1)\n").body
    assert "series.planted" in unreferenced_definitions(trees)
    trees = {
        "a.py": ast.parse(
            "def used():\n    pass\ndef called():\n    pass\n"
            "class Ghost:\n    def used(self):\n        pass\n"
        ),
        "b.py": ast.parse("from .a import Ghost, used\nimport a\nused()\na.called()\n"),
    }
    assert unreferenced_definitions(trees) == ["a.Ghost"]


def test_unreferenced_method_is_caught():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    trees["series.py"].body += ast.parse(
        "class Planted:\n"
        "    def planted(self, n):\n        return self.planted(n - 1)\n"
    ).body
    assert "series.Planted.planted" in unreferenced_methods(trees)
    trees = {
        "a.py": ast.parse(
            "class K:\n"
            "    def __len__(self):\n        return 0\n"
            "    def used(self):\n        return self._helper()\n"
            "    def _helper(self):\n        pass\n"
            "    @property\n    def shown(self):\n        return 1\n"
            "    @classmethod\n    def made(cls):\n        return cls()\n"
            "    def ghost(self):\n        return used\n"
        ),
        "b.py": ast.parse("from .a import K\nK.made().used()\nprint(K().shown)\n"),
    }
    assert unreferenced_methods(trees) == ["a.K.ghost"]


def test_every_name_the_traced_benchmark_wraps_resolves():
    # a renamed function would otherwise fail only inside a traced benchmark run
    missing = []
    for spec in traced_specs():
        target = importlib.import_module(f"su2rep.{spec.module}")
        for attr in spec.attr.split("."):
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(spec.name)
    assert missing == []
    # the renderers are wrapped per format, read from cli.RENDERERS
    assert sorted(cli.RENDERERS) == sorted(cli.FORMAT.choices)
    assert all(callable(render) for render in cli.RENDERERS.values())
