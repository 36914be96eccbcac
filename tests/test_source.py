"""Static checks over the package source, standing in for a linter."""

import ast
from pathlib import Path

import pytest

import su2rep

MODULES = sorted(Path(su2rep.__file__).parent.glob("*.py"))


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


def freeze_owners(tree: ast.Module) -> list[str]:
    """The innermost function around each use of `gc.freeze`, "<module>" outside one.

    `from gc import freeze` counts as a use where it is imported.
    """
    owners = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "freeze":
                if isinstance(child.value, ast.Name) and child.value.id == "gc":
                    owners.append(owner)
            elif isinstance(child, ast.ImportFrom) and child.module == "gc":
                owners.extend(owner for alias in child.names if alias.name == "freeze")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(tree, "<module>")
    return owners


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_gc_freeze_is_called_only_in_cli_run(path):
    # run() is the process entry point; main() and the library are also called
    # in-process, where a freeze would pin each call's heap for good
    expected = ["run"] if path.name == "cli.py" else []
    assert freeze_owners(ast.parse(path.read_text())) == expected


def test_gc_freeze_use_is_caught():
    tree = ast.parse(
        "import gc\ngc.freeze()\n"
        "def main():\n    def inner():\n        gc.freeze()\n    gc.collect()\n"
        "def run():\n    from gc import freeze\n    freeze()\n"
    )
    assert freeze_owners(tree) == ["<module>", "inner", "run"]
