"""Reachability: every function in src/su2rep runs in some run of the package.

A child process turns on `sys.setprofile` before it imports `su2rep.cli`, so
import-time calls count.  It then runs in-process every invocation of the
golden corpus (`test_golden.INVOCATIONS`), a cache round (`verify --genus 4`,
`ring --k 3` and `e-basis --m 3` in each format, twice on one cache directory,
so the first pass writes the cache and the second reads it), `--help`, a usage
error and one `--flag=value` spelling (the three reach `build_parser`), and the
README's library block.  It prints each function definition of `src/su2rep`
whose code never got a call event; that set must equal `ALLOWED`, where each
entry says why nothing above calls it.  So a member that only the tests reach,
dunder methods included, fails here until it is deleted or moved into the
tests.

To print the unreached table for the current code (from the repository root):

    PYTHONPATH=src python3 tests/test_reach.py
"""

from __future__ import annotations

import ast
import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "su2rep"

# functions no run above reaches, each with the reason it stays
ALLOWED = {
    "cli.run": "the process entry point; the spawned jobs of test_cli.py and test_golden.py run it",
    "graded.Poly.__setattr__": "the immutability guard, which only raises",
    "graded.Poly.__repr__": "shows a Poly in failure messages",
    "assembly.PairingMatrix.__len__": "perfbench's pairing_matrix Spec counts len(r)",
    "series.series_div": "wrapped by perfbench's layers.SPECS (ROADMAP item 1a moves it)",
    "linalg.dependency_vector": "wrapped by perfbench's layers.SPECS (ROADMAP item 1a moves it)",
}

FORMATS = ("text", "json", "latex")

# run twice with a cache directory: the first pass writes it, the second reads it
CACHE_ROUND = [
    args + ("--format", fmt)
    for args in (("verify", "--genus", "4"), ("ring", "--k", "3"), ("e-basis", "--m", "3"))
    for fmt in FORMATS
]

# (arguments, exit status): argparse prints help, a usage error, or parses `=`
PARSER_RUNS = [(("--help",), 0), (("betti", "--genus", "1"), 2), (("betti", "--genus=2"), 0)]


def function_starts(source: str) -> dict[int, str]:
    """Qualified name of each function definition, keyed by the first line of its code.

    Nested functions and methods count; a decorated function's code starts at
    its first decorator.
    """
    starts = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0] if child.decorator_list else child
                starts[first.lineno] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return starts


def unreached(modules: dict[str, str], reached: set[tuple[str, int]]) -> list[str]:
    """`module.qualname` of each function, in the module sources given by name, not reached.

    `reached` holds (module, first line) of every code object that ran.
    """
    return sorted(
        f"{module}.{name}"
        for module, source in modules.items()
        for line, name in function_starts(source).items()
        if (module, line) not in reached
    )


def record_calls() -> set:
    """Start a profiler that adds the code of every Python call to the set returned."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    return codes


def reached_lines(codes: set, directory: Path) -> set[tuple[str, int]]:
    """(module, first line) of each code object defined in a module of `directory`."""
    return {
        (Path(code.co_filename).stem, code.co_firstlineno)
        for code in codes
        if Path(code.co_filename).parent == directory
    }


def package_sources(directory: Path) -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(directory.glob("*.py"))}


def child() -> None:
    """Run the job read from stdin under the profiler and print the unreached functions."""
    job = json.load(sys.stdin)
    codes = record_calls()
    import su2rep.cli
    from su2rep.groebner import CACHE_ENV_VAR

    def run(args: list[str], status: int) -> None:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(out):
            try:
                code = su2rep.cli.main(args)
            except SystemExit as exit:
                code = exit.code
        if code != status:
            raise RuntimeError(f"{' '.join(args)} exited {code}, not {status}:\n{out.getvalue()}")

    os.environ.pop(CACHE_ENV_VAR, None)
    for args in job["golden"]:
        run(args, 0)
    os.environ[CACHE_ENV_VAR] = job["cache"]
    for _ in range(2):
        for args in job["cache_round"]:
            run(args, 0)
    del os.environ[CACHE_ENV_VAR]
    for args, status in job["parser"]:
        run(args, status)
    exec(compile(job["readme"], "README.md", "exec"), {})
    sys.setprofile(None)
    directory = Path(su2rep.cli.__file__).parent
    print(json.dumps(unreached(package_sources(directory), reached_lines(codes, directory))))


def probe(cache: Path) -> list[str]:
    """The unreached functions of src/su2rep, from one child process."""
    from test_golden import INVOCATIONS
    from test_readme import library_block

    job = {
        "golden": INVOCATIONS,
        "cache": str(cache),
        "cache_round": CACHE_ROUND,
        "parser": PARSER_RUNS,
        "readme": library_block(),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), str(TESTS), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", "import test_reach; test_reach.child()"],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    if result.returncode:
        raise RuntimeError(result.stderr)
    return json.loads(result.stdout)


def allowlist_problems(defined: set[str], found: set[str], allowed: set[str]) -> list[str]:
    """What is wrong between the unreached functions found and the allowlist."""
    return sorted(
        [f"{name}: never called and not allowed" for name in found - allowed]
        + [f"{name}: allowed but reached" for name in (allowed & defined) - found]
        + [f"{name}: allowed but not defined" for name in allowed - defined]
    )


def test_every_function_is_reached_or_allowed(tmp_path):
    defined = set(unreached(package_sources(PACKAGE), set()))
    found = set(probe(tmp_path))
    assert allowlist_problems(defined, found, set(ALLOWED)) == []
    # the second pass of the cache round read what the first wrote
    assert (tmp_path / "relation-ideal-4.txt").exists()


def test_allowlist_is_short_and_gives_reasons():
    assert len(ALLOWED) <= 6
    assert all(reason.strip() for reason in ALLOWED.values())


def test_never_called_function_is_caught(tmp_path):
    source = (
        "from functools import lru_cache\n"
        "def called():\n    def inner():\n        return 1\n    return inner()\n"
        "@lru_cache(maxsize=None)\n"
        "def cached(n):\n    return n\n"
        "class K:\n"
        "    def method(self):\n        return called()\n"
        "    def __repr__(self):\n        return 'K'\n"
        "def never():\n    return called()\n"
    )
    path = tmp_path / "planted.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("planted", path)
    module = importlib.util.module_from_spec(spec)
    previous = sys.getprofile()
    codes = record_calls()
    try:
        spec.loader.exec_module(module)
        module.cached(1)
        module.K().method()
    finally:
        sys.setprofile(previous)
    found = unreached({"planted": source}, reached_lines(codes, tmp_path))
    assert found == ["planted.K.__repr__", "planted.never"]


def test_stale_allowlist_is_caught():
    defined = {"a.used", "a.guard", "a.dead"}
    found = {"a.guard", "a.dead"}
    assert allowlist_problems(defined, found, {"a.guard", "a.used", "a.gone"}) == [
        "a.dead: never called and not allowed",
        "a.gone: allowed but not defined",
        "a.used: allowed but reached",
    ]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as cache:
        found = probe(Path(cache))
    starts = {
        f"{module}.{name}": f"{module}.py:{line}"
        for module, source in package_sources(PACKAGE).items()
        for line, name in function_starts(source).items()
    }
    for name in found:
        print(f"{starts[name]:<18} {name:<34} {ALLOWED.get(name, 'NOT ALLOWED')}")
