"""Every module-level import in the package is used, and every definition
is called.

No linter ships with the project, so these scans stand in for one:

- a name bound by a top-level ``import`` or ``from ... import`` must be read
  somewhere in its module;
- a top-level function or class must be read somewhere in the package, as
  a name, an attribute or a string constant, and a non-dunder method of a
  top-level class as an attribute or a string constant (a local variable
  of the same name is not a read).  Only the few names in
  ``OUTSIDE_CALLERS`` are called from outside the package alone.

``__init__.py`` is exempt from both because its imports are the package's
re-exports, and a re-export is not a read.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import spectral_pair

PACKAGE = Path(spectral_pair.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in read]


def test_unused_import_is_detected():
    source = "import os\nfrom math import pi, tau\nprint(tau)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 2)"]


def test_package_has_no_unused_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


#: definitions that only callers outside the package read: the benchmark's
#: workloads, the README's Library example, and conveniences the tests use
OUTSIDE_CALLERS = {
    "verify_commutation", "well_conditioned_matrix", "generation_attempts",
    "Mat3.from_rows", "Mat3.scaled", "Mat3.norm",
    "CubicPoly.from_roots", "GeneralPositionReport.failing",
}


def definitions(tree: ast.Module):
    """(qualified name, bare name) of each top-level function and class,
    and of each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def reads(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(names read as a bare name, names read as an attribute or a string
    constant).  A method is reached only through the second kind: a local
    variable of the same name does not call it."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    members = ({node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)}
               | {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)})
    return names, members


def uncalled_definitions(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    names, members = set(), set()
    for tree_names, tree_members in map(reads, trees.values()):
        names |= tree_names
        members |= tree_members
    return [f"{name}: {qualified}" for name, tree in trees.items()
            if name != "__init__.py"
            for qualified, bare in definitions(tree)
            if bare not in members
            and ("." in qualified or bare not in names)]


def test_uncalled_definition_is_detected():
    sources = {
        # a re-export is not a read
        "__init__.py": "from .a import orphan\n",
        "a.py": ("class C:\n"
                 "    def __init__(self): pass\n"
                 "    def method(self): pass\n"
                 "    def named(self): pass\n"
                 "    def masked(self): pass\n"
                 "def helper(): return C().method()\n"
                 "def entry(): return helper(), getattr(C(), 'named')\n"
                 "def orphan(): pass\n"),
        # a local variable named like a method does not read the method
        "b.py": "from .a import entry\nmasked = entry()\nprint(masked)\n",
    }
    assert uncalled_definitions(sources) == ["a.py: C.masked", "a.py: orphan"]
    sources["a.py"] = sources["a.py"].replace("'named'", "'other'")
    assert uncalled_definitions(sources) == [
        "a.py: C.named", "a.py: C.masked", "a.py: orphan"]


def test_package_has_no_uncalled_definitions():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    found = {entry.split(": ")[1]: entry
             for entry in uncalled_definitions(sources)}
    # an allowlisted name that the package reads, or drops, leaves the list
    assert set(found) == OUTSIDE_CALLERS, sorted(found.values())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """A cold CLI start pays for every module it imports; ``dataclasses``,
    with the ``inspect`` it loads, was about 30% of the package's import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = ("import sys, spectral_pair.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
