"""Every module-level import in the package is used, and every definition
is called.

No linter ships with the project, so these scans stand in for one:

- a name bound by a top-level ``import`` or ``from ... import`` must be read
  somewhere in its module, and one bound by an import in a function body
  somewhere in that function;
- a top-level function or class must be read somewhere in the package, as
  a name, an attribute or a string constant, and a non-dunder method of a
  top-level class as an attribute or a string constant (a local variable
  of the same name is not a read).  Only the few names in
  ``OUTSIDE_CALLERS`` are called from outside the package alone.

``__init__.py`` is exempt from both because its imports and its table of
lazily imported names are the package's re-exports, and a re-export is not
a read.

The rest of the file checks what importing the package loads and binds.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectral_pair

from conftest import PAIR_FIXTURE, SPECTRAL_FIXTURE

PACKAGE = Path(spectral_pair.__file__).parent

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_imports(scope):
    """The imports that bind names in ``scope``, a module or a function:
    those in its body, not those in a function nested in it."""
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (*FUNCTIONS, ast.Lambda)):
            pending.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    unused = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, *FUNCTIONS)):
            continue
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name)}
        for node in own_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(unused)]


def test_unused_import_is_detected():
    source = "import os\nfrom math import pi, tau\nprint(tau)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 2)"]
    # a function's import is read in that function, not in another one
    source += ("def f():\n    from json import dumps, loads\n    return loads\n"
               "def g():\n    import sys\n    return dumps, sys\n")
    assert unused_imports(source) == [
        "os (line 1)", "pi (line 2)", "dumps (line 5)"]


def test_package_has_no_unused_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


#: definitions that only callers outside the package read: the benchmark's
#: workloads, the README's Library example, and conveniences the tests use
OUTSIDE_CALLERS = {
    "verify_commutation", "well_conditioned_matrix", "generation_attempts",
    "normalize_pair", "spectral_data_of_normalized",
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
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        tree_names, tree_members = reads(tree)
        names |= tree_names
        members |= tree_members
    return [f"{name}: {qualified}" for name, tree in trees.items()
            if name != "__init__.py"
            for qualified, bare in definitions(tree)
            if bare not in members
            and ("." in qualified or bare not in names)]


def test_uncalled_definition_is_detected():
    sources = {
        # a re-export is not a read, eager or in a table of lazy names
        "__init__.py": ("from .a import orphan\n"
                        "_EXPORTS = {'a': ('orphan', 'named')}\n"),
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


#: names of every module that a probe loaded from the package, printed as
#: JSON on the last line of its stdout when it exits
LOADED = ("import atexit, json, sys; atexit.register(lambda: print(json.dumps("
          "sorted(name.split('.', 1)[1] for name in sys.modules "
          "if name.startswith('spectral_pair.')))))")


def probe(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True)


def test_cli_import_loads_no_module_that_only_some_commands_run():
    out = probe(LOADED + "; import spectral_pair.cli").stdout
    loaded = set(json.loads(out.splitlines()[-1]))
    assert "cli" in loaded
    assert not loaded & {"gl2z", "cubic", "randgen", "verify", "jsonio"}


#: modules that only some commands run
OPTIONAL = {"gl2z", "cubic", "randgen", "verify"}


@pytest.mark.parametrize("argv, runs, skips", [
    (["spectral", PAIR_FIXTURE], {"spectral", "jsonio"}, OPTIONAL),
    (["reconstruct", SPECTRAL_FIXTURE], {"reconstruct", "jsonio"}, OPTIONAL),
    (["check", PAIR_FIXTURE], {"spectral", "jsonio"}, OPTIONAL),
    (["act", "--word", "S,I,T", SPECTRAL_FIXTURE], {"gl2z", "cubic"},
     {"randgen", "verify"}),
    (["act", "--matrix", "0,1,1,0", "--side", "matrix", PAIR_FIXTURE],
     {"gl2z"}, {"randgen", "verify"}),
    (["decompose", "--matrix", "2,1,1,1"], {"gl2z"}, {"randgen", "verify"}),
    (["random-pair", "--seed", "1"], {"randgen"}, {"verify"}),
    (["verify", "--seeds", "1"], {"verify", "randgen"}, set()),
], ids=["spectral", "reconstruct", "check", "act-word", "act-matrix",
        "decompose", "random-pair", "verify"])
def test_each_command_loads_only_the_modules_it_runs(argv, runs, skips):
    """Run as ``python -m spectral_pair.cli`` runs it; with no bytecode
    cache, each module a command loads is compiled on every start."""
    proc = probe(LOADED + "; import runpy; "
                 "runpy.run_module('spectral_pair.cli', run_name='__main__')",
                 *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert runs <= loaded and not skips & loaded, sorted(loaded)


#: the package's public names, by the submodule that defines each
PUBLIC_API = {
    "_kernels_py": ("BACKEND",),
    "errors": (
        "CoincidentPoints", "DegenerateDivisor",
        "DegenerateLeadingCoefficient", "DeterminantNotUnit",
        "GaugeDegenerate", "GeneralPositionError", "InputsNotIncident",
        "IntermediateDegeneracy", "InvariantViolation", "LineOnCurve",
        "NonFiniteEntries", "RankNotTwo", "RepeatedEigenvalues",
        "SchemaError", "SingularMatrix", "SpectralPairError",
        "SwappedPairDegenerate"),
    "cubic": ("chord_swap_divisor",),
    "gl2z": (
        "GL2ZMatrix", "Generator", "Word", "act_on_pair", "act_spectral",
        "act_word_on_pair", "act_word_spectral", "decompose_gl2z",
        "invert_spectral", "matrix_of_word", "parse_word", "shear_spectral",
        "swap_spectral", "tilde_r_minus", "verify_commutation",
        "word_to_str"),
    "linalg": (
        "CubicPoly", "Mat3", "det3", "eig3", "inv3", "kernel_vector",
        "solve_cubic"),
    "randgen": (
        "generation_attempts", "random_pair", "well_conditioned_matrix"),
    "reconstruct": ("canonical_form", "diagonal_entries", "reconstruct"),
    "spectral": (
        "CurveCoefficients", "DivisorPoint", "GeneralPositionReport",
        "MatrixPair", "NormalizedPair", "SpectralData", "curve_coefficients",
        "curve_residual", "divisor_point", "general_position_report",
        "normalize_pair", "spectral_data", "spectral_data_of_normalized",
        "spectral_residuals", "validate_spectral_data"),
}
PUBLIC_NAMES = sorted(
    [name for names in PUBLIC_API.values() for name in names]
    + ["__version__"])


def test_public_names_are_listed_and_resolve_to_their_definitions():
    assert len(PUBLIC_NAMES) == 64
    assert sorted(spectral_pair.__all__) == PUBLIC_NAMES
    assert dir(spectral_pair) == PUBLIC_NAMES
    for module, names in PUBLIC_API.items():
        defining = importlib.import_module(f"spectral_pair.{module}")
        for name in names:
            assert getattr(spectral_pair, name) is getattr(defining, name)
    namespace = {}
    exec("from spectral_pair import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    with pytest.raises(AttributeError, match="no_such_name"):
        spectral_pair.no_such_name


def test_reconstruct_stays_the_function_whatever_is_imported_first():
    """Importing the submodule binds the package's ``reconstruct`` to the
    module; a fresh interpreter shows whether the function wins."""
    code = ("import importlib, types; import spectral_pair.reconstruct; "
            "import spectral_pair as p; "
            "kinds = [type(p.reconstruct)]; "
            "importlib.import_module('spectral_pair.reconstruct'); "
            "p.canonical_form; kinds.append(type(p.reconstruct)); "
            "print(all(k is types.FunctionType for k in kinds))")
    proc = probe(code)
    assert proc.stdout.strip() == "True", proc.stderr
