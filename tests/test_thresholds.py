"""The numerical thresholds are fixed module constants, each one in use.

``config.py`` holds one float constant per threshold and nothing else; no
function takes a tolerance parameter, and every constant is imported and
read by some other module of the package, so no dead threshold survives.
Each constant has one reader, a function or a module-level table, so each
check changes in one place; the two second readers that test another
quantity are pinned with their reasons.  The singular-matrix test is
written once: one function constructs ``SingularMatrix``.
"""

import ast
from pathlib import Path

import spectral_pair

PACKAGE = Path(spectral_pair.__file__).parent


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def tol_parameters(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg == "tol":
                    found.append(f"{getattr(node, 'name', 'lambda')} "
                                 f"(line {node.lineno})")
    return found


def config_constants(tree: ast.Module) -> dict[str, object]:
    """Name -> value of every module-level assignment; any other statement
    besides the docstring is reported under its line number."""
    out = {}
    for i, node in enumerate(tree.body):
        if i == 0 and isinstance(node, ast.Expr) \
                and isinstance(node.value, ast.Constant):
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Constant):
            out[node.targets[0].id] = node.value.value
        else:
            out[f"<statement at line {node.lineno}>"] = None
    return out


def config_names_read(tree: ast.Module) -> set[str]:
    """Names imported from ``.config`` that the module also reads."""
    imported = {alias.asname or alias.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module == "config"
                and node.level == 1
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported & read


def functions_calling(tree: ast.Module, callee: str) -> set[str]:
    """Names of the innermost functions that call ``callee`` by name."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == callee:
            found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def readers(tree: ast.Module, names: set[str]) -> dict[str, set[str]]:
    """Name -> the innermost functions that read it, or the module-level
    variable whose assignment reads it, for each of ``names`` read."""
    found: dict[str, set[str]] = {}

    def visit(node, reader):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            reader = node.name
        elif reader is None and isinstance(node, ast.Assign) \
                and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            reader = node.targets[0].id
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id in names:
            found.setdefault(node.id, set()).add(reader)
        for child in ast.iter_child_nodes(node):
            visit(child, reader)

    visit(tree, None)
    return found


#: (constant, module, function): second readers that test a quantity other
#: than the first reader's; merging either would change error codes, so it
#: waits for the scale-free checks of ROADMAP item 3
SECOND_READERS = {
    # the singular_a test on h and d1, not a determinant against |M|^3
    ("SINGULAR", "gl2z.py", "invert_spectral"),
    # the line-at-infinity test on the transported divisor point
    ("DIVISOR_DENOMINATOR", "gl2z.py", "swap_spectral"),
}


def test_tol_parameter_is_detected():
    source = "def f(x, tol=None):\n    pass\ndef g(*, tol):\n    pass\n"
    assert tol_parameters(ast.parse(source)) == ["f (line 1)", "g (line 3)"]


def test_no_function_takes_a_tol_parameter():
    found = {path.name: tol_parameters(parse(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: fns for name, fns in found.items() if fns} == {}


def test_config_defines_only_float_constants():
    constants = config_constants(parse(PACKAGE / "config.py"))
    assert constants
    assert {name: value for name, value in constants.items()
            if not isinstance(value, float)} == {}


def test_every_threshold_is_read_by_another_module():
    constants = config_constants(parse(PACKAGE / "config.py"))
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "config.py":
            read |= config_names_read(parse(path))
    assert sorted(set(constants) - read) == []


def test_calls_are_found_in_the_innermost_function():
    source = ("def f():\n    def g():\n        E()\n    return g\n"
              "def h():\n    E(E())\n")
    assert functions_calling(ast.parse(source), "E") == {"g", "h"}


def test_one_function_holds_the_singular_matrix_test():
    found = {(path.name, function)
             for path in sorted(PACKAGE.glob("*.py"))
             for function in functions_calling(parse(path), "SingularMatrix")}
    assert found == {("linalg.py", "check_nonsingular")}


def test_readers_are_functions_or_module_tables():
    source = ("A = 1\nB = 2\nTABLE = {'a': (A, B)}\n"
              "def f():\n    return A\ndef g():\n    A = 3\n    return A\n")
    assert readers(ast.parse(source), {"A", "B"}) == {
        "A": {"TABLE", "f", "g"}, "B": {"TABLE"}}


def test_each_threshold_has_one_reader():
    constants = set(config_constants(parse(PACKAGE / "config.py")))
    found: dict[str, set[tuple[str, str]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "config.py":
            for name, names in readers(parse(path), constants).items():
                found.setdefault(name, set()).update(
                    (path.name, reader) for reader in names)
    for name, module, function in SECOND_READERS:
        assert (module, function) in found[name], name
        found[name].discard((module, function))
    assert {name: sorted(where) for name, where in found.items()
            if len(where) != 1} == {}
