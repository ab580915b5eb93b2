"""Every module-level import in the package is used.

No linter ships with the project, so this scan stands in for one: a name
bound by a top-level ``import`` or ``from ... import`` must be read
somewhere in its module.  ``__init__.py`` is exempt because its imports are
the package's re-exports.
"""

import ast
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
