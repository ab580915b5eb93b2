"""Every module-level import in the package is used.

No linter ships with the project, so this scan stands in for one: a name
bound by a top-level ``import`` or ``from ... import`` must be read
somewhere in its module.  ``__init__.py`` is exempt because its imports are
the package's re-exports.
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
