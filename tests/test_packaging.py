"""Every third-party module the package imports is a declared dependency.

An import that pyproject.toml does not declare works on a machine that
happens to have the module and fails on a clean install.
"""

import ast
import re
import sys

import pytest
from conftest import ROOT

tomllib = pytest.importorskip("tomllib")  # the stdlib from Python 3.11

PACKAGE = ROOT / "src" / "twirlqfi"


def imported_top_level_modules() -> set[str]:
    """Top-level names of the absolute imports anywhere under src/twirlqfi/."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    # a requirement's name ends where its extras, version or marker begin
    return {re.split(r"[\s\[<>=!~;]", dep, maxsplit=1)[0].lower().replace("-", "_")
            for dep in project["dependencies"]}


def test_every_third_party_import_is_declared():
    third_party = imported_top_level_modules() - set(sys.stdlib_module_names) - {"twirlqfi"}
    assert {"numpy", "orjson"} <= third_party
    assert sorted(third_party - declared_dependencies()) == []
