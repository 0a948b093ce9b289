"""The lab runs on the standard library alone."""

import ast
import sys
from pathlib import Path

import csrflab

SOURCES = sorted(Path(csrflab.__file__).parent.glob("*.py"))


def _imported_top_levels(path):
    """Top-level names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_package_imports_only_itself_and_the_standard_library():
    assert SOURCES
    foreign = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _imported_top_levels(path)
        if name != "csrflab" and name not in sys.stdlib_module_names
    }
    assert foreign == set()
