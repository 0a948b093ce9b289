"""The lab runs on the standard library alone."""

import ast
import os
import subprocess
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


# One fresh process, as every csrf-lab command is: the import, then one
# matrix, which also catches an import deferred into a function body.
_START_UP_PROBE = """
import sys
import csrflab.cli
from csrflab import harness
harness.run_matrix(in_process=True)
print([name for name in ("dataclasses", "inspect") if name in sys.modules])
"""


def test_starting_the_lab_loads_no_dataclasses():
    """dataclasses, and the inspect it loads, cost a fresh process about
    a fifth of its import; the standard library the lab uses loads
    neither."""
    importing = {path.name for path in SOURCES if "dataclasses" in _imported_top_levels(path)}
    assert importing == set()
    # -S: no .pth file loads a module before csrflab does.
    probe = subprocess.run(
        [sys.executable, "-S", "-c", _START_UP_PROBE],
        env={**os.environ, "PYTHONPATH": str(Path(csrflab.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert probe.stdout == "[]\n"
