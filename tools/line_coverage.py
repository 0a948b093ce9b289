"""Fail unless the tier-1 tests run every executable line of src/csrflab.

    PYTHONPATH=src python -B tools/line_coverage.py

Runs the tier-1 suite (pytest over tests/) in this process with a line
tracer installed through sys.settrace and threading.settrace, so the
lines that the server's worker threads run count too.  The executable
lines of a file are the lines its compiled code objects map bytecode
to (co_lines()).  Exits 0 when every one of them ran, apart from the
ALLOWED lines; 1 naming each that did not, or each ALLOWED entry that
no longer fits the code; pytest's status when the suite itself fails.

Stdlib and pytest only.  Tracing makes the suite several times slower,
so this is its own CI step, not part of tier-1.  Neither this process
nor the CLI subprocesses the tests start write bytecode: a __pycache__
left in src/ changes what the benchmark's start-up measures.
"""

import sys

sys.dont_write_bytecode = True  # before anything from src/ is imported

import os
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "csrflab"

# Lines that only the csrf-lab subprocesses of tests/test_cli.py run;
# the tracer does not follow a subprocess.  Each is (file, line, text).
ALLOWED = [
    ("cli.py", 109, "server.serve_blocking()"),  # csrf-lab serve
    ("cli.py", 210, "sys.exit(main())"),  # python -m csrflab.cli
    ("server.py", 127, "self.start()"),  # serve_blocking's body
    ("server.py", 128, "self._serve()"),
]


def executable_lines(path: Path) -> set[int]:
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # Line 0 is the module's RESUME, which no source line holds.
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def line_tracer():
    """A global trace function, and the lines it saw run per src file."""
    ran: dict[str, set[int]] = {}
    local_for: dict[str, object] = {}  # co_filename -> local tracer, None outside src

    def new_local(filename: str):
        path = os.path.realpath(filename)
        if os.path.dirname(path) != str(PACKAGE):
            return None
        lines = ran.setdefault(path, set())

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in local_for:
            local_for[filename] = new_local(filename)
        local = local_for[filename]
        if local is not None:
            local(frame, event, arg)
        return local

    return trace, ran


def unrun_lines(ran: dict[str, set[int]]) -> list[str]:
    allowed = {(name, line) for name, line, _ in ALLOWED}
    problems = []
    for name, line, text in ALLOWED:
        source = (PACKAGE / name).read_text(encoding="utf-8").splitlines()
        if line > len(source) or source[line - 1].strip() != text:
            problems.append(f"{name}:{line}: ALLOWED says {text!r}; update the entry")
        elif line in ran.get(str(PACKAGE / name), ()):
            problems.append(f"{name}:{line}: ALLOWED, but tier-1 runs it; drop the entry")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            if (path.name, line) not in allowed:
                problems.append(f"{path.name}:{line}: never runs: {source[line - 1].strip()}")
    return problems


def main() -> int:
    # The CLI subprocesses inherit this, so they write no bytecode either.
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    trace, ran = line_tracer()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"line_coverage: tier-1 failed (pytest exit status {int(status)})")
        return int(status)
    problems = unrun_lines(ran)
    for problem in problems:
        print(f"src/csrflab/{problem}")
    if problems:
        return 1
    print("line_coverage: tier-1 runs every executable line of src/csrflab")
    return 0


if __name__ == "__main__":
    sys.exit(main())
