"""Fail unless tier-1 runs every line of src/csrflab and takes each condition both ways.

    PYTHONPATH=src python -B tools/line_coverage.py

Python 3.12 or later.  Runs the tier-1 suite (pytest over tests/) in
this process under one sys.monitoring tool, which sees every thread, so
the lines that the server's worker threads run count too.  Each
src/csrflab code object arms LINE and BRANCH events for itself when it
first starts (PY_START), and each location disables itself once it has
shown all it can: a line once it ran, a conditional jump once it went
both ways.

The executable lines of a file are the lines its compiled code objects
map bytecode to (co_lines()).  A condition is a conditional jump or a
for loop's FOR_ITER; it must both jump and fall through.  The jump that
follows CHECK_EXC_MATCH (does this except clause match?) or
WITH_EXCEPT_START (does __exit__ swallow the exception?) is not a
condition of the program, and is not checked.

Exits 0 when every line ran and every condition went both ways, apart
from the ALLOWED lines; 1 naming each place that did not, or each
ALLOWED entry that no longer fits the code; 2 on an older Python;
pytest's status when the suite itself fails.

Stdlib and pytest only.  This is its own CI step, not part of tier-1.
Neither this process nor the CLI subprocesses the tests start write
bytecode: a __pycache__ left in src/ changes what the benchmark's
start-up measures.
"""

import sys

sys.dont_write_bytecode = True  # before anything from src/ is imported

import dis
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "csrflab"

# Lines that only the csrf-lab subprocesses of tests/test_cli.py run;
# monitoring does not follow a subprocess.  Each is (file, line, text),
# and excuses both an unrun line and a one-way condition on it.
ALLOWED = [
    ("cli.py", 221, 'if __name__ == "__main__":'),  # true only under python -m
    ("cli.py", 222, "sys.exit(main())"),
]

# opname -> what the tested value was when the jump was taken, and when not.
_OUTCOMES = {
    "FOR_ITER": ("exhausted", "not exhausted"),
    "POP_JUMP_IF_FALSE": ("false", "true"),
    "POP_JUMP_IF_TRUE": ("true", "false"),
    "POP_JUMP_IF_NONE": ("None", "not None"),
    "POP_JUMP_IF_NOT_NONE": ("not None", "None"),
}
# The jump after these tests an exception, not the program's data.
_HANDLER_TESTS = {"CHECK_EXC_MATCH", "WITH_EXCEPT_START"}


def executable_lines(path: Path) -> set[int]:
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # Line 0 is the module's RESUME, which no source line holds.
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def conditions(code) -> dict[int, tuple[int, str, object]]:
    """offset -> (fall-through offset, opname, source positions) of each condition in code."""
    found = {}
    instructions = list(dis.get_instructions(code))
    before = None  # the last instruction that is not TO_BOOL
    for ins, after in zip(instructions, instructions[1:]):
        if ins.opname in _OUTCOMES and before not in _HANDLER_TESTS:
            found[ins.offset] = (after.offset, ins.opname, ins.positions)
        if ins.opname != "TO_BOOL":
            before = ins.opname
    return found


def monitor():
    """Start monitoring; return the lines run per src file, and the conditions seen per code."""
    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    ran: dict[str, set[int]] = {}
    went: dict[object, dict[int, set[int]]] = {}  # code -> condition offset -> destinations

    def py_start(code, offset):
        path = os.path.realpath(code.co_filename)
        if os.path.dirname(path) == str(PACKAGE):
            ran.setdefault(path, set())
            went.setdefault(code, {offset: set() for offset in conditions(code)})
            mon.set_local_events(tool, code, mon.events.LINE | mon.events.BRANCH)
        return mon.DISABLE

    def line(code, number):
        ran[os.path.realpath(code.co_filename)].add(number)
        return mon.DISABLE

    def branch(code, source, destination):
        seen = went[code].get(source)
        if seen is None:  # an except or with test
            return mon.DISABLE
        seen.add(destination)
        return mon.DISABLE if len(seen) == 2 else None

    mon.use_tool_id(tool, "line_coverage")
    mon.register_callback(tool, mon.events.PY_START, py_start)
    mon.register_callback(tool, mon.events.LINE, line)
    mon.register_callback(tool, mon.events.BRANCH, branch)
    mon.set_events(tool, mon.events.PY_START)
    return ran, went


def stop_monitoring() -> None:
    sys.monitoring.set_events(sys.monitoring.COVERAGE_ID, 0)
    sys.monitoring.free_tool_id(sys.monitoring.COVERAGE_ID)


def one_way(went) -> dict[tuple[str, int], list[str]]:
    """(file name, line) -> what each condition there that went one way only ever was."""
    found: dict[tuple[str, int], list[str]] = {}
    for code, sites in went.items():
        path = Path(code.co_filename)
        source = path.read_text(encoding="utf-8").splitlines()
        for offset, (fall_through, opname, where) in conditions(code).items():
            seen = sites[offset]
            if len(seen) == 2:
                continue
            text = source[where.lineno - 1]
            if where.end_lineno == where.lineno:
                text = text[where.col_offset : where.end_col_offset]
            if seen:
                jumped, fell = _OUTCOMES[opname]
                how = f"is only ever {fell if fall_through in seen else jumped}"
            else:
                how = "is never tested"
            found.setdefault((path.name, where.lineno), []).append(f"{text.strip()!r} {how}")
    return found


def problems(ran, went) -> list[str]:
    short = one_way(went)
    allowed = {(name, line) for name, line, _ in ALLOWED}
    found = []
    for name, line, text in ALLOWED:
        source = (PACKAGE / name).read_text(encoding="utf-8").splitlines()
        if line > len(source) or source[line - 1].strip() != text:
            found.append(f"{name}:{line}: ALLOWED says {text!r}; update the entry")
        elif line in ran.get(str(PACKAGE / name), ()) and (name, line) not in short:
            found.append(f"{name}:{line}: ALLOWED, but tier-1 runs it both ways; drop the entry")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = ran.get(str(path), set())
        for line in sorted(executable_lines(path)):
            if (path.name, line) in allowed:
                continue
            if line not in lines:
                found.append(f"{path.name}:{line}: never runs: {source[line - 1].strip()}")
            else:
                hows = short.get((path.name, line), ())
                found.extend(f"{path.name}:{line}: {how}" for how in hows)
    return found


def main() -> int:
    if sys.version_info < (3, 12):
        print("line_coverage: needs Python 3.12 or later (sys.monitoring)")
        return 2
    # The CLI subprocesses inherit this, so they write no bytecode either.
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    ran, went = monitor()
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        stop_monitoring()
    if status != 0:
        print(f"line_coverage: tier-1 failed (pytest exit status {int(status)})")
        return int(status)
    found = problems(ran, went)
    for problem in found:
        print(f"src/csrflab/{problem}")
    if found:
        return 1
    print("line_coverage: tier-1 runs every line of src/csrflab and takes each condition both ways")
    return 0


if __name__ == "__main__":
    sys.exit(main())
