"""Count the lines of each src/csrflab module by kind.

    python tools/code_lines.py

Prints one row per module and a total: all lines, then code,
docstring, comment and blank lines, which add up to all lines.  A
docstring line is any line of a module, class or function docstring
(found with ast), blank lines inside it included.  Outside docstrings,
a comment line holds nothing but a comment, and a blank line nothing
but whitespace.  Every other line is code, including the lines of
string literals that are not docstrings.  Code lines are the figure
ROADMAP.md's line budget tracks.

Stdlib only, and informational: it always exits 0.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "csrflab"
KINDS = ("lines", "code", "docstring", "comment", "blank")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    text = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(text, str(path)))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docstrings:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts["lines"] += 1
        counts[kind] += 1
    return counts


def main() -> int:
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS))
    for path in sorted(PACKAGE.glob("*.py")):
        counts = count(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[kind]:>11,}" for kind in KINDS))
    print(f"{'total':<16}" + "".join(f"{total[kind]:>11,}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
