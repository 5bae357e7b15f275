"""Print the lines and code lines of each module of src/pzbeam, and their totals.

A code line is a non-blank line that holds a token other than a comment:
docstrings (a string statement opening a module, class or function body)
do not count, and the other lines of a multi-line string do. Standard
library only; run as `python tools/loc.py` from any directory.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pzbeam"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    blank = {n for n, line in enumerate(source.splitlines(), 1) if not line.strip()}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - blank - _docstring_lines(ast.parse(source)))


def main() -> None:
    total = [0, 0]
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        counts = (len(source.splitlines()), code_lines(source))
        total = [a + b for a, b in zip(total, counts)]
        print(f"{path.name:<16}{counts[0]:>7}{counts[1]:>7}")
    print(f"{'total':<16}{total[0]:>7}{total[1]:>7}")


if __name__ == "__main__":
    main()
