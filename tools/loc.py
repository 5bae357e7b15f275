"""Print the lines, code lines and docstring lines of each module of src/pzbeam, and totals.

A docstring is a string statement opening a module, class or function body;
each of its lines is a doc line. A code line is a non-blank line that holds
a token other than a comment and is not a doc line; the other lines of a
multi-line string count. Standard library only; run as `python tools/loc.py`
from any directory.
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


def counts(source: str) -> tuple:
    """The lines, code lines and doc lines of source."""
    blank = {n for n, line in enumerate(source.splitlines(), 1) if not line.strip()}
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(lines - blank - docs), len(docs)


def main() -> None:
    total = (0, 0, 0)
    print(f"{'module':<16}{'lines':>7}{'code':>7}{'doc':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        row = counts(path.read_text())
        total = tuple(map(sum, zip(total, row)))
        print(f"{path.name:<16}" + "".join(f"{n:>7}" for n in row))
    print(f"{'total':<16}" + "".join(f"{n:>7}" for n in total))


if __name__ == "__main__":
    main()
