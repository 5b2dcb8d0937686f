"""Count the code lines of a package: lines without blanks, comments and
docstrings.

Usage: ``python tools/code_lines.py <dir>``

Prints each module (``<dir>/*.py``) with its count, largest first, then
the total. A line counts when a token other than a comment starts, ends
or runs through it, so each line of a multi-line string counts, unless
that string is a docstring: the first statement of a module, class or
function, found with :mod:`ast`.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines in the Python ``source`` text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv):
    if len(argv) != 1:
        print("usage: python tools/code_lines.py <dir>", file=sys.stderr)
        return 2
    counts = {
        path.stem: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(Path(argv[0]).glob("*.py"))
    }
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name:<12} {count:>5}")
    print(f"{'total':<12} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
