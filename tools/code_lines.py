"""Count the code lines of the pabsig package, per module and in total.

    python tools/code_lines.py [DIR]

DIR defaults to src/pabsig next to this script.  A code line is a physical
line that holds part of a Python token other than a comment, and is not
part of a docstring (the leading string of a module, class or function),
so blank lines, comment lines and docstrings do not count.  A statement
split over several lines counts each of them.  This is the count that
CHANGES.md and ROADMAP.md quote for src/pabsig, and with DIR = tools for
tools/.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code of their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in the source of one module."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "pabsig"
    modules = sorted(root.glob("*.py"))
    if not modules:
        print(f"error: no Python modules in {root}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
