"""Count the code lines of each module of the gdm package.

A code line is a line of source that is not blank, not only a comment
and not part of a docstring (the string literal that opens a module,
class or function body). Each module's count and the total are printed.

Usage: python tools/code_lines.py [PACKAGE_DIR]   (default: src/gdm)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers spanned by every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    package = Path(argv[1] if len(argv) > 1 else "src/gdm")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print("%6d  %s" % (count, path.name))
    print("%6d  total" % total)


if __name__ == "__main__":
    main(sys.argv)
