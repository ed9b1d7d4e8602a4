"""Count the lines of a checkout's package source.

    python3 tools/code_lines.py CHECKOUT_ROOT

Reads ``CHECKOUT_ROOT/src/sralstm/*.py`` and prints two lines: ``total``,
every line of those files, and ``code``, the lines that hold a token
other than a comment outside the module, class and function docstrings.
Blank lines, comment lines and docstring lines are not code lines; a
string that spans lines counts each line it covers. A change that claims
to make the package smaller shows both numbers before and after.
"""

import ast
import glob
import io
import os
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple:
    """(total lines, code lines) of one module's source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstrings)


def main(argv) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: code_lines.py CHECKOUT_ROOT", file=sys.stderr)
        return 1
    paths = sorted(glob.glob(os.path.join(argv[0], "src", "sralstm", "*.py")))
    if not paths:
        print(f"error: no src/sralstm/*.py under {argv[0]}", file=sys.stderr)
        return 1
    total = code = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            lines, code_lines = count(f.read())
        total += lines
        code += code_lines
    print(f"total {total}")
    print(f"code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
