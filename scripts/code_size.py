#!/usr/bin/env python3
"""Print the size of each module of ``src/hypersphere_lab``.

For each module, the number of lines and of code lines, then the totals.
A code line holds at least one token that is not a comment, and lies
outside the docstrings of the module and of its classes and functions; a
line of any other string counts.

Usage:
    python scripts/code_size.py
"""

import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The lines of the docstrings of the module and of its classes and
    functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_size(text: str) -> tuple:
    """(lines, code lines) of the Python source ``text``."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main() -> None:
    src = os.path.join(ROOT, "src", "hypersphere_lab")
    totals = [0, 0]
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                size = code_size(f.read())
            totals = [a + b for a, b in zip(totals, size)]
            print(f"{name:<20} {size[0]:>6} {size[1]:>6}")
    print(f"{'total':<20} {totals[0]:>6} {totals[1]:>6}")


if __name__ == "__main__":
    main()
