"""Count code lines of Python files: no blank, comment or docstring lines.

A line counts when a token other than a comment or a layout token starts on
it or runs across it, and it is not part of a docstring (the string that
opens a module, class or function body).

    python tools/src_lines.py [PATH ...]    # default: src

prints one line per file and the total.

    python tools/src_lines.py --against DIR [PATH ...]

counts the same PATHs (relative ones) under DIR, another checkout, as
well, and prints per file and in total the code lines in DIR, here, and
the difference; a file missing from one side counts 0 there.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_line_numbers(source):
    """The line numbers of the code lines in a Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstring_lines(ast.parse(source))


def code_lines(source):
    """The number of code lines in a Python source text."""
    return len(code_line_numbers(source))


def python_files(path):
    if os.path.isfile(path):
        return [path]
    return sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(path)
        for name in names
        if name.endswith(".py")
    )


def count(paths, root=""):
    """{file name: code lines} for the Python files under `paths`, read in `root`."""
    out = {}
    for path in paths:
        for name in python_files(os.path.join(root, path)):
            with open(name, encoding="utf-8") as fh:
                out[os.path.relpath(name, root) if root else name] = code_lines(fh.read())
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="Count code lines of Python files.")
    parser.add_argument("paths", nargs="*", default=["src"], metavar="PATH")
    parser.add_argument("--against", metavar="DIR", help="compare with the same paths in DIR")
    args = parser.parse_args(argv)
    here = count(args.paths)
    if args.against is None:
        for name, n in here.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(here.values()):6d}  total")
        return 0
    there = count(args.paths, args.against)
    rows = [(there.get(n, 0), here.get(n, 0), n) for n in sorted(here.keys() | there.keys())]
    rows.append((sum(there.values()), sum(here.values()), "total"))
    for old, new, name in rows:
        print(f"{old:6d}  {new:6d}  {new - old:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
