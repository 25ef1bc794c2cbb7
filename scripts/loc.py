"""Count lines of code in Python sources, per module and in total.

A line counts when it holds a token other than a comment: blank lines,
comment-only lines and the lines of docstrings (the leading string of a
module, class or function body) are not counted.  Every line of any other
multi-line string or bracketed expression is counted.  Only the standard
library's `ast` and `tokenize` are used.

    python3 scripts/loc.py [PATH ...]    # default: src/twistcat

A PATH is a `.py` file or a directory searched recursively for them.
Prints one line per module and the total last.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings of a parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_lines(source: str) -> int:
    """Lines of `source` holding code: no blank, comment or docstring lines."""
    skip = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def _modules(paths: list[Path]) -> list[Path]:
    found = []
    for path in paths:
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[Path("src/twistcat")])
    args = parser.parse_args(argv)
    total = 0
    for module in _modules(args.paths):
        n = count_lines(module.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
