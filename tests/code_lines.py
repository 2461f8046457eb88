"""Print the code and docstring lines of each module of ``src/attention_mamba/``
and their totals.

A line counts as code when it holds a token other than a comment (blank
lines, comment-only lines and the lines of a docstring do not). Docstring
lines, those a module's, class's or function's docstring spans, are counted
apart. Stdlib only; pytest does not collect this file.

Run: python3 tests/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "attention_mamba"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings under tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, docstring lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(docs)


def main() -> None:
    totals = [0, 0]
    print(f"{'module':<20}{'code':>6}{'docs':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        code, docs = count(path.read_text())
        totals[0] += code
        totals[1] += docs
        print(f"{path.name:<20}{code:>6}{docs:>6}")
    print(f"{'total':<20}{totals[0]:>6}{totals[1]:>6}")


if __name__ == "__main__":
    main()
