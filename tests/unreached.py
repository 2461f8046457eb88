"""List the statements under ``src/attention_mamba/`` that tier-1 never runs.

Run it from the repository root:

    python3 tests/unreached.py

It runs the tier-1 command, ``python -m pytest -q
--continue-on-collection-errors``, in this process under ``sys.settrace``
and ``threading.settrace``, records every line of the package that runs,
then prints each statement none of whose own lines ran, as
``path:line: source``, and their count. A compound statement's own lines
are its header, decorators included; a simple statement's are all its
lines. Docstrings, ``global`` and ``nonlocal`` declarations, and
statements that compile to no instruction are skipped. On CPython 3.11 a
``try:`` header compiles to a no-op, so a ``try`` is listed by its header
line, which runs whenever its body does. It uses the standard library
only. The exit status is pytest's.

The file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "attention_mamba"
TIER1 = ["-q", "--continue-on-collection-errors"]


def code_lines(code) -> set[int]:
    """The lines that hold an instruction, in code and its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= code_lines(const)
    return lines


def docstrings(tree: ast.Module) -> set[ast.stmt]:
    """The docstring statement of the module and of each class and function."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.add(first)
    return out


def own_lines(node: ast.stmt) -> range:
    """A statement's lines without those of the statements nested in it."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if body:
        return range(start, max(node.lineno + 1, body[0].lineno))
    return range(start, node.end_lineno + 1)


def statements(path: Path) -> list[tuple[ast.stmt, set[int]]]:
    """Each statement of a file that compiles to an instruction, with its
    own lines that hold one."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    executable = code_lines(compile(source, str(path), "exec"))
    skip = docstrings(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in skip \
                or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        lines = executable.intersection(own_lines(node))
        if lines:
            out.append((node, lines))
    return out


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 under the line tracer; pytest's status and the lines run."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(enter)
    sys.settrace(enter)
    try:
        status = pytest.main(TIER1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main() -> int:
    status, hits = run_traced()
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        starts = sorted(node.lineno for node, own in statements(path) if not own & ran)
        missed += [f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}" for n in starts]
    print("", *missed, sep="\n")
    print(f"statements under {PACKAGE.relative_to(ROOT)} that never ran: {len(missed)}")
    return status

if __name__ == "__main__":
    sys.exit(main())
