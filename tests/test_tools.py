"""The measuring scripts under ``tests/`` run on the current ``src/``, at a
tiny shape: a change that breaks one of them fails here."""

import math
import re

import bit_hashes
import code_lines
import step_memory
import unreached


def test_bit_hashes_repeat():
    first = bit_hashes.step_hashes(2, 3)
    assert all(re.fullmatch("[0-9a-f]{16}", h) for h in first)
    assert bit_hashes.step_hashes(2, 3) == first


def test_step_memory_gives_three_positive_finite_figures():
    figures = step_memory.measure(2, 3)
    assert len(figures) == 3
    assert all(math.isfinite(f) and f > 0 for f in figures)


def test_code_lines_counts_code_and_docstring_apart():
    source = 'def f():\n    """One line of docs."""  # and a comment\n    return 1\n'
    assert code_lines.count(source) == (2, 1)


def test_unreached_lists_statements_by_their_own_lines(tmp_path):
    path = tmp_path / "module.py"
    path.write_text('''\
"""Module docs."""


def f(x):
    """Function docs,
    on two lines."""
    try:
        y = 1 / x
    except ZeroDivisionError:
        y = 0
    if y > 0:
        return y
    return -y
''', encoding="utf-8")
    found = {node.lineno: (type(node).__name__, own) for node, own in unreached.statements(path)}
    # no docstring line (1, 5-6) is listed, and the `if` is its header alone
    assert not {1, 5, 6} & set().union(*(own for _, own in found.values()))
    assert found[11] == ("If", {11})
    assert found[4][0] == "FunctionDef" and {8, 10, 12, 13} <= found.keys()
