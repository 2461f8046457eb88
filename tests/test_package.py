import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import attention_mamba
from attention_mamba import tensor_core

MODULES = ["attention_mamba"] + [
    f"attention_mamba.{info.name}" for info in pkgutil.iter_modules(attention_mamba.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_exists(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


# A measured time or the machine it came from belongs in CHANGES.md, where
# it is dated by the change that measured it, not in a docstring or comment.
LAB_NOTE = re.compile(r"\d+(\.\d+)? ?(ms|µs|ns)\b|x86|\d-core")


def test_sources_quote_no_timings_or_machines():
    package = Path(attention_mamba.__file__).parent
    quoted = [f"{path.relative_to(package)}:{lineno}: {line.strip()}"
              for path in sorted(package.rglob("*.py"))
              for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
              if LAB_NOTE.search(line)]
    assert not quoted, "timings or machines quoted in the sources:\n" + "\n".join(quoted)


# Which input gets a gradient is decided in one place, ``_acc``: an op's
# backward forms every input's gradient and never asks whether it is wanted.
TAPE = {"Tensor", "_node", "_acc", "backward"}


def test_only_the_tape_reads_requires_grad():
    tree = ast.parse(Path(tensor_core.__file__).read_text(encoding="utf-8"))
    reads = [f"tensor_core.py:{node.lineno} in {getattr(top, 'name', 'module level')}"
             for top in tree.body if getattr(top, "name", None) not in TAPE
             for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and node.attr == "requires_grad"
             and isinstance(node.ctx, ast.Load)]
    assert not reads, "requires_grad read outside the tape's rule:\n" + "\n".join(reads)
