import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
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


# The package runs on numpy alone; scipy is a test dependency, the oracle
# for functions the package computes itself.
RUNTIME = """
import importlib, pkgutil, sys
import numpy as np
import attention_mamba
for info in pkgutil.iter_modules(attention_mamba.__path__):
    importlib.import_module(f"attention_mamba.{info.name}")
from attention_mamba.data import SyntheticSpec, fit_apply_scaler, generate_synthetic, split_series
from attention_mamba.model import AttentionMambaModel, ModelConfig
from attention_mamba.training import TrainRunConfig, train
dataset = fit_apply_scaler(split_series(generate_synthetic(SyntheticSpec(3, 60, seed=0)), 8, 4))
config = ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=8)
model = AttentionMambaModel(config, np.random.default_rng(0))
train(model, dataset, TrainRunConfig(epochs=1, batch_size=64))   # one step: fewer windows than a batch
model.forward(np.zeros((1, 8, 3), np.float32))
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_training_and_forecasting_import_no_scipy():
    src = Path(attention_mamba.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", RUNTIME], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]", f"scipy modules loaded at run time: {run.stdout.strip()}"
