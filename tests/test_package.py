import importlib
import pkgutil

import pytest

import attention_mamba

MODULES = ["attention_mamba"] + [
    f"attention_mamba.{info.name}" for info in pkgutil.iter_modules(attention_mamba.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_exists(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
