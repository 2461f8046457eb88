"""Make the bench modules and the program under test importable."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))


@pytest.fixture(scope="session")
def am():
    import run

    return run.load_program()
