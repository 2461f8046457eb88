"""Compare the package's float32 erf with scipy's on every float32 in [0, 6].

Run it from the repository root:

    python3 tests/erf_sweep.py

It walks the bit patterns of float32 from +0 to 6.0, and their negatives,
in blocks of 2**20, and counts the inputs where ``tensor_core._erf`` and
``scipy.special.erf`` return different bits. Past 6 both return 1 in
float32. It prints the count and the first few mismatches; the exit status
is 1 if there is any. It needs scipy, and takes about a minute.

The file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from scipy.special import erf

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from attention_mamba.tensor_core import _erf  # noqa: E402

BLOCK = 1 << 20
SHOWN = 10


def main() -> int:
    top = int(np.float32(6.0).view(np.int32))
    mismatches, shown, swept = 0, [], 0
    for start in range(0, top + 1, BLOCK):
        x = np.arange(start, min(start + BLOCK, top + 1), dtype=np.int32).view(np.float32)
        for sign in (x, -x):
            differ = _erf(sign).view(np.int32) != erf(sign).view(np.int32)
            mismatches += int(np.count_nonzero(differ))
            shown += sign[differ][:SHOWN - len(shown)].tolist()
            swept += sign.size
    print(f"float32 inputs in [-6, 6] swept: {swept}, mismatches: {mismatches}")
    for v in shown:
        print(f"  erf({v!r}): {_erf(np.float32([v]))[0]!r} against scipy's {erf(np.float32(v))!r}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
