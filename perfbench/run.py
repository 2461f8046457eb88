"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload electricity --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Each metric is printed as `name value unit`, and the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones. A fuller record, with versions, thread count, commit and
seed, is written to `perfbench/results/`. The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import os
import sys

# BLAS reads its thread count once, when numpy loads: pin it first.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("data", "layers", "mamba", "model", "pooled_attention", "tensor_core", "training")


def load_program():
    """Import the package from the checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "attention_mamba" / "__init__.py").is_file():
        raise FileNotFoundError(f"no attention_mamba package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("attention_mamba")
    for name in MODULES:
        setattr(package, name, importlib.import_module(f"attention_mamba.{name}"))
    return package


def git_commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, seed: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form of its build config
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": NPROC,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        am = load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2

    import numpy as np

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(am, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
        metrics = run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = min(len(run.failures), run.attempted)
    result = {
        "correct": not run.failures,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": float(value) if value is not None else 0.0, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(np, args.seed), "failures": run.failures,
        "details": run.details,
        **result,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    for failure in run.failures:
        print(f"FAILED {failure}")
    for name in run.details.get("missing", []):
        print(f"missing {name}: reported as 0")
    if "forecast_tail_percentile" in run.details:
        print(f"forecast_tail_ms is p{run.details['forecast_tail_percentile']:g} "
              f"of {run.details['forecast_requests']} requests")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
