"""Benchmark entry point for kforms.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--blas-threads T] [--tiny] [--negative-control]

Run from the root of a source checkout.  The workload runs in a child
process that imports ``kforms`` from ``src/`` of this checkout; nothing
needs to be built or installed.  ``--blas-threads T`` sets the OpenMP,
OpenBLAS and MKL thread variables in the child's environment before
numpy loads; without it the environment is passed on untouched.  All
other arguments go to ``workload.py``, which lists the workloads and
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = Path(__file__).resolve().with_name("workload.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one kforms benchmark workload.")
    parser.add_argument("--blas-threads", type=int, default=None)
    args, rest = parser.parse_known_args(argv)
    if args.blas_threads is not None and args.blas_threads < 1:
        parser.error("--blas-threads must be positive")
    source = ROOT / "src"
    if not (source / "kforms" / "__init__.py").is_file():
        print(f"error: no kforms package under {source}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source), env.get("PYTHONPATH")]))
    if args.blas_threads is not None:
        env.update({var: str(args.blas_threads) for var in THREAD_VARS})
    try:
        child = subprocess.run(
            [sys.executable, str(WORKLOAD), *rest], env=env, cwd=ROOT, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
