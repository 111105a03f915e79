"""Host-time benchmark of the simulator: run one workload.

From the repository root:

    python3 perfbench/run.py --workload fleet-chaos --seed 42 --seconds 10 --trace 0

The script first re-executes itself with one OpenMP/BLAS thread, a fixed
hash seed and ``src`` on the import path, so every workload runs in a
fresh interpreter under the same settings.  The last line of standard
output is the JSON result.  See ``perfbench/README.md``.
"""

import os
import sys

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def main() -> int:
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("error: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    if src not in sys.path or any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    import harness  # numpy and the simulator load only under the pinned settings

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
