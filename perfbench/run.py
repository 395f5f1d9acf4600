"""Benchmark entry point.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense_sweep --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    # Pin BLAS to one thread before numpy loads; set-up samples inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "twirlqfi" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no twirlqfi sources under {ROOT / 'src'}\n")
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.harness import run

    return run(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
