"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload sgs-sparse3000 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the run exits with status 2 and prints no result.
"""

import os
import sys
from pathlib import Path

# one thread per process: the reference phase runs two worker processes
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_package(src: Path) -> bool:
    if not (src / "bnmarg" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import bnmarg

    return Path(bnmarg.__file__).resolve().is_relative_to(src)


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    os.environ.update({name: "1" for name in PINNED_THREADS})  # before numpy loads
    if not _import_package(here.parent / "src"):
        print(f"bnmarg sources not found under {here.parent / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(here))
    from harness import main

    sys.exit(main(sys.argv[1:]))
