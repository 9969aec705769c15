"""Set-up of one workload in a fresh interpreter: import, then build models.

Usage: python bench/setup_probe.py WORKLOAD SEED WORK_DIR

Imports ``jumptime.cli`` (and with it numpy), builds every model the
workload samples from (on model-sweep this loads its CSV tables) and exits.
Nothing is sampled.  ``run.py`` times the whole process from spawn to exit.
Prints the path of the imported package so ``run.py`` can check that the
checkout's source, not an installed copy, was measured.
"""

import sys
from pathlib import Path

import jumptime.cli  # noqa: F401  (part of the measured set-up)
import numpy  # noqa: F401
import spec


def main(argv) -> int:
    workload, seed, work = argv
    spec.build_workload_models(workload, int(seed), Path(work))
    print(jumptime.cli.__file__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
