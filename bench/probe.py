"""Set-up probe: a fresh interpreter imports ``tdmech.cli``, then prepares one workload.

Run by ``run.py`` in a child process.  Prints one JSON line with the
CLOCK_MONOTONIC reading right after the import (the parent took one just
before starting this interpreter, so the difference includes interpreter
start-up) and the seconds the workload's preparation took.

    python3 bench/probe.py WORKLOAD SEED WORK_DIR
"""

import time
import os
import sys

_BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_BENCH), "src"))

import tdmech.cli  # noqa: E402,F401  (the import being measured)

imported = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = workloads.make(name, seed, work_dir)
    start = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - start
    print(json.dumps({"imported": imported, "prepare_s": prepare_s}))


if __name__ == "__main__":
    main()
