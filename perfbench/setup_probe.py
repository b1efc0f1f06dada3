"""Time one workload's set-up in a fresh interpreter and print it in seconds.

Set-up is importing noisy_sqp (with numpy), building the workload's
problems and solver parameters and, for ``grid``, starting and stopping a
process pool with one worker per core.  Interpreter start-up and the
benchmark's own imports are excluded.

    python3 perfbench/setup_probe.py <workload>
"""

import importlib
import os
import sys
import time

# Standard-library modules only the benchmark uses, loaded before the clock.
for _name in ("array", "collections", "functools", "hashlib", "json", "resource",
              "shutil", "statistics", "tempfile", "traceback", "zlib"):
    importlib.import_module(_name)


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    from noisy_sqp import driver, harness, linalg, merit, noise, problems, steps  # noqa: F401
    from noisy_sqp import stepsize, verify  # noqa: F401
    program_s = time.perf_counter() - t0
    import workloads  # the benchmark's own modules: not timed

    t1 = time.perf_counter()
    workloads.setup(sys.argv[1])
    print(repr(program_s + time.perf_counter() - t1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
