"""Set-up time in a fresh interpreter: import cobord2.cli, then build one
pass's cold inputs (parsing, catalog, LieRInstance) for a workload.

    python3 perfbench/setup_probe.py WORKLOAD SEED TINY

Prints the elapsed seconds.  Run by run.py, once per set-up sample.
"""

import sys
import time


def main(argv) -> int:
    name, seed, tiny = argv[0], int(argv[1]), argv[2] == "1"
    t0 = time.perf_counter()
    import program

    program.load()
    import cobord2.cli  # noqa: F401
    import workloads

    workloads.BUILDERS[name](seed, tiny)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
