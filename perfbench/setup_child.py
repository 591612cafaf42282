"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports qregsim and its CLI module, loads and validates one workload's
configs, then prints one JSON line with its own timings.  The parent times
the whole child from spawn to that line.

    python3 perfbench/setup_child.py <workload> <seed>
"""

import json
import sys
import time

import workloads


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    t0 = time.perf_counter()
    import qregsim
    import qregsim.expcli  # noqa: F401  (the config loaders live here)

    t1 = time.perf_counter()
    cfgs = workloads.load(name, seed)
    t2 = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": t1 - t0,
                "config_s": t2 - t1,
                "configs": len(cfgs),
                "qregsim_file": qregsim.__file__,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
