#!/usr/bin/env python3
"""Set-up probe of the benchmark, run in a fresh process by bench/run.py:

    python3 bench/probe.py <config> <start>

It imports ``pshjb.cli`` from ``src`` of this checkout and loads the config
(which builds the model), and prints the host-speed time (see
bench/host_speed.py) from ``start``, the caller's ``time.perf_counter()``
reading just before it started this process, until the config is loaded.
On Linux that clock is CLOCK_MONOTONIC, shared by all processes.  Sampling
starts before numpy is imported, so the import is measured with the rest.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from host_speed import HostSpeed  # noqa: E402


def main() -> int:
    config, start = sys.argv[1], float(sys.argv[2])
    clock = HostSpeed(period_s=0.02)     # a set-up takes about a second
    clock.start()
    try:
        sys.path.insert(0, str(BENCH.parent / "src"))
        import pshjb.cli  # noqa: F401  (the import cost of the CLI entry point)
        from pshjb.config import load_config

        load_config(config)
        ready = time.perf_counter()
    finally:
        clock.stop()
    print(repr(clock.correct(start, ready)[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
