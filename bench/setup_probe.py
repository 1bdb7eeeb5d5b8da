"""Time one fresh-interpreter set-up of a workload.

    python3 bench/setup_probe.py peano-deep

Set-up is importing effrew and building the workload's theories; the
clock starts before the first effrew import.  Prints the set-up seconds
and then the seconds per calibration unit measured right after it.
"""

import os
import sys

# the benchmark's own standard-library imports load before the clock starts
import contextlib  # noqa: F401
import dataclasses  # noqa: F401
import io  # noqa: F401
import json  # noqa: F401
import math  # noqa: F401
import random  # noqa: F401
import re  # noqa: F401
from time import perf_counter

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    start = perf_counter()
    import workloads

    workloads.WORKLOADS[sys.argv[1]].setup()
    measured = perf_counter() - start
    import calibrate

    calibrate.unit()
    print(measured, calibrate.seconds_per_unit(0.02))
