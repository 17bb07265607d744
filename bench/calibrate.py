"""Fixed reference work that measures how fast the machine is running right now.

Usage: python3 bench/calibrate.py

The benchmark times this child, from spawn to exit, next to the workload
runs.  It touches nothing of geoverify: interpreter and numpy start-up, a
pure-Python loop and numpy passes over a 16 MB array, the same kinds of
work the workloads do.  On a shared machine whose speed drifts with the
load of its neighbours, the median of these times tracks that drift, and
the benchmark reports times scaled to a reference speed (see run.py).
"""

import numpy as np


def main() -> None:
    values = np.linspace(0.0, 1.0, 2_000_000)
    for _ in range(8):
        values = np.sqrt(values * 1.0001 + 1.0)
    total = 0
    for i in range(400_000):
        total += i * i


if __name__ == "__main__":
    main()
