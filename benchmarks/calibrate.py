"""Fixed reference work that measures how fast this machine runs right now.

Usage: python3 benchmarks/calibrate.py

The benchmark runs this program in a fresh process before and after each
timed CLI invocation and scales the invocation's time by NOMINAL_S over the
mean time of those two runs, so that a shared machine's slow and fast phases
do not show as a change of the program under test.  The work mirrors the program's own mix:
interpreter start, importing numpy and scipy.special, then a Python loop of
small-vector numpy calls (n = 100) and scalar arithmetic.  It never imports
ssmd, so no change to the program moves it.
"""

import numpy as np
from scipy.special import erfc

# Typical time of this program on the 2-core machine the baseline was
# recorded on; it only sets the scale of the reported seconds.
NOMINAL_S = 0.6

ROUNDS = 7_000


def main() -> float:
    x = np.linspace(0.0, 1.0, 100)
    acc = 0.0
    for i in range(ROUNDS):
        y = np.clip(x * 1.0001 - 0.5, 0.0, 1.0)
        acc += float(np.dot(y, x)) + float(np.sort(y)[50])
        s = 0
        for j in range(40):
            s += j * j
        acc += s * 1e-12
    acc += float(erfc(x).sum())
    return acc


if __name__ == "__main__":
    main()
