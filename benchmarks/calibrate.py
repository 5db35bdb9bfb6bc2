"""A fixed calibration kernel that measures how fast the host runs now.

On a shared host the speed of the machine drifts by tens of percent over
minutes, far more than the bounds the benchmark holds its metrics to.
The benchmark therefore calibrates before the first op and after every
op, and reports the median op wall time divided by the median
calibration time of the same run.  Drift that slows both alike cancels.
An op that runs in the benchmark's process is calibrated by a few passes
of the kernel in that process; an op that starts ``hypercp`` as a child
process is calibrated by a child process that runs the kernel.

The kernel does the kinds of work hypercp does, on inputs fixed here and
never taken from ``--seed``: Python-level parsing of edge-list text into
interned labels, a sort, and the gather / segmented-reduction / power /
scatter steps of a per-edge q-norm gradient.  It never imports ``hypercp``, so no change to the code under
test moves it.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time

import numpy as np

from inputs import edge_list_text, random_edges

PASSES = 3


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(20220225)
        members, ptr = random_edges(rng, 10_000, 20_000)
        self.text = edge_list_text(members, ptr).decode()
        self.members, self.starts = members, ptr[:-1]
        self.sizes = np.diff(ptr)
        self.x = rng.uniform(0.5, 1.5, size=10_000)

    def kernel(self) -> float:
        """One pass of every part; returns a checksum so no part is idle."""
        index: dict[str, int] = {}
        rows = [[index.setdefault(v, len(index)) for v in line.split()] for line in self.text.splitlines()]
        order = np.argsort(self.members[: 4 * len(rows)], kind="stable")
        x, q = self.x, 10.0
        for _ in range(12):
            vals = x[self.members]
            mx = np.maximum.reduceat(vals, self.starts)
            s = np.add.reduceat((vals / np.repeat(mx, self.sizes)) ** q, self.starts)
            t = mx ** (1.0 - q) * s ** (1.0 / q - 1.0)
            acc = np.bincount(self.members, weights=np.repeat(t, self.sizes), minlength=x.size)
            x = (x ** (q - 1.0) * acc) ** 0.1
            x = x / x.max()
        return len(index) + float(order[-1]) + float(x.sum())

    def passes(self, count: int = PASSES) -> list[float]:
        """Wall time of each of `count` kernel passes, with the garbage
        collector off so a pass does not pay for scanning the heap."""
        times = []
        gc.disable()
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                self.kernel()
                times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        return times


def child_seconds(env: dict) -> float:
    """Wall time of a fresh interpreter that imports numpy, builds the
    kernel's inputs and runs PASSES passes: the calibration for ops that
    start the program as a child process, since it pays the same kind of
    start-up."""
    t0 = time.perf_counter()
    # A blocking wait: Popen.wait with a timeout polls at up to 50 ms.
    rc = subprocess.Popen([sys.executable, __file__], env=env, stdout=subprocess.DEVNULL).wait()
    wall = time.perf_counter() - t0
    if rc:
        raise RuntimeError(f"calibration child exited with code {rc}")
    return wall


if __name__ == "__main__":
    Calibration().passes()
