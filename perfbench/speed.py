"""Machine-speed calibration for the benchmark's timings.

A shared machine's single-core speed drifts by about +-20% over seconds to
minutes, and the drift moves every timing alike.  `SpeedProbe` starts a
small process pinned to the same CPU as the benchmark.  Every PERIOD_S it
times a fixed pure-Python loop.  A time measured over a window is
reported scaled by REF_S / (median loop time in that window): seconds at
the reference speed, at which the loop takes REF_S.

Run as a script, this file is that process: `python3 speed.py <cpu>`.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time

LOOP = 10_000
REF_S = 6.0e-4  # the loop's median time on a shared 2-vCPU Xeon VM at 2.1 GHz
PERIOD_S = 0.1


def loop_seconds() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i
    return time.perf_counter() - t0


class SpeedProbe:
    """Pins this process to one CPU and samples that CPU's speed beside it."""

    def __init__(self):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.samples = []  # (time.monotonic(), loop seconds)
        self._proc = subprocess.Popen([sys.executable, __file__, str(cpu)],
                                      stdout=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self._proc.stdout:
            t, dt = line.split()
            self.samples.append((float(t), float(dt)))

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the median loop time sampled between monotonic t0 and t1."""
        window = [dt for t, dt in list(self.samples) if t0 <= t <= t1]
        if not window:  # a window shorter than PERIOD_S: take the nearest sample
            window = [min(list(self.samples), key=lambda s: abs(s[0] - t1))[1]]
        return REF_S / statistics.median(window)

    def wait_for_sample(self):
        while not self.samples:
            time.sleep(PERIOD_S)

    def close(self):
        self._proc.kill()
        self._proc.wait()
        self._reader.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[1])})
    while True:
        time.sleep(PERIOD_S)
        print(time.monotonic(), loop_seconds(), flush=True)
