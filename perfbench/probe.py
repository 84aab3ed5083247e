"""Speed probe: how fast the CPU running the benchmark is at the moment.

The VM the benchmark was built on switches between speed states within
seconds and stays in a slow or fast regime for minutes (README.md,
"Steadiness"); times of a fixed snippet taken on the same CPU follow those
states, so dividing by them rescales a measured time to one fixed speed.

The probe runs in a process of its own, so that what it measures cannot
depend on the program's interpreter lock or threads, only on the CPU it
shares with the program:

    python3 perfbench/probe.py

times `snippet` every PROBE_PERIOD_S until its standard input is closed,
then prints one JSON object with the `time.monotonic()` stamp and the
duration of every probe.  It prints `ready` once it has started.
"""

from __future__ import annotations

import inspect
import json
import select
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right

PROBE_PERIOD_S = 0.02
# a typical time of the probe snippet on a 2-vCPU Xeon VM, where it ranged
# from about 0.12 ms to 0.3 ms; measured times are rescaled to that speed
PROBE_REF_S = 1.5e-4


def snippet() -> int:
    """The probed work: a fixed pure-Python loop."""
    x = 0
    for i in range(2000):
        x += i * i
    return x


# for a child that must time the snippet before it imports anything else
SNIPPET_SOURCE = inspect.getsource(snippet)


class SpeedProbe:
    """A probe process on the CPUs this process may use (its affinity is
    inherited), timing `snippet` every PROBE_PERIOD_S.  The probe wakes from
    a sleep, so the scheduler lets it in between the program's own slices,
    and its times follow the speed the CPU gave the program around then."""

    def __init__(self):
        self.at: list = []
        self.took: list = []
        self._proc = None

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("speed probe did not start")
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        out = self._proc.stdout.read()
        self._proc.wait()
        if out.strip():
            record = json.loads(out)
            self.at, self.took = record["at"], record["took"]

    def mean_between(self, start: float, end: float) -> float:
        """Mean snippet time of the probes taken in [start, end] of `time.monotonic()`."""
        i, j = bisect_left(self.at, start), bisect_right(self.at, end)
        if j <= i:
            raise RuntimeError("no speed probe ran during the pass")
        return statistics.fmean(self.took[i:j])


def main() -> int:
    at, took = [], []
    clock = time.monotonic
    print("ready", flush=True)
    # standard input becomes readable (at end of file) when the program stops the probe
    while not select.select([sys.stdin], [], [], PROBE_PERIOD_S)[0]:
        t = clock()
        snippet()
        at.append(t)
        took.append(clock() - t)
    print(json.dumps({"at": at, "took": took}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
