"""Speed probe: how fast the benchmark's CPU runs, sampled through a run.

Usage: ``python3 perfbench/probe.py <cpu>``.  The probe pins itself to
``<cpu>`` and, every ``INTERVAL_S``, times a fixed loop of ``Fraction``
arithmetic, of about ``REFERENCE_S``, until its stdin closes.  It then prints its
samples, ``[[start, seconds], ...]``, as one JSON line.  Times come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so they line up with
the pass and set-up times of the other benchmark processes.

On a shared host one vCPU runs at times up to twice as slow as at
others, in spells of a second to minutes, and the two vCPUs drift
independently.  A pass or set-up process pinned to the probe's CPU
is scaled by ``scaled_seconds`` to the time it would take at the speed
where the loop takes ``REFERENCE_S``.  A change to the program moves the
scaled time as it moves the raw one; a change of host speed mostly
cancels out.  The loop uses only the standard library, so no change to
the program changes it.  Of the loops tried (integer arithmetic, tuple
and dict building, ``Fraction`` arithmetic), the ``Fraction`` one tracked
the pass times of all four workloads best: it left a pass-to-pass
spread of 2-4 % where the raw times spread 8-18 %.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

INTERVAL_S = 0.04
TERMS = 120
REFERENCE_S = 0.0008  # about the median loop time; it only fixes the unit of scaled seconds
NEAREST = 3  # samples used for an interval that holds fewer


class ProbeError(Exception):
    """The speed probe failed, so no time can be scaled."""


def _loop() -> float:
    began = perf_counter()
    total = Fraction(0)
    for m in range(1, TERMS):
        turn = Fraction(m, 997)
        if turn > Fraction(1, 2):
            turn = 1 - turn
        total += turn
    return perf_counter() - began


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    samples = []
    while True:
        began = perf_counter()
        samples.append((began, _loop()))
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            break
    print(json.dumps(samples))
    return 0


class SpeedProbe:
    """Pin this process to one CPU and sample that CPU's speed until ``stop``.

    Child processes inherit the pinning, so every pass and set-up process
    runs on the CPU the probe samples.
    """

    def __init__(self):
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.proc = subprocess.Popen(
            [sys.executable, "-s", str(Path(__file__).resolve()), str(self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )  # fmt: skip
        self.samples: list[tuple[float, float]] = []

    def stop(self) -> None:
        """End the probe, wait for it and keep its samples."""
        try:
            out, _ = self.proc.communicate("", timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            raise ProbeError(f"the speed probe exited {self.proc.returncode}")
        self.samples = [tuple(s) for s in json.loads(out)]


def scaled_seconds(samples: list, start: float, end: float) -> float:
    """Seconds ``start``..``end`` would take at the reference speed.

    ``samples`` are the probe's ``(start, loop seconds)`` in time order.
    The probe's own loop time inside the interval is taken out first; the
    rest is scaled by the mean of REFERENCE_S / loop time over the samples
    in the interval (the NEAREST ones if it holds fewer).
    """
    starts = [s for s, _ in samples]
    lo, hi = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
    inside = samples[lo:hi]
    busy = sum(d for _, d in inside)
    if len(inside) < NEAREST:
        middle = (start + end) / 2
        inside = sorted(samples, key=lambda s: abs(s[0] - middle))[:NEAREST]
    speed = sum(REFERENCE_S / d for _, d in inside) / len(inside)
    return (end - start - busy) * speed


if __name__ == "__main__":
    sys.exit(main())
