"""CPU time scaled to one reference speed of the machine.

A shared virtual machine runs the same code at speeds that differ by up
to a factor of two, in phases that last from a fraction of a second to
seconds. The median of a short command then jumped between the speeds
from run to run, and a long command's time depended on how much of it
fell into slow phases. ``ScaledClock`` measures the machine's speed while
it times a stretch of work: a fixed loop of interpreter work
(``calibrate``) is timed right before and right after the stretch, and
every ``SAMPLE_S`` seconds during it, from a ``SIGALRM`` handler. The
stretch's CPU time, less the handler's own, is reported as
``cpu_s * REFERENCE_S / calibration_s``: the CPU seconds it would take
where the loop takes ``REFERENCE_S``. ``calibration_s`` is the mean of
the loop's times, which samples the speed evenly over the stretch (the
benchmark runs on one CPU, so its wall time is mostly its CPU time). A
change to the program moves the scaled time as it moves the raw one.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

# CPU seconds of one ``calibrate()`` in the fast phase of a 2-vCPU Xeon VM, Python 3.11
REFERENCE_S = 0.00015
# seconds between two speed samples inside a timed stretch
SAMPLE_S = 0.025

_CALIBRATION_TREE = {
    "goal": {"name": "dish", "states": ["cooked"]},
    "units": [{"inputs": [f"item {i}", "pan"], "motion": "stir", "outputs": [f"mix {i}"]}
              for i in range(12)]}


def _calibration_work() -> int:
    index: dict = {}
    for round_ in range(3):
        tree = json.loads(json.dumps(_CALIBRATION_TREE))
        for unit in tree["units"]:
            for name in unit["inputs"] + unit["outputs"]:
                index.setdefault(name.upper() + str(round_), []).append(unit["motion"])
    return len(sorted(index, key=lambda k: (len(index[k]), k)))


def calibrate(rounds: int = 3) -> float:
    """CPU seconds of a fixed piece of interpreter work at the machine's present speed.

    The least of a few rounds, so an interrupt in one round does not count.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.thread_time()
        _calibration_work()
        best = min(best, time.thread_time() - start)
    return best


class ScaledClock:
    """Times the ``with`` block in CPU seconds of the process, raw and scaled.

    After the block, ``cpu_s`` is the raw CPU time, ``wall_s`` the wall
    time, ``calibration_s`` the machine's mean speed over it, and
    ``scaled_s`` the time at the reference speed. With ``sample=False``
    the speed is not measured and ``scaled_s`` is the raw time.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.cpu_s = self.scaled_s = self.wall_s = 0.0
        self.calibration_s = REFERENCE_S
        self._samples: list = []
        self._handler_cpu = 0.0
        self._saved = None

    # The samples are taken on a wall-clock timer: while a process CPU timer is armed,
    # Linux reads the process CPU clock from a counter that advances at scheduler ticks.

    def _sample(self, signum, frame):
        start = time.thread_time()
        self._samples.append(calibrate(rounds=2))
        self._handler_cpu += time.thread_time() - start

    def __enter__(self):
        if self.sample:
            self._samples = [calibrate()]
            self._saved = signal.signal(signal.SIGALRM, self._sample)
        self._start, self._wall_start = time.process_time(), time.perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.cpu_s = self.scaled_s = time.process_time() - self._start
        self.wall_s = time.perf_counter() - self._wall_start
        if self.sample:
            signal.signal(signal.SIGALRM, self._saved)
            self.cpu_s -= self._handler_cpu
            self._samples.append(calibrate())
            self.calibration_s = statistics.fmean(self._samples)
            self.scaled_s = self.cpu_s * REFERENCE_S / self.calibration_s
        return False
