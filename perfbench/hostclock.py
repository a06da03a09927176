"""Timings scaled to a reference host speed.

The benchmark runs on shared virtual machines whose speed drifts: the
2 ms control loop below took from 1.4 to 5.4 ms within one run, and whole
minutes run slow.  No median or minimum over a run removes a drift that
shifts the whole run, so every gated timing is divided by the host factor,
the time a fixed control took next to it over the control's time on a quiet
host.  A change to citydist moves a scaled timing by the same share as the
raw one; the host's drift moves it far less.  Both are reported.

Two controls, because each tracks a different kind of work:

* in-process (``vehicle_choice``, ``sensitivity``): ``control_loop``, a
  pure-Python loop of the kind citydist runs (tuples, float math, a dict),
  run before and after each operation and, from a SIGALRM timer, every
  ``PERIOD_S`` during it.  The time spent in the control is taken out of
  the operation's time.  Sampled this way it tracks the annealer and the
  sweeps; run only before and after a multi-second solve it does not.
* child (``cold_cli``): a fresh ``python -c "import numpy, yaml"`` before
  and after each operation, the interpreter start and third-party imports a
  CLI command also pays.  An in-process loop does not track child processes.

The process and its children are pinned to one CPU, so the control and the
work it is compared with run on the same one.
"""

from __future__ import annotations

import gc
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time

PERIOD_S = 0.05
# the controls' times on a quiet host (the fast end of what the 2-vCPU Xeon
# virtual machine the benchmark was built on measured)
IN_PROCESS_REF_S = 0.002
CHILD_REF_S = 0.2
CHILD_CONTROL = [sys.executable, "-c", "import numpy, yaml"]


def control_loop() -> float:
    rng = random.Random(12345)
    rows = tuple((0.5, 0.25, 0.25) for _ in range(6))
    acc = 0.0
    table: dict[int, float] = {}
    for _ in range(800):
        j = rng.randrange(6)
        new = tuple(x * 0.9 + 0.1 / 3 for x in rows[j])
        rows = rows[:j] + (new,) + rows[j + 1:]
        acc += math.exp(-sum(new)) + max(new)
        table[j] = table.get(j, 0.0) + acc
    return acc


def run_control_child() -> None:
    # A blocking wait: subprocess's wait with a timeout polls with sleeps of
    # up to 50 ms, which rounds the control's time to that grain.
    proc = subprocess.Popen(CHILD_CONTROL, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, CHILD_CONTROL)


def pin_to_one_cpu() -> int:
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostClock:
    """Times operations and the host factor next to them.

    ``child=False`` uses the in-process control (sampled during operations
    once ``start`` has run), ``child=True`` the child-process control.
    """

    def __init__(self, child: bool):
        self.child = child
        self.factors: list[float] = []
        self.control_s = 0.0  # total time spent in the control
        self._fresh = False  # no work since the last sample
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            if self.child:
                run_control_child()
                self.factors.append((time.perf_counter() - t0) / CHILD_REF_S)
            else:
                gc_was_enabled = gc.isenabled()
                gc.disable()  # the control's time must not depend on the heap
                try:
                    control_loop()
                    self.factors.append((time.perf_counter() - t0) / IN_PROCESS_REF_S)
                finally:
                    if gc_was_enabled:
                        gc.enable()
        finally:
            self.control_s += time.perf_counter() - t0
            self._fresh = True
            self._busy = False

    def start(self) -> None:
        """Sample the in-process control every PERIOD_S until ``stop``."""
        if not self.child:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if not self.child:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args, **kwargs):
        """(fn's result, its seconds without the control's, host factor).

        The factor is the mean over the samples from just before the call to
        just after it; an operation's after-sample is the next one's before.
        """
        if not self._fresh:
            self.sample()
        first = len(self.factors) - 1
        control_before = self.control_s
        t0 = time.perf_counter()
        self._fresh = False
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0 - (self.control_s - control_before)
        self._fresh = False
        self.sample()
        window = self.factors[first:]
        return result, seconds, sum(window) / len(window)
