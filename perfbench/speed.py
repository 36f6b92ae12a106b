"""The machine's speed, sampled all through a run, and the scale that turns a
measured time into the time at a fixed reference speed.

On the reference machine, a shared host, each CPU runs at a fast speed or at
one 1.5-2x slower, in phases that last from well under a second to minutes,
and pure-Python work of every kind slows alike.  A whole run can fall into a
slow phase, so the raw times of one run do not compare with those of the
next.  ``Sampler`` times a small fixed probe every ``EVERY_S`` seconds from a
timer signal, and once right before and right after each timed call.  The
call's time, less the probes that interrupted it, is scaled by ``REF_S``
over the mean time of those probes.  The probe runs none of twistlog's code,
so a change to the program moves the scaled time as it moves the raw time.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# The probe's time at the reference speed: about its time in a fast phase on
# the reference machine (2 vCPU Xeon, Python 3.11.7); a slow phase takes 0.34 ms.
REF_S = 0.0002
EVERY_S = 0.005  # wall seconds between timer probes; each takes 4-7% of that

_A = {(i, i % 3): Fraction(i + 1, 2 * i + 3) for i in range(8)}
_B = {(i % 5, i): Fraction(3 * i - 7, i + 2) for i in range(8)}


def probe_seconds() -> float:
    """Time a product of two dicts of Fractions keyed by tuples, the kind of
    work twistlog's kernel does.  The collector is held off meanwhile, so
    the size of the program's heap does not enter the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        out = {}
        for (i, j), x in _A.items():
            for (k, m), y in _B.items():
                key = (i + k) % 7, (j + m) % 5
                out[key] = out.get(key, 0) + x * y
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probes taken while the timer runs (between ``start`` and ``stop``)
    and around every call timed with ``time``."""

    def __init__(self):
        self.start_at = []  # perf_counter when each probe began
        self.end_at = []  # ... and when it ended
        self.took = []  # each probe's own time
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:  # never inside a probe already running
            self.sample()

    def sample(self) -> None:
        self._busy = True
        try:
            t0 = perf_counter()
            took = probe_seconds()
            t1 = perf_counter()
        finally:
            self._busy = False
        self.start_at.append(t0)
        self.end_at.append(t1)
        self.took.append(took)

    def time(self, fn, *args):
        """Run fn(*args) between two probes.  Returns (result, seconds,
        scale): seconds leave out the probes that interrupted the call, and
        seconds * scale is its time at the reference speed."""
        first = len(self.took)
        self.sample()
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = perf_counter()
            self.sample()
        probes = range(first, len(self.took))
        inside = sum(max(0.0, min(self.end_at[i], t1) - max(self.start_at[i], t0))
                     for i in probes)
        return result, t1 - t0 - inside, REF_S / statistics.fmean(self.took[i] for i in probes)
