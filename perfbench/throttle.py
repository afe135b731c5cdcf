"""Correction of measured times for host throttling.

On the shared 2-CPU hosts this benchmark was written on, work that other
tenants run on the sibling hardware thread slows this process by up to about
2x, in stretches of a fraction of a second to several seconds.  Raw wall
times of identical rounds then spread by +-25%, more than any bound worth
setting.  So a timer interrupts the process every PERIOD_S seconds and times
a fixed small kernel (a probe).  `Clock` integrates the probe's speed,
relative to its unthrottled time on the reference box, into a clock that
runs at the unthrottled rate.  Durations read on that clock are the reported
times: a round that took 8 raw seconds while the probe ran at half speed
reads 4 s.  Raw wall times are printed beside them.

The in-process probe is a loop of small numpy ufunc calls, which slows under
contention the way the package's small-array numerics do.  Set-up starts have
not imported numpy yet, so their probe is a pure-Python loop, which slows the
way import work does.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.01
# unthrottled probe times on the reference box (2-CPU VM, Python 3.11,
# numpy 2.4): the scale that turns probe units back into seconds
NUMPY_PROBE_S = 55e-6
PY_PROBE_S = 50e-6
SMOOTH = 5  # probe samples per running median

# the set-up starts' probe, as source for their fresh interpreters
PY_PROBE_SOURCE = """
import signal, time
_probe_samples = []
def _probe(signum, frame):
    start = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        acc += i * 0.5
    end = time.perf_counter()
    _probe_samples.append((end, end - start))
signal.signal(signal.SIGALRM, _probe)
signal.setitimer(signal.ITIMER_REAL, %r, %r)
""" % (PERIOD_S / 2, PERIOD_S / 2)

_X0 = np.linspace(0.0, 1.0, 64) + 0j


def _numpy_kernel():
    x = _X0
    for _ in range(40):
        x = x * 0.999 + 0.001j
    return x


class Probe:
    """Times the numpy kernel on every SIGALRM tick while started."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, duration)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _numpy_kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Clock:
    """Maps perf_counter readings to a clock that runs at the probe's speed.

    Each probe sample gives the speed over the interval since the previous
    sample: `unit` (the unthrottled probe time) over the probe's duration,
    smoothed by a running median so that one interrupted probe does not
    count.  Before the first and after the last sample the nearest speed
    holds.
    """

    def __init__(self, samples, unit, origin=None):
        if not samples:
            raise ValueError("no probe samples: the run was too short to correct")
        s = np.asarray(samples, dtype=float)
        self.t = s[:, 0]
        padded = np.pad(s[:, 1], SMOOTH // 2, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH),
                           axis=1)
        self.speed = unit / smooth
        start = self.t[0] if origin is None else origin
        self.cum = np.cumsum(np.diff(self.t, prepend=start) * self.speed)

    def at(self, t):
        """Corrected reading at perf_counter time(s) `t`."""
        t = np.asarray(t, dtype=float)
        j = np.clip(np.searchsorted(self.t, t), 0, len(self.t) - 1)
        return self.cum[j] - (self.t[j] - t) * self.speed[j]

    def span(self, t0, t1):
        return float(self.at(t1) - self.at(t0))
