"""Host-speed adjustment of measured times.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed piece of pure-Python work takes anywhere from 1x to 1.7x its best time,
in episodes lasting from milliseconds to minutes.  Raw wall times of a
10-second solve therefore spread by +-30% between runs of the same code.

While a measured interval runs, `HostProbe` interrupts it every PERIOD_S of
process CPU time (SIGPROF) and times `probe_work`, a fixed piece of work
that does not touch the program.  The probe runs on the same core,
interleaved with the program, so it sees the same slow and fast episodes.  `adjusted` takes the
probe time out of the interval and scales the rest by REFERENCE_S / (mean
probe time): the interval's length at a reference host speed.  A change that
makes the program faster shortens the adjusted time; the probe's own cost is
the same on every commit.

Pure Python on purpose: it is imported before `deltafield.cli` when set-up is
timed, and must not pull numpy in ahead of it.
"""

import signal
import time

PERIOD_S = 0.02  # CPU time between probes: ~2.5% of the interval is probing
REFERENCE_S = 0.0005  # one probe_work() on this host's Xeon at its fast speed
MIN_PROBES = 10


def probe_work():
    s = 0.0
    d = {}
    for i in range(2500):
        s += (i * 0.5) ** 0.5
        d[i & 63] = s
    return s


class HostProbe:
    """Context manager: probes host speed while its block runs."""

    def __init__(self):
        self.spent_s = 0.0
        self.count = 0

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        probe_work()
        self.spent_s += time.perf_counter() - t0
        self.count += 1

    def __enter__(self):
        probe_work()  # warm the code path before the first timed probe
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self):
        """A point in time: (wall s, CPU s, probe s so far, probes so far)."""
        return time.perf_counter(), time.process_time(), self.spent_s, self.count


def adjusted(start, end):
    """{wall_s, cpu_s, probe_s, probes, factor} between two marks.

    wall_s and cpu_s exclude the probes and are scaled to the reference
    host speed; factor is the scale applied (above 1 on a fast host)."""
    probe_s, probes = end[2] - start[2], end[3] - start[3]
    if probes < MIN_PROBES:
        raise RuntimeError("only %d host probes in the interval, need %d" % (probes, MIN_PROBES))
    factor = REFERENCE_S / (probe_s / probes)
    return {
        "wall_s": (end[0] - start[0] - probe_s) * factor,
        "cpu_s": (end[1] - start[1] - probe_s) * factor,
        "probe_s": probe_s,
        "probes": probes,
        "factor": factor,
    }
