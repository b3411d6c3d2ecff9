"""Host speed probe: how fast this host runs a fixed reference loop right now.

The benchmark shares a few cores of a busy host, and other tenants' load
slows the same code by up to 1.7x for seconds to minutes at a time.  So every
time metric is reported at a fixed reference host speed: the measured seconds
times ``REFERENCE_S`` over the mean time of a reference loop measured during
the same pass (for the import time, right after the import).  A change to the program moves the reported seconds by the same
ratio as the raw ones; a change in the host's load does not.

Contention slows interpreter-bound and BLAS-bound code by different amounts,
so there are two reference loops; each workload names the one matching the
work that dominates it (``workloads.REFERENCE``).
"""

import resource
import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.001      # reported seconds are at a host where one loop takes this
INTERVAL_S = 0.1         # probe period during workload passes (~1% of the time)
_BLAS_N = 256            # large enough for OpenBLAS to use its threads
STALL = 3.0              # probe samples beyond this many medians are dropped


def python_loop():
    """Fixed pure-Python work (dict updates in L1), about 1 ms on this
    benchmark's 2-vCPU x86_64 host."""
    d = {}
    for i in range(4000):
        d[(i * 7919) % 1009] = d.get(i % 101, 0) + i
    return len(d)


_matrix = None


def blas_loop():
    """Two fixed 256x256 float64 matrix products on the BLAS threads, about
    1.3 ms on the same host."""
    global _matrix
    import numpy as np
    if _matrix is None:
        _matrix = np.random.default_rng(0).standard_normal((_BLAS_N, _BLAS_N))
    return float((_matrix @ _matrix @ _matrix)[0, 0])


LOOPS = {"python": python_loop, "blas": blas_loop}


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def loop_times(kind, seconds):
    """Time the ``kind`` reference loop back to back for ``seconds``."""
    loop = LOOPS[kind]
    out = []
    end = perf_counter() + seconds
    while perf_counter() < end:
        t0 = perf_counter()
        loop()
        out.append(perf_counter() - t0)
    return out


def scale(samples):
    """Factor that takes seconds measured alongside ``samples`` to seconds at
    the reference host speed.

    The mean, not the median, because contention comes and goes within tens
    of milliseconds and the mean weighs it by the time it lasts.  A sample
    over ``STALL`` times the median was descheduled, which contention (at
    most ~2x) does not explain; the ~1% of the time the probe samples would
    weigh such a stall ~100 times more than the workload feels it, so those
    samples are dropped."""
    cut = STALL * statistics.median(samples)
    return REFERENCE_S / statistics.mean(s for s in samples if s <= cut)


class SpeedProbe:
    """Times the ``kind`` reference loop every ``INTERVAL_S`` from an
    interval-timer signal while the workload runs.  The handler runs between
    bytecodes, so a long C call defers a sample to its end.  ``spent`` and
    ``spent_cpu`` are the probe's own wall and CPU seconds, which callers
    subtract from what they measure."""

    def __init__(self, kind):
        self.loop = LOOPS[kind]
        self.loop()           # first call builds the BLAS operand
        self.samples = []
        self.spent = self.spent_cpu = 0.0

    def _tick(self, signum, frame):
        c0, t0 = _cpu(), perf_counter()
        self.loop()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        self.spent_cpu += _cpu() - c0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
