"""Reference clock: wall time rescaled by the host's speed, measured as the run goes.

The 2-vCPU Xeon VM this benchmark was built on changes speed by up to 1.9x
within seconds (the same ``evaluate_circuit`` run took 0.40 s or 0.67 s a
minute apart; CPU time equalled wall time, so it is the processor, not
scheduling). Whole 35-second runs landed in a fast or a slow mode, and the
spread of ten runs exceeded any usable bound.

While running, the clock interrupts the process every ``PERIOD_S`` with
SIGALRM; the handler runs in the main thread between bytecodes and times a
fixed probe, on the same core as the work it interrupted. A span's reference
time is its wall time with the probes taken out, each stretch between probes
scaled by ``REF_PROBE_S / probe time`` (the mean speed of the two probes
around it). So a reference second is the work the host does in one second
when the probe takes ``REF_PROBE_S``; code that does more work reads more
reference seconds on a slow host and a fast one alike.

The probe is a fixed three-variable COBYLA minimisation with SciPy: the
solver the package calls, so it does the package's kind of work (interpreter
dispatch and NumPy calls on small arrays). Other probes tracked the workloads
worse: a pure-Python loop did worse than no correction on a calm host, and
a mix of NumPy kernels left up to 1.8 times the spread. With fixed inputs on a noisy
host, this probe cut the spread of single ops from 30-36% to 5-9%, and of
six-op windows from 11-15% to 3-4%; the probes take about 3.5% of the run.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np
from scipy.optimize import minimize

PERIOD_S = 0.1
REF_PROBE_S = 0.0035  # about the probe's median on that VM
_START = np.array([0.5, 0.4, 0.3])


def _bowl(x: np.ndarray) -> float:
    return float((x * x).sum())


def _probe() -> float:
    return minimize(_bowl, _START, method="COBYLA", options={"maxiter": 6}).fun


def speed_now(probes: int = 7) -> float:
    """Reference seconds per wall second, from the median of back-to-back probes."""
    _probe()  # untimed: a fresh interpreter's first call is several times slower
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        _probe()
        times.append(time.perf_counter() - start)
    return REF_PROBE_S / sorted(times)[probes // 2]


class HostClock:
    """Times probes while running; maps ``perf_counter`` stamps to reference seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None
        self._cum: list[float] = []  # reference time at each probe start

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self) -> "HostClock":
        _probe()  # untimed: a fresh interpreter's first call is several times slower
        # a probe at each end, so every stamp in between lies between two probes
        self._on_alarm(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)
        self._build()

    def __enter__(self) -> "HostClock":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- reference time -------------------------------------------------------

    def _rate(self, k: int) -> float:
        """Reference seconds per wall second on the k-th stretch (before probe k)."""
        n = len(self.starts)
        before = self.ends[k - 1] - self.starts[k - 1] if k > 0 else None
        after = self.ends[k] - self.starts[k] if k < n else None
        speeds = [REF_PROBE_S / p for p in (before, after) if p is not None]
        return sum(speeds) / len(speeds)

    def _build(self) -> None:
        cum = [0.0]
        for k in range(1, len(self.starts)):
            cum.append(cum[-1] + (self.starts[k] - self.ends[k - 1]) * self._rate(k))
        self._cum = cum

    def ref(self, t: float) -> float:
        """Reference time of the wall stamp ``t`` (after ``stop``)."""
        k = bisect.bisect_right(self.starts, t)  # probes that started at or before t
        if k == 0:
            return (t - self.starts[0]) * self._rate(0)
        end = self.ends[k - 1]
        return self._cum[k - 1] + max(0.0, t - end) * self._rate(k)

    def span(self, a: float, b: float) -> float:
        """Reference seconds between wall stamps ``a`` and ``b``."""
        return self.ref(b) - self.ref(a)

    def probe_s(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]
