"""Speed probe: samples how fast the CPU runs while a pass is timed.

On a shared host the same code runs at two speeds, switching within
milliseconds, and the share of slow time drifts over minutes (see
DESIGN.md, *Noise*). A wall time alone then measures the host as much as
the program. While a ``SpeedProbe`` is running, a SIGALRM handler fires
every ``INTERVAL_S`` seconds of wall time and times one fixed kernel: small
complex einsum products of the kind ``psd_fit`` makes. The handler runs
between bytecodes of the timed code, so the probe samples the same
moments as the workload. ``scaled`` turns a pass's wall time into seconds
at the reference speed: the time the probe took out is removed, and the
rest is scaled by ``REF_KERNEL_S`` over the mean kernel time in that pass.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Kernel time the scaled seconds refer to. The reference machine (2 KVM
#: vCPUs) takes 0.42-0.65 ms per kernel in a run, so scaled and wall
#: seconds are close.
REF_KERNEL_S = 5e-4
INTERVAL_S = 0.02
KERNEL_ITERS = 10
#: Untimed steps before each sample, so that the sample does not count the
#: cache misses the timed code left behind.
WARM_ITERS = 2


class SpeedProbe:
    """Times ``KERNEL_ITERS`` fixed steps every ``INTERVAL_S`` seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._e = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        self._f = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        self._p = np.full((3, 3), 1.0 / 9.0)
        self.samples: list[float] = []  # seconds per kernel
        self.spent = 0.0  # seconds inside the handler
        self._saved = None

    def kernel(self, iters: int = KERNEL_ITERS) -> float:
        """A fixed descent-like sequence; the inputs never change."""
        e, f, p = self._e, self._f, self._p
        value = 0.0
        for _ in range(iters):
            c = np.einsum("xab,xac->xbc", e.conj(), e)
            d = np.einsum("yab,yac->ybc", f.conj(), f)
            resid = np.einsum("xab,yba->xy", c, d).real - p
            value = float((resid * resid).sum())
            grad = 4.0 * np.einsum("xy,xab,ybc->xac", resid, e, d)
            e = e - (1e-3 / (1.0 + float(np.vdot(grad, grad).real))) * grad
        return value

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel(WARM_ITERS)
        t1 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t1)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self.kernel()  # warm numpy's einsum paths before the first sample
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def scaled(self, wall: float, since: tuple[int, float]) -> float:
        """Seconds at the reference speed of a pass that began at ``since``
        and took ``wall`` seconds of wall time."""
        n0, spent0 = since
        own = wall - (self.spent - spent0)
        if len(self.samples) == n0:  # a pass shorter than the interval
            self._tick(None, None)
        return own * REF_KERNEL_S / statistics.fmean(self.samples[n0:])
