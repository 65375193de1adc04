"""Machine-speed probe that samples the host while the benchmark's operations run.

On a shared host the same work can take 1.5x longer for minutes at a time
(another tenant on a sibling hardware thread), and that swamps the
benchmark's bounds.  ``SpeedProbe`` measures how fast the machine is *during*
each operation: a wall-clock timer interrupts the child every ``PERIOD_S``
seconds and runs a small, fixed kernel (a proximal gradient loop of the same
kind as the library's: small matrix-vector products, a soft threshold and a
Python loop over groups) in the signal handler.  The kernel is part of the
benchmark, not of the library, so no change to ``dfalopt`` alters it.

The time spent in the handler is subtracted from the operation's wall time,
and the mean kernel time over the operation tells how slow the machine was
while it ran; ``run.py`` scales each time to the speed at which one kernel
takes ``workloads.PROBE_REF_S``.  Used only by untraced children.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.025
KERNEL_ITERS = 20
# kernels in the window that measures the speed right after set-up
WINDOW_KERNELS = 60


class SpeedProbe:
    """Context manager: samples the kernel on SIGALRM while it is entered."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.A = rng.standard_normal((60, 100)) / 10.0
        self.b = rng.standard_normal(60)
        self.groups = [slice(i, i + 10) for i in range(0, 100, 10)]
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._old_handler = None

    def kernel(self) -> np.ndarray:
        A, b, step = self.A, self.b, 0.1
        x = np.zeros(100)
        z = x.copy()
        tk = 1.0
        for _ in range(KERNEL_ITERS):
            y = z - step * (A.T @ (A @ z - b))
            y = np.sign(y) * np.maximum(np.abs(y) - step * 0.01, 0.0)
            for g in self.groups:
                norm = np.linalg.norm(y[g])
                if norm > 0.0:
                    y[g] *= max(1.0 - step * 0.05 / norm, 0.0)
            t_next = (1.0 + (1.0 + 4.0 * tk * tk) ** 0.5) / 2.0
            z = y + ((tk - 1.0) / t_next) * (y - x)
            x, tk = y, t_next
        return x

    def _tick(self, *_: object) -> None:
        if self._busy:  # a late signal while the kernel still runs
            return
        self._busy = True
        started = time.perf_counter()
        self.kernel()
        took = time.perf_counter() - started
        self.samples.append(took)
        self.spent += took
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def window(self) -> float:
        """Mean time of ``WINDOW_KERNELS`` kernels run back to back now,
        without any timer sample that fell inside."""
        mark = self.mark()
        started = time.perf_counter()
        for _ in range(WINDOW_KERNELS):
            self.kernel()
        return (time.perf_counter() - started - self.since(mark)[0]) / WINDOW_KERNELS

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def since(self, mark: tuple[int, float]) -> tuple[float, float | None]:
        """Handler seconds since ``mark``, and the mean kernel time over the
        samples taken since then (None when there were none)."""
        count, spent = mark
        taken = self.samples[count:]
        return self.spent - spent, (sum(taken) / len(taken) if taken else None)

    def mean(self) -> float | None:
        return sum(self.samples) / len(self.samples) if self.samples else None
