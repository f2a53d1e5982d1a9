"""Scaling of end-to-end times to a fixed machine speed.

Other tenants of a shared machine change its speed by tens of percent for
seconds to minutes at a time.  A fixed reference kernel, timed before and
after each measured interval, tracks that speed, and the interval's wall
time is scaled to a machine that runs the kernel in REFERENCE_S.  On a
2-core shared VM the unscaled rates of 10-20 s runs spread (quartile
distance over median, across seeds) by 0.07-0.24; the scaled ones of 20 s
runs by 0.07 at most.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 1.5e-3  # about the kernel's time on that VM between calls
REFERENCE_LOOP = 12_000


def reference_kernel():
    """A fixed mix of interpreter, numpy vector and FFT work; returns a
    function that times one run of it."""
    vector = np.linspace(0.0, 1.0, 32_768)
    signal = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 4096))

    def run_s() -> float:
        start = perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i
        np.sqrt(vector * vector + 1.0).sum()
        np.fft.fft(signal)
        return perf_counter() - start

    return run_s


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at reference speed, given the kernel's times around it."""
    return wall_s * 2.0 * REFERENCE_S / (before_s + after_s)
