"""How fast the host runs right now, from a fixed calibration kernel.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts:
the same experiment can take twice as long from one second to the next as
other tenants load the host. Timing a fixed kernel next to each experiment
measures that drift, and :func:`scaled` removes most of it, so the
end-to-end times compare commits rather than moments.

The kernel does the kind of work smcgbeam does, a Python loop of small
complex NumPy operations on an m = 16 array (a snapshot, a rank-one
covariance update, a gradient and a step), but it imports nothing from
smcgbeam, so no change to the program changes it.
"""

from __future__ import annotations

import math
import time

import numpy as np

_M = 16
_ITERATIONS = 3000
_WARMUP = 300

# What the kernel takes on a 2-vCPU x86-64 Xeon VM at 2.1 GHz when the host
# is quiet (0.057-0.062 s); a scaled time is the time on that host.
REFERENCE_S = 0.060
# The kernel's 0.1 s is a noisy sample of the speed the host had over a
# measurement about ten times longer, and not every slowdown of the kernel
# slows the program as much, so a full correction (exponent 1)
# over-corrects. Over five seeds each of fig5-gate-open, fig6-mixed and
# fig9-scene-change on that host, runs of the same code spread (IQR/median)
# 3-7% apart at 0.8, 5-7% at 1 and 16-29% uncorrected. Set-up, which is
# largely reading and unmarshalling modules, tracks the kernel less
# closely: it spread 2-6% at 0.5, 7-36% at 1 and 5-20% uncorrected.
DAMPING = 0.8
SETUP_DAMPING = 0.5


def _kernel(iterations: int) -> float:
    rng = np.random.default_rng(12345)
    cov = np.eye(_M, dtype=complex)
    w = np.full(_M, 1.0 / _M, dtype=complex)
    acc = 0.0
    for _ in range(iterations):
        x = (rng.standard_normal(_M) + 1j * rng.standard_normal(_M)) * 0.7
        cov = 0.99 * cov + 0.01 * np.outer(x, x.conj())
        g = cov @ w - x * np.vdot(x, w)
        den = np.vdot(g, cov @ g).real
        step = np.vdot(g, g).real / den if den > 0 else 0.0
        w = w - 0.01 * step * g
        acc += abs(np.vdot(w, x)) ** 2 + math.sqrt(abs(step) + 1.0)
    return acc


def calibrate() -> float:
    """Seconds the calibration kernel takes now, after a short warm-up."""
    _kernel(_WARMUP)
    t0 = time.perf_counter()
    _kernel(_ITERATIONS)
    return time.perf_counter() - t0


def scaled(seconds: float, calibration_s: float, damping: float = DAMPING) -> float:
    """``seconds`` measured while the kernel took ``calibration_s``, as on the reference host."""
    return seconds * (REFERENCE_S / calibration_s) ** damping
