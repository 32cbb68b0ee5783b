"""Error-bound policies driving the set-membership innovation gate.

A policy exposes the current bound through ``.delta`` and is refreshed once
per snapshot, before the gate is tested, using quantities available at that
point: the steering-vector output ``y0 = a0^H r`` of the incoming snapshot,
and the pre-update beamformer output ``y = w^H r`` and weights ``w``::

    policy.update(np.vdot(a0, r), np.vdot(w, r), w)

The outputs may be NumPy or Python complex numbers; a policy reads them as
the same values either way. The adaptive policies read the (assumed known)
noise power they were built with.

``FixedBound`` keeps a constant bound. ``PdbBound`` tracks a noise floor
scaled by the current weight norm. ``PidbBound`` adds a smoothed estimate
of the interference power seen at the protected direction, obtained by
differencing the steering-vector output against the beamformer output.
"""

from __future__ import annotations

import math

import numpy as np


class FixedBound:
    """Constant bound, whose square the gate forms as a float."""

    def __init__(self, delta: float) -> None:
        if not delta > 0.0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)
        if not math.isfinite(self.delta * self.delta):
            raise ValueError(f"delta squared must be a finite float, got {delta!r}")

    def update(self, y0, y, w) -> None:
        pass


class _AdaptiveBound:
    """A bound that starts at the weight-scaled noise floor
    ``sqrt(varsigma ||w||^2 noise_power)`` and is smoothed by ``rho``.

    Both adaptive policies hold the floor in their target, so they agree
    bit-for-bit when the interference term is switched off. The floor is
    recomputed only for new weights: the filters rebind ``w`` on an update
    and never write it in place, so the same object means the same weights.
    """

    def __init__(self, w0: np.ndarray, noise_power: float, varsigma: float, rho: float) -> None:
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not varsigma > 0.0:
            raise ValueError("varsigma must be positive")
        if not noise_power > 0.0:
            raise ValueError("noise_power must be positive")
        self.rho = float(rho)
        self.varsigma = float(varsigma)
        self.noise_power = float(noise_power)
        self._w = None
        self.delta = self._noise_floor(w0)

    def _noise_floor(self, w: np.ndarray) -> float:
        if w is not self._w:
            self._w = w
            self._floor = math.sqrt(self.varsigma * np.vdot(w, w).real * self.noise_power)
        return self._floor


class PdbBound(_AdaptiveBound):
    """Parameter-dependent bound: smoothed weight-scaled noise floor.

    delta <- rho * delta + (1 - rho) * sqrt(varsigma * ||w||^2 * noise_power)
    """

    def __init__(
        self,
        w0: np.ndarray,
        noise_power: float,
        varsigma: float = 21.0,
        rho: float = 0.9,
    ) -> None:
        super().__init__(w0, noise_power, varsigma, rho)

    def update(self, y0, y, w) -> None:
        target = self._noise_floor(w)
        self.delta = self.rho * self.delta + (1.0 - self.rho) * target


class PidbBound(_AdaptiveBound):
    """Parameter- and interference-dependent bound.

    Tracks ``nu``, a smoothed power estimate of the difference between the
    steering-vector output and the beamformer output, and folds a small
    fraction of it into the bound on top of the weight-scaled noise floor:

    nu    <- rho * nu    + (1 - rho) * |y0 - y|^2
    delta <- rho * delta + (1 - rho) * (sqrt(epsilon * nu) + noise floor)

    With ``epsilon = 0`` the sequence reduces bit-for-bit to ``PdbBound``
    run with the same coefficients.

    Unlike the noise floor, ``nu`` does not scale with ``gamma``: it mixes
    the gamma-free ``a0^H r`` with ``y``, which scales with it. So the
    filter's gate does not keep its decisions when gamma is scaled, as it
    does under the other two policies, and ``epsilon`` is tuned for
    ``gamma = 1``, the gain of every preset. At the default parameters and
    scenario (``ExperimentConfig()``, 5 runs) the update rate is 0.021 at
    ``gamma = 1`` and 0.19 at ``gamma = -3``.
    """

    def __init__(
        self,
        w0: np.ndarray,
        noise_power: float,
        rho: float = 0.98,
        varsigma: float = 19.0,
        epsilon: float = 1e-3,
    ) -> None:
        if epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")
        super().__init__(w0, noise_power, varsigma, rho)
        self.epsilon = float(epsilon)
        self.nu = 0.0

    def update(self, y0, y, w) -> None:
        e0 = y0 - y
        self.nu = self.rho * self.nu + (1.0 - self.rho) * abs(e0) ** 2
        target = math.sqrt(self.epsilon * self.nu) + self._noise_floor(w)
        self.delta = self.rho * self.delta + (1.0 - self.rho) * target
