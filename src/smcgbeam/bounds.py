"""Error-bound policies driving the set-membership innovation gate.

A policy exposes the current bound through ``.delta`` and is refreshed once
per snapshot, before the gate is tested, using quantities available at that
point: the steering-vector output ``y0 = a0^H r`` of the incoming snapshot,
the pre-update beamformer output ``y = w^H r`` and weights ``w``, and the
(assumed known) noise power::

    policy.update(np.vdot(a0, r), np.vdot(w, r), w, noise_power)

The outputs may be NumPy or Python complex numbers; a policy reads them as
the same values either way.

``FixedBound`` keeps a constant bound. ``PdbBound`` tracks a noise floor
scaled by the current weight norm. ``PidbBound`` adds a smoothed estimate
of the interference power seen at the protected direction, obtained by
differencing the steering-vector output against the beamformer output.
"""

from __future__ import annotations

import math

import numpy as np


class _NoiseFloor:
    """The weight-scaled noise floor ``sqrt(varsigma ||w||^2 noise_power)``.

    Shared by both adaptive policies, so they agree bit-for-bit when the
    interference term is switched off. It is recomputed only when the
    weights or the noise power change: the filters rebind ``w`` on an
    update and never write it in place, so the same object means the same
    weights.
    """

    def __init__(self, varsigma: float, w0: np.ndarray, noise_power: float) -> None:
        self.varsigma = float(varsigma)
        self._w = self._noise_power = None
        self(w0, noise_power)

    def __call__(self, w: np.ndarray, noise_power: float) -> float:
        if w is not self._w or noise_power != self._noise_power:
            self._w, self._noise_power = w, noise_power
            self.value = math.sqrt(self.varsigma * np.vdot(w, w).real * noise_power)
        return self.value


class FixedBound:
    """Constant bound."""

    def __init__(self, delta: float) -> None:
        if not delta > 0.0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)

    def update(self, y0, y, w, noise_power) -> None:
        pass


class PdbBound:
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
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not varsigma > 0.0:
            raise ValueError("varsigma must be positive")
        if not noise_power > 0.0:
            raise ValueError("noise_power must be positive")
        self.rho = float(rho)
        self.varsigma = float(varsigma)
        self._floor = _NoiseFloor(varsigma, w0, noise_power)
        self.delta = self._floor(w0, noise_power)

    def update(self, y0, y, w, noise_power) -> None:
        target = self._floor(w, noise_power)
        self.delta = self.rho * self.delta + (1.0 - self.rho) * target


class PidbBound:
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
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not varsigma > 0.0:
            raise ValueError("varsigma must be positive")
        if epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")
        if not noise_power > 0.0:
            raise ValueError("noise_power must be positive")
        self.rho = float(rho)
        self.varsigma = float(varsigma)
        self.epsilon = float(epsilon)
        self.nu = 0.0
        self._floor = _NoiseFloor(varsigma, w0, noise_power)
        self.delta = self._floor(w0, noise_power)

    def update(self, y0, y, w, noise_power) -> None:
        e0 = y0 - y
        self.nu = self.rho * self.nu + (1.0 - self.rho) * abs(e0) ** 2
        target = math.sqrt(self.epsilon * self.nu) + self._floor(w, noise_power)
        self.delta = self.rho * self.delta + (1.0 - self.rho) * target
