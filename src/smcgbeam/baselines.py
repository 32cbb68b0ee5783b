"""Classical constrained beamformers used as references.

All of them protect the same distortionless response ``w^H a0 = gamma`` and
update on every snapshot (no innovation gate). ``mvdr_weights`` gives the
closed-form optimum for a known covariance and serves as the oracle the
adaptive filters are measured against.
"""

from __future__ import annotations

import numpy as np

from .smcg import SmCgState, checked_steering


def mvdr_weights(covariance: np.ndarray, steering: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """Minimum-variance weights for a known received covariance.

    Parameters
    ----------
    covariance : numpy.ndarray
        Hermitian positive-definite received covariance.
    steering : numpy.ndarray
        Array response of the protected direction.
    gamma : float
        Constrained gain.

    Returns
    -------
    numpy.ndarray
        ``gamma * R^-1 a0 / (a0^H R^-1 a0)``.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the covariance is singular.
    """
    x = np.linalg.solve(covariance, steering)
    return gamma * x / np.vdot(steering, x)


class FrostSg:
    """Stochastic-gradient beamformer with constraint re-projection.

    Every snapshot takes one gradient step on the instantaneous output
    power and projects back onto the constraint plane, so feasibility never
    drifts. The step is normalised by the instantaneous input power by
    default, which keeps one ``step_size`` usable across interference
    levels.
    """

    updated = True  # no gate: every step updates

    def __init__(
        self,
        steering: np.ndarray,
        gamma: float = 1.0,
        step_size: float = 0.05,
        normalized: bool = True,
    ) -> None:
        if not step_size > 0.0:
            raise ValueError("step_size must be positive")
        steering, norm_sq = checked_steering(steering)
        self.steering = steering
        self.gamma = float(gamma)
        self.step_size = float(step_size)
        self.normalized = bool(normalized)
        self._projector = np.eye(steering.size) - np.outer(steering, steering.conj()) / norm_sq
        self._quiescent = self.gamma * steering / norm_sq
        self.w = self._quiescent.copy()

    def step(self, r: np.ndarray) -> complex:
        y = np.vdot(self.w, r)
        mu = self.step_size
        if self.normalized:
            mu = mu / (np.vdot(r, r).real + 1e-12)
        self.w = self._projector @ (self.w - mu * np.conj(y) * r) + self._quiescent
        return y


class NonFiniteUpdate(FloatingPointError):
    """An update produced non-finite values at row ``row`` of its block."""

    def __init__(self, row: int) -> None:
        super().__init__(f"inverse covariance update produced non-finite values at row {row}")
        self.row = row


class ConstrainedRls:
    """Exponentially-weighted least-squares beamformer.

    Maintains the inverse covariance estimate directly; the weight vector
    is the constrained solution ``gamma * Q a0 / (a0^H Q a0)`` after every
    rank-one update.
    """

    def __init__(
        self,
        steering: np.ndarray,
        gamma: float = 1.0,
        forgetting: float = 0.998,
        inv_init: float = 1e-2,
    ) -> None:
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting must lie in (0, 1]")
        if not inv_init > 0.0:
            raise ValueError("inv_init must be positive")
        steering, norm_sq = checked_steering(steering)
        self.steering = steering
        self.gamma = float(gamma)
        self.forgetting = float(forgetting)
        self._inv = np.eye(steering.size, dtype=complex) / inv_init
        self.w = self.gamma * steering / norm_sq
        # per-block buffers, grown to the longest block seen, and per-row ones
        self._invs = np.empty((0,) + self._inv.shape, dtype=complex)
        self._ws = np.empty((0, steering.size), dtype=complex)
        self._outer = np.empty_like(self._inv)
        self._half = np.empty_like(self._inv)

    def step(self, rows: np.ndarray) -> np.ndarray:
        """Advance the estimate over one snapshot, or over each row of a block.

        Each row takes the rank-one update of the inverse covariance, kept
        Hermitian, in turn: ``Q <- 0.5 (P + P^H)`` with
        ``P = (Q - k (Q r)^H) / lambda``. NumPy divides a complex value by a
        real ``lambda`` by multiplying each part by ``1 / lambda``, and
        halving is exact, so ``P / 2`` is formed as one multiply of the real
        parts by ``0.5 / lambda`` and ``Q`` as its sum with its conjugate
        transpose; both round as the formula does. The weights after each
        row are then formed for the whole block at once; they equal those
        of one update at a time bit for bit. They are returned as a view of
        a buffer that the next call overwrites.

        Raises :class:`NonFiniteUpdate`, naming the first row whose update
        is not finite, and then leaves the state as it was before the call.
        """
        rows = np.atleast_2d(rows)
        n, m = rows.shape
        if len(self._invs) < n:
            self._invs = np.empty((n, m, m), dtype=complex)
            self._ws = np.empty((n, m), dtype=complex)
        invs, ws, lam = self._invs[:n], self._ws[:n], self.forgetting
        inv, outer, half = self._inv, self._outer, self._half
        half_parts, scale = half.view(float), 0.5 / lam
        with np.errstate(all="ignore"):  # a non-finite tail is discarded below
            for k, r in enumerate(rows):
                qr = inv @ r
                gain = qr / (lam + np.vdot(r, qr).real)
                np.multiply(gain[:, None], qr.conj(), out=outer)
                np.subtract(inv, outer, out=half)
                np.multiply(half_parts, scale, out=half_parts)
                inv = np.add(half, half.conj().T, out=invs[k])
            finite = np.isfinite(invs.view(float)).reshape(n, -1).all(axis=1)
        if not finite.all():
            raise NonFiniteUpdate(int(np.argmin(finite)))
        x = invs @ self.steering
        np.divide(self.gamma * x, np.vecdot(self.steering, x)[:, None], out=ws)
        self._inv = inv.copy()
        self.w = ws[n - 1].copy()
        return ws


class ConstrainedCg:
    """Conjugate-gradient beamformer with the gate forced open.

    Runs the set-membership machinery with a zero bound (every snapshot
    whose output is nonzero is accepted) and the forgetting factor clamped
    to a single constant, so the two implementations cannot drift apart.
    """

    def __init__(
        self,
        steering: np.ndarray,
        gamma: float = 1.0,
        forgetting: float = 0.998,
        eta: float = 0.5,
        r_hat_init: float = 1e-2,
    ) -> None:
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting must lie in (0, 1]")
        self.state = SmCgState(
            steering,
            gamma=gamma,
            eta=eta,
            lambda1_min=forgetting,
            lambda1_max=forgetting,
            r_hat_init=r_hat_init,
        )

    @property
    def w(self) -> np.ndarray:
        return self.state.w

    @property
    def updated(self) -> bool:
        return self.state.updated

    def step(self, r: np.ndarray) -> complex:
        y = np.vdot(self.state.w, r)
        self.state.step(r, 0.0, y)
        return y
