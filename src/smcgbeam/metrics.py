"""Performance metrics and the per-snapshot operation-count model.

``complexity_counts`` evaluates closed-form complex addition and
multiplication counts for one run of each algorithm family. Counts for the
selective-update (``sm-``) variants and the data-selective CG depend on the
fraction of accepted snapshots ``update_fraction``; the affine-projection
variant and the data-selective CG also depend on a projection order
``projection_order``.
"""

from __future__ import annotations

import numpy as np

_SINR_FLOOR_LINEAR = 1e-20  # -200 dB


def sinr_linear(
    w: np.ndarray, desired_cov: np.ndarray, intnoise_cov: np.ndarray
) -> float | np.ndarray:
    """Ratio of desired to interference-plus-noise output power, floored.

    The floor keeps weight vectors orthogonal to the desired response from
    producing a zero (or negative rounding) numerator downstream.

    ``w`` may also hold one weight vector per row. The result is then an
    array that equals the call on each row bit for bit, with nan where that
    call would raise or the row is not finite, and inf where a quadratic
    form of a finite row is beyond float range. Each quadratic form is a
    stack of matrix-vector products reduced by ``vecdot``, which runs the
    same kernels as ``C @ w`` and ``vdot``; one matrix-matrix product would
    round differently. One vector is the row form on ``w[None]``; where
    that row is nan it raises ``ValueError``, naming non-finite weights or
    else the power.
    """
    rows = np.ndim(w) == 2
    w = w if rows else np.asarray(w)[None]
    out = np.full(len(w), np.nan)
    finite = np.flatnonzero(np.isfinite(w).all(axis=1))
    w = w[finite]
    num = np.vecdot(w, (desired_cov @ w[..., None])[..., 0]).real
    den = np.vecdot(w, (intnoise_cov @ w[..., None])[..., 0]).real
    positive = den > 0.0
    ratio = num[positive] / den[positive]
    out[finite[positive]] = np.maximum(ratio, _SINR_FLOOR_LINEAR)
    out[finite[~(np.isfinite(num) & np.isfinite(den))]] = np.inf
    if not rows and np.isnan(out[0]):
        if not finite.size:
            raise ValueError("weights must be finite")
        raise ValueError("interference-plus-noise output power must be positive")
    return out if rows else out[0]


def constraint_error_rows(w_rows: np.ndarray, steering: np.ndarray, gamma: float) -> np.ndarray:
    """``abs(np.vdot(w, steering) - gamma)`` of every row ``w``, bit for bit.

    ``hypot`` of the parts is the scalar ``abs``; the array ``abs`` of a
    complex array can differ from it in the last bit.
    """
    err = np.vecdot(w_rows, steering) - gamma
    return np.hypot(err.real, err.imag)


COMPLEXITY_ALGORITHMS = (
    "sg", "sm-sg", "rls", "sm-rls", "sm-ap", "cg", "ds-cg", "sm-cg",
)

_NEEDS_FRACTION = {"sm-sg", "sm-rls", "sm-ap", "ds-cg", "sm-cg"}
_NEEDS_ORDER = {"sm-ap", "ds-cg"}


def complexity_counts(
    algorithm: str,
    m: int,
    n_snapshots: int,
    update_fraction: float | None = None,
    projection_order: int | None = None,
) -> tuple[float, float]:
    """Complex additions and multiplications for a full run.

    Parameters
    ----------
    algorithm : str
        One of ``COMPLEXITY_ALGORITHMS``.
    m : int
        Number of sensors.
    n_snapshots : int
        Run length.
    update_fraction : float, optional
        Accepted-snapshot fraction in [0, 1]; required by the selective
        algorithms and ignored by the rest.
    projection_order : int, optional
        Data-reuse/projection order; required by ``sm-ap`` and ``ds-cg``.

    Returns
    -------
    (float, float)
        ``(additions, multiplications)``.
    """
    if algorithm not in COMPLEXITY_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if m < 1:
        raise ValueError("m must be at least 1")
    if n_snapshots < 1:
        raise ValueError("n_snapshots must be at least 1")
    if algorithm in _NEEDS_FRACTION:
        if update_fraction is None:
            raise ValueError(f"{algorithm} requires update_fraction")
        if not 0.0 <= update_fraction <= 1.0:
            raise ValueError("update_fraction must lie in [0, 1]")
    if algorithm in _NEEDS_ORDER:
        if projection_order is None:
            raise ValueError(f"{algorithm} requires projection_order")
        if projection_order < 1:
            raise ValueError("projection_order must be at least 1")

    n = n_snapshots
    tn = update_fraction * n if update_fraction is not None else 0.0
    L = projection_order if projection_order is not None else 0

    if algorithm == "sg":
        return n * (3 * m - 1), n * (4 * m + 1)
    if algorithm == "sm-sg":
        return 2 * n * m + 3 * tn * m, n * (2 * m + 5) + tn * (4 * m + 3)
    if algorithm == "rls":
        return n * (4 * m * m - m - 1), n * (5 * m * m + 5 * m - 1)
    if algorithm == "sm-rls":
        return (
            2 * n * m + tn * (4 * m * m - 1),
            n * (2 * m + 5) + tn * (5 * m * m + 6 * m + 2),
        )
    if algorithm == "sm-ap":
        return (
            n * (2 * m + 1) + tn * ((m - 1) * L * L + m * L + 1),
            n * (2 * m + 5) + tn * (L ** 3 + m * L * L + (m + 1) * L + m + 2),
        )
    if algorithm == "cg":
        return n * (2 * m * m + 7 * m + 1), n * (2 * m * m + 11 * m + 5)
    if algorithm == "ds-cg":
        return (
            tn * (2 * m * m + 8 * m - 2) + L * n * (m - 1),
            tn * (2 * m * m + 9 * m + 3) + L * n * m,
        )
    # sm-cg
    return (
        2 * n * m + tn * (2 * m * m + 8 * m + 6),
        n * (2 * m + 5) + tn * (2 * m * m + 9 * m + 22),
    )
