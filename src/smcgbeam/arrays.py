"""Uniform linear array model and narrowband snapshot generation.

Conventions used throughout the package:

* arrival angles are measured in degrees against the array axis, so the
  angular field of view is [0, 180] and broadside sits at 90 degrees;
* the sensor phase reference is element 0, giving unit-modulus steering
  entries exp(-2j*pi*k*spacing*cos(theta)) for k = 0 .. m-1;
* sources transmit independent equiprobable BPSK symbols (+1/-1) and the
  first source of every epoch is the protected (desired) one;
* sensor noise is circular complex Gaussian with ``noise_power`` variance
  per element (half in the real part, half in the imaginary part).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array of isotropic elements.

    Parameters
    ----------
    n_sensors : int
        Number of array elements, at least 1.
    spacing_wavelengths : float
        Element separation in carrier wavelengths. Half-wavelength by
        default, which keeps the array free of grating lobes.
    """

    n_sensors: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self) -> None:
        if self.n_sensors < 1:
            raise ValueError("n_sensors must be at least 1")
        if not self.spacing_wavelengths > 0.0:
            raise ValueError("spacing_wavelengths must be positive")


@dataclass(frozen=True)
class Source:
    """A narrowband far-field emitter with a fixed arrival angle and power."""

    doa_deg: float
    power: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.doa_deg <= 180.0:
            raise ValueError("doa_deg must lie in [0, 180]")
        if not self.power > 0.0:
            raise ValueError("power must be positive")


@dataclass(frozen=True)
class Scenario:
    """A piecewise-stationary simulation scenario.

    ``epochs`` is an ordered tuple of ``(start_snapshot, sources)`` pairs.
    Epoch k is active from its start index (1-based, inclusive) until the
    next epoch begins. The first source of every epoch is the desired one
    and must keep the same arrival angle across epochs; the remaining
    sources are interferers.

    Parameters
    ----------
    geometry : ArrayGeometry
    epochs : tuple of (int, tuple of Source)
    noise_power : float
        Per-element complex noise variance.
    n_snapshots : int
        Total number of snapshots the scenario spans.
    """

    geometry: ArrayGeometry
    epochs: tuple[tuple[int, tuple[Source, ...]], ...]
    noise_power: float
    n_snapshots: int

    def __post_init__(self) -> None:
        if not self.noise_power > 0.0:
            raise ValueError("noise_power must be positive")
        if self.n_snapshots < 1:
            raise ValueError("n_snapshots must be at least 1")
        if not self.epochs:
            raise ValueError("epochs must not be empty")
        starts = [start for start, _ in self.epochs]
        if starts[0] != 1:
            raise ValueError("epochs must start at snapshot 1")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("epochs starts must be strictly increasing")
        if starts[-1] > self.n_snapshots:
            raise ValueError("epochs start beyond n_snapshots")
        for start, sources in self.epochs:
            if not sources:
                raise ValueError(f"epochs entry at {start} needs at least one source")
            if len(sources) > self.geometry.n_sensors:
                raise ValueError(f"epochs entry at {start} has more sources than sensors")
            if sources[0].doa_deg != self.desired_doa_deg:
                raise ValueError(f"epochs entry at {start} moves the desired arrival angle")
        # generate_snapshot and the covariance helpers read these per
        # snapshot, so each epoch's tables are built once, here
        m = self.geometry.n_sensors
        tables = []
        for _, sources in self.epochs:
            mat = np.column_stack([steering_vector(self.geometry, s.doa_deg) for s in sources])
            powers = np.array([s.power for s in sources])
            a0 = mat[:, 0]
            desired = powers[0] * np.outer(a0, a0.conj())
            rest = mat[:, 1:]
            interference = (rest * powers[1:]) @ rest.conj().T if rest.size else np.zeros((m, m))
            amps = np.sqrt(powers)
            tables.append(
                (mat, amps, -amps, desired, interference + self.noise_power * np.eye(m))
            )
        object.__setattr__(self, "_starts", tuple(starts))
        object.__setattr__(self, "_epoch_tables", tuple(tables))
        object.__setattr__(self, "_noise_scale", np.sqrt(self.noise_power / 2.0))

    @property
    def desired_doa_deg(self) -> float:
        return self.epochs[0][1][0].doa_deg


def steering_vector(geometry: ArrayGeometry, theta_deg: float) -> np.ndarray:
    """Array response for a plane wave arriving from ``theta_deg``.

    Parameters
    ----------
    geometry : ArrayGeometry
    theta_deg : float
        Arrival angle in degrees, within [0, 180].

    Returns
    -------
    numpy.ndarray
        Complex vector of length ``geometry.n_sensors`` with unit-modulus
        entries and squared norm equal to the sensor count.
    """
    if not 0.0 <= theta_deg <= 180.0:
        raise ValueError(f"theta_deg={theta_deg!r} outside [0, 180]")
    k = np.arange(geometry.n_sensors)
    phase = -2.0 * np.pi * geometry.spacing_wavelengths * np.cos(np.radians(theta_deg))
    return np.exp(1j * phase * k)


def epoch_index(scenario: Scenario, i: int) -> int:
    """Index into ``scenario.epochs`` of the epoch active at snapshot ``i``."""
    if not 1 <= i <= scenario.n_snapshots:
        raise ValueError(f"snapshot index {i} outside [1, {scenario.n_snapshots}]")
    return bisect_right(scenario._starts, i) - 1


def generate_snapshot(
    scenario: Scenario, i: int, rng: np.random.Generator, block: SnapshotBlock | None = None
) -> np.ndarray | None:
    """Draw the received vector ``r = A s + n`` at snapshot ``i``.

    Without ``block``, return ``r``, drawn and formed through a block of
    one. With ``block``, make only the snapshot's draws, into the block,
    and return nothing; ``block.form()`` then forms every ``r`` drawn
    into it at once. Both give the same bits. A block draws from the
    generator it was built with, so ``rng`` must be that generator; any
    other is refused with a ``ValueError``.

    RNG-stream contract: per snapshot, the BPSK symbols of the sources
    active at ``i``, desired source first, then the noise, real parts
    first. The symbols are exactly ``rng.integers(0, 2, size=q)``: bit 31
    of successive 32-bit halves of ``rng.bit_generator.random_raw``, low
    half first, so an odd leftover half carries to the next snapshot, as
    it does for ``integers``. Each ``block.form()`` hands that half back
    to the generator's buffer: after it, the generator stands where
    ``integers`` leaves it, and until it, nothing but the block's own
    draws may take 32-bit halves from ``rng``. The noise is
    ``rng.standard_normal(2 * m)``, the same numbers as two
    ``standard_normal(m)`` calls. The bit generator must buffer a 32-bit
    half (``has_uint32`` in its state, as PCG64, PCG64DXSM, Philox and
    SFC64 do); for any other, such as MT19937, a ``ValueError`` names it.

    Every part rounds as in ``A @ (amps * symbols) + scale * (re + 1j * im)``:
    a symbol of +-1 only picks the sign of its amplitude, the noise parts
    are scaled one real product each, and the sum is the same in either
    order.
    """
    if block is None:
        block = SnapshotBlock(scenario, 1, rng)
        block.draw(epoch_index(scenario, i))
        return block.form()[0]
    if rng is not block.rng:
        raise ValueError("a snapshot block draws from the generator it was built with, not rng")
    block.draw(epoch_index(scenario, i))


class SnapshotBlock:
    """Up to ``size`` snapshots of one epoch, drawn one by one, formed at once.

    ``draw`` makes one snapshot's draws, in the order ``generate_snapshot``
    documents; ``form`` forms ``r`` for every snapshot drawn since the last
    ``form``. Both symbols and noise come from ``rng``, the generator
    the block is built with and keeps. Its buffered half is read once,
    here, and handed back by each ``form`` that changes it, so after each
    ``form`` the generator stands where ``integers`` would leave it. Until
    then nothing but this block's draws may take 32-bit halves from ``rng``.
    """

    def __init__(self, scenario: Scenario, size: int, rng: np.random.Generator) -> None:
        state = rng.bit_generator.state
        if "has_uint32" not in state:
            raise ValueError(
                f"snapshots need a bit generator that buffers a 32-bit half; "
                f"{state['bit_generator']} does not"
            )
        m = scenario.geometry.n_sensors
        self.scenario = scenario
        self.rng, self.bits = rng, rng.bit_generator
        self.q = [len(sources) for _, sources in scenario.epochs]
        # the half left over before the block's first snapshot; whether one stands now
        self.head = [state["uinteger"]] if state["has_uint32"] else []
        self.carried = len(self.head)
        self.words = []
        self.noise = np.empty((size, 2 * m))
        self.r = np.empty((size, m), dtype=complex)
        self.count = 0
        self.epoch = 0

    def draw(self, epoch: int) -> None:
        """Draw the symbols and the noise of one snapshot of epoch ``epoch``."""
        k = self.count
        if k and epoch != self.epoch:
            raise ValueError("the snapshots of a block lie in one epoch")
        q, carried = self.q[epoch], self.carried
        n = (q - carried + 1) >> 1
        self.words.append(self.bits.random_raw(n))
        self.carried = carried + 2 * n - q
        self.rng.standard_normal(out=self.noise[k])
        self.epoch, self.count = epoch, k + 1

    def form(self) -> np.ndarray:
        """``r`` of every snapshot drawn since the last call, as a view into the block."""
        count, self.count = self.count, 0
        mat, amps, neg_amps, _, _ = self.scenario._epoch_tables[self.epoch]
        m, q = mat.shape
        # each word splits into two halves, low half first on a little-endian host
        halves = np.concatenate(
            [np.array(self.head, np.uint32), np.concatenate(self.words).view(np.uint32)]
        )
        if self.head or self.carried:  # hand the leftover half back
            state = self.bits.state
            state["has_uint32"] = self.carried
            if self.carried:
                state["uinteger"] = int(halves[-1])
            self.bits.state = state
        self.head = [int(halves[-1])] if self.carried else []
        self.words.clear()
        r = self.r[:count]
        np.multiply(
            self.noise[:count].reshape(count, 2, m).transpose(0, 2, 1),
            self.scenario._noise_scale,
            out=r.view(float).reshape(count, m, 2),
        )
        signs = halves[: count * q].reshape(count, q) >= 1 << 31
        r += np.matvec(mat, np.where(signs, amps, neg_amps))
        return r


def desired_covariance(scenario: Scenario, i: int) -> np.ndarray:
    """Analytic desired-signal covariance of the epoch active at ``i``."""
    return scenario._epoch_tables[epoch_index(scenario, i)][3]


def interference_covariance(scenario: Scenario, i: int) -> np.ndarray:
    """Analytic interference-plus-noise covariance at snapshot ``i``."""
    return scenario._epoch_tables[epoch_index(scenario, i)][4]


def total_covariance(scenario: Scenario, i: int) -> np.ndarray:
    """Analytic full received covariance at snapshot ``i``."""
    _, _, _, desired, rest = scenario._epoch_tables[epoch_index(scenario, i)]
    return desired + rest
