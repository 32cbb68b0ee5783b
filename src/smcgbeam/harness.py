"""Monte-Carlo experiment harness.

An :class:`ExperimentConfig` pins everything a run needs: array size,
scenario powers, epoch schedule, algorithm roster and seeding. Run ``k`` of
an experiment uses an independent generator seeded with
``master_seed XOR k``. Its stream is fixed, so results are reproducible
bit-for-bit:

1. the interferer arrival angles (``build_scenario``: one uniform draw per
   candidate, candidates inside the guard band drawn again);
2. then, for each snapshot in order, the BPSK symbols of the sources
   active in its epoch, desired source first, then the noise in one
   ``standard_normal(2m)`` call, the real parts first. The symbols are
   exactly ``integers(0, 2, size=q)``, decoded from raw 64-bit words: bit
   31 of each 32-bit half, low half first, with an odd leftover half
   carried to the next snapshot. The noise call draws the same numbers as
   two ``standard_normal(m)`` calls, real then imaginary, so the stream is
   that of earlier versions.

Nothing else draws from it: the algorithms are deterministic, so every
entry of the roster sees the identical snapshot stream within a run, and
adding, removing or reordering entries changes no entry's trace. The
engine draws each snapshot with one ``generate_snapshot`` call, in order,
into a ``SnapshotBlock`` of at most ``_BLOCK`` snapshots that lies in one
epoch; the call makes only the draws, and the block then forms every
snapshot vector at once, bit for bit as one at a time. Runners then
advance through the block in roster order: one per SG, CG (a step per
snapshot), RLS (one call) or MVDR entry, and, where the first gated
(``smcg``) entry stands, one for all of them as the rows of one
``SmCgStack``: per snapshot each row's bound is refreshed and its gate
tested, and the rows that accept are staged once and updated in place,
through one slice if they are adjacent and otherwise each row alone, bit
for bit as each would be alone.

Right after each runner, its entries' per-snapshot SINR is evaluated on
the analytic epoch covariances; a run that diverges stops in that block,
naming entry and snapshot. SINRs are averaged across runs in the linear
domain and update rates as per-run fractions. ``emit_csv`` writes the
aggregate in a fixed row order with 9 significant digits, so re-runs are
byte-identical.

Because of that contract, ``run_experiment`` may hand its work units to
this process and forked workers: a unit is run ``k`` for one group of the
roster, the whole roster while there are at least as many runs as
processes. Each unit seeds run ``k``'s generator itself and draws the
scenario, and advances only its group's entries; a gated stack may be
split, since each of its rows is bit for bit the lone filter. A whole-run
unit draws its snapshots too. Of a split run, only the unit of the first
group draws: block by block, it draws and forms a block, copies it into a
bounded ring shared with the run's other units, and then advances its own
group on it; the others read each block from the ring. The rows come back
to this process, which merges them by roster index and accumulates the
runs in run order, so every sum is formed as in one process and the CSV is
byte-identical for any ``workers``. If a unit fails, or the process at the
other end of its ring ends, the workers are stopped and run ``k`` is run
again here with the whole roster, which raises the one-process error with
its cause chain.
"""

from __future__ import annotations

import configparser
import hashlib
import inspect
import math
import os
import threading
from contextlib import closing
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real

import numpy as np

from .arrays import (
    ArrayGeometry,
    Scenario,
    SnapshotBlock,
    Source,
    desired_covariance,
    generate_snapshot,
    interference_covariance,
    steering_vector,
    total_covariance,
)
from .baselines import ConstrainedCg, ConstrainedRls, FrostSg, NonFiniteUpdate, mvdr_weights
from .bounds import FixedBound, PdbBound, PidbBound
from .metrics import COMPLEXITY_ALGORITHMS, complexity_counts, constraint_error_rows, sinr_linear
from .smcg import SmCgStack, SmCgState

_REQUIRED = inspect.Parameter.empty


def _keywords(cls) -> dict[str, object]:
    """The parameters of ``cls`` that a roster entry sets, with their defaults.

    A parameter without a default maps to ``_REQUIRED``. The engine passes
    the steering vector, gamma, the initial weights and the noise power.
    """
    return {
        name: p.default
        for name, p in inspect.signature(cls).parameters.items()
        if name not in ("steering", "gamma", "w0", "noise_power")
    }


# The parameters of each algorithm kind are those of the constructor they
# are passed to, which also owns their defaults and ranges and words each
# ValueError as "<parameter> ...". A default's type is the parameter's:
# a bool default makes a flag, any other default a finite number. An smcg
# entry sets the state's parameters and those of the policy ``bound`` picks.
_BOUNDS = {"fixed": FixedBound, "pdb": PdbBound, "pidb": PidbBound}
_DEFAULT_BOUND = "pidb"
_STATE_KEYWORDS = _keywords(SmCgState)
_SMCG_PARAMETERS = {
    bound: {"bound": _DEFAULT_BOUND, **_STATE_KEYWORDS, **_keywords(cls)}
    for bound, cls in _BOUNDS.items()
}
_FILTERS = {"sg": FrostSg, "rls": ConstrainedRls, "cg": ConstrainedCg}
_KIND_PARAMETERS = {**{kind: _keywords(cls) for kind, cls in _FILTERS.items()}, "mvdr": {}}

# Accepted-snapshot fractions costed in the complexity table: the selective
# algorithms at their observed rates, the data-selective CG at its reported
# reuse rate; the projection order of sm-ap and ds-cg.
_TAU = {
    "sm-sg": 0.198,
    "sm-rls": 0.063,
    "sm-ap": 0.137,
    "ds-cg": 0.221,
    "sm-cg": 0.06,
}
_PROJECTION_ORDER = 3
_LABEL_BREAKERS = frozenset(',"\n\r/\\\0')  # each breaks a CSV row or a file name

PRESET_NAMES = ("fig4", "fig5", "fig6", "fig8", "fig9")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


class RunDivergedError(RuntimeError):
    """A run produced non-finite values, or a filter step failed, and was aborted."""


@dataclass(frozen=True)
class AlgoSpec:
    """One roster entry: a unique label, an algorithm kind, parameters."""

    label: str
    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def get(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


def algo(label: str, kind: str, **params) -> AlgoSpec:
    """Convenience constructor keeping parameter order canonical."""
    return AlgoSpec(label=label, kind=kind, params=tuple(sorted(params.items())))


@dataclass(frozen=True)
class ExperimentConfig:
    label: str = "experiment"
    m: int = 16
    spacing_wavelengths: float = 0.5
    gamma: float = 1.0
    noise_power: float = 1.0
    snr_db: float = 10.0
    inr_db: float = 30.0
    desired_doa_deg: float = 90.0
    doa_min_deg: float = 20.0
    doa_max_deg: float = 160.0
    doa_guard_deg: float = 5.0
    epochs: tuple[tuple[int, int], ...] = ((1, 10),)
    n_snapshots: int = 3000
    runs: int = 50
    master_seed: int = 1
    algorithms: tuple[AlgoSpec, ...] = ()

    def validate(self) -> None:
        _check_label("label", self.label)
        for f in fields(self):
            if isinstance(f.default, (int, float)):
                _check_value(f.name, getattr(self, f.name), f.default, "finite")
        if self.m < 1:
            raise ConfigError("m must be at least 1")
        if not self.spacing_wavelengths > 0.0:
            raise ConfigError("spacing_wavelengths must be positive")
        if self.gamma == 0.0:
            raise ConfigError("gamma must be non-zero")
        if not self.noise_power > 0.0:
            raise ConfigError("noise_power must be positive")
        powers = {}
        for name in ("snr_db", "inr_db"):
            power = powers[name] = _source_power(self.noise_power, getattr(self, name))
            if not 0.0 < power < math.inf:
                raise ConfigError(
                    f"{name} gives the source power noise_power * 10^({name}/10) = "
                    f"{power!r}, not a positive finite float"
                )
        if not 0.0 <= self.desired_doa_deg <= 180.0:
            raise ConfigError("desired_doa_deg must lie in [0, 180]")
        if not 0.0 <= self.doa_min_deg < self.doa_max_deg <= 180.0:
            raise ConfigError("require 0 <= doa_min_deg < doa_max_deg <= 180")
        if self.doa_guard_deg < 0.0:
            raise ConfigError("doa_guard_deg must be non-negative")
        span_lo = self.desired_doa_deg - self.doa_guard_deg
        span_hi = self.desired_doa_deg + self.doa_guard_deg
        if span_lo <= self.doa_min_deg and span_hi >= self.doa_max_deg:
            raise ConfigError("doa_guard_deg excludes the whole interferer interval")
        for name in ("n_snapshots", "runs"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be at least 1")
            try:  # the engine keeps a float per roster entry and snapshot, and per run
                np.empty((len(self.algorithms) or 1, value))
            except (ValueError, MemoryError) as exc:
                raise ConfigError(f"{name} = {value!r} is too large: {exc}") from exc
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        try:  # NumPy refuses an array of m entries with a ValueError
            geometry = ArrayGeometry(self.m, self.spacing_wavelengths)
            with np.errstate(all="ignore"):  # a non-finite vector is refused below
                a0 = steering_vector(geometry, self.desired_doa_deg)
        except ValueError as exc:
            raise ConfigError(f"m = {self.m!r} gives no steering vector: {exc}") from exc
        if a0.size != self.m:  # np.arange wraps an m near 2**63 to an empty range
            raise ConfigError(f"m = {self.m!r} gives no steering vector: it has {a0.size} entries")
        if not np.isfinite(a0.view(float)).all():
            what = f"spacing_wavelengths = {self.spacing_wavelengths!r}"
            raise ConfigError(f"{what} makes the steering vector non-finite")
        if not self.epochs:
            raise ConfigError("epochs must not be empty")
        for entry in self.epochs:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
                raise ConfigError(f"epochs entry {entry!r} is not a (start, sources) pair")
            for value in entry:
                _check_value("epochs", value, 0, "finite")
        starts = [start for start, _ in self.epochs]
        if starts[0] != 1:
            raise ConfigError("epochs must start at snapshot 1")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigError("epochs starts must be strictly increasing")
        if starts[-1] > self.n_snapshots:
            raise ConfigError("epochs start beyond n_snapshots")
        for start, q in self.epochs:
            if q < 1:
                raise ConfigError(f"epochs entry at {start} needs at least one source")
            if q > self.m:
                raise ConfigError(f"epochs entry at {start} has more sources than sensors")
        q_max = max(q for _, q in self.epochs)
        total = powers["snr_db"] + (q_max - 1) * powers["inr_db"] + self.noise_power
        if not math.isfinite(total):
            raise ConfigError(
                f"snr_db and inr_db give the {q_max} sources of the largest epoch the total "
                f"received power {total!r}, not a finite float"
            )
        if not self.algorithms:
            raise ConfigError("algorithms must not be empty")
        labels = [spec.label for spec in self.algorithms]
        for label in labels:
            _check_label(f"algorithms[{label}]", label)
        if len(set(labels)) != len(labels):
            raise ConfigError("algorithms labels must be unique")
        for spec in self.algorithms:
            _validate_params(spec, a0, self.gamma, self.noise_power)

    def digest(self) -> str:
        text = repr(self)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check_label(where: str, label) -> None:
    """Refuse a label that would break a CSV row or the output file name."""
    if not isinstance(label, str) or not label or not _LABEL_BREAKERS.isdisjoint(label):
        raise ConfigError(
            f"{where} must be non-empty text without a comma, double quote, line break, "
            f"'/', '\\' or NUL, got {label!r}"
        )


def _check_value(where: str, value, default, finite: str) -> None:
    """Refuse, naming ``where``, a ``value`` that cannot stand for ``default``:
    a bool for a bool, else a number that is not a bool, NumPy's included:
    an integer for an int, any real for a float. A number must be finite as
    a float, which an integer beyond float range is not (``finite`` says so)."""
    kind = bool if isinstance(default, bool) else Integral if isinstance(default, int) else Real
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        noun = {bool: "true or false", Integral: "an integer"}.get(kind, "a finite number")
        raise ConfigError(f"{where} must be {noun}, got {value!r}")
    try:
        if kind is bool or math.isfinite(value):
            return
    except OverflowError:  # an int beyond float range
        pass
    raise ConfigError(f"{where} must be {finite}, got {value!r}")


def _parameters(where: str, kind: str, bound: str) -> tuple[dict[str, object], str]:
    """The parameters an entry of ``kind`` with ``bound`` takes, and their owner."""
    if kind == "smcg":
        if bound not in _SMCG_PARAMETERS:
            raise ConfigError(f"{where}.bound {bound!r} unknown")
        return _SMCG_PARAMETERS[bound], f"kind 'smcg' with bound {bound!r}"
    if kind not in _KIND_PARAMETERS:
        raise ConfigError(f"{where}.kind {kind!r} unknown")
    return _KIND_PARAMETERS[kind], f"kind {kind!r}"


def _validate_params(spec: AlgoSpec, a0: np.ndarray, gamma: float, noise_power: float) -> None:
    where = f"algorithms[{spec.label}]"
    names, owner = _parameters(where, spec.kind, spec.get("bound", _DEFAULT_BOUND))
    for key, value in spec.params:
        if key not in names:
            raise ConfigError(f"{where}.{key} is not a parameter of {owner}")
        if not isinstance(names[key], str):  # the bound, checked above
            _check_value(f"{where}.{key}", value, names[key], "a finite number")
    for key, default in names.items():
        if default is _REQUIRED and spec.get(key) is None:
            raise ConfigError(f"{where} {owner} needs {key}")
    # the constructors check the ranges, on the run's steering vector
    try:
        if spec.kind == "smcg":
            _gated_filter(spec, a0, gamma, noise_power)
        elif spec.kind in _FILTERS:
            _FILTERS[spec.kind](a0, gamma=gamma, **dict(spec.params))
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}") from exc


@dataclass
class AggregateResult:
    """Cross-run averages for one experiment configuration."""

    label: str
    runs: int
    n_snapshots: int
    master_seed: int
    config_digest: str
    algorithms: tuple[str, ...]
    mean_sinr_db: dict[str, np.ndarray]
    mean_delta: dict[str, np.ndarray]
    update_rate_cum: dict[str, np.ndarray]
    mean_update_rate: dict[str, float]
    max_constraint_error: dict[str, float]
    complexity: dict[str, tuple[float, float]] = field(default_factory=dict)


def _source_power(noise_power: float, db: float) -> float:
    """``noise_power * 10^(db/10)``; inf where the power overflows."""
    try:
        return noise_power * 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def build_scenario(config: ExperimentConfig, rng: np.random.Generator) -> Scenario:
    """Materialise one run's scenario, drawing interferer angles from ``rng``.

    Interferer angles are uniform over the configured interval with a guard
    band around the protected direction; rejected draws are redrawn, so the
    sequence is a pure function of the generator state.
    """
    geometry = ArrayGeometry(config.m, config.spacing_wavelengths)
    p_desired = _source_power(config.noise_power, config.snr_db)
    p_interf = _source_power(config.noise_power, config.inr_db)
    n_interf = max(q for _, q in config.epochs) - 1
    doas: list[float] = []
    while len(doas) < n_interf:
        cand = float(rng.uniform(config.doa_min_deg, config.doa_max_deg))
        if abs(cand - config.desired_doa_deg) <= config.doa_guard_deg:
            continue
        doas.append(cand)
    desired = Source(config.desired_doa_deg, p_desired)
    interf = tuple(Source(d, p_interf) for d in doas)
    epochs = tuple(
        (start, (desired,) + interf[: q - 1]) for start, q in config.epochs
    )
    return Scenario(
        geometry=geometry,
        epochs=epochs,
        noise_power=config.noise_power,
        n_snapshots=config.n_snapshots,
    )


def _diverged(what: str, label: str, snapshot: int) -> RunDivergedError:
    return RunDivergedError(f"{what} for algorithm {label!r} at snapshot {snapshot}")


class _Entry:
    """A runner of roster entries; this one steps a filter once per snapshot.

    Every runner lists its entries' roster indices in ``roster`` and holds
    their weights in ``w_out``, one ``(_BLOCK, m)`` row each. ``run(block,
    first, upd, dlt)`` advances them through a block of snapshots in one
    epoch, the first of them snapshot ``first``: on their rows of the
    roster-wide ``upd`` and ``dlt`` it writes whether each updated and its
    bound (zero but for a gated entry), and in ``w_out`` their weights, on
    column 0 and wherever they updated. A ``ValueError`` out of a step raises
    :class:`RunDivergedError` naming entry and snapshot.
    """

    def __init__(self, j: int, label: str, algo) -> None:
        self.roster, self.label, self.algo = [j], label, algo
        self.w_out = np.empty((1, _BLOCK, algo.w.size), dtype=complex)

    def run(self, block, first, upd, dlt) -> None:
        (j,) = self.roster
        algo, upd, w_out = self.algo, upd[j], self.w_out[0]
        for k, r in enumerate(block):
            try:
                algo.step(r)
            except ValueError as exc:
                raise _diverged(str(exc), self.label, first + k) from exc
            upd[k] = algo.updated
            w_out[k] = algo.w


def _gated_filter(spec: AlgoSpec, a0: np.ndarray, gamma: float, noise_power: float):
    """The ``(state, policy)`` of a gated entry, as the engine runs it."""
    params = dict(spec.params)
    policy = _BOUNDS[params.pop("bound", _DEFAULT_BOUND)]
    state_params = {k: params.pop(k) for k in _STATE_KEYWORDS if k in params}
    state = SmCgState(a0, gamma=gamma, **state_params)
    adaptive = () if policy is FixedBound else (state.w, noise_power)
    return state, policy(*adaptive, **params)


class _GatedStack:
    """The runner of the gated entries ``roster`` of ``specs``, advanced as
    the rows of one :class:`SmCgStack`.

    Per snapshot every row's policy is refreshed and its state stepped, in
    roster order, and the rows that accepted, each staged once, are
    committed in place. ``w^H r`` is formed for all rows with one
    ``vecdot``, which rounds each row as ``vdot``: one snapshot at a time
    right after an update, and after a streak of ``s`` snapshots that no
    row accepted, for the next ``4^s`` (up to the end of the block). A gate
    that alternates then forms few outputs it does not read, and a closed
    gate forms the rest of the block after its fifth rejection. A
    ``ValueError`` out of a step or an ``OverflowError`` out of a bound
    refresh or a gate fails, naming the row's entry. A stack of one commits
    inside ``step``.
    """

    def __init__(self, roster, specs, a0: np.ndarray, gamma: float, noise_power: float) -> None:
        filters = [_gated_filter(specs[j], a0, gamma, noise_power) for j in roster]
        self.roster, self.labels = roster, [specs[j].label for j in roster]
        self.w_out = np.empty((len(roster), _BLOCK, a0.size), dtype=complex)
        self.stack = SmCgStack([state for state, _ in filters])
        self.rows = [(b, state, policy, policy.update) for b, (state, policy) in enumerate(filters)]
        self.a0 = a0
        self.streak = 0  # snapshots since any row last updated

    def run(self, block, first, upd, dlt) -> None:
        stack, rows, w_out = self.stack, self.rows, self.w_out
        count = len(block)
        y0s = np.vecdot(self.a0, block).tolist()
        w_out[:, 0] = stack.w  # column 0's post-step weights unless it updates
        updated_flags, deltas = [], []
        flag, bound = updated_flags.append, deltas.append
        streak, ahead, start = self.streak, 0, 0  # outputs of block[start:ahead] formed
        for k, r in enumerate(block):
            if k >= ahead:
                start, ahead = k, k + min(4 ** min(streak, 4), count - k)
                outputs = np.vecdot(stack.w, block[start:ahead, None]).tolist()
            ys = outputs[k - start]
            y0 = y0s[k]
            accepted = False
            for b, state, policy, update in rows:
                y = ys[b]
                try:
                    update(y0, y, state.w)
                    delta = policy.delta
                    updated = state.step(r, delta, y).updated
                except ValueError as exc:
                    raise _diverged(str(exc), self.labels[b], first + k) from exc
                except OverflowError as exc:  # a float power in the bound or the gate
                    what = "bound or output beyond float range"
                    raise _diverged(what, self.labels[b], first + k) from exc
                flag(updated)
                bound(delta)
                if updated:
                    accepted = True
            if accepted:
                stack.commit()
                w_out[:, k] = stack.w
                streak, ahead = 0, k + 1
            else:
                streak += 1
        self.streak = streak
        shape = (count, len(rows))
        upd[self.roster] = np.reshape(updated_flags, shape).T
        dlt[self.roster] = np.reshape(deltas, shape).T


class _RlsEntry(_Entry):
    def run(self, block, first, upd, dlt) -> None:
        upd[self.roster] = True
        try:
            self.w_out[0, : len(block)] = self.algo.step(block)
        except NonFiniteUpdate as exc:
            raise _diverged("non-finite inverse covariance", self.label, first + exc.row) from exc


class _MvdrEntry:
    """The runner of an ``mvdr`` entry, weighted at each epoch start by its covariance."""

    def __init__(self, j: int, scenario: Scenario, a0: np.ndarray, gamma: float) -> None:
        self.roster, self.w_out = [j], np.empty((1, _BLOCK, a0.size), dtype=complex)
        self.scenario, self.a0, self.gamma = scenario, a0, gamma
        self.starts = {start for start, _ in scenario.epochs}

    def run(self, block, first, upd, dlt) -> None:
        if first in self.starts:  # its weights are read there only
            cov = total_covariance(self.scenario, first)
            self.w_out[0, 0] = mvdr_weights(cov, self.a0, self.gamma)


def _entry(j: int, spec: AlgoSpec, scenario: Scenario, a0: np.ndarray, gamma: float):
    """The runner of roster entry ``j``, of any kind but ``smcg``."""
    if spec.kind == "mvdr":
        return _MvdrEntry(j, scenario, a0, gamma)
    algo = _FILTERS[spec.kind](a0, gamma=gamma, **dict(spec.params))
    return (_RlsEntry if spec.kind == "rls" else _Entry)(j, spec.label, algo)


_COMPLEXITY_KIND = {"smcg": "sm-cg", "sg": "sg", "rls": "rls", "cg": "cg"}

# Snapshots per block: enough to amortise the batched SINR evaluation, few
# enough that the block buffers stay small next to the per-run traces.
_BLOCK = 256

_NONPOSITIVE = "the weights are finite but the interference-plus-noise output power is not positive"


def _blocks(scenario):
    """``(epoch start, first snapshot, count)`` of each block of a run, in
    order: at most ``_BLOCK`` snapshots, never straddling an epoch start."""
    n = scenario.n_snapshots
    starts = [start for start, _ in scenario.epochs] + [n + 1]
    for start, stop in zip(starts, starts[1:]):
        for first in range(start, stop, _BLOCK):
            yield start, first, min(_BLOCK, stop - first)


def _drawn(scenario, rng):
    """``(epoch start, first snapshot, rows)`` of each block of a run, drawn
    from ``rng`` one ``generate_snapshot`` call per snapshot and formed at
    once; the rows are a view that the next block overwrites."""
    snapshots = SnapshotBlock(scenario, _BLOCK, rng)
    for start, first, count in _blocks(scenario):
        for i in range(first, first + count):
            generate_snapshot(scenario, i, rng, snapshots)
        yield start, first, snapshots.form()


def _single_run(specs, gamma, scenario, blocks, a0):
    """Advance the roster entries ``specs`` through one run, block by block.

    ``blocks`` yields each block of the run as :func:`_drawn` does. Each
    runner advances through a block in roster order, the gated one where
    its first entry stands, and its entries are evaluated: the SINR and the
    constraint error in one batch for the snapshots where the entry updated
    or an epoch starts, carried forward in between. A runner reads the rows
    and never writes them.

    Raises :class:`RunDivergedError` naming the entry and the first snapshot
    of a SINR, a bound or a constraint error that is not finite. A SINR
    that is not a number for finite weights means that ``w^H R_in w``
    rounds to zero or below, as at an INR far above the noise floor (fig6
    at 170 dB), where the quadratic form cancels down to its rounding error.
    """
    n = scenario.n_snapshots
    n_alg = len(specs)
    gated = [j for j, spec in enumerate(specs) if spec.kind == "smcg"]
    runners = [_entry(j, specs[j], scenario, a0, gamma) for j in range(n_alg) if j not in gated]
    if gated:  # the stack advances where its first entry stands
        runners.insert(gated[0], _GatedStack(gated, specs, a0, gamma, scenario.noise_power))
    sinr_lin = np.empty((n_alg, n))
    delta_arr = np.zeros((n_alg, n))
    upd_arr = np.zeros((n_alg, n), dtype=bool)
    cons_err = np.zeros(n_alg)
    current = np.full(n_alg, math.nan)

    for start, first, rows in blocks:
        if first == start:
            des_cov = desired_covariance(scenario, start)
            int_cov = interference_covariance(scenario, start)
        count = len(rows)
        cols = slice(first - 1, first - 1 + count)
        upd, dlt = upd_arr[:, cols], delta_arr[:, cols]
        for runner in runners:
            runner.run(rows, first, upd, dlt)
            for j, w_rows in zip(runner.roster, runner.w_out):
                label = specs[j].label
                fresh = upd[j].copy()
                fresh[0] |= first == start
                idx = np.flatnonzero(fresh)
                vals = sinr_linear(w_rows[idx], des_cov, int_cov)
                bad = ~np.isfinite(vals)
                if bad.any():
                    b = np.argmax(bad)
                    finite = np.isfinite(w_rows[idx[b]].view(float)).all()
                    what = _NONPOSITIVE if finite and np.isnan(vals[b]) else "non-finite sinr"
                    raise _diverged(what, label, first + idx[b])
                bad = ~np.isfinite(dlt[j])
                if bad.any():
                    raise _diverged("non-finite bound", label, first + np.argmax(bad))
                errs = constraint_error_rows(w_rows[idx], a0, gamma)
                bad = ~np.isfinite(errs)
                if bad.any():
                    raise _diverged("non-finite weights", label, first + idx[np.argmax(bad)])
                cons_err[j] = np.fmax.reduce(errs, initial=cons_err[j])
                filled = np.concatenate(([current[j]], vals))[np.cumsum(fresh)]
                sinr_lin[j, cols] = filled
                current[j] = filled[-1]
    return sinr_lin, delta_arr, upd_arr, cons_err


def _run(config, k, roster, source=_drawn):
    """Run ``k`` of ``config`` for the roster entries ``roster``: their rows of
    ``(sinr_lin, delta_arr, upd_arr, cons_err)``, from a generator of its own.
    ``source(scenario, rng)`` yields the run's blocks, drawn here by default."""
    rng = np.random.default_rng(config.master_seed ^ k)
    scenario = build_scenario(config, rng)
    a0 = steering_vector(scenario.geometry, scenario.desired_doa_deg)
    specs = [config.algorithms[j] for j in roster]
    try:
        return _single_run(specs, config.gamma, scenario, source(scenario, rng), a0)
    except RunDivergedError as exc:
        raise RunDivergedError(f"run {k}: {exc}") from exc


# Cost of an entry per snapshot by kind, in microseconds at m = 16 (a
# 2-core x86 host, fig5, fig6 and fig9 at one run; SINR scoring included).
# A gated row costs 2-31 us as its gate accepts 5-100 % of the snapshots.
# A split run's first group also draws and forms the blocks, about 2.5 us
# per snapshot, which the other groups no longer pay. Timed alone on blocks
# drawn beforehand, so without the draw: cg 23.4, rls 10.1, sg 5.5, and a
# gated row 1.6-30.6 us as its gate accepts 1-100 %. The table is left as
# it was, and so is every split.
_COST = {"cg": 24.0, "rls": 10.0, "smcg": 10.0, "sg": 6.0, "mvdr": 0.0}


def _groups(specs, count: int) -> list[tuple[int, ...]]:
    """The roster split into at most ``count`` groups of balanced cost, the
    cheapest first, each in roster order: each entry, the costliest first,
    joins the cheapest group. No group holds only entries that cost nothing."""
    costs = [_COST[spec.kind] for spec in specs]
    loads = [[0.0, []] for _ in range(min(count, sum(cost > 0 for cost in costs) or 1))]
    for j in sorted(range(len(specs)), key=lambda j: -costs[j]):
        load = min(loads, key=lambda load: load[0])
        load[0] += costs[j]
        load[1].append(j)
    return [tuple(sorted(roster)) for _, roster in sorted(loads, key=lambda load: load[0])]


def _cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _plan(config: ExperimentConfig, workers) -> tuple[int, list[tuple[int, ...]]]:
    """The process count and the roster groups of ``run_experiment(config,
    workers)``; a work unit is one run of one group.

    Raises :class:`ConfigError` naming ``workers`` unless it is ``None`` or
    an integer of at least 1. ``workers``, the usable CPUs for ``None``, is
    capped at the usable CPUs and at the units. While there are at least as
    many runs as processes, the one group is the whole roster; otherwise
    each run's roster is split into enough groups to go round.
    """
    if workers is not None:
        _check_value("workers", workers, 0, "finite")
        if workers < 1:
            raise ConfigError(f"workers must be at least 1, got {workers!r}")
    count = min(_cpus(), workers or math.inf)
    groups = _groups(config.algorithms, math.ceil(count / config.runs))
    return min(count, config.runs * len(groups)), groups


def _fork_context():
    """The ``fork`` start method if forked workers may run here, else ``None``.

    They may not while other Python threads are alive (a fork copies only
    the calling thread), from a daemonic process (it may start none), or
    while ``run_experiment`` is bound to a wrapper: a tracer that wraps it
    by name counts calls in this process only.
    """
    if threading.active_count() > 1 or run_experiment is not _RUN_EXPERIMENT:
        return None
    import multiprocessing  # about 15 ms, paid only where workers run

    if "fork" not in multiprocessing.get_all_start_methods() or (
        multiprocessing.current_process().daemon
    ):
        return None
    return multiprocessing.get_context("fork")


# Blocks a split run's ring holds: 8 x _BLOCK x m complex values, 0.5 MB at
# m = 16. The drawer waits for a slot only when a reader is a whole ring
# behind, so a reader's start-up lag after the fork (a few blocks at most)
# never holds it up.
_RING = 8


def _count(fd: int, have: int, want: int) -> int:
    """Read one-byte messages from ``fd`` until ``want`` have come in all,
    ``have`` of them so far; the new total. EOF means the process at the
    other end is gone, and raises :class:`EOFError`."""
    while have < want:
        got = len(os.read(fd, _RING + 1))
        if not got:
            raise EOFError("the process at the other end of a snapshot stream ended")
        have += got
    return have


class _Stream:
    """The snapshot blocks of one split run, drawn once and read by every group.

    The process of the run's first group (0) draws and forms each block,
    copies it into slot ``b mod _RING`` of a ring held in an anonymous
    shared ``mmap``, and then advances its own group on it; the processes
    of the other groups (1, 2, ...) read it there. Per reader, one pipe
    carries a byte for each block published and another a byte for each
    block read, and a slot is written again only once every reader has read
    the block it held. Made before the fork; each pipe end is kept open only
    in its own process (:meth:`ends`), so a partner that ends is seen as EOF
    (:class:`EOFError`) or as ``EPIPE`` (:class:`BrokenPipeError`).
    """

    def __init__(self, m: int, readers: int, held: set[int]) -> None:
        """Add each pipe end to ``held`` as it is made, for the caller to close."""
        import mmap  # paid only where a run is split

        ring = mmap.mmap(-1, _RING * _BLOCK * m * np.dtype(complex).itemsize)
        self.ring = np.frombuffer(ring, complex).reshape(_RING, _BLOCK, m)
        self.ready, self.released = [], []
        for _ in range(readers):
            for pipes in (self.ready, self.released):
                pipes.append(os.pipe())
                held.update(pipes[-1])

    def ends(self, group: int) -> list[int]:
        """The pipe ends that the process of ``group`` keeps."""
        if group == 0:
            return [w for _, w in self.ready] + [r for r, _ in self.released]
        return [self.ready[group - 1][0], self.released[group - 1][1]]

    def source(self, group: int):
        """The block source of ``group``, for :func:`_run`."""
        return self._publish if group == 0 else lambda scenario, rng: self._receive(group, scenario)

    def _publish(self, scenario, rng):
        published = [w for _, w in self.ready]
        released = [r for r, _ in self.released]
        counts = [0] * len(released)
        for b, (start, first, rows) in enumerate(_drawn(scenario, rng)):
            for c, fd in enumerate(released):  # slot b mod _RING last held block b - _RING
                counts[c] = _count(fd, counts[c], b - _RING + 1)
            self.ring[b % _RING, : len(rows)] = rows
            for fd in published:
                os.write(fd, b"\0")
            yield start, first, rows

    def _receive(self, group: int, scenario):
        published, released = self.ready[group - 1][0], self.released[group - 1][1]
        ring = self.ring.view()
        ring.flags.writeable = False
        layout = list(_blocks(scenario))
        count = 0
        for b, (start, first, size) in enumerate(layout):
            if 0 < b <= len(layout) - _RING:  # done with b - 1; no wait on the last _RING
                os.write(released, b"\0")
            count = _count(published, count, b + 1)
            yield start, first, ring[b % _RING, :size]


def _serve(sender, config, units, inherited) -> None:
    """A forked worker's share: each unit's rows in order, up to ``None`` for
    the first that fails, which the parent then runs itself. The pipe ends
    ``inherited`` belong to other processes and are closed first."""
    for fd in inherited:
        os.close(fd)
    for unit in units:
        try:
            part = _run(config, *unit)
        except Exception:
            part = None
        sender.send(part)
        if part is None:
            return


def _forked(config, context, count, groups):
    """Yield the rows of each run in run order, worked out by this process
    and ``count - 1`` forked workers; return the first run left to run here.

    Unit ``u`` of ``(run, group)`` pairs in run order, then group order, is
    worked out by process ``u mod count``, this one being process 0. A run
    split into groups streams its blocks from its first group's process to
    the others (:class:`_Stream`); so that the streams cannot wait on each
    other, each process works out its units in order, and this one its own
    unit of a run before it takes the others' rows. The groups' rows are
    merged in roster order. A unit that fails stops the workers; this
    process then runs that run itself with the full roster, unless its own
    whole-run unit failed, whose error is raised as it is. No worker and no
    pipe end outlives the call.
    """
    split = len(groups) > 1
    units, ends, held = [], [set() for _ in range(count)], set()  # held: open here
    workers, pipes = [], []
    try:
        try:
            for k in range(config.runs):
                stream = _Stream(config.m, len(groups) - 1, held) if split else None
                for g, roster in enumerate(groups):
                    if split:
                        ends[len(units) % count].update(stream.ends(g))
                    units.append((k, roster, stream.source(g) if split else _drawn))
            for share in range(1, count):
                receiver, sender = context.Pipe(duplex=False)
                pipes.append(receiver)
                worker = context.Process(
                    target=_serve,
                    args=(sender, config, units[share::count], held - ends[share]),
                    daemon=True,
                )
                try:
                    worker.start()
                finally:
                    sender.close()
                    for fd in ends[share]:
                        os.close(fd)
                    held -= ends[share]
                workers.append(worker)
        except OSError:  # no pipe, ring or process could be made
            return 0
        for k in range(config.runs):
            first = k * len(groups)
            parts = [None] * len(groups)
            for g in sorted(range(len(groups)), key=lambda g: (first + g) % count != 0):
                share = (first + g) % count
                try:
                    if share == 0:
                        parts[g] = _run(config, *units[first + g])
                    else:
                        parts[g] = pipes[share - 1].recv()
                except Exception:  # here, EOFError or EPIPE from a stream, or a worker that died
                    if share == 0 and not split:
                        raise
                    return k
                if parts[g] is None:
                    return k
            if not split:
                yield parts[0]
                continue
            merged = [np.empty((len(config.algorithms), *a.shape[1:]), a.dtype) for a in parts[0]]
            for roster, part in zip(groups, parts):
                for whole, rows in zip(merged, part):
                    whole[list(roster)] = rows
            yield merged
        return config.runs
    finally:
        for worker in workers:
            worker.terminate()
            worker.join()
            worker.close()
        for receiver in pipes:
            receiver.close()
        for fd in held:
            os.close(fd)


def _runs(config, workers):
    """The rows of each run of ``config``, in run order."""
    count, groups = _plan(config, workers)
    context = _fork_context() if count > 1 else None
    start = (yield from _forked(config, context, count, groups)) if context else 0
    roster = range(len(config.algorithms))
    for k in range(start, config.runs):
        yield _run(config, k, roster)


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> AggregateResult:
    """Run all Monte-Carlo repetitions of ``config`` and aggregate them.

    ``workers`` processes share the runs, this one and forked workers: by
    default as many as there are usable CPUs, at most one per work unit (a
    run, or a group of a run's roster, see :func:`_plan`). A run split into
    groups is drawn once, by its first group's process, which streams each
    formed block to the others (:class:`_Stream`). The results are those of
    one process bit for bit. It runs in this process alone where
    ``workers`` is 1, where there is one unit, and where
    :func:`_fork_context` finds no fork. A split spends more CPU in all than
    one process, so callers that already run experiments side by side
    should pass 1.

    Raises :class:`RunDivergedError` in the block where a run diverges or
    a filter step fails, naming the run, the algorithm and the snapshot;
    nothing is dropped silently.
    """
    config.validate()
    labels = tuple(spec.label for spec in config.algorithms)
    n = config.n_snapshots
    n_alg = len(labels)
    acc_lin = np.zeros((n_alg, n))
    acc_delta = np.zeros((n_alg, n))
    acc_cum = np.zeros((n_alg, n))
    rates = np.zeros((n_alg, config.runs))
    max_cons = np.zeros(n_alg)
    steps = np.arange(1, n + 1, dtype=float)

    with closing(_runs(config, workers)) as runs:
        for k, (sinr_lin, delta_arr, upd_arr, cons_err) in enumerate(runs):
            acc_lin += sinr_lin
            acc_delta += delta_arr
            acc_cum += np.cumsum(upd_arr, axis=1) / steps
            rates[:, k] = upd_arr.sum(axis=1) / n
            np.maximum(max_cons, cons_err, out=max_cons)

    mean_lin = acc_lin / config.runs
    mean_db = 10.0 * np.log10(np.maximum(mean_lin, 1e-20))
    result = AggregateResult(
        label=config.label,
        runs=config.runs,
        n_snapshots=n,
        master_seed=config.master_seed,
        config_digest=config.digest(),
        algorithms=labels,
        mean_sinr_db={lab: mean_db[j] for j, lab in enumerate(labels)},
        mean_delta={lab: acc_delta[j] / config.runs for j, lab in enumerate(labels)},
        update_rate_cum={lab: acc_cum[j] / config.runs for j, lab in enumerate(labels)},
        mean_update_rate={lab: float(rates[j].mean()) for j, lab in enumerate(labels)},
        max_constraint_error={lab: float(max_cons[j]) for j, lab in enumerate(labels)},
    )
    for j, spec in enumerate(config.algorithms):
        kind = _COMPLEXITY_KIND.get(spec.kind)
        if kind is None:
            continue
        result.complexity[spec.label] = complexity_counts(
            kind, config.m, n, update_fraction=result.mean_update_rate[spec.label]
        )
    return result


_RUN_EXPERIMENT = run_experiment  # see _fork_context


def _formatted(values: np.ndarray) -> list[str]:
    """``f"{v:.9g}"`` of each float64 value; a run of bit-equal values is formatted once."""
    bits = values.view(np.int64)
    starts = np.empty(len(bits), dtype=bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    texts = np.array(["", *[f"{v:.9g}" for v in values[starts].tolist()]], dtype=object)
    return texts[np.cumsum(starts)].tolist()


def emit_csv(result: AggregateResult, path) -> None:
    """Write the aggregate as CSV, one row per (snapshot, algorithm).

    Rows are written ``_BLOCK`` snapshots at a time, so the text is never
    held whole. Within a block each column's values are formatted once per
    run of equal values: a bound or SINR that holds between updates repeats.
    """
    n = result.n_snapshots
    traces = (result.mean_sinr_db, result.mean_delta, result.update_rate_cum)
    with open(path, "w", newline="\n") as fh:
        fh.write("snapshot,algorithm,mean_sinr_db,mean_delta,update_rate_cum\n")
        for first in range(0, n, _BLOCK):
            cols = slice(first, min(first + _BLOCK, n))
            columns = [
                (lab, *(_formatted(trace[lab][cols]) for trace in traces))
                for lab in result.algorithms
            ]
            fh.write("".join(
                f"{first + k + 1},{lab},{sinr[k]},{delta[k]},{rate[k]}\n"
                for k in range(cols.stop - first)
                for lab, sinr, delta, rate in columns
            ))


def emit_complexity_table(path, m_values, n_snapshots: int = 1000) -> None:
    """Write per-run operation counts for every algorithm family."""
    lines = ["m,algorithm,update_fraction,projection_order,additions,multiplications"]
    for m in m_values:
        for name in COMPLEXITY_ALGORITHMS:
            tau = _TAU.get(name)
            adds, mults = complexity_counts(
                name, m, n_snapshots,
                update_fraction=tau,
                projection_order=_PROJECTION_ORDER,
            )
            tau_s = f"{tau:.9g}" if tau is not None else ""
            l_s = str(_PROJECTION_ORDER) if name in ("sm-ap", "ds-cg") else ""
            lines.append(f"{m},{name},{tau_s},{l_s},{adds:.9g},{mults:.9g}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _smcg_pidb(label="smcg", epsilon=9.82e-5) -> AlgoSpec:
    # Operating point tuned at the fig6 scenario (100 runs, master seed 1):
    # mean update rate 9.0%, final-200 SINR 1.96 dB off the analytic optimum,
    # steady bound (sigma/mean 0.3% over the last 500 snapshots).  Heavy
    # initial loading keeps the early gated updates from over-rotating the
    # weight vector while the bound is still settling.
    return algo(
        label, "smcg", bound="pidb", eta=0.5,
        epsilon=epsilon, varsigma=85.0, rho=0.90, r_hat_init=2450.0,
    )


def presets() -> dict[str, tuple[ExperimentConfig, ...]]:
    """The packaged experiment presets, keyed by name.

    Each value is a tuple of configurations sharing the preset's scenario;
    sweeps expand into one configuration per operating point. A preset
    names only what differs from the :class:`ExperimentConfig` defaults.
    """
    fixed_delta = math.sqrt(5.0)  # noise floor of 1.0 under every preset
    fig4 = ExperimentConfig(
        label="fig4",
        n_snapshots=4000,
        algorithms=(
            algo("smcg", "smcg", bound="fixed", delta=fixed_delta, eta=0.5),
            algo("rls", "rls"),
            algo("mvdr", "mvdr"),
        ),
    )
    fig5 = ExperimentConfig(
        label="fig5",
        inr_db=35.0,
        algorithms=(
            algo("smcg_d08", "smcg", bound="fixed", delta=0.8, eta=0.5),
            algo("smcg_d10", "smcg", bound="fixed", delta=1.0, eta=0.5),
            algo("smcg_d13", "smcg", bound="fixed", delta=1.3, eta=0.5),
            algo("smcg_pdb", "smcg", bound="pdb", eta=0.5),
            algo("smcg_pidb", "smcg", bound="pidb", eta=0.5),
            algo("mvdr", "mvdr"),
        ),
    )
    fig6 = ExperimentConfig(
        label="fig6",
        algorithms=(
            _smcg_pidb(),
            algo("sg", "sg"),
            algo("rls", "rls"),
            algo("cg", "cg"),
            algo("mvdr", "mvdr"),
        ),
    )
    fig8 = tuple(
        ExperimentConfig(
            label=f"fig8_snr{snr:02d}",
            snr_db=float(snr),
            algorithms=(_smcg_pidb(), algo("rls", "rls"), algo("mvdr", "mvdr")),
        )
        for snr in range(0, 31, 5)
    )
    # The tracking scenario carries stronger interference (INR 35 dB, 8 then
    # 12 sources), which inflates the innovation average and with it the
    # steady bound; a smaller epsilon keeps the gate breathing after the
    # epoch switch so that the recovery is not starved of updates.
    fig9 = ExperimentConfig(
        label="fig9",
        inr_db=35.0,
        epochs=((1, 8), (3000, 12)), n_snapshots=6000,
        algorithms=(_smcg_pidb(epsilon=3.7e-5), algo("rls", "rls"), algo("mvdr", "mvdr")),
    )
    return {
        "fig4": (fig4,),
        "fig5": (fig5,),
        "fig6": (fig6,),
        "fig8": fig8,
        "fig9": (fig9,),
    }


def preset(name: str, runs: int | None = None, master_seed: int | None = None):
    """Fetch a preset by name, optionally overriding runs and seed."""
    table = presets()
    if name not in table:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    given = (("runs", runs), ("master_seed", master_seed))
    overrides = {key: value for key, value in given if value is not None}
    return tuple(replace(c, **overrides) for c in table[name])


# --- flat key/value config files -------------------------------------------

# [run] holds these fields and [scenario] the other ones but ``algorithms``;
# each key's type is its field's default's.
_RUN_FIELDS = ("label", "runs", "master_seed")
_SECTION_FIELDS = {
    "run": {f.name: f.default for f in fields(ExperimentConfig) if f.name in _RUN_FIELDS},
    "scenario": {
        f.name: f.default
        for f in fields(ExperimentConfig)
        if f.name not in _RUN_FIELDS + ("algorithms",)
    },
}


def _to_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(f"{start}:{q}" for start, q in value)
    # repr keeps every digit, so the value reads back equal and the digest holds
    return repr(float(value)) if isinstance(value, float) else str(value)


def _from_text(where: str, text: str, default):
    """``text`` as a value of ``default``'s type, a number if there is none.

    The one tuple-valued key is ``epochs``. Raises :class:`ConfigError`
    naming ``where`` when ``text`` is not a value of that type.
    """
    text = text.strip()
    if isinstance(default, tuple):
        return _parse_epochs(text)
    if isinstance(default, bool):
        if text.lower() not in ("true", "false"):
            raise ConfigError(f"{where} must be true or false, got {text!r}")
        return text.lower() == "true"
    if isinstance(default, str):
        return text
    kind, noun = (int, "an integer") if isinstance(default, int) else (float, "a number")
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"{where} must be {noun}, got {text!r}") from exc


def _parse_epochs(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            start_s, q_s = item.split(":")
            out.append((int(start_s), int(q_s)))
        except ValueError as exc:
            raise ConfigError(f"epochs entry {item!r} is not start:sources") from exc
    return tuple(out)


def config_to_sections(config: ExperimentConfig) -> dict[str, dict[str, str]]:
    """Flatten a configuration into config-file sections."""
    sections = {
        section: {key: _to_text(getattr(config, key)) for key in keys}
        for section, keys in _SECTION_FIELDS.items()
    }
    for spec in config.algorithms:
        body = {"kind": spec.kind}
        body.update({k: _to_text(v) for k, v in spec.params})
        sections[f"algo:{spec.label}"] = body
    return sections


def sections_to_config(sections: dict[str, dict[str, str]]) -> ExperimentConfig:
    """Build a configuration from config-file sections."""
    for name in sections:
        if name not in _SECTION_FIELDS and not name.startswith("algo:"):
            raise ConfigError(f"section [{name}] is not run, scenario or algo:<label>")
    kwargs: dict[str, object] = {}
    for section, defaults in _SECTION_FIELDS.items():
        for key, text in sections.get(section, {}).items():
            if key not in defaults:
                raise ConfigError(f"{section}.{key} is not a recognised key")
            kwargs[key] = _from_text(f"{section}.{key}", text, defaults[key])
    specs = []
    for name, body in sections.items():
        if not name.startswith("algo:"):
            continue
        label = name.split(":", 1)[1]
        if "kind" not in body:
            raise ConfigError(f"algo:{label} is missing 'kind'")
        where = f"algorithms[{label}]"
        bound = body.get("bound", _DEFAULT_BOUND).strip()
        names, _ = _parameters(where, body["kind"], bound)
        # a key the kind does not take is kept as text for validate to name
        params = {
            key: _from_text(f"{where}.{key}", text, names[key]) if key in names else text
            for key, text in body.items()
            if key != "kind"
        }
        specs.append(algo(label, body["kind"], **params))
    if specs:
        kwargs["algorithms"] = tuple(specs)
    config = ExperimentConfig(**kwargs)
    config.validate()
    return config


def load_config_file(path) -> ExperimentConfig:
    """Read one experiment configuration from a flat key/value file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    return sections_to_config(sections)


def apply_overrides(
    sections: dict[str, dict[str, str]], overrides: list[str]
) -> dict[str, dict[str, str]]:
    """Apply ``section.key=value`` override strings to flattened sections."""
    out = {name: dict(body) for name, body in sections.items()}
    for item in overrides:
        try:
            target, value = item.split("=", 1)
            section, key = target.rsplit(".", 1)
        except ValueError as exc:
            raise ConfigError(f"override {item!r} is not section.key=value") from exc
        out.setdefault(section, {})[key] = value
    return out
