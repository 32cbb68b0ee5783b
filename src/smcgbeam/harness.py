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
entry of the roster sees the identical snapshot stream within a run and
adding or removing one changes no other entry's trace. The engine draws
each snapshot with one ``generate_snapshot`` call, in order, into a
``SnapshotBlock`` of at most ``_BLOCK`` snapshots that lies in one epoch;
the call makes only the draws, and the block then forms every snapshot
vector at once, bit for bit as one at a time. Each entry then runs
through the block: SG and CG one snapshot per step, RLS the whole block in
one call. The gated (``smcg``) entries run through it together, as the
rows of one ``SmCgStack``, a lone one as a stack of one: per snapshot each
row's bound is refreshed and its gate tested, and the rows that accept are
committed with one set of NumPy calls, bit for bit as each would be alone.

Per-snapshot SINR is evaluated against the analytic epoch covariances and
averaged across runs in the linear domain; update rates are averaged as
per-run fractions. ``emit_csv`` serialises the aggregate with a fixed row
order and 9 significant digits so re-runs are byte-identical.
"""

from __future__ import annotations

import configparser
import hashlib
import inspect
import math
from dataclasses import dataclass, field, fields, replace

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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
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
        if self.n_snapshots < 1:
            raise ConfigError("n_snapshots must be at least 1")
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        if not self.epochs:
            raise ConfigError("epochs must not be empty")
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
        if len(set(labels)) != len(labels):
            raise ConfigError("algorithms labels must be unique")
        for spec in self.algorithms:
            _validate_params(spec, self.m, self.gamma, self.noise_power)

    def digest(self) -> str:
        text = repr(self)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _parameters(where: str, kind: str, bound: str) -> tuple[dict[str, object], str]:
    """The parameters an entry of ``kind`` with ``bound`` takes, and their owner."""
    if kind == "smcg":
        if bound not in _SMCG_PARAMETERS:
            raise ConfigError(f"{where}.bound {bound!r} unknown")
        return _SMCG_PARAMETERS[bound], f"kind 'smcg' with bound {bound!r}"
    if kind not in _KIND_PARAMETERS:
        raise ConfigError(f"{where}.kind {kind!r} unknown")
    return _KIND_PARAMETERS[kind], f"kind {kind!r}"


def _validate_params(spec: AlgoSpec, m: int, gamma: float, noise_power: float) -> None:
    where = f"algorithms[{spec.label}]"
    names, owner = _parameters(where, spec.kind, spec.get("bound", _DEFAULT_BOUND))
    for key, value in spec.params:
        if key not in names:
            raise ConfigError(f"{where}.{key} is not a parameter of {owner}")
        default = names[key]
        if isinstance(default, str):
            continue  # the bound, checked above
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{where}.{key} must be true or false, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
    for key, default in names.items():
        if default is _REQUIRED and spec.get(key) is None:
            raise ConfigError(f"{where} {owner} needs {key}")
    # the constructors check the ranges; any valid steering vector will do
    a0 = np.ones(m, dtype=complex)
    try:
        if spec.kind == "smcg":
            _gated_filter(spec, a0, gamma, noise_power)
        else:
            _entry(spec, a0, gamma)
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


class _StepDiverged(Exception):
    """A filter step failed; carries what went wrong, the snapshot and, for a
    row of the gated stack, the row."""

    def __init__(self, what: str, snapshot: int, row: int | None = None) -> None:
        super().__init__(what, snapshot)
        self.what, self.snapshot, self.row = what, snapshot, row


class _Entry:
    """One roster entry of a run: its filter and the loop that advances it.

    ``run`` steps the filter once per snapshot of a block, all in one epoch,
    and writes its ``updated`` and ``w`` after each step into the given rows;
    a ``ValueError`` out of a step becomes :class:`_StepDiverged`. RLS steps
    the block in one call and MVDR keeps one weight vector per epoch; they
    write the weights on row 0 and on every row where they updated, and the
    engine reads no other rows of ``w_out``. The gated entries are advanced
    together by :class:`_GatedStack` instead.
    """

    def __init__(self, algo) -> None:
        self.algo = algo

    def start_epoch(self, scenario: Scenario, i: int) -> None:
        pass

    def run(self, block, first, upd, w_out) -> None:
        algo = self.algo
        for k, r in enumerate(block):
            try:
                algo.step(r)
            except ValueError as exc:
                raise _StepDiverged(str(exc), first + k) from exc
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
    """A run's gated entries, advanced as the rows of one :class:`SmCgStack`.

    ``run`` advances them through one block as ``_Entry.run`` does, with
    one leading row per entry in ``w_out``, and returns whether each entry
    updated and its bound as ``(entries, snapshots)`` arrays. Per snapshot
    every row's policy is refreshed and its state stepped, in roster order,
    and the rows that accepted are committed together. ``w^H r`` is formed
    for all rows with one ``vecdot``, which rounds each row as ``vdot``:
    one snapshot at a time right after an update, and after a streak of
    ``s`` snapshots that no row accepted, for the next ``4^s`` (up to the
    end of the block). A gate that alternates then forms few outputs it
    does not read, and a closed gate forms the rest of the block after its
    fifth rejection. A ``ValueError`` out of a step, or an
    ``OverflowError`` out of a bound refresh or a gate, becomes
    :class:`_StepDiverged` naming the row. A stack of one commits inside
    ``step``, so its ``commit`` returns at once.
    """

    def __init__(self, specs, a0: np.ndarray, gamma: float, noise_power: float) -> None:
        filters = [_gated_filter(spec, a0, gamma, noise_power) for spec in specs]
        self.stack = SmCgStack([state for state, _ in filters])
        self.rows = [(b, state, policy, policy.update) for b, (state, policy) in enumerate(filters)]
        self.a0 = a0
        self.streak = 0  # snapshots since any row last updated

    def run(self, block, first, w_out) -> tuple[np.ndarray, np.ndarray]:
        stack, rows = self.stack, self.rows
        count = len(block)
        y0s = np.vecdot(self.a0, block).tolist()
        w_out[:, 0] = stack.w  # row 0's post-step weights unless it updates
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
                    raise _StepDiverged(str(exc), first + k, b) from exc
                except OverflowError as exc:  # a float power in the bound or the gate
                    what = "bound or output beyond float range"
                    raise _StepDiverged(what, first + k, b) from exc
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
        return np.reshape(updated_flags, shape).T, np.reshape(deltas, shape).T


class _RlsEntry(_Entry):
    def run(self, block, first, upd, w_out) -> None:
        upd[:] = True
        try:
            w_out[: len(block)] = self.algo.step(block)
        except NonFiniteUpdate as exc:
            raise _StepDiverged("non-finite inverse covariance", first + exc.row) from exc


class _MvdrEntry(_Entry):
    def __init__(self, a0: np.ndarray, gamma: float) -> None:
        self.a0 = a0
        self.gamma = gamma

    def start_epoch(self, scenario: Scenario, i: int) -> None:
        self.w = mvdr_weights(total_covariance(scenario, i), self.a0, self.gamma)

    def run(self, block, first, upd, w_out) -> None:
        w_out[0] = self.w


def _entry(spec: AlgoSpec, a0: np.ndarray, gamma: float) -> _Entry:
    """The roster entry of a spec of any kind but ``smcg``."""
    if spec.kind == "mvdr":
        return _MvdrEntry(a0, gamma)
    algo = _FILTERS[spec.kind](a0, gamma=gamma, **dict(spec.params))
    return _RlsEntry(algo) if spec.kind == "rls" else _Entry(algo)


_COMPLEXITY_KIND = {"smcg": "sm-cg", "sg": "sg", "rls": "rls", "cg": "cg"}

# Snapshots per block: enough to amortise the batched SINR evaluation, few
# enough that the block buffers stay small next to the per-run traces.
_BLOCK = 256


def _single_run(config, scenario, rng, a0, run=0):
    """Advance every roster entry through one run, block by block.

    Blocks never straddle an epoch start. Within a block the snapshots are
    drawn first, one ``generate_snapshot`` call each, and formed at once;
    then each entry runs through all of them, the gated entries as one
    stack where the first of them stands in the roster. The SINR and the
    constraint error are evaluated in one batch for the snapshots where the
    entry updated or an epoch starts, and carried forward in between. A
    failed step is reported for the first gated entry that fails in
    snapshot order, then roster order.

    Raises :class:`RunDivergedError` where finite weights give an
    interference-plus-noise output power ``w^H R_in w`` that rounds to zero
    or below. That happens at an INR far above the noise floor (fig6 at
    170 dB), where the quadratic form cancels down to its rounding error.
    """
    n = scenario.n_snapshots
    specs = config.algorithms
    n_alg = len(specs)
    gated = [j for j, spec in enumerate(specs) if spec.kind == "smcg"]
    stack_row = {j: b for b, j in enumerate(gated)}
    entries = {j: _entry(spec, a0, config.gamma) for j, spec in enumerate(specs) if j not in gated}
    if gated:
        stack = _GatedStack([specs[j] for j in gated], a0, config.gamma, scenario.noise_power)
    sinr_lin = np.empty((n_alg, n))
    delta_arr = np.zeros((n_alg, n))
    upd_arr = np.zeros((n_alg, n), dtype=bool)
    cons_err = np.zeros(n_alg)
    current = np.full(n_alg, math.nan)
    snapshots = SnapshotBlock(scenario, _BLOCK, rng)
    w_block = np.empty((_BLOCK, scenario.geometry.n_sensors), dtype=complex)
    w_gated = np.empty((len(gated),) + w_block.shape, dtype=complex)
    starts = [start for start, _ in scenario.epochs] + [n + 1]

    for start, stop in zip(starts, starts[1:]):
        des_cov = desired_covariance(scenario, start)
        int_cov = interference_covariance(scenario, start)
        for entry in entries.values():
            entry.start_epoch(scenario, start)
        for first in range(start, stop, _BLOCK):
            count = min(_BLOCK, stop - first)
            for i in range(first, first + count):
                generate_snapshot(scenario, i, rng, snapshots)
            rows = snapshots.form()
            cols = slice(first - 1, first - 1 + count)
            for j in range(n_alg):
                b = stack_row.get(j)
                try:
                    if b is None:
                        entries[j].run(rows, first, upd_arr[j, cols], w_block)
                        w_rows = w_block
                    else:
                        if b == 0:  # the stack advances where its first entry stands
                            upd_arr[gated, cols], delta_arr[gated, cols] = stack.run(
                                rows, first, w_gated
                            )
                        w_rows = w_gated[b]
                except _StepDiverged as exc:
                    label = config.algorithms[j if exc.row is None else gated[exc.row]].label
                    raise RunDivergedError(
                        f"run {run}: {exc.what} for algorithm {label!r} at snapshot {exc.snapshot}"
                    ) from exc
                fresh = upd_arr[j, cols].copy()
                fresh[0] |= first == start
                idx = np.flatnonzero(fresh)
                vals = sinr_linear(w_rows[idx], des_cov, int_cov)
                failed = np.isnan(vals)
                if failed.any():
                    row = idx[np.argmax(failed)]
                    if np.isfinite(w_rows[row].view(float)).all():
                        raise RunDivergedError(
                            f"run {run}: the weights are finite but the interference-plus-"
                            f"noise output power is not positive for algorithm "
                            f"{config.algorithms[j].label!r} at snapshot {first + row}"
                        )
                ok = idx[~failed]
                errs = constraint_error_rows(w_rows[ok], a0, config.gamma)
                cons_err[j] = np.fmax.reduce(errs, initial=cons_err[j])
                filled = np.concatenate(([current[j]], vals))[np.cumsum(fresh)]
                sinr_lin[j, cols] = filled
                current[j] = filled[-1]
    return sinr_lin, delta_arr, upd_arr, cons_err


def run_experiment(config: ExperimentConfig) -> AggregateResult:
    """Run all Monte-Carlo repetitions of ``config`` and aggregate them.

    Raises :class:`RunDivergedError` the moment any run records a
    non-finite SINR or bound, naming the run, algorithm and
    snapshot; nothing is dropped silently.
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

    for k in range(config.runs):
        rng = np.random.default_rng(config.master_seed ^ k)
        scenario = build_scenario(config, rng)
        a0 = steering_vector(scenario.geometry, scenario.desired_doa_deg)
        sinr_lin, delta_arr, upd_arr, cons_err = _single_run(config, scenario, rng, a0, k)
        for name, arr in (("sinr", sinr_lin), ("bound", delta_arr)):
            if not np.all(np.isfinite(arr)):
                j, col = np.argwhere(~np.isfinite(arr))[0]
                raise RunDivergedError(
                    f"run {k}: non-finite {name} for algorithm "
                    f"{labels[j]!r} at snapshot {col + 1}"
                )
        if not np.all(np.isfinite(cons_err)):
            j = int(np.argwhere(~np.isfinite(cons_err))[0][0])
            raise RunDivergedError(
                f"run {k}: non-finite weights for algorithm {labels[j]!r}"
            )
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


def _smcg_pidb(label="smcg") -> AlgoSpec:
    # Operating point tuned at the fig6 scenario (100 runs, master seed 1):
    # mean update rate 9.0%, final-200 SINR 1.96 dB off the analytic optimum,
    # steady bound (sigma/mean 0.3% over the last 500 snapshots).  Heavy
    # initial loading keeps the early gated updates from over-rotating the
    # weight vector while the bound is still settling.
    return algo(
        label, "smcg", bound="pidb", eta=0.5,
        epsilon=9.82e-5, varsigma=85.0, rho=0.90, r_hat_init=2450.0,
    )


def presets() -> dict[str, tuple[ExperimentConfig, ...]]:
    """The packaged experiment presets, keyed by name.

    Each value is a tuple of configurations sharing the preset's scenario;
    sweeps expand into one configuration per operating point.
    """
    fixed_delta = math.sqrt(5.0)  # noise floor of 1.0 under every preset
    fig4 = ExperimentConfig(
        label="fig4",
        snr_db=10.0, inr_db=30.0,
        epochs=((1, 10),), n_snapshots=4000,
        algorithms=(
            algo("smcg", "smcg", bound="fixed", delta=fixed_delta, eta=0.5),
            algo("rls", "rls"),
            algo("mvdr", "mvdr"),
        ),
    )
    fig5 = ExperimentConfig(
        label="fig5",
        snr_db=10.0, inr_db=35.0,
        epochs=((1, 10),), n_snapshots=3000,
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
        snr_db=10.0, inr_db=30.0,
        epochs=((1, 10),), n_snapshots=3000,
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
            snr_db=float(snr), inr_db=30.0,
            epochs=((1, 10),), n_snapshots=3000,
            algorithms=(_smcg_pidb(), algo("rls", "rls"), algo("mvdr", "mvdr")),
        )
        for snr in range(0, 31, 5)
    )
    # The tracking scenario carries stronger interference (INR 35 dB, 8 then
    # 12 sources), which inflates the innovation average and with it the
    # steady bound; a smaller epsilon keeps the gate breathing after the
    # epoch switch so that the recovery is not starved of updates.
    fig9_smcg = algo(
        "smcg", "smcg", bound="pidb", eta=0.5,
        epsilon=3.7e-5, varsigma=85.0, rho=0.90, r_hat_init=2450.0,
    )
    fig9 = ExperimentConfig(
        label="fig9",
        snr_db=10.0, inr_db=35.0,
        epochs=((1, 8), (3000, 12)), n_snapshots=6000,
        algorithms=(fig9_smcg, algo("rls", "rls"), algo("mvdr", "mvdr")),
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
    return with_runs_and_seed(table[name], runs, master_seed)


def with_runs_and_seed(configs, runs: int | None = None, master_seed: int | None = None):
    """``configs`` with ``runs`` and ``master_seed`` replaced where given."""
    given = {"runs": runs, "master_seed": master_seed}
    overrides = {key: value for key, value in given.items() if value is not None}
    return tuple(replace(c, **overrides) for c in configs)


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
    if not out:
        raise ConfigError("epochs must not be empty")
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
