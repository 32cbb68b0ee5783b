"""Per-layer tracing of smcgbeam from outside the package.

:func:`installed` wraps the public functions and methods of each module
(``arrays``, ``bounds``, ``smcg``, ``baselines``, ``metrics``, ``harness``)
at runtime and restores them on exit. Every wrapped call records one span
``(name, start, end, parent span, run index, tag)`` in memory; the run
index counts ``build_scenario`` calls, which open each Monte-Carlo run.

A function is patched on every smcgbeam module that binds it, because
``harness`` imports ``generate_snapshot``, ``sinr_linear``, the covariance
helpers and ``mvdr_weights`` into its own namespace.

Wrappers only call through, so the RNG draw order and every result are
unchanged; the cost they add is reported as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import itertools
import time
from array import array
from contextlib import contextmanager

import numpy as np

import smcgbeam
from smcgbeam import arrays, baselines, bounds, harness, metrics, smcg
from smcgbeam.smcg import DegenerateLambdaError

_MODULES = (smcgbeam, arrays, bounds, smcg, baselines, metrics, harness)

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("arrays.snapshot.calls", "count"),
    ("arrays.snapshot.us_p50", "us"),
    ("arrays.snapshot.us_p99", "us"),
    ("arrays.snapshot.self_s", "s"),
    ("arrays.covariance.calls", "count"),
    ("arrays.covariance.self_s", "s"),
    ("bounds.update.calls", "count"),
    ("bounds.update.us_p50", "us"),
    ("bounds.update.self_s", "s"),
    ("smcg.step.calls", "count"),
    ("smcg.step.accept_ratio", "ratio"),
    ("smcg.step.reject_us_p50", "us"),
    ("smcg.step.accept_us_p50", "us"),
    ("smcg.step.accept_us_p99", "us"),
    ("smcg.commit.self_s", "s"),
    ("smcg.lambda1.calls", "count"),
    ("smcg.lambda1.us_p50", "us"),
    ("smcg.lambda1.self_s", "s"),
    ("smcg.lambda1.useful_ratio", "ratio"),
    ("smcg.lambda1.degenerate", "count"),
    ("smcg.lambda1.clamped", "count"),
    ("smcg.alpha.calls", "count"),
    ("smcg.alpha.us_p50", "us"),
    ("smcg.alpha.self_s", "s"),
    ("smcg.model_mults_per_s", "mult/s"),
    ("baselines.sg.calls", "count"),
    ("baselines.sg.us_p50", "us"),
    ("baselines.sg.self_s", "s"),
    ("baselines.rls.calls", "count"),
    ("baselines.rls.us_p50", "us"),
    ("baselines.rls.self_s", "s"),
    ("baselines.cg.calls", "count"),
    ("baselines.mvdr.calls", "count"),
    ("baselines.mvdr.self_s", "s"),
    ("metrics.sinr.calls", "count"),
    ("metrics.sinr.us_p50", "us"),
    ("metrics.sinr.self_s", "s"),
    ("metrics.sinr.per_step", "ratio"),
    ("harness.scenario.self_s", "s"),
    ("harness.loop.self_s", "s"),
    ("harness.loop.share", "ratio"),
    ("harness.csv.s", "s"),
    ("harness.csv.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)

COMPUTED_NOTE = (
    "smcg.model_mults_per_s is computed from the complexity_counts op-count "
    "model at the observed accept rate, divided by the measured smcg.step "
    "span time; the multiplications are not counted"
)


class Tracer:
    """In-memory span and counter store for one traced experiment.

    Spans are appended to a flat float array as they end, seven values
    each: ``(id, name, start, end, parent id, run, tag)``; ids count span
    starts, so a parent's id is known before its children end.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("d")
        self.stack: list[int] = [-1]
        self.ids = itertools.count()
        self.run = -1
        self.degenerate = 0
        self.clamped = 0
        self.useful = 0
        self.last_root: float | None = None

    def wrap(self, name: str, fn, tag=None):
        """``fn`` recording a span per call; ``tag(result)`` marks the span."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, ids, clock = self.spans, self.stack, self.ids, time.perf_counter

        def traced(*args, **kwargs):
            idx = next(ids)
            parent = stack[-1]
            run = self.run
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans.extend((idx, nid, t0, clock(), parent, run, 0))
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans.extend((idx, nid, t0, t1, parent, run, tag(out) if tag else 0))
            return out

        return traced

    def span_table(self) -> dict[str, np.ndarray]:
        """Spans as columns in start order, plus each span's self time."""
        rows = np.frombuffer(self.spans, dtype=float).reshape(-1, 7)
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        parent = rows[:, 4].astype(np.int64)
        dur = rows[:, 3] - rows[:, 2]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": rows[:, 1].astype(np.int64),
            "start": rows[:, 2],
            "end": rows[:, 3],
            "parent": parent,
            "run": rows[:, 5].astype(np.int64),
            "tag": rows[:, 6].astype(np.int64),
            "dur": dur,
            "self": dur - child,
        }


def _wrap_lambda1(tracer: Tracer, compute_lambda1, lambda1_root):
    """Count degenerate, clamped and useful solves around the λ1 span."""
    timed = tracer.wrap("smcg.lambda1", compute_lambda1)

    def root(*args, **kwargs):
        try:
            lam = lambda1_root(*args, **kwargs)
        except DegenerateLambdaError:
            tracer.degenerate += 1
            raise
        tracer.last_root = lam
        return lam

    def compute(state, r, delta):
        tracer.useful += state.lambda1_min < state.lambda1_max
        tracer.last_root = None
        lam = timed(state, r, delta)
        tracer.clamped += lam != tracer.last_root
        return lam

    return compute, root


def _wrap_scenario(tracer: Tracer, build_scenario):
    timed = tracer.wrap("harness.scenario", build_scenario)

    def build(config, rng):
        tracer.run += 1
        return timed(config, rng)

    return build


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced function and method for the duration of the block."""
    undo: list[tuple[object, str, object]] = []

    def patch_function(name, wrapper, original):
        for mod in _MODULES:
            if mod.__dict__.get(name) is original:
                undo.append((mod, name, original))
                setattr(mod, name, wrapper)

    def patch_method(cls, name, wrapper):
        undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    try:
        for name, span in (
            ("generate_snapshot", "arrays.snapshot"),
            ("desired_covariance", "arrays.covariance"),
            ("interference_covariance", "arrays.covariance"),
            ("total_covariance", "arrays.covariance"),
            ("mvdr_weights", "baselines.mvdr"),
            ("sinr_linear", "metrics.sinr"),
            ("run_experiment", "harness.loop"),
            ("emit_csv", "harness.csv"),
        ):
            original = getattr(harness, name)
            patch_function(name, tracer.wrap(span, original), original)
        patch_function(
            "build_scenario", _wrap_scenario(tracer, harness.build_scenario),
            harness.build_scenario,
        )
        compute, root = _wrap_lambda1(
            tracer, smcg.SmCgState.compute_lambda1, smcg.lambda1_root
        )
        patch_function("lambda1_root", root, smcg.lambda1_root)
        patch_method(smcg.SmCgState, "compute_lambda1", compute)
        patch_method(
            smcg.SmCgState, "step",
            tracer.wrap("smcg.step", smcg.SmCgState.step, tag=lambda res: int(res.updated)),
        )
        patch_method(
            smcg.SmCgState, "compute_alpha",
            tracer.wrap("smcg.alpha", smcg.SmCgState.compute_alpha),
        )
        for cls in (bounds.FixedBound, bounds.PdbBound, bounds.PidbBound):
            patch_method(cls, "update", tracer.wrap("bounds.update", cls.update))
        for cls, span in (
            (baselines.FrostSg, "baselines.sg"),
            (baselines.ConstrainedRls, "baselines.rls"),
            (baselines.ConstrainedCg, "baselines.cg"),
        ):
            patch_method(cls, "step", tracer.wrap(span, cls.step))
        yield
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def layer_metrics(tracer: Tracer, config, result, wall_s: float, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced experiment, without the overhead ratio."""
    table = tracer.span_table()
    out: dict[str, float] = {}

    def spans(name):
        # every span name is registered when the wrappers are installed
        return table["name"] == tracer.names.index(name)

    def self_s(mask):
        return float(table["self"][mask].sum())

    def us(mask, q):
        d = table["dur"][mask]
        return float(np.percentile(d, q) * 1e6) if d.size else 0.0

    for layer in ("arrays.snapshot", "bounds.update", "smcg.lambda1", "smcg.alpha",
                  "baselines.sg", "baselines.rls", "metrics.sinr"):
        mask = spans(layer)
        out[f"{layer}.calls"] = int(mask.sum())
        out[f"{layer}.us_p50"] = us(mask, 50)
        out[f"{layer}.self_s"] = self_s(mask)
    out["arrays.snapshot.us_p99"] = us(spans("arrays.snapshot"), 99)
    for layer in ("arrays.covariance", "baselines.mvdr"):
        mask = spans(layer)
        out[f"{layer}.calls"] = int(mask.sum())
        out[f"{layer}.self_s"] = self_s(mask)

    step = spans("smcg.step")
    accepted = step & (table["tag"] == 1)
    n_step = int(step.sum())
    out["smcg.step.calls"] = n_step
    out["smcg.step.accept_ratio"] = float(accepted.sum()) / n_step if n_step else 0.0
    out["smcg.step.reject_us_p50"] = us(step & ~accepted, 50)
    out["smcg.step.accept_us_p50"] = us(accepted, 50)
    out["smcg.step.accept_us_p99"] = us(accepted, 99)
    # an accepted step's children are exactly its λ1 and α spans
    out["smcg.commit.self_s"] = self_s(accepted)

    n_lam = out["smcg.lambda1.calls"]
    out["smcg.lambda1.useful_ratio"] = tracer.useful / n_lam if n_lam else 0.0
    out["smcg.lambda1.degenerate"] = tracer.degenerate
    out["smcg.lambda1.clamped"] = tracer.clamped

    mults = 0.0
    for spec in config.algorithms:
        if spec.kind == "smcg":
            rate = result.mean_update_rate[spec.label]
            mults += metrics.complexity_counts("sm-cg", config.m, config.n_snapshots, rate)[1]
        elif spec.kind == "cg":
            mults += metrics.complexity_counts("cg", config.m, config.n_snapshots)[1]
    step_s = float(table["dur"][step].sum())
    out["smcg.model_mults_per_s"] = mults * config.runs / step_s if step_s else 0.0

    out["baselines.cg.calls"] = int(spans("baselines.cg").sum())
    steps = config.runs * config.n_snapshots * len(config.algorithms)
    out["metrics.sinr.per_step"] = out["metrics.sinr.calls"] / steps
    out["harness.scenario.self_s"] = self_s(spans("harness.scenario"))
    out["harness.loop.self_s"] = self_s(spans("harness.loop"))
    out["harness.loop.share"] = out["harness.loop.self_s"] / wall_s
    out["harness.csv.s"] = float(table["dur"][spans("harness.csv")].sum())
    out["harness.csv.bytes"] = csv_bytes
    return out


def self_time_shares(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Share of the traced wall time spent in each span name's own code."""
    table = tracer.span_table()
    totals = np.bincount(table["name"], weights=table["self"], minlength=len(tracer.names))
    return {name: float(totals[i]) / wall_s for i, name in enumerate(tracer.names)}
