"""Self-tests of the benchmark, at a tiny size.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import smcgbeam  # noqa: E402
from smcgbeam import harness  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _assert_same_result(a, b) -> None:
    fa, fb = vars(a), vars(b)
    assert fa.keys() == fb.keys()
    for key, va in fa.items():
        vb = fb[key]
        if isinstance(va, dict):
            assert va.keys() == vb.keys(), key
            for lab in va:
                assert np.array_equal(va[lab], vb[lab]), (key, lab)
        else:
            assert va == vb, key


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tracing_keeps_results_and_self_times_sum_to_wall(workload, tmp_path):
    config = workloads.resolve(workload, 0, tiny=True)
    plain = smcgbeam.run_experiment(config)

    originals = (harness.generate_snapshot, smcgbeam.smcg.SmCgState.step)
    tracer = layers.Tracer()
    with layers.installed(tracer):
        t0 = time.perf_counter()
        traced = smcgbeam.run_experiment(config)
        smcgbeam.emit_csv(traced, tmp_path / "out.csv")
        wall = time.perf_counter() - t0
    assert (harness.generate_snapshot, smcgbeam.smcg.SmCgState.step) == originals

    _assert_same_result(plain, traced)
    table = tracer.span_table()
    assert np.all(table["self"] >= -1e-9)
    assert table["self"].sum() == pytest.approx(wall, rel=1e-2)
    assert set(table["run"][table["parent"] >= 0]) == set(range(config.runs))

    metrics = layers.layer_metrics(tracer, config, traced, wall, 1)
    names = [name for name, _ in layers.PER_LAYER]
    assert sorted(metrics) == sorted(set(names) - {"trace.overhead_ratio"})
    assert metrics["arrays.snapshot.calls"] == config.runs * config.n_snapshots


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_reported_with_its_unit(workload, trace, tmp_path):
    record = run.measure(workload, seed=0, seconds=0.5, trace=bool(trace),
                         out_dir=tmp_path, tiny=True)
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    reported = {name: m["unit"] for name, m in record["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in record["metrics"].values())
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())
    samples = record["samples"]
    assert len(samples["calibration_s"]) == len(samples["wall_s"]) >= 1
    assert len(samples["setup_calibration_s"]) == len(samples["setup_s"]) == run.SETUP_PROBES


def test_check_flags_each_kind_of_drift():
    ref = checks.load_reference("fig9-scene-change")[workloads.master_seed(0)]
    steps = np.arange(1, ref["n_snapshots"] + 1)

    def fake(sinr, accepted, cons=1e-15):
        cum = np.cumsum(accepted, axis=1) / steps / ref["runs"]
        algs = ref["algorithms"]
        return SimpleNamespace(
            algorithms=algs, runs=ref["runs"], n_snapshots=ref["n_snapshots"],
            mean_sinr_db=dict(zip(algs, sinr)), mean_delta=dict(zip(algs, 0 * sinr)),
            update_rate_cum=dict(zip(algs, cum)),
            mean_update_rate={a: float(c[-1]) for a, c in zip(algs, cum)},
            max_constraint_error={a: cons for a in algs}, complexity={},
        )

    sinr, acc = ref["sinr_db"], ref["accepted"]
    assert checks.check(fake(sinr, acc), ref) == []
    drifted = sinr.copy()
    drifted[0, 4500] += 1e-4
    assert checks.check(fake(drifted, acc), ref) == ["sinr"]
    moved = acc.copy()
    moved[0, 100] += 1 - 2 * min(moved[0, 100], 1)
    assert checks.check(fake(sinr, moved), ref) == ["updates"]
    assert checks.check(fake(sinr, acc, cons=1e-11), ref) == ["constraint"]
    broken = sinr.copy()
    broken[1, 10] = np.nan
    assert checks.check(fake(broken, acc), ref) == ["finite", "sinr"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6-mixed", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
