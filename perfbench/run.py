"""smcgbeam benchmark: preset workloads driven through the public API.

    python3 perfbench/run.py --workload fig6-mixed --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0

One benchmark run first times set-up in several fresh interpreters, then
starts one fresh worker process that runs the workload's experiments in a
closed loop, one client, for ``--seconds`` (see worker.py). The experiments
cycle through eight recorded master seeds, starting at ``--seed`` mod 8,
and every experiment's output is checked against the recorded reference
(see checks.py).

End-to-end metrics: ``steps_per_s`` (runs x snapshots x roster size over
``wall_s``), ``wall_s`` (median time from ``run_experiment`` to the CSV
closed), ``setup_s`` (median set-up time of a fresh interpreter) and
``peak_rss_mb`` (peak resident memory of the worker). The host's speed
drifts by up to a factor of two as other tenants load it, so each time is
scaled to a reference host by a calibration kernel timed next to it (see
hostspeed.py); the times as measured are printed and kept in the record
beside the scaled ones. Failed output checks count in ``failed`` and in
the printed ``failed_ratio``; whether every CSV matched the reference byte
for byte is printed as ``csv_identical``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced experiments and reports the per-layer metrics. Each
metric is printed by name with its unit; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The
full record, with the raw samples and a manifest of the machine and
versions, is written to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "smcgbeam"
OUT_DIR = HERE / "out"

# Fresh interpreters timed for set-up.
SETUP_PROBES = 5
# Allowance beyond --seconds for set-up probes, the last experiment and checks.
SLACK_S = 120.0

END_TO_END = (
    ("steps_per_s", "steps/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, timeout=timeout, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the smcgbeam sources the benchmark runs."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(str(path.relative_to(PACKAGE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _manifest(workload: str, seed: int, seconds: float, trace: bool, res: dict,
              load_before, load_after) -> dict:
    return {
        "git_commit": _git_commit(),
        "source_sha256": source_sha256(),
        "workload": workload,
        "seed": seed,
        "master_seeds": res["master_seeds"],
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "blas": res["blas"],
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            out_dir: Path = OUT_DIR, tiny: bool = False) -> dict:
    """One benchmark run of ``workload``; returns the full record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed)]
    if tiny:
        common.append("--tiny")
    timeout = seconds + SLACK_S
    load_before = os.getloadavg()
    probes = [_worker(common + ["--setup-only"], timeout) for _ in range(SETUP_PROBES)]
    res = _worker(
        common + ["--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(out_dir)],
        timeout,
    )
    load_after = os.getloadavg()
    setup = [p["setup_s"] for p in probes]
    setup_cals = [p["cal_s"] for p in probes]

    measured = {
        "wall_s": statistics.median(res["walls"]),
        "setup_s": statistics.median(setup),
    }
    if trace:
        metrics = res["per_layer"]
    else:
        wall = statistics.median(map(hostspeed.scaled, res["walls"], res["cals"]))
        values = {
            "steps_per_s": res["steps"] / wall,
            "wall_s": wall,
            "setup_s": statistics.median(
                hostspeed.scaled(t, cal, hostspeed.SETUP_DAMPING)
                for t, cal in zip(setup, setup_cals)
            ),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "failed_ratio": res["failed"] / res["attempted"],
        "failed_checks": res["failed_checks"],
        "csv_identical": res["csv_identical"],
        "measured": measured,
        "samples": {"wall_s": res["walls"], "calibration_s": res["cals"],
                    "setup_s": setup, "setup_calibration_s": setup_cals,
                    "traced_wall_s": res.get("traced_walls", []),
                    "traced_calibration_s": res.get("traced_cals", [])},
        "calibration_reference_s": hostspeed.REFERENCE_S,
        "steps_per_experiment": res["steps"],
        "shares": res.get("shares", {}),
        "notes": res.get("notes", []),
        "manifest": _manifest(workload, seed, seconds, trace, res, load_before, load_after),
    }
    path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = str(path)
    return record


def _print_record(workload: str, record: dict) -> None:
    seeds = record["manifest"]["master_seeds"]
    print(f"{workload}: {record['attempted']} experiments of "
          f"{record['steps_per_experiment']} snapshot-algorithm steps, "
          f"cycling master seeds {seeds[0]}, {seeds[1]}, ...")
    for name, metric in record["metrics"].items():
        print(f"  {name:30s} {metric['value']:.6g} {metric['unit']}")
    for name, value in record["measured"].items():
        print(f"  {name + ' as measured':30s} {value:.6g} s")
    print(f"  {'failed_ratio':30s} {record['failed_ratio']:.6g} ratio {record['failed_checks']}")
    print(f"  {'csv_identical':30s} {'yes' if record['csv_identical'] else 'no'}")
    for note in record["notes"]:
        print(f"  note: {note}")
    print(f"  record: {record['path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no smcgbeam sources under {PACKAGE.parent}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    for name in names:
        records[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        _print_record(name, records[name])
    if len(names) == 1:
        record = records[names[0]]
        summary = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{n}.{k}": m for n, r in records.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
