"""One fresh process that sets up a workload and runs it in a closed loop.

``--setup-only`` stops after set-up and reports its time; run.py starts
several such probes and one full worker per benchmark run. The full worker
runs one experiment at a time (``run_experiment`` then ``emit_csv``) until
``--seconds`` would be exceeded, checks every experiment's output, and
prints one JSON line with the raw samples. The first experiment warms the
process up: it is checked but not timed. With ``--trace 1`` it alternates
untraced and traced experiments, so both see the same machine state.

The calibration kernel of hostspeed.py is timed once before the first
experiment and once after each, outside the timed region; each experiment
is reported with the mean of the calibrations on either side of it, and a
set-up probe with the calibration that follows its set-up.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smcgbeam"


def _blas_build():
    """NumPy's BLAS/LAPACK build description from ``numpy.show_config``."""
    import numpy as np

    config = np.show_config(mode="dicts")
    return config.get("Build Dependencies", config)


def run_loop(configs, workload: str, seconds: float, trace: bool, tiny: bool,
             out_dir: Path) -> dict:
    import numpy as np

    import checks
    import hostspeed
    import layers
    import smcgbeam

    references = {} if tiny else checks.load_reference(workload)
    csv_path = out_dir / f"{workload}.csv"
    walls = {False: [], True: []}
    cals = {False: [], True: []}
    failed_checks: dict[str, int] = {}
    attempted = failed = 0
    csv_identical = not tiny
    layer_samples: list[dict] = []
    share_samples: list[dict] = []
    tracer = None

    start = time.perf_counter()
    cal_before = hostspeed.calibrate()
    for j in itertools.count():
        config = configs[j % len(configs)]
        reference = references.get(config.master_seed)
        if not tiny and reference is None:
            raise KeyError(f"no reference for {workload} at master seed {config.master_seed}")
        pair_start = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            tracer = layers.Tracer() if traced else None
            attempted += 1
            try:
                with layers.installed(tracer) if traced else nullcontext():
                    t0 = time.perf_counter()
                    result = smcgbeam.run_experiment(config)
                    smcgbeam.emit_csv(result, csv_path)
                    wall = time.perf_counter() - t0
            except smcgbeam.RunDivergedError:
                result = None
            cal_after = hostspeed.calibrate()
            cal, cal_before = (cal_before + cal_after) / 2, cal_after
            if result is None:
                failed += 1
                failed_checks["diverged"] = failed_checks.get("diverged", 0) + 1
                continue
            if j or traced:
                walls[traced].append(wall)
                cals[traced].append(cal)
            bad = checks.check(result, reference)
            for name in bad:
                failed_checks[name] = failed_checks.get(name, 0) + 1
            failed += bool(bad)
            if reference is not None:
                csv_identical &= checks.file_sha256(csv_path) == reference["csv_sha256"]
            if traced:
                csv_bytes = csv_path.stat().st_size
                layer_samples.append(layers.layer_metrics(tracer, config, result, wall, csv_bytes))
                share_samples.append(layers.self_time_shares(tracer, wall))
        elapsed = time.perf_counter() - start
        if walls[False] and elapsed + (time.perf_counter() - pair_start) > seconds:
            break

    out = {
        "attempted": attempted,
        "failed": failed,
        "failed_checks": failed_checks,
        "csv_identical": csv_identical,
        "walls": walls[False],
        "cals": cals[False],
        "steps": config.runs * config.n_snapshots * len(config.algorithms),
        "master_seeds": [c.master_seed for c in configs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": _blas_build(),
    }
    if trace and layer_samples:
        # median_low keeps each value one experiment's own, so counts stay whole
        per_layer = {
            name: statistics.median_low([s[name] for s in layer_samples])
            for name in layer_samples[0]
        }
        per_layer["trace.overhead_ratio"] = (
            statistics.median(map(hostspeed.scaled, walls[True], cals[True]))
            / statistics.median(map(hostspeed.scaled, walls[False], cals[False])) - 1.0
        )
        out["per_layer"] = {
            name: {"value": per_layer[name], "unit": unit} for name, unit in layers.PER_LAYER
        }
        out["traced_walls"] = walls[True]
        out["traced_cals"] = cals[True]
        out["shares"] = {
            name: statistics.median([s.get(name, 0.0) for s in share_samples])
            for name in share_samples[0]
        }
        out["notes"] = [layers.COMPUTED_NOTE]
        table = tracer.span_table()
        np.savez_compressed(
            out_dir / f"{workload}-spans.npz",
            names=np.array(tracer.names),
            name=table["name"].astype(np.int16),
            start=table["start"] - table["start"][0],
            end=table["end"] - table["start"][0],
            parent=table["parent"].astype(np.int32),
            run=table["run"].astype(np.int16),
            tag=table["tag"].astype(np.int8),
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no smcgbeam sources under {PACKAGE.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))

    t0 = time.perf_counter()
    import smcgbeam

    configs = workloads.catalog(args.workload, args.seed, args.tiny)
    setup_s = time.perf_counter() - t0

    if Path(smcgbeam.__file__).resolve().parent != PACKAGE:
        print(f"error: imported smcgbeam from {smcgbeam.__file__}", file=sys.stderr)
        return 2
    out = {"setup_s": setup_s}
    if args.setup_only:
        import hostspeed  # imported after the timer stops, since it imports numpy

        out["cal_s"] = hostspeed.calibrate()
    else:
        out.update(run_loop(configs, args.workload, args.seconds, bool(args.trace),
                            args.tiny, args.out))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
