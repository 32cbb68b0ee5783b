"""Record the output reference the benchmark checks against.

    python3 perfbench/record_reference.py [--workload NAME ...]

For every workload and every catalog seed, runs the experiment once and
stores in ``perfbench/reference/<workload>.npz``: the per-snapshot mean
SINR in dB (float32), the per-snapshot count of runs that accepted the
snapshot, the CSV sha256 and the max constraint error. Re-record only on
purpose, when a change is allowed to move the output; the benchmark then
checks later commits against the new reference.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import workloads
from run import source_sha256

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import checks
    import smcgbeam

    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    csv_path = HERE / "out" / "reference.csv"
    csv_path.parent.mkdir(exist_ok=True)

    for name in args.workload or workloads.WORKLOADS:
        seeds, sinr, accepted, sha, cons = [], [], [], [], []
        for config in workloads.catalog(name, 0):
            result = smcgbeam.run_experiment(config)
            smcgbeam.emit_csv(result, csv_path)
            sha.append(checks.file_sha256(csv_path))
            seeds.append(config.master_seed)
            sinr.append(checks.sinr_db(result).astype(np.float32))
            accepted.append(checks.accepted_counts(result).astype(np.uint16))
            cons.append([result.max_constraint_error[a] for a in result.algorithms])
            print(f"{name} master seed {config.master_seed}: max constraint error "
                  f"{max(cons[-1]):.2e}", flush=True)
        np.savez_compressed(
            out_dir / f"{name}.npz",
            master_seeds=np.array(seeds),
            algorithms=np.array(result.algorithms),
            runs=config.runs,
            n_snapshots=config.n_snapshots,
            sinr_db=np.stack(sinr),
            accepted=np.stack(accepted),
            csv_sha256=np.array(sha),
            max_constraint_error=np.array(cons),
            source_sha256=source_sha256(),
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
