"""Output checks of one experiment against the recorded reference.

A reference (``reference/<workload>.npz``, written by record_reference.py)
holds, for each catalog master seed, the per-snapshot mean SINR in dB, the
per-snapshot number of runs whose filter accepted the snapshot, the CSV
sha256 and the max constraint error. The checks:

- ``finite``: every value of the aggregate is finite;
- ``updates``: per-algorithm accepted counts equal the reference at every
  snapshot, so every gate decision is unchanged;
- ``sinr``: ``mean_sinr_db`` is within ``SINR_TOL_DB`` of the reference at
  every snapshot;
- ``constraint``: the max ``|w^H a0 - gamma|`` stays under
  ``CONSTRAINT_CEILING``.

A CSV that differs from the reference in its last digits is reported
separately and is not a failure.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# Float32 storage of the reference rounds a value by at most 8e-6 dB down
# to the -200 dB SINR floor; the tolerance leaves room above that for
# last-digit drift from a changed summation order.
SINR_TOL_DB = 2e-5
# The constraint error is at most 4.2e-15 on every preset today.
CONSTRAINT_CEILING = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def accepted_counts(result) -> np.ndarray:
    """Runs accepting each snapshot, per algorithm, from the cumulative rates."""
    steps = np.arange(1, result.n_snapshots + 1)
    cum = np.stack([result.update_rate_cum[a] for a in result.algorithms])
    totals = cum * steps * result.runs
    rounded = np.rint(totals)
    if not np.all(np.abs(totals - rounded) < 1e-6):
        raise ValueError("update_rate_cum does not encode whole update counts")
    return np.diff(rounded.astype(np.int64), prepend=0, axis=1)


def sinr_db(result) -> np.ndarray:
    return np.stack([result.mean_sinr_db[a] for a in result.algorithms])


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_reference(workload: str) -> dict[int, dict]:
    """The recorded reference of ``workload``, keyed by master seed."""
    with np.load(REFERENCE_DIR / f"{workload}.npz") as data:
        shape = {
            "algorithms": tuple(str(a) for a in data["algorithms"]),
            "runs": int(data["runs"]),
            "n_snapshots": int(data["n_snapshots"]),
        }
        return {
            int(seed): {
                **shape,
                "sinr_db": data["sinr_db"][k].astype(np.float64),
                "accepted": data["accepted"][k].astype(np.int64),
                "csv_sha256": str(data["csv_sha256"][k]),
            }
            for k, seed in enumerate(data["master_seeds"])
        }


def check(result, reference: dict | None) -> list[str]:
    """Names of the checks ``result`` fails; the reference part needs ``reference``."""
    failed = []
    values = [*result.mean_sinr_db.values(), *result.mean_delta.values(),
              *result.update_rate_cum.values(),
              list(result.mean_update_rate.values()),
              list(result.max_constraint_error.values()),
              [x for pair in result.complexity.values() for x in pair]]
    if not all(np.all(np.isfinite(v)) for v in values):
        failed.append("finite")
    if max(result.max_constraint_error.values()) > CONSTRAINT_CEILING:
        failed.append("constraint")
    if reference is None:
        return failed
    shape = (reference["algorithms"], reference["runs"], reference["n_snapshots"])
    if shape != (result.algorithms, result.runs, result.n_snapshots):
        return failed + ["updates", "sinr"]
    try:
        counts_equal = np.array_equal(accepted_counts(result), reference["accepted"])
    except ValueError:
        counts_equal = False
    if not counts_equal:
        failed.append("updates")
    err = np.abs(sinr_db(result) - reference["sinr_db"])
    if not np.all(err <= SINR_TOL_DB):
        failed.append("sinr")
    return failed
