"""The benchmark's tracer self-test, run with the rest of the suite.

perfbench's tracer wraps the engine's per-call seams, among them the
snapshot draw, ``SmCgState.step``, ``compute_lambda1``, ``compute_alpha``,
the module's ``lambda1_root``, each baseline's ``step`` and each bound's
``update``. This runs its check that a traced run gives the untraced result
and reports every per-layer metric, on every workload at a tiny size, so a
change to those seams cannot silently break ``perfbench/run.py --trace 1``.
The rest of ``perfbench/test_bench.py`` starts subprocess probes and runs
on its own.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from test_bench import test_tracing_keeps_results_and_self_times_sum_to_wall  # noqa: E402, F401
