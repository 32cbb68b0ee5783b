"""The benchmark's workloads and how a seed becomes an experiment config.

Each workload is one packaged preset at a fixed Monte-Carlo size. The
config is resolved the way ``smcgbeam run`` resolves it: ``preset`` (with
the ``--runs``/``--seed`` equivalents), then ``--set`` overrides, which
round-trip the config through its flat sections and validate it.

This module imports ``smcgbeam`` only inside :func:`resolve`, so the
set-up timer in ``worker.py`` starts before the package is imported.
"""

from __future__ import annotations

from dataclasses import dataclass

# The benchmark's experiments use a catalog of recorded master seeds, one
# reference per entry (see record_reference.py). A run cycles through the
# whole catalog starting at entry ``seed mod CATALOG_SIZE``, so every run
# does the same mix of work whatever its seed. Stepping by 1024 keeps the
# per-run seeds ``master_seed XOR k`` of different entries disjoint.
CATALOG_SIZE = 8
_SEED_STRIDE = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    runs: int
    tiny_overrides: tuple[str, ...]


# One run per experiment, about 0.5-1.2 s on a 2-core x86 host, so a 30 s
# run reports the median of 25-45 experiments; short experiments spread
# host slowdowns over many samples, and the calibration timed next to each
# (hostspeed.py) tracks the speed the host had while it ran.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig6-mixed", "fig6", 1, ("scenario.n_snapshots=300",)),
        Workload("fig5-gate-open", "fig5", 1, ("scenario.n_snapshots=300",)),
        Workload(
            "fig9-scene-change", "fig9", 1,
            ("scenario.n_snapshots=400", "scenario.epochs=1:8,200:12"),
        ),
    )
}


def master_seed(entry: int) -> int:
    """The master seed of catalog entry ``entry`` (taken modulo the size)."""
    return 1 + _SEED_STRIDE * (entry % CATALOG_SIZE)


def resolve(name: str, entry: int, tiny: bool = False):
    """Resolve workload ``name`` at catalog entry ``entry`` into a validated config.

    ``tiny`` shrinks the experiment to one short run for self-tests; no
    reference exists for that size.
    """
    from smcgbeam import preset
    from smcgbeam.harness import apply_overrides, config_to_sections, sections_to_config

    workload = WORKLOADS[name]
    (config,) = preset(workload.preset, runs=workload.runs, master_seed=master_seed(entry))
    overrides = [f"run.label={name}"]
    if tiny:
        overrides += ["run.runs=1", *workload.tiny_overrides]
    # sections_to_config validates the patched config, as ``smcgbeam run`` does
    return sections_to_config(apply_overrides(config_to_sections(config), overrides))


def catalog(name: str, seed: int, tiny: bool = False) -> list:
    """Every catalog config of ``name``, in the order a run at ``seed`` uses them."""
    return [resolve(name, seed + j, tiny) for j in range(CATALOG_SIZE)]
