"""Command-line front end.

Runs packaged presets or a config file, writes per-experiment CSV traces,
and emits the operation-count table. The output directory defaults to
``$SMCGBEAM_OUT`` and falls back to ``./out``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    PRESET_NAMES,
    RunDivergedError,
    apply_overrides,
    config_to_sections,
    emit_complexity_table,
    emit_csv,
    load_config_file,
    preset,
    presets,
    run_experiment,
    sections_to_config,
)


def _default_out() -> str:
    return os.environ.get("SMCGBEAM_OUT", "out")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smcgbeam",
        description="Constrained adaptive beamforming experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a preset or a config file")
    src = run_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES, help="packaged experiment")
    src.add_argument("--config", help="path to a config file")
    run_p.add_argument("--runs", type=int, help="override Monte-Carlo repetitions")
    run_p.add_argument("--seed", type=int, help="override the master seed")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="processes that share each experiment (default: the usable CPUs; "
        "1 for jobs that run side by side)",
    )
    run_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value, e.g. scenario.inr_db=20 (repeatable)",
    )

    cx_p = sub.add_parser("complexity", help="write the operation-count table")
    cx_p.add_argument("--m-min", type=int, default=8)
    cx_p.add_argument("--m-max", type=int, default=64)
    cx_p.add_argument("--m-step", type=int, default=8)
    cx_p.add_argument("--snapshots", type=int, default=1000)
    cx_p.add_argument("--out", default=None, help="output CSV path")

    sub.add_parser("list-presets", help="list packaged experiments")
    return parser


def _resolve_configs(args):
    configs = preset(args.preset) if args.preset else (load_config_file(args.config),)
    # --runs and --seed are --set items placed first, so a later --set wins
    given = (("run.runs", args.runs), ("run.master_seed", args.seed))
    overrides = [f"{key}={value}" for key, value in given if value is not None] + args.overrides
    if not overrides:
        return configs
    return tuple(
        sections_to_config(apply_overrides(config_to_sections(c), overrides)) for c in configs
    )


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # such as a file where the directory should be
        what = exc.strerror or exc
        raise ConfigError(f"--out: cannot make the directory {str(path)!r}: {what}") from exc


def _cmd_run(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    out_dir = Path(args.out or _default_out())
    _make_dir(out_dir)
    jobs = [(config, out_dir / f"{config.label}.csv") for config in _resolve_configs(args)]
    for _, path in jobs:
        if path.is_dir():
            raise ConfigError(f"--out: cannot write the CSV {str(path)!r}: it is a directory")
    for config, path in jobs:
        result = run_experiment(config, workers=args.workers)
        emit_csv(result, path)
        print(f"{config.label}: {config.runs} runs x {config.n_snapshots} snapshots")
        for lab in result.algorithms:
            final = result.mean_sinr_db[lab][-1]
            rate = result.mean_update_rate[lab]
            err = result.max_constraint_error[lab]
            print(
                f"  {lab:12s} final SINR {final:7.2f} dB"
                f"  update rate {rate:6.1%}  max |w^H a0 - gamma| {err:.2e}"
            )
        print(f"  wrote {path}")
    return 0


def _cmd_complexity(args) -> int:
    if args.m_min < 1 or args.m_max < args.m_min or args.m_step < 1:
        raise ConfigError("require 1 <= m-min <= m-max and m-step >= 1")
    if args.snapshots < 1:
        raise ConfigError(f"--snapshots must be at least 1, got {args.snapshots}")
    out = Path(args.out) if args.out is not None else Path(_default_out())
    if out.suffix == ".csv" and not out.is_dir():
        path = out
        _make_dir(path.parent)
    else:
        _make_dir(out)
        path = out / "complexity.csv"
    m_values = list(range(args.m_min, args.m_max + 1, args.m_step))
    try:  # the table is formed whole before its file is opened
        emit_complexity_table(path, m_values, n_snapshots=args.snapshots)
    except OverflowError as exc:
        raise ConfigError(
            f"--m-min, --m-max and --snapshots give operation counts beyond float range: {exc}"
        ) from exc
    print(f"wrote {path}")
    return 0


def _cmd_list_presets() -> int:
    for name, configs in presets().items():
        print(name)
        for c in configs:
            algos = ",".join(spec.label for spec in c.algorithms)
            print(f"  {c.label}: m={c.m} N={c.n_snapshots} [{algos}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "complexity":
            return _cmd_complexity(args)
        return _cmd_list_presets()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
