"""End-to-end checks of the command-line front end.

Everything goes through ``main(argv)`` directly; presets are shrunk with
``--set`` overrides so the whole file runs in a few seconds.
"""

import configparser
import csv
import io
import math
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcgbeam import cli
from smcgbeam.cli import main
from smcgbeam.harness import PRESET_NAMES, config_to_sections, preset


SHRINK_FIG4 = [
    "--set", "scenario.m=4", "--set", "scenario.epochs=1:3", "--set", "scenario.n_snapshots=40",
]


def write_ini(path, sections):
    cp = configparser.ConfigParser()
    cp.read_dict(sections)
    with open(path, "w") as fh:
        cp.write(fh)


class TestListPresets:
    def test_prints_every_preset(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESET_NAMES:
            assert name in out


class TestRun:
    def test_preset_with_overrides_writes_csv(self, tmp_path, capsys):
        rc = main(
            [
                "run", "--preset", "fig4", "--runs", "2", "--seed", "7",
                "--out", str(tmp_path),
                "--set", "scenario.m=4",
                "--set", "scenario.epochs=1:3",
                "--set", "scenario.n_snapshots=40",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig4: 2 runs x 40 snapshots" in out
        assert "wrote" in out
        with open(tmp_path / "fig4.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "snapshot", "algorithm", "mean_sinr_db", "mean_delta", "update_rate_cum",
        ]
        assert rows[1][0] == "1"
        assert rows[-1][0] == "40"
        assert {r[1] for r in rows[1:]} == {"smcg", "rls", "mvdr"}

    def test_set_after_runs_wins(self, tmp_path, capsys):
        rc = main(["run", "--preset", "fig4", "--runs", "2", "--out", str(tmp_path),
                   *SHRINK_FIG4, "--set", "run.runs=3"])
        assert rc == 0
        assert "fig4: 3 runs x 40 snapshots" in capsys.readouterr().out

    def test_set_after_seed_wins(self, tmp_path, capsys):
        csvs = {}
        for name, seeding in [
            ("both", ["--seed", "7", "--set", "run.master_seed=9"]),
            ("seed9", ["--seed", "9"]),
            ("seed7", ["--seed", "7"]),
        ]:
            out = tmp_path / name
            rc = main(["run", "--preset", "fig4", "--runs", "1", "--out", str(out),
                       *SHRINK_FIG4, *seeding])
            assert rc == 0
            csvs[name] = (out / "fig4.csv").read_bytes()
        capsys.readouterr()
        assert csvs["both"] == csvs["seed9"]
        assert csvs["both"] != csvs["seed7"]

    def test_config_file_and_out_env_fallback(self, tmp_path, capsys, monkeypatch):
        (cfg,) = preset("fig6", runs=1)
        sections = config_to_sections(cfg)
        sections["scenario"]["m"] = "4"
        sections["scenario"]["epochs"] = "1:3"
        sections["scenario"]["n_snapshots"] = "30"
        ini = tmp_path / "exp.ini"
        write_ini(ini, sections)
        monkeypatch.setenv("SMCGBEAM_OUT", str(tmp_path / "outdir"))
        assert main(["run", "--config", str(ini), "--runs", "1"]) == 0
        assert (tmp_path / "outdir" / "fig6.csv").exists()
        capsys.readouterr()

    def test_bad_override_exits_2(self, tmp_path, capsys):
        rc = main(
            ["run", "--preset", "fig4", "--out", str(tmp_path), "--set", "nonsense"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "fig4.csv").exists()

    @pytest.mark.parametrize(
        "override, field",
        [
            ("algo:smcg.epsilion=5", "algorithms[smcg].epsilion"),
            ("algo:smcg.eta=abc", "algorithms[smcg].eta"),
            ("algo:smcg.eta=0.9", "algorithms[smcg].eta"),
            ("algo:rls.forgetting=1.5", "algorithms[rls].forgetting"),
        ],
    )
    def test_bad_algorithm_parameter_exits_2_naming_it(
        self, tmp_path, capsys, override, field
    ):
        rc = main(
            [
                "run", "--preset", "fig4", "--runs", "1", "--out", str(tmp_path),
                "--set", "scenario.n_snapshots=20", "--set", override,
            ]
        )
        assert rc == 2
        assert f"error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "fig4.csv").exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ("scenario.m=abc", "scenario.m must be an integer, got 'abc'"),
            ("run.runs=x", "run.runs must be an integer, got 'x'"),
            ("scenario.snr_db=ten", "scenario.snr_db must be a number, got 'ten'"),
            ("scenario.epochs=,", "epochs must not be empty"),
            ("scenario.m=99999999999999999999", "m = 99999999999999999999 gives no steering"),
            ("scenario.m=9223372036854775807", "m = 9223372036854775807 gives no steering"),
            (
                "scenario.spacing_wavelengths=1e308",
                "spacing_wavelengths = 1e+308 makes the steering vector non-finite",
            ),
            (
                "scenario.n_snapshots=100000000000000000000",
                "n_snapshots = 100000000000000000000 is too large",
            ),
            ("run.runs=100000000000000000000", "runs = 100000000000000000000 is too large"),
        ],
    )
    def test_unparsable_value_exits_2_naming_it(self, tmp_path, capsys, override, message):
        rc = main(
            [
                "run", "--preset", "fig4", "--runs", "1", "--out", str(tmp_path),
                "--set", "scenario.n_snapshots=20", "--set", override,
            ]
        )
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "fig4.csv").exists()

    @pytest.mark.parametrize(
        "override, field",
        [("algo:a,b.kind=mvdr", "algorithms[a,b]"), ("run.label=sub/dir", "label")],
        ids=["comma-in-algorithm-label", "slash-in-run-label"],
    )
    def test_label_that_breaks_the_csv_exits_2_naming_it(self, tmp_path, capsys, override, field):
        """A comma would add a field to each CSV row, and a slash would name
        a file in a directory that does not exist."""
        rc = main(["run", "--preset", "fig4", "--runs", "1", "--out", str(tmp_path),
                   "--set", "scenario.n_snapshots=3", "--set", override])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {field} must be non-empty text without a comma" in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_out_that_is_a_file_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        rc = main(["run", "--preset", "fig4", "--runs", "1", "--out", str(out), *SHRINK_FIG4])
        assert rc == 2
        assert f"error: --out: cannot make the directory {str(out)!r}" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    def test_csv_that_is_a_directory_exits_2_before_running(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "fig4.csv").mkdir()
        ran = []
        monkeypatch.setattr("smcgbeam.cli.run_experiment", lambda *args, **kw: ran.append(args))
        rc = main(["run", "--preset", "fig4", "--runs", "1", "--out", str(tmp_path), *SHRINK_FIG4])
        assert rc == 2
        path = str(tmp_path / "fig4.csv")
        assert f"error: --out: cannot write the CSV {path!r}: it is a directory" in (
            capsys.readouterr().err
        )
        assert ran == []

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_fewer_than_one_worker_exits_2_naming_it(self, tmp_path, capsys, workers):
        rc = main(["run", "--preset", "fig4", "--out", str(tmp_path), "--workers", workers,
                   *SHRINK_FIG4])
        assert rc == 2
        assert f"error: --workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "fig4.csv").exists()

    @pytest.mark.parametrize("flag, workers", [([], None), (["--workers", "1"], 1)])
    def test_workers_reach_run_experiment(self, tmp_path, capsys, monkeypatch, flag, workers):
        seen, run = [], cli.run_experiment

        def spy(config, workers=None):
            seen.append(workers)
            return run(config, workers=workers)

        monkeypatch.setattr(cli, "run_experiment", spy)
        rc = main(["run", "--preset", "fig4", "--runs", "1", "--out", str(tmp_path), *flag,
                   *SHRINK_FIG4])
        assert rc == 0
        capsys.readouterr()
        assert seen == [workers]

    def test_config_file_with_an_m_near_2_to_the_63_exits_2_naming_it(self, tmp_path, capsys):
        sections = {
            "run": {"label": "bigm", "runs": "1"},
            "scenario": {"m": str(2**63 - 1), "epochs": "1:3", "n_snapshots": "20"},
            "algo:mvdr": {"kind": "mvdr"},
        }
        ini = tmp_path / "bigm.ini"
        write_ini(ini, sections)
        rc = main(["run", "--config", str(ini), "--out", str(tmp_path)])
        assert rc == 2
        assert f"error: m = {2**63 - 1} gives no steering vector" in capsys.readouterr().err
        assert not (tmp_path / "bigm.csv").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"[run]\nruns = 1\nruns = 2\n", "[line 3]: option 'runs' in section 'run' already"),
            (b"[run]\nruns = 1\n[run]\n", "[line 3]: section 'run' already exists"),
            (b"runs = 1\n[run]\n", "File contains no section headers. file: '{ini}', line: 1"),
            (b"[run]\nlabel = \xff\n", "config file '{ini}' is not UTF-8 text"),
        ],
        ids=["repeated-key", "repeated-section", "line-before-any-header", "not-utf-8"],
    )
    def test_config_file_that_does_not_parse_exits_2_naming_it(
        self, tmp_path, capsys, text, message
    ):
        ini = tmp_path / "bad.ini"
        ini.write_bytes(text)
        rc = main(["run", "--config", str(ini), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message.format(ini=ini) in err and str(ini) in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_percent_in_a_config_file_is_literal(self, tmp_path, capsys):
        """A config file's values are read as ``--set`` reads them."""
        sections = {
            "run": {"label": "fig4", "runs": "1"},
            "scenario": {"m": "4", "epochs": "1:3", "n_snapshots": "20"},
            "algo:mvdr": {"kind": "mvdr"},
        }
        ini, pct = tmp_path / "fig4.ini", tmp_path / "pct.ini"
        write_ini(ini, sections)
        pct.write_text(ini.read_text().replace("label = fig4", "label = 5%"))
        assert main(["run", "--config", str(pct), "--out", str(tmp_path / "file")]) == 0
        rc = main(["run", "--config", str(ini), "--out", str(tmp_path / "set"),
                   "--set", "run.label=5%"])
        assert rc == 0
        capsys.readouterr()
        written = (tmp_path / "file" / "5%.csv").read_bytes()
        assert written == (tmp_path / "set" / "5%.csv").read_bytes()

    def test_one_label_for_a_sweep_exits_2_before_running(self, tmp_path, capsys, monkeypatch):
        """Each of fig8's 7 experiments would write, over the last, ``x.csv``."""
        ran = []
        monkeypatch.setattr("smcgbeam.cli.run_experiment", lambda *args, **kw: ran.append(args))
        rc = main(["run", "--preset", "fig8", "--runs", "1", "--out", str(tmp_path),
                   "--set", "scenario.n_snapshots=3", "--set", "run.label=x"])
        assert rc == 2
        path = str(tmp_path / "x.csv")
        want = f"run.label 'x' is given to 7 experiments, which would each write {path!r}"
        assert f"error: {want}" in capsys.readouterr().err
        assert ran == [] and not list(tmp_path.rglob("*.csv"))

    def test_one_sensor_exits_2_naming_the_entry(self, tmp_path, capsys):
        rc = main(
            [
                "run", "--preset", "fig6", "--runs", "1", "--out", str(tmp_path),
                "--set", "scenario.m=1", "--set", "scenario.epochs=1:1",
            ]
        )
        assert rc == 2
        assert (
            "error: algorithms[smcg].steering must have at least 2 entries: "
            "one sensor leaves no direction conjugate to p"
        ) in capsys.readouterr().err
        assert not (tmp_path / "fig6.csv").exists()

    @pytest.mark.parametrize("override", ["scenario.inr_db=4000", "scenario.snr_db=-4000"])
    def test_source_power_out_of_float_range_exits_2(self, tmp_path, capsys, override):
        rc = main(
            ["run", "--preset", "fig6", "--runs", "1", "--out", str(tmp_path), "--set", override]
        )
        assert rc == 2
        field = override.split(".")[1].split("=")[0]
        assert f"error: {field} gives the source power" in capsys.readouterr().err
        assert not (tmp_path / "fig6.csv").exists()

    def test_divergence_exits_1_with_context(self, tmp_path, capsys):
        # unnormalized SG with a huge step blows up within a few snapshots
        sections = {
            "run": {"label": "boom", "runs": "1", "master_seed": "5"},
            "scenario": {
                "m": "8", "inr_db": "30.0", "epochs": "1:3", "n_snapshots": "100",
            },
            "algo:sg": {"kind": "sg", "normalized": "false", "step_size": "1000.0"},
        }
        ini = tmp_path / "boom.ini"
        write_ini(ini, sections)
        with np.errstate(all="ignore"):
            rc = main(["run", "--config", str(ini), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "'sg'" in err

    def test_overflowing_total_power_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--preset", "fig6", "--runs", "1", "--out", str(tmp_path),
                   "--set", "scenario.n_snapshots=300", "--set", "scenario.inr_db=3080"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: snr_db and inr_db give the 10 sources of the largest epoch" in err
        assert "Traceback" not in err
        assert not (tmp_path / "fig6.csv").exists()

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("fig9", ["scenario.inr_db=3070", "scenario.epochs=1:8,200:12"]),
        ],
        ids=["fig9"],
    )
    def test_overflowing_bound_exits_1_with_context(self, tmp_path, capsys, name, overrides):
        argv = ["run", "--preset", name, "--runs", "1", "--out", str(tmp_path),
                "--set", "scenario.n_snapshots=300"]
        for override in overrides:
            argv += ["--set", override]
        with np.errstate(all="ignore"):
            rc = main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert (
            "error: run 0: bound or output beyond float range for algorithm 'smcg' "
            "at snapshot 1"
        ) in err
        assert "Traceback" not in err
        assert not (tmp_path / f"{name}.csv").exists()

    def test_overflowing_output_power_exits_1_as_a_nonfinite_sinr(self, tmp_path, capsys):
        """At gamma 1e308 the weights are finite, but ``w^H R w`` overflows:
        that is a non-finite SINR, not a power that is not positive."""
        with np.errstate(all="ignore"):
            rc = main(["run", "--preset", "fig4", "--runs", "1", "--out", str(tmp_path),
                       "--set", "scenario.n_snapshots=30", "--set", "scenario.gamma=1e308"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: run 0: non-finite sinr for algorithm 'smcg' at snapshot 1" in err
        assert "Traceback" not in err


# Extreme override values: the finite numbers, then the rest.
NUMBERS = ("0", "-1", "5e-324", "1e308", str(10**20))
EXTREMES = NUMBERS + (
    "nan", "inf", "x", "", ",", "1:", "0:3", "1:3,", "1:3:1", "1:3,1:2", "1:99", "1:3,2:x",
)
DIVERGED = re.compile(r"^error: run \d+: .+ for algorithm '.+' at snapshot \d+$", re.M)


@st.composite
def cut_presets_with_extremes(draw):
    """``run --preset`` argv for fig4, fig5, fig6 or fig9, cut to 1 run of
    20-300 snapshots at 12-16 sensors (fig9's scene change moved to the
    middle), then 1-3 ``--set`` overrides of distinct keys of the preset,
    each value drawn from ``EXTREMES``; and the keys set."""
    name = draw(st.sampled_from(("fig4", "fig5", "fig6", "fig9")))
    m, n = draw(st.integers(12, 16)), draw(st.integers(20, 300))
    cut = ["run.runs=1", f"scenario.m={m}", f"scenario.n_snapshots={n}"]
    if name == "fig9":
        cut.append(f"scenario.epochs=1:8,{n // 2}:12")
    (config,) = preset(name)
    keys = sorted(
        f"{section}.{key}" for section, body in config_to_sections(config).items() for key in body
    )
    # half the values a finite number, which most keys parse, so that runs start too
    values = st.one_of(st.sampled_from(NUMBERS), st.sampled_from(EXTREMES))
    sets = draw(st.lists(st.tuples(st.sampled_from(keys), values), min_size=1, max_size=3,
                         unique_by=lambda item: item[0]))
    argv = ["run", "--preset", name]
    for item in cut + [f"{key}={value}" for key, value in sets]:
        argv += ["--set", item]
    return argv, [key.rsplit(".", 1)[1] for key, _ in sets]


@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(cut_presets_with_extremes())
def test_every_override_exits_0_1_or_2_as_documented(case):
    """The configuration contract: a run ends in a finite CSV (exit 0), a
    ``ConfigError`` naming a key that was set (exit 2), or a divergence
    naming run, algorithm and snapshot (exit 1); never in a traceback."""
    argv, keys = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # may come before a divergence
            rc = main([*argv, "--out", tmp])
        csvs = [path.read_text() for path in Path(tmp).glob("*.csv")]
    err = err.getvalue()
    if rc == 0:
        (text,) = csvs
        rows = list(csv.reader(text.splitlines()))[1:]
        assert rows and all(math.isfinite(float(x)) for row in rows for x in row[2:])
    elif rc == 2:
        assert any(re.search(rf"(?<!\w){re.escape(key)}(?!\w)", err) for key in keys), err
    else:
        assert rc == 1 and DIVERGED.search(err), err
        assert not csvs


class TestComplexity:
    HEADER = [
        "m", "algorithm", "update_fraction", "projection_order",
        "additions", "multiplications",
    ]

    def test_writes_table_into_directory(self, tmp_path, capsys):
        rc = main(
            ["complexity", "--m-min", "8", "--m-max", "16", "--m-step", "8",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        with open(tmp_path / "complexity.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == self.HEADER
        assert {r[0] for r in rows[1:]} == {"8", "16"}

    def test_explicit_csv_path_creates_parents(self, tmp_path, capsys):
        path = tmp_path / "nested" / "ops.csv"
        rc = main(["complexity", "--m-min", "16", "--m-max", "16", "--out", str(path)])
        assert rc == 0
        capsys.readouterr()
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == self.HEADER
        assert all(r[0] == "16" for r in rows[1:])

    def test_default_out_is_cwd_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SMCGBEAM_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["complexity", "--m-min", "8", "--m-max", "8"]) == 0
        capsys.readouterr()
        assert (tmp_path / "out" / "complexity.csv").exists()

    def test_bad_m_range_exits_2(self, tmp_path, capsys):
        rc = main(
            ["complexity", "--m-min", "16", "--m-max", "8", "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--m-min", "8", "--m-max", "8", "--snapshots", str(10**330)],
            ["--m-min", str(10**200), "--m-max", str(10**200)],
        ],
        ids=["snapshots", "m"],
    )
    def test_counts_beyond_float_range_exit_2_naming_the_options(self, tmp_path, capsys, argv):
        """Single-valued m ranges only: a range of many huge m would be built whole."""
        rc = main(["complexity", *argv, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: --m-min, --m-max and --snapshots give operation counts beyond" in err
        assert not list(tmp_path.iterdir())

    def test_out_that_is_a_file_without_csv_suffix_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "table"
        out.write_text("kept\n")
        rc = main(["complexity", "--m-min", "8", "--m-max", "8", "--out", str(out)])
        assert rc == 2
        assert f"error: --out: cannot make the directory {str(out)!r}" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    def test_no_snapshots_exits_2_naming_it(self, tmp_path, capsys):
        rc = main(["complexity", "--snapshots", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert "error: --snapshots must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "complexity.csv").exists()
