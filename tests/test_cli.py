"""End-to-end checks of the command-line front end.

Everything goes through ``main(argv)`` directly; presets are shrunk with
``--set`` overrides so the whole file runs in a few seconds.
"""

import configparser
import csv

import numpy as np
import pytest

from smcgbeam.cli import main
from smcgbeam.harness import PRESET_NAMES, config_to_sections, preset


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
