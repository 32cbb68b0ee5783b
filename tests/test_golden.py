"""Every preset's CSV, and three configurations beyond them, byte for byte.

The CSVs are the behavioural oracle of a refactor: a change that keeps the
numbers keeps these digests. Each preset runs 2 Monte-Carlo runs at its
default seed. The digests were recorded with NumPy 2.4.6 on x86-64; another
NumPy or platform may round differently, and a digest that moves there is
not by itself a defect.
"""

import hashlib

from smcgbeam.harness import PRESET_NAMES, ExperimentConfig, algo, emit_csv, preset, run_experiment

GOLDEN_SHA256 = {
    "fig4": "79af6f40ddd7d6cf9710899c6710508873eb54d292dee5652b078b808e1d9641",
    "fig5": "c1ab3d907fb64f30cfacada56dd81f2bf412662f4e9e935fe7fc5315ef33430b",
    "fig6": "e2fa91ca3e6d71a42b1c83250d45a3727d608b7a76b932cf21f4cf58760dce94",
    "fig8_snr00": "6528cc3db28d7d5651fdedbc39928a53480bdce7b5c362ae08b6ba1d67e37782",
    "fig8_snr05": "40f7c74aea58b9d1d7f66fb6930054986df853b1db75960e6a7c35f6c3739611",
    "fig8_snr10": "1a5bdc3999ffdc059a5d40b126de456459105c75dcc1cb9a5d68a9600860705f",
    "fig8_snr15": "478706b87d13bc45a5fb29dc4b28d92e7fd0c2e8a443fd6f75196af1f9e6716d",
    "fig8_snr20": "b0e7eb8a32a2f532b2a8b3f1f657c04f9452dadd2fa9044c27feedc60a86cac1",
    "fig8_snr25": "87cd0b0eaec4584e685e711fd79a68f0c9027f6f33379a079fa223fcc19daf63",
    "fig8_snr30": "faf6adc1dfa9612a4ad4e57053ddc11be2a49e04cdc95d77b881d709067cf9f2",
    "fig9": "5d7d28a4b508d6db6ba451e03ae52fe9c100d52aab4054f6066750043f31b7e1",
}


def test_every_preset_csv_matches_its_digest(tmp_path):
    digests = {}
    for name in PRESET_NAMES:
        for config in preset(name, runs=2):
            path = tmp_path / f"{config.label}.csv"
            emit_csv(run_experiment(config), path)
            digests[config.label] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GOLDEN_SHA256


# Beyond the presets: four sensors, a scene that doubles its sources at
# snapshot 200, a negative gain, every bound policy with gates that accept
# 33-64 % of snapshots, and an RLS that forgets faster than the default.
OFF_PRESET = ExperimentConfig(
    label="m4_gamma_neg3", m=4, gamma=-3.0, epochs=((1, 2), (200, 4)),
    n_snapshots=400, runs=2,
    algorithms=(
        algo("smcg_fixed", "smcg", bound="fixed", delta=9.0),
        algo("smcg_pdb", "smcg", bound="pdb"),
        algo("smcg_pidb", "smcg", bound="pidb"),
        algo("rls", "rls", forgetting=0.99),
        algo("cg", "cg"),
        algo("mvdr", "mvdr"),
    ),
)
OFF_PRESET_SHA256 = "e4bfe1a78d56389e7f20bb13b91e663b8c48e1f04325fe9cde346215b71c4cc8"


def test_off_preset_csv_matches_its_digest(tmp_path):
    path = tmp_path / "off_preset.csv"
    emit_csv(run_experiment(OFF_PRESET), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == OFF_PRESET_SHA256


# The edges of the gated stack: five gated entries at m = 16, gates that
# accept 9-100 % of snapshots, a PDB bound with eta = 0.3, a PIDB bound
# with lighter loading, and one entry whose clamp pins lambda1 at 0.9.
STACK_EDGES = ExperimentConfig(
    label="stack_edges", m=16, n_snapshots=600, runs=2,
    algorithms=(
        algo("smcg_d08", "smcg", bound="fixed", delta=0.8),
        algo("smcg_d13", "smcg", bound="fixed", delta=1.3),
        algo("smcg_pdb", "smcg", bound="pdb", eta=0.3),
        algo("smcg_pidb", "smcg", bound="pidb", r_hat_init=10.0),
        algo("smcg_pinned", "smcg", bound="fixed", delta=1.0, lambda1_min=0.9, lambda1_max=0.9),
        algo("cg", "cg"),
        algo("mvdr", "mvdr"),
    ),
)
STACK_EDGES_SHA256 = "240acfce60041b67af4be26582a9a5d96ed5157393e43f075a71fc1b52fc3ab3"


def test_stack_edges_csv_matches_its_digest(tmp_path):
    path = tmp_path / "stack_edges.csv"
    emit_csv(run_experiment(STACK_EDGES), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == STACK_EDGES_SHA256


# An odd source count: eight sensors, three sources then five from snapshot
# 300, so the symbols of successive snapshots share 64-bit words and an odd
# leftover half crosses blocks and the epoch change. The gated filter
# accepts about 22 % of snapshots.
ODD_Q = ExperimentConfig(
    label="m8_odd_q", m=8, epochs=((1, 3), (300, 5)), n_snapshots=700, runs=2,
    algorithms=(algo("smcg", "smcg", bound="pidb"), algo("rls", "rls"), algo("mvdr", "mvdr")),
)
ODD_Q_SHA256 = "de4f532c3f20826bd9f9da171499251cf2bbc70d6799ed593442b8b89d488c22"


def test_odd_q_csv_matches_its_digest(tmp_path):
    path = tmp_path / "odd_q.csv"
    emit_csv(run_experiment(ODD_Q), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ODD_Q_SHA256
