"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints its measured numbers so the run log doubles as a report.
The Monte-Carlo fixtures are module scoped and deliberately heavy: the
full file takes about 4 to 8 minutes, depending on the machine, and
dominates the wall time of the whole suite.

Two checks compare the gated filter with the estimator it approximates.
Its ``R_hat`` is the loaded sample covariance ``r_hat_init * I + sum r r^H``
built from the accepted snapshots only, so the full-data reference is the
same solve with every snapshot accepted at unit weight: an ``rls`` entry
with ``forgetting=1.0`` and ``inv_init`` equal to the filter's
``r_hat_init``.

- Criterion 5 asserts convergence as the paper claims it: the filter ends
  within 2 dB of the oracle, and over the first 500 snapshots its mean
  SINR beats each existing technique (SG, RLS, CG) in the same run. An
  early-to-late trend is not asserted, because it shrinks the faster a
  filter converges and would read 0 dB for a filter that settled at once.
- Criterion 7 asserts the drop at the scene change, the update-rate band,
  and recovery to within 2 dB of the full-data reference at snapshot 4000,
  1000 snapshots after the change. The new-scene oracle is printed but is
  not the yardstick: even the full-data reference stays about 2.2 dB short
  of it there.
"""

from dataclasses import replace

import numpy as np
import pytest
from reference import bisect_roots, boundary_taus, lambda1_root_of, random_instance

from smcgbeam import harness
from smcgbeam.arrays import generate_snapshot, steering_vector
from smcgbeam.harness import (
    ExperimentConfig,
    algo,
    build_scenario,
    emit_complexity_table,
    preset,
    run_experiment,
)
from smcgbeam.metrics import COMPLEXITY_ALGORITHMS, complexity_counts

# hand-computed operation counts at m=16, N=1000, accept fraction 0.06, L=3
EXPECTED_COUNTS = {
    "sg": (47_000.0, 65_000.0),
    "sm-sg": (34_880.0, 41_020.0),
    "rls": (1_007_000.0, 1_359_000.0),
    "sm-rls": (93_380.0, 119_680.0),
    "sm-ap": (44_040.0, 51_400.0),
    "cg": (625_000.0, 693_000.0),
    "ds-cg": (83_280.0, 87_540.0),
    "sm-cg": (70_760.0, 77_680.0),
}


@pytest.fixture(scope="module")
def fig6_result():
    (cfg,) = preset("fig6", runs=100)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def fig9_result():
    (cfg,) = preset("fig9", runs=100)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def all_preset_results(fig6_result, fig9_result):
    out = {"fig6": (fig6_result,), "fig9": (fig9_result,)}
    for name in ("fig4", "fig5", "fig8"):
        out[name] = tuple(run_experiment(c) for c in preset(name, runs=50))
    return out


def test_criterion_1_constraint_held_across_all_presets(all_preset_results):
    worst = {
        name: max(
            err for res in results for err in res.max_constraint_error.values()
        )
        for name, results in all_preset_results.items()
    }
    print(
        "criterion 1: worst |w^H a0 - gamma| per preset: "
        + ", ".join(f"{k}={v:.3e}" for k, v in sorted(worst.items()))
    )
    for name, err in sorted(worst.items()):
        assert err <= 1e-8, f"{name}: constraint error {err:.3e}"


def test_criterion_2_forgetting_factor_matches_bisection_oracle():
    rng = np.random.default_rng(424242)
    drawn = checked = 0
    worst = 0.0
    while drawn < 1000:
        inst = random_instance(rng, 2 + drawn % 3)
        if inst is None:
            continue
        drawn += 1
        v, g, p, r_hat, a0, r, delta, eta = inst
        taus = boundary_taus(v, g, p, r_hat, a0, r, delta, eta)
        in_range = [x for x in bisect_roots(taus, delta) if 0.0 < x <= 1.0]
        if not in_range:
            continue
        lam = lambda1_root_of(v, g, p, r_hat, a0, r, delta, eta)
        best = min(in_range, key=lambda x: abs(x - lam))
        rel = abs(lam - best) / abs(best)
        worst = max(worst, rel)
        assert rel <= 1e-6, f"instance {drawn}: closed form {lam} vs oracle {best}"
        checked += 1
    print(
        f"criterion 2: {checked} of 1000 instances had an in-range root; "
        f"worst relative mismatch {worst:.3e}"
    )
    assert checked >= 200


def test_criterion_3_conjugacy_and_step_size_sandwich():
    (cfg,) = preset("fig6")
    spec = next(s for s in cfg.algorithms if s.kind == "smcg")
    rng = np.random.default_rng(cfg.master_seed ^ 0)
    scenario = build_scenario(cfg, rng)
    a0 = steering_vector(scenario.geometry, scenario.desired_doa_deg)
    # the filter exactly as the preset runs it
    entry = harness._SmCgEntry(spec, a0, cfg.gamma, scenario.noise_power)
    state, policy = entry.state, entry.policy
    assert state.eta == 0.5
    updates = 0
    skipped_precondition = 0
    worst_conjugacy = 0.0
    worst_upper = -np.inf
    worst_lower = np.inf
    for i in range(1, scenario.n_snapshots + 1):
        r = generate_snapshot(scenario, i, rng)
        y = np.vdot(state.w, r)
        policy.update(np.vdot(a0, r), y, state.w, scenario.noise_power)
        p_prev = state.p.copy()
        g_prev = state.g.copy()
        if not state.step(r, policy.delta, y).updated:
            continue
        updates += 1
        # successive directions stay conjugate under the fresh covariance
        cross = abs(np.vdot(p_prev, state.r_hat @ state.p))
        curvature = abs(np.vdot(p_prev, state.r_hat @ p_prev))
        worst_conjugacy = max(worst_conjugacy, cross / curvature)
        old = np.vdot(p_prev, g_prev).real
        new = np.vdot(p_prev, state.g).real
        if old < 0.0:
            skipped_precondition += 1
            continue
        slack = 1e-8 * (1.0 + abs(old))
        worst_lower = min(worst_lower, new)
        worst_upper = max(worst_upper, new - 0.5 * old)
        assert new >= -slack, f"snapshot {i}: Re(p^H g) = {new:.3e} below zero"
        assert new <= 0.5 * old + slack, (
            f"snapshot {i}: Re(p^H g) = {new:.3e} above half of {old:.3e}"
        )
    print(
        f"criterion 3: {updates} updating steps; worst conjugacy residual "
        f"{worst_conjugacy:.3e}; step-size bracket excess {worst_upper:.3e}; "
        f"{skipped_precondition} precondition violations (reported, not failed)"
    )
    assert updates > 0
    assert worst_conjugacy <= 1e-8


def test_criterion_4_update_rate_band(fig6_result):
    rate = fig6_result.mean_update_rate["smcg"]
    print(
        f"criterion 4: mean update rate {rate:.5f} "
        f"over {fig6_result.runs} runs"
    )
    assert fig6_result.runs >= 100
    assert 0.04 <= rate <= 0.09, f"rate {rate:.5f}"


def test_criterion_5_convergence_to_oracle(fig6_result):
    db = fig6_result.mean_sinr_db["smcg"]
    opt = fig6_result.mean_sinr_db["mvdr"][-1]
    tail_gap = opt - db[-200:].mean()
    early = {
        lab: fig6_result.mean_sinr_db[lab][:500].mean()
        for lab in ("smcg", "sg", "rls", "cg")
    }
    print(
        f"criterion 5: final-200 gap to the oracle {tail_gap:.4f} dB; "
        "mean SINR over snapshots 1-500: "
        + ", ".join(f"{k}={v:.3f} dB" for k, v in early.items())
    )
    assert tail_gap <= 2.0, f"gap {tail_gap:.4f} dB"
    for lab in ("sg", "rls", "cg"):
        assert early["smcg"] > early[lab], (
            f"early mean {early['smcg']:.3f} dB not above {lab}'s {early[lab]:.3f} dB"
        )


def test_criterion_6_bound_stabilizes(fig6_result):
    tail = fig6_result.mean_delta["smcg"][-500:]
    cv = tail.std() / tail.mean()
    print(f"criterion 6: bound sigma/mean over the final 500 snapshots {cv:.5f}")
    assert cv < 0.10


def test_criterion_7_tracking_after_scene_change(fig9_result):
    # The full-data reference runs the fig9 scene with the same seed and
    # runs, so it sees the same per-run snapshot streams; it stops at the
    # deadline, snapshot 4000.
    (cfg,) = preset("fig9", runs=fig9_result.runs)
    spec = next(s for s in cfg.algorithms if s.kind == "smcg")
    ref_cfg = replace(
        cfg,
        n_snapshots=4000,
        algorithms=(
            algo("ref", "rls", forgetting=1.0, inv_init=spec.get("r_hat_init")),
        ),
    )
    ref = run_experiment(ref_cfg).mean_sinr_db["ref"]
    db = fig9_result.mean_sinr_db["smcg"]
    oracle = fig9_result.mean_sinr_db["mvdr"]
    drop = db[2998] - db[2999]  # snapshot 2999 -> 3000, where sources change
    oracle_gap = oracle[3999] - db[3999]  # snapshot 4000
    ref_gap = oracle[3999] - ref[3999]
    margin = ref[3999] - db[3999]
    rate = fig9_result.mean_update_rate["smcg"]
    print(
        f"criterion 7: drop at the scene change {drop:.3f} dB; at snapshot "
        f"4000 the gap to the new-scene oracle is {oracle_gap:.4f} dB, the "
        f"full-data reference's gap {ref_gap:.4f} dB, the margin to the "
        f"reference {margin:.4f} dB; update rate {rate:.5f}"
    )
    assert fig9_result.runs >= 100
    assert drop >= 3.0, f"drop {drop:.3f} dB"
    assert 0.04 <= rate <= 0.10, f"rate {rate:.5f}"
    assert margin <= 2.0, f"margin to the full-data reference {margin:.4f} dB"


def test_criterion_8_operation_counts_and_orderings(tmp_path):
    for name in COMPLEXITY_ALGORITHMS:
        counts = complexity_counts(
            name, 16, 1000, update_fraction=0.06, projection_order=3
        )
        assert counts == EXPECTED_COUNTS[name], name
    assert complexity_counts("sm-cg", 16, 1000, update_fraction=0.06)[1] == 77680.0
    path = tmp_path / "complexity.csv"
    emit_complexity_table(path, range(8, 65, 8))
    mults = {}
    for line in path.read_text().splitlines()[1:]:
        fields = line.split(",")
        mults[(int(fields[0]), fields[1])] = float(fields[5])
    for m in range(8, 65, 8):
        assert mults[(m, "sm-sg")] < mults[(m, "sm-cg")] < mults[(m, "sm-rls")], m
        assert mults[(m, "sm-cg")] < mults[(m, "ds-cg")], m
    print(
        "criterion 8: all eight operation-count rows exact at "
        "(m=16, N=1000, fraction=0.06, L=3); emitted-table orderings hold "
        "for m in 8..64"
    )


def test_criterion_9_baselines_reach_oracle_and_stay_feasible():
    cfg = ExperimentConfig(
        label="baseline_sanity",
        snr_db=0.0,
        inr_db=20.0,
        epochs=((1, 3),),
        n_snapshots=3000,
        runs=25,
        master_seed=1,
        algorithms=(
            algo("sg", "sg"),
            algo("rls", "rls"),
            algo("cg", "cg"),
            algo("mvdr", "mvdr"),
        ),
    )
    res = run_experiment(cfg)
    opt = res.mean_sinr_db["mvdr"][-1]
    gaps = {lab: opt - res.mean_sinr_db[lab][-1] for lab in ("sg", "rls", "cg")}
    worst_err = max(res.max_constraint_error[lab] for lab in gaps)
    print(
        "criterion 9: final gaps to the oracle "
        + ", ".join(f"{k}={v:.3f} dB" for k, v in gaps.items())
        + f"; worst constraint error {worst_err:.3e}"
    )
    for lab, gap in gaps.items():
        assert gap <= 2.0, f"{lab}: {gap:.3f} dB"
        assert res.max_constraint_error[lab] <= 1e-8, lab
