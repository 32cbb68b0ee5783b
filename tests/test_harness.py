"""Experiment configuration, Monte-Carlo driver, presets and emitters."""

import configparser
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from reference import generate_snapshot_reference

from smcgbeam import harness
from smcgbeam.arrays import (
    desired_covariance,
    generate_snapshot,
    interference_covariance,
    steering_vector,
)
from smcgbeam.harness import (
    AlgoSpec,
    ConfigError,
    ExperimentConfig,
    RunDivergedError,
    algo,
    apply_overrides,
    build_scenario,
    config_to_sections,
    emit_complexity_table,
    emit_csv,
    load_config_file,
    preset,
    presets,
    run_experiment,
    sections_to_config,
)
from smcgbeam.metrics import sinr_linear
from smcgbeam.smcg import SmCgState


def tiny_config(**kw):
    base = dict(
        label="tiny",
        m=4,
        snr_db=10.0,
        inr_db=20.0,
        epochs=((1, 3),),
        n_snapshots=50,
        runs=2,
        master_seed=5,
        algorithms=(
            algo("smcg", "smcg"),
            algo("sg", "sg"),
            algo("mvdr", "mvdr"),
        ),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestAlgoSpec:
    def test_params_are_sorted(self):
        spec = algo("x", "smcg", zeta=1.0, alpha=2.0)
        assert spec.params == (("alpha", 2.0), ("zeta", 1.0))

    def test_get_with_default(self):
        spec = algo("x", "smcg", eta=0.25)
        assert spec.get("eta") == 0.25
        assert spec.get("missing", 7) == 7


class TestValidation:
    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(m=0), "m must be"),
            (dict(spacing_wavelengths=0.0), "spacing_wavelengths"),
            (dict(noise_power=0.0), "noise_power"),
            (dict(snr_db=float("inf")), "finite"),
            (dict(desired_doa_deg=200.0), "desired_doa_deg"),
            (dict(doa_min_deg=150.0, doa_max_deg=100.0), "doa_min_deg"),
            (dict(doa_guard_deg=-1.0), "non-negative"),
            (
                dict(doa_min_deg=85.0, doa_max_deg=95.0, doa_guard_deg=5.0),
                "whole interferer interval",
            ),
            (dict(n_snapshots=0), "n_snapshots"),
            (dict(runs=0), "runs"),
            (dict(master_seed=-1), "master_seed"),
            (dict(epochs=()), "epochs must not be empty"),
            (dict(epochs=((2, 3),)), "start at snapshot 1"),
            (dict(epochs=((1, 3), (1, 4))), "strictly increasing"),
            (dict(epochs=((1, 3), (100, 4))), "beyond n_snapshots"),
            (dict(epochs=((1, 0),)), "at least one source"),
            (dict(epochs=((1, 9),)), "more sources than sensors"),
            (dict(algorithms=()), "algorithms must not be empty"),
            (
                dict(algorithms=(algo("a", "sg"), algo("a", "rls"))),
                "unique",
            ),
            (dict(algorithms=(algo("x", "nope"),)), "kind 'nope' unknown"),
            (
                dict(algorithms=(algo("x", "smcg", bound="weird"),)),
                "bound 'weird' unknown",
            ),
            (
                dict(algorithms=(algo("x", "smcg", bound="fixed"),)),
                "needs delta",
            ),
            pytest.param(
                dict(algorithms=(algo("x", "smcg", epsilion=5),)),
                r"algorithms\[x\]\.epsilion is not a parameter",
                id="unknown-key",
            ),
            pytest.param(
                dict(algorithms=(algo("x", "smcg", bound="fixed", delta=1.0, rho=0.9),)),
                r"algorithms\[x\]\.rho is not a parameter of kind 'smcg' with bound 'fixed'",
                id="key-of-another-bound",
            ),
            pytest.param(
                dict(algorithms=(algo("x", "rls", eta=0.5),)),
                r"algorithms\[x\]\.eta is not a parameter of kind 'rls'",
                id="key-of-another-kind",
            ),
            pytest.param(
                dict(algorithms=(algo("x", "smcg", eta="abc"),)),
                r"algorithms\[x\]\.eta must be a finite number",
                id="not-a-number",
            ),
            pytest.param(
                dict(algorithms=(algo("x", "cg", r_hat_init=float("inf")),)),
                r"algorithms\[x\]\.r_hat_init must be a finite number",
                id="not-finite",
            ),
            pytest.param(
                dict(algorithms=(algo("x", "sg", normalized=1),)),
                r"algorithms\[x\]\.normalized must be true or false",
                id="not-a-flag",
            ),
            pytest.param(
                dict(algorithms=(algo("x", "smcg", eta=0.9),)),
                r"algorithms\[x\]\.eta must lie in \[0, 0.5\]",
                id="eta-out-of-range",
            ),
            pytest.param(
                dict(algorithms=(algo("x", "rls", forgetting=1.5),)),
                r"algorithms\[x\]\.forgetting must lie in \(0, 1\]",
                id="forgetting-out-of-range",
            ),
            pytest.param(
                dict(algorithms=(algo("x", "smcg", lambda1_min=0.5, lambda1_max=0.2),)),
                r"algorithms\[x\]\.lambda1_min must not exceed",
                id="empty-clamp",
            ),
            (dict(noise_power=float("inf")), "noise_power must be finite"),
            (dict(doa_guard_deg=float("nan")), "doa_guard_deg must be finite"),
            (dict(gamma=0.0), "gamma must be non-zero"),
            (dict(gamma=float("nan")), "gamma must be finite"),
            (dict(gamma=float("inf")), "gamma must be finite"),
            pytest.param(
                dict(m=1, epochs=((1, 1),), algorithms=(algo("x", "smcg"),)),
                r"algorithms\[x\]\.steering must have at least 2 entries: "
                "one sensor leaves no direction conjugate to p",
                id="one-sensor-smcg",
            ),
            pytest.param(
                dict(m=1, epochs=((1, 1),), algorithms=(algo("x", "cg"),)),
                r"algorithms\[x\]\.steering must have at least 2 entries",
                id="one-sensor-cg",
            ),
            pytest.param(
                dict(inr_db=4000.0),
                r"inr_db gives the source power noise_power \* 10\^\(inr_db/10\) = inf, "
                "not a positive finite float",
                id="inr-power-overflows",
            ),
            pytest.param(
                dict(snr_db=-4000.0),
                r"snr_db gives the source power .* = 0\.0, not a positive finite float",
                id="snr-power-underflows",
            ),
            pytest.param(
                dict(noise_power=1e300, snr_db=100.0),
                r"snr_db gives the source power .* = inf",
                id="noise-times-snr-overflows",
            ),
            pytest.param(
                dict(inr_db=3080.0),
                "snr_db and inr_db give the 3 sources of the largest epoch the total "
                "received power inf, not a finite float",
                id="total-power-overflows",
            ),
            pytest.param(
                dict(algorithms=(algo("x", "smcg", bound="fixed", delta=1e200),)),
                r"algorithms\[x\]\.delta squared must be a finite float, got 1e\+200",
                id="fixed-delta-squared-overflows",
            ),
            pytest.param(
                dict(snr_db=10**400), r"snr_db must be finite, got 10{400}$",
                id="int-beyond-float-range",
            ),
            pytest.param(
                dict(algorithms=(algo("x", "smcg", eta=10**400),)),
                r"algorithms\[x\]\.eta must be a finite number, got 10{400}$",
                id="param-int-beyond-float-range",
            ),
            pytest.param(dict(m=16.0), r"m must be an integer, got 16\.0", id="float-for-int"),
            pytest.param(
                dict(epochs=((1, 3.0),)), r"epochs must be an integer, got 3\.0",
                id="epochs-float-sources",
            ),
            pytest.param(
                dict(epochs=((1.0, 3),)), r"epochs must be an integer, got 1\.0",
                id="epochs-float-start",
            ),
            pytest.param(
                dict(epochs=((True, 3),)), "epochs must be an integer, got True",
                id="epochs-bool-start",
            ),
            pytest.param(
                dict(epochs=(1, 10)), r"epochs entry 1 is not a \(start, sources\) pair",
                id="epochs-flat-pair",
            ),
            pytest.param(dict(label=""), r"^label must be non-empty text", id="empty-label"),
            pytest.param(
                dict(label="sub/dir"), r"^label must be .*, got 'sub/dir'$", id="label-slash",
            ),
            pytest.param(
                dict(label="a\\b"), r"^label must be .*, got 'a\\\\b'$", id="label-backslash",
            ),
            pytest.param(dict(label=None), r"^label must be .*, got None$", id="label-not-text"),
            *(
                pytest.param(
                    dict(algorithms=(algo("smcg", "smcg"), algo(f"a{c}b", "mvdr"))),
                    rf"^algorithms\[a{re.escape(c)}b\] must be non-empty text",
                    id=f"algorithm-label-{name}",
                )
                for c, name in [
                    (",", "comma"), ('"', "quote"), ("\n", "newline"), ("\r", "return"),
                    ("/", "slash"), ("\0", "nul"),
                ]
            ),
            pytest.param(
                dict(algorithms=(algo("", "mvdr"),)), r"^algorithms\[\] must be non-empty",
                id="algorithm-label-empty",
            ),
            pytest.param(
                dict(epochs=((1, 3), (20, -1))), "^epochs entry at 20 needs at least one source$",
                id="negative-source-count",
            ),
            pytest.param(
                dict(epochs=((1, 10**20),)), "^epochs entry at 1 has more sources than sensors$",
                id="source-count-beyond-any-array",
            ),
            pytest.param(
                dict(noise_power=-1.0), "^noise_power must be positive$", id="negative-noise-power",
            ),
        ],
    )
    def test_each_bad_field_is_named(self, kw, match):
        with pytest.raises(ConfigError, match=match):
            replace(tiny_config(), **kw).validate()

    @pytest.mark.parametrize(
        "kw", [dict(inr_db=4000.0), dict(inr_db=3080.0)],
        ids=["inr-power-overflows", "total-power-overflows"],
    )
    def test_refused_config_warns_nothing(self, kw):
        """No table is formed from a power before the power is refused."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match="power"):
                replace(tiny_config(), **kw).validate()

    @pytest.mark.parametrize("target", ["Scenario", "_gated_filter", "sg"])
    def test_allocation_failure_names_m(self, monkeypatch, target):
        """An m-by-m array of the scenario or of an entry's filter that cannot
        be allocated is a configuration error naming m. The allocation is
        refused by a stand-in, so nothing large is ever allocated."""
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 596. GiB for an array")

        if target in harness._FILTERS:
            monkeypatch.setitem(harness._FILTERS, target, refuse)
        else:
            monkeypatch.setattr(harness, target, refuse)
        with pytest.raises(ConfigError, match=r"^m = 4 is too large: Unable to allocate"):
            tiny_config().validate()

    def test_numpy_scalars_stand_for_python_numbers(self):
        """An integer NumPy scalar is an integer and a real one a number, as
        from the Python API; the run is that of the Python values."""
        cfg = tiny_config(
            m=np.int64(8), n_snapshots=np.int64(50), snr_db=np.int64(10), inr_db=np.float32(20),
            algorithms=(algo("x", "smcg", eta=np.float32(0.5)), algo("r", "rls")),
        )
        cfg.validate()
        plain = tiny_config(m=8, algorithms=(algo("r", "rls"),))
        got = run_experiment(replace(cfg, algorithms=plain.algorithms))
        assert got.mean_sinr_db["r"].tobytes() == run_experiment(plain).mean_sinr_db["r"].tobytes()

    def test_digest_tracks_content(self):
        cfg = tiny_config()
        assert cfg.digest() == cfg.digest()
        assert len(cfg.digest()) == 16
        assert cfg.digest() != replace(cfg, snr_db=11.0).digest()


class TestBuildScenario:
    def test_powers_and_source_counts(self):
        cfg = tiny_config(epochs=((1, 3), (31, 4)))
        sc = build_scenario(cfg, np.random.default_rng(0))
        first, second = sc.epochs[0][1], sc.epochs[1][1]
        assert len(first) == 3 and len(second) == 4
        assert first[0].doa_deg == 90.0
        assert first[0].power == pytest.approx(10.0)  # snr 10 dB over unit noise
        assert all(s.power == pytest.approx(100.0) for s in first[1:])
        # later epochs extend the same interferer set, never reshuffle it
        assert second[:3] == first

    def test_guard_band_respected(self):
        cfg = tiny_config(
            m=16, epochs=((1, 9),),
            doa_min_deg=80.0, doa_max_deg=100.0, doa_guard_deg=5.0,
        )
        for seed in range(20):
            sc = build_scenario(cfg, np.random.default_rng(seed))
            for s in sc.epochs[0][1][1:]:
                assert 80.0 <= s.doa_deg <= 100.0
                assert abs(s.doa_deg - 90.0) > 5.0

    def test_pure_function_of_generator(self):
        cfg = tiny_config()
        assert build_scenario(cfg, np.random.default_rng(42)) == build_scenario(
            cfg, np.random.default_rng(42)
        )


class TestRunExperiment:
    def test_smoke(self):
        cfg = tiny_config()
        res = run_experiment(cfg)
        assert res.algorithms == ("smcg", "sg", "mvdr")
        assert res.runs == 2 and res.n_snapshots == 50
        assert res.config_digest == cfg.digest()
        for lab in res.algorithms:
            assert res.mean_sinr_db[lab].shape == (50,)
            assert res.mean_delta[lab].shape == (50,)
            assert res.update_rate_cum[lab].shape == (50,)
            assert res.max_constraint_error[lab] < 1e-8
        assert res.mean_update_rate["mvdr"] == 0.0
        assert res.mean_update_rate["sg"] == 1.0
        assert 0.0 <= res.mean_update_rate["smcg"] <= 1.0
        # the oracle has no operation count; everything adaptive does
        assert set(res.complexity) == {"smcg", "sg"}

    def test_bit_identical_reruns(self):
        res1 = run_experiment(tiny_config())
        res2 = run_experiment(tiny_config())
        for lab in res1.algorithms:
            npt.assert_array_equal(res1.mean_sinr_db[lab], res2.mean_sinr_db[lab])
            npt.assert_array_equal(res1.mean_delta[lab], res2.mean_delta[lab])
            npt.assert_array_equal(
                res1.update_rate_cum[lab], res2.update_rate_cum[lab]
            )
        assert res1.mean_update_rate == res2.mean_update_rate

    def test_traces_independent_of_roster_and_horizon(self):
        """Every entry sees the same snapshot stream whatever runs beside it.

        Adding a roster entry or cutting the run short must leave the traces
        of the entries they share bit-identical.
        """
        base = tiny_config(epochs=((1, 2), (25, 3)))
        full = run_experiment(base)
        wider = run_experiment(
            replace(base, algorithms=base.algorithms + (algo("rls", "rls"),))
        )
        short = run_experiment(replace(base, n_snapshots=35))
        for lab in full.algorithms:
            for other, n in ((wider, 50), (short, 35)):
                npt.assert_array_equal(
                    other.mean_sinr_db[lab], full.mean_sinr_db[lab][:n]
                )
                npt.assert_array_equal(
                    other.mean_delta[lab], full.mean_delta[lab][:n]
                )
                npt.assert_array_equal(
                    other.update_rate_cum[lab], full.update_rate_cum[lab][:n]
                )

    def test_traces_independent_of_roster_order(self):
        """Reversing a roster of every kind, gated entries apart, leaves
        each entry's traces bit-identical."""
        roster = (
            algo("sg", "sg"),
            algo("smcg_pidb", "smcg", bound="pidb"),
            algo("rls", "rls"),
            algo("smcg_fixed", "smcg", bound="fixed", delta=2.0),
            algo("cg", "cg"),
            algo("mvdr", "mvdr"),
        )
        base = tiny_config(m=6, epochs=((1, 3), (200, 5)), n_snapshots=600, algorithms=roster)
        forward = run_experiment(base)
        backward = run_experiment(replace(base, algorithms=roster[::-1]))
        for name in ("mean_sinr_db", "mean_delta", "update_rate_cum"):
            for spec in roster:
                got = getattr(backward, name)[spec.label]
                assert got.tobytes() == getattr(forward, name)[spec.label].tobytes(), (name, spec)

    def test_entry_that_never_updates_is_scored_on_its_initial_weights(self):
        """A gate that never opens leaves the quiescent weights, and each
        epoch scores them, whatever the entry before it left in the block."""
        cfg = tiny_config(
            epochs=((1, 2), (25, 3)), runs=1,
            algorithms=(algo("mvdr", "mvdr"), algo("shut", "smcg", bound="fixed", delta=1e9)),
        )
        res = run_experiment(cfg)
        assert res.mean_update_rate["shut"] == 0.0
        scenario = build_scenario(cfg, np.random.default_rng(cfg.master_seed))
        w0 = SmCgState(steering_vector(scenario.geometry, scenario.desired_doa_deg)).w
        for start, stop in ((1, 25), (25, 51)):
            sinr = sinr_linear(
                w0, desired_covariance(scenario, start), interference_covariance(scenario, start)
            )
            npt.assert_allclose(res.mean_sinr_db["shut"][start - 1 : stop - 1], 10 * np.log10(sinr))

    def test_master_seed_changes_results(self):
        res1 = run_experiment(tiny_config())
        res2 = run_experiment(tiny_config(master_seed=6))
        assert not np.array_equal(
            res1.mean_sinr_db["smcg"], res2.mean_sinr_db["smcg"]
        )

    def test_cross_run_mean_is_linear(self):
        combined = run_experiment(tiny_config(runs=2, master_seed=5))
        parts = [
            run_experiment(tiny_config(runs=1, master_seed=5 ^ k)) for k in range(2)
        ]
        for lab in combined.algorithms:
            lin = np.mean(
                [10.0 ** (p.mean_sinr_db[lab] / 10.0) for p in parts], axis=0
            )
            npt.assert_allclose(
                combined.mean_sinr_db[lab], 10.0 * np.log10(lin), rtol=1e-10
            )
            npt.assert_allclose(
                combined.update_rate_cum[lab],
                np.mean([p.update_rate_cum[lab] for p in parts], axis=0),
                rtol=1e-12, atol=1e-15,
            )
            assert combined.mean_update_rate[lab] == pytest.approx(
                np.mean([p.mean_update_rate[lab] for p in parts])
            )
            assert combined.max_constraint_error[lab] == pytest.approx(
                max(p.max_constraint_error[lab] for p in parts)
            )

    def test_divergence_reported_with_context(self):
        cfg = tiny_config(
            m=8, inr_db=30.0, epochs=((1, 4),), n_snapshots=100, runs=1,
            algorithms=(algo("sg", "sg", normalized=False, step_size=1000.0),),
        )
        with np.errstate(all="ignore"), pytest.raises(RunDivergedError) as err:
            run_experiment(cfg)
        assert "run 0" in str(err.value)
        assert "'sg'" in str(err.value)

    def test_diverging_rls_reported_with_context(self):
        """A non-finite inverse covariance names run, algorithm and snapshot."""
        cfg = tiny_config(runs=1, algorithms=(algo("rls", "rls", inv_init=1e-320),))
        with np.errstate(all="ignore"), pytest.raises(RunDivergedError) as err:
            run_experiment(cfg)
        assert str(err.value) == (
            "run 0: non-finite inverse covariance for algorithm 'rls' at snapshot 1"
        )

    def test_nonfinite_rls_row_named_by_its_snapshot(self, monkeypatch):
        """Row 37 of the block starting at 257 is snapshot 294."""
        cfg = tiny_config(n_snapshots=600, runs=1, algorithms=(algo("rls", "rls"),))
        draw = harness.generate_snapshot

        def poisoned(scenario, i, rng, block):
            draw(scenario, i, rng, block)
            if i == 257 + 37:
                block.noise[block.count - 1] = np.nan

        monkeypatch.setattr(harness, "generate_snapshot", poisoned)
        with pytest.raises(RunDivergedError) as err:
            run_experiment(cfg)
        assert str(err.value) == (
            "run 0: non-finite inverse covariance for algorithm 'rls' at snapshot 294"
        )

    def test_nonpositive_output_power_at_extreme_inr_named(self):
        """fig6 at INR 200 dB: RLS's weights at snapshot 12 are finite and meet
        the constraint, but ``w^H R_in w`` rounds to about -1004."""
        (cfg,) = preset("fig6", runs=1)
        cfg = replace(cfg, inr_db=200.0, n_snapshots=300)
        with np.errstate(all="ignore"), pytest.raises(RunDivergedError) as err:
            run_experiment(cfg)
        assert str(err.value) == (
            "run 0: the weights are finite but the interference-plus-noise output power "
            "is not positive for algorithm 'rls' at snapshot 12"
        )

    def test_nonfinite_sinr_named_by_its_snapshot(self, monkeypatch):
        """SG's weights turn not-a-number at its 37th step: the block that
        holds it names snapshot 37."""
        step, calls = harness.FrostSg.step, []

        def poisoned(self, r):
            calls.append(r)
            y = step(self, r)
            if len(calls) == 37:
                self.w = np.full_like(self.w, np.nan)
            return y

        monkeypatch.setattr(harness.FrostSg, "step", poisoned)
        with pytest.raises(RunDivergedError) as err:
            run_experiment(tiny_config(n_snapshots=300), workers=1)
        assert str(err.value) == "run 0: non-finite sinr for algorithm 'sg' at snapshot 37"

    def test_nonfinite_bound_behind_a_shut_gate_named(self, monkeypatch):
        """An infinite bound from snapshot 290 shuts the gate, so the weights
        stay finite; the bound itself is named at 290."""
        update, calls = harness.PidbBound.update, []

        def poisoned(self, y0, y, w):
            calls.append(y)
            update(self, y0, y, w)
            if len(calls) >= 290:
                self.delta = math.inf

        monkeypatch.setattr(harness.PidbBound, "update", poisoned)
        with pytest.raises(RunDivergedError) as err:
            run_experiment(tiny_config(n_snapshots=300), workers=1)
        assert str(err.value) == "run 0: non-finite bound for algorithm 'smcg' at snapshot 290"

    def test_nonfinite_constraint_error_named_by_its_snapshot(self, monkeypatch):
        """Row 36 of the block starting at 257 is snapshot 293."""
        errors, calls = harness.constraint_error_rows, []

        def poisoned(w_rows, steering, gamma):
            errs = errors(w_rows, steering, gamma)
            calls.append(errs)
            if len(calls) == 2:
                errs[36] = math.inf
            return errs

        monkeypatch.setattr(harness, "constraint_error_rows", poisoned)
        with pytest.raises(RunDivergedError) as err:
            run_experiment(tiny_config(n_snapshots=300, algorithms=(algo("sg", "sg"),)), workers=1)
        assert str(err.value) == "run 0: non-finite weights for algorithm 'sg' at snapshot 293"

    @pytest.mark.parametrize("kind", ["smcg", "cg"])
    def test_failed_step_reported_with_context(self, monkeypatch, kind):
        """A ValueError out of a step names the run, the algorithm and the snapshot."""
        cfg = tiny_config(n_snapshots=300, runs=2, algorithms=(algo("x", kind),))
        step = harness.SmCgState.step
        calls = []

        def failing(self, r, delta, y):
            calls.append(r)
            if len(calls) == 280:
                raise ValueError("covariance estimate lost positive definiteness")
            return step(self, r, delta, y)

        monkeypatch.setattr(harness.SmCgState, "step", failing)
        with pytest.raises(RunDivergedError) as err:
            run_experiment(cfg, workers=1)
        assert str(err.value) == (
            "run 0: covariance estimate lost positive definiteness "
            "for algorithm 'x' at snapshot 280"
        )

    def test_failed_stacked_step_names_its_entry(self, monkeypatch):
        """The second of three gated entries, advanced as one stack, fails:
        the message names it and the snapshot where it failed."""
        cfg = tiny_config(n_snapshots=300, runs=2, algorithms=(
            algo("a", "smcg"), algo("b", "smcg", eta=0.25), algo("c", "smcg"),
        ))
        step = harness.SmCgState.step
        calls = []

        def failing(self, r, delta, y):
            if self.eta == 0.25:
                calls.append(r)
                if len(calls) == 280:
                    raise ValueError("covariance estimate lost positive definiteness")
            return step(self, r, delta, y)

        monkeypatch.setattr(harness.SmCgState, "step", failing)
        with pytest.raises(RunDivergedError) as err:
            run_experiment(cfg, workers=1)
        assert str(err.value) == (
            "run 0: covariance estimate lost positive definiteness "
            "for algorithm 'b' at snapshot 280"
        )

    @pytest.mark.parametrize(
        "name, changes",
        [
            ("fig9", dict(inr_db=3070.0, epochs=((1, 8), (200, 12)))),
        ],
        ids=["fig9"],
    )
    def test_overflowing_bound_reported_with_context(self, name, changes):
        """PIDB's ``|y0 - y|^2`` beyond float range ends the run with the
        run, the entry and the snapshot named, not an ``OverflowError``."""
        (cfg,) = preset(name, runs=1)
        cfg = replace(cfg, n_snapshots=300, **changes)
        with np.errstate(all="ignore"), pytest.raises(RunDivergedError) as err:
            run_experiment(cfg)
        assert str(err.value) == (
            "run 0: bound or output beyond float range for algorithm 'smcg' at snapshot 1"
        )
        assert isinstance(err.value.__cause__.__cause__, OverflowError)

    def test_overflowing_total_power_refused_before_running(self):
        """fig6 at INR 3080 dB: each source power is finite, but nine
        interferers of 1e308 sum beyond float range."""
        (cfg,) = preset("fig6", runs=1)
        cfg = replace(cfg, n_snapshots=300, inr_db=3080.0)
        with pytest.raises(ConfigError, match=r"snr_db and inr_db give the 10 sources .* power inf"):
            run_experiment(cfg)

    def test_overflowing_gate_reported_with_context(self, monkeypatch):
        """An output whose square leaves float range fails at the gate."""
        cfg = tiny_config(runs=1, algorithms=(algo("wide", "smcg", bound="fixed", delta=1.0),))
        draw = harness.generate_snapshot

        def poisoned(scenario, i, rng, block):
            draw(scenario, i, rng, block)
            if i == 1:
                block.noise[block.count - 1] = 1e200

        monkeypatch.setattr(harness, "generate_snapshot", poisoned)
        with pytest.raises(RunDivergedError) as err:
            run_experiment(cfg)
        assert str(err.value) == (
            "run 0: bound or output beyond float range for algorithm 'wide' at snapshot 1"
        )
        assert isinstance(err.value.__cause__.__cause__, OverflowError)

    def test_alternating_gate_forms_few_outputs(self, monkeypatch):
        """fig5's PDB entry accepts about 84 % of snapshots, in short streaks.
        Its outputs ``w^H r`` are formed for at most twice the snapshots."""
        (fig5,) = preset("fig5", runs=1)
        cfg = replace(fig5, algorithms=tuple(
            spec for spec in fig5.algorithms if spec.label in ("smcg_pdb", "mvdr")
        ))
        vecdot, formed = np.vecdot, []

        def counting_vecdot(x1, x2, **kwargs):
            out = vecdot(x1, x2, **kwargs)
            if np.ndim(x2) == 3:  # the stack's outputs over block[start:ahead, None]
                formed.append(len(out))
            return out

        monkeypatch.setattr(harness.np, "vecdot", counting_vecdot)
        result = run_experiment(cfg, workers=1)
        assert 0.7 < result.mean_update_rate["smcg_pdb"] < 0.95
        assert cfg.n_snapshots <= sum(formed) <= 2 * cfg.n_snapshots

    @pytest.mark.parametrize(
        "case",
        [
            dict(m=2, epochs=((1, 2),)),
            dict(m=64),
            dict(inr_db=-20.0),
            dict(inr_db=60.0),
            dict(snr_db=-30.0),
            dict(snr_db=40.0),
            dict(noise_power=1e-6),
            dict(noise_power=1e6),
            dict(gamma=-3.0),
        ],
        ids=lambda case: ",".join(f"{k}={v}" for k, v in case.items()),
    )
    def test_edge_scenarios_run_and_hold_the_constraint(self, case):
        """Every kind, at its defaults, runs the edges of the scenario space."""
        cfg = ExperimentConfig(
            label="edge", n_snapshots=300, runs=2,
            algorithms=tuple(algo(kind, kind) for kind in ("smcg", "sg", "rls", "cg", "mvdr")),
            **case,
        )
        result = run_experiment(cfg)
        for label, err in result.max_constraint_error.items():
            assert err <= 1e-12, label

    def test_one_sensor_runs_the_kinds_that_allow_it(self):
        cfg = tiny_config(
            m=1, epochs=((1, 1),),
            algorithms=(algo("sg", "sg"), algo("rls", "rls"), algo("mvdr", "mvdr")),
        )
        result = run_experiment(cfg)
        assert all(err <= 1e-12 for err in result.max_constraint_error.values())

    @staticmethod
    def _engine_blocks(cfg, monkeypatch):
        """The first snapshot and the rows of every block the engine forms."""
        seen = []
        run_block = harness._MvdrEntry.run

        def record(self, block, first, *rest):
            seen.append((first, block.copy()))
            run_block(self, block, first, *rest)

        monkeypatch.setattr(harness._MvdrEntry, "run", record)
        run_experiment(cfg, workers=1)
        return [first for first, _ in seen], np.concatenate([rows for _, rows in seen])

    def test_snapshot_stream_contract(self, monkeypatch):
        """The engine draws exactly what successive generate_snapshot calls draw.

        Per run: the interferer angles, then per snapshot the symbols, the
        real and the imaginary noise. The epoch switches from an even to an
        odd source count, and the horizon is not a whole number of blocks.
        """
        cfg = tiny_config(
            epochs=((1, 2), (300, 3)), n_snapshots=600, runs=1,
            algorithms=(algo("smcg", "smcg"), algo("rls", "rls"), algo("mvdr", "mvdr")),
        )
        assert cfg.n_snapshots % harness._BLOCK != 0
        firsts, got = self._engine_blocks(cfg, monkeypatch)
        rng = np.random.default_rng(cfg.master_seed)
        scenario = build_scenario(cfg, rng)
        expected = np.array(
            [generate_snapshot(scenario, i, rng) for i in range(1, cfg.n_snapshots + 1)]
        )
        assert firsts == [1, 257, 300, 556]
        assert got.tobytes() == expected.tobytes()

    def test_odd_half_carries_across_blocks_and_epochs(self, monkeypatch):
        """An odd leftover 32-bit half crosses block and epoch boundaries.

        299 x 3 halves precede the epoch change at 300, which is also a
        block's start, and 299 x 3 + 256 x 5 precede the block at 556: both
        odd, so the first symbol of each block is the previous block's
        leftover half. The engine's blocks equal successive draws of the
        reference, which draws its symbols with ``integers``.
        """
        cfg = tiny_config(
            m=8, epochs=((1, 3), (300, 5)), n_snapshots=600, runs=1,
            algorithms=(algo("rls", "rls"), algo("mvdr", "mvdr")),
        )
        firsts, got = self._engine_blocks(cfg, monkeypatch)
        rng = np.random.default_rng(cfg.master_seed)
        scenario = build_scenario(cfg, rng)
        expected = np.array(
            [generate_snapshot_reference(scenario, i, rng) for i in range(1, cfg.n_snapshots + 1)]
        )
        assert firsts == [1, 257, 300, 556]
        assert got.tobytes() == expected.tobytes()

    def test_one_generate_snapshot_call_per_snapshot(self, monkeypatch):
        """Tracing by name counts one ``generate_snapshot`` call per snapshot
        and run, through a pass-through wrapper that changes no result."""
        cfg = tiny_config(epochs=((1, 3), (40, 4)), n_snapshots=300, runs=3)
        plain = run_experiment(cfg)
        calls = []
        draw = harness.generate_snapshot

        def counted(*args, **kwargs):
            calls.append(args[1])
            return draw(*args, **kwargs)

        monkeypatch.setattr(harness, "generate_snapshot", counted)
        wrapped = run_experiment(cfg, workers=1)
        assert calls == list(range(1, cfg.n_snapshots + 1)) * cfg.runs
        for name in ("mean_sinr_db", "mean_delta", "update_rate_cum"):
            for label in plain.algorithms:
                got, want = getattr(wrapped, name)[label], getattr(plain, name)[label]
                assert got.tobytes() == want.tobytes(), (name, label)
        assert wrapped.mean_update_rate == plain.mean_update_rate
        assert wrapped.max_constraint_error == plain.max_constraint_error

    def test_validates_before_running(self):
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(runs=0))

    @pytest.mark.parametrize("m", [2, 16, 64])
    @pytest.mark.parametrize("bound", ["fixed", "pidb"])
    def test_gated_entry_matches_per_snapshot_loop(self, m, bound):
        """Outputs formed a block at a time drive the filter bit for bit as
        ``vdot`` per snapshot does, through runs of updates and rejections."""
        params = dict(bound="fixed", delta=2.5) if bound == "fixed" else dict(bound="pidb")
        cfg = tiny_config(m=m, epochs=((1, 2),), n_snapshots=300, runs=1,
                          algorithms=(algo("x", "smcg", **params),))
        rng = np.random.default_rng(cfg.master_seed)
        scenario = build_scenario(cfg, rng)
        a0 = steering_vector(scenario.geometry, scenario.desired_doa_deg)
        rows = np.array([generate_snapshot(scenario, i, rng) for i in range(1, 301)])
        stack = harness._GatedStack([0], cfg.algorithms, a0, cfg.gamma, scenario.noise_power)
        ((_, stacked, _, _),) = stack.rows
        upd, dlt = np.zeros((1, 300), dtype=bool), np.zeros((1, 300))
        for first in (1, 257):
            cols = slice(first - 1, first + 255)
            stack.run(rows[cols], first, upd[:, cols], dlt[:, cols])
        upd, dlt = upd[0], dlt[0]

        state, policy = harness._gated_filter(
            cfg.algorithms[0], a0, cfg.gamma, scenario.noise_power
        )
        ref_upd, ref_dlt = [], []
        for r in rows:
            y = np.vdot(state.w, r)
            policy.update(np.vdot(a0, r), y, state.w)
            ref_dlt.append(policy.delta)
            ref_upd.append(state.step(r, policy.delta, y).updated)
        assert 0 < upd.sum() < 300
        assert upd.tolist() == ref_upd
        assert dlt.tobytes() == np.array(ref_dlt).tobytes()
        assert stacked.w.tobytes() == state.w.tobytes()
        assert stacked.r_hat.tobytes() == state.r_hat.tobytes()


class TestPresets:
    def test_catalogue_is_valid(self):
        for configs in presets().values():
            for cfg in configs:
                cfg.validate()

    def test_snr_sweep_expands(self):
        sweep = presets()["fig8"]
        assert [c.label for c in sweep] == [
            f"fig8_snr{s:02d}" for s in range(0, 31, 5)
        ]
        assert [c.snr_db for c in sweep] == [float(s) for s in range(0, 31, 5)]

    def test_tracking_preset_switches_epoch(self):
        (cfg,) = preset("fig9")
        assert cfg.epochs == ((1, 8), (3000, 12))
        assert cfg.n_snapshots == 6000

    def test_override_runs_and_seed(self):
        (cfg,) = preset("fig6", runs=3, master_seed=9)
        assert cfg.runs == 3 and cfg.master_seed == 9 and cfg.label == "fig6"

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset("fig7")


class TestConfigFiles:
    def test_round_trip_through_file(self, tmp_path):
        (cfg,) = preset("fig9")
        parser = configparser.ConfigParser()
        parser.read_dict(config_to_sections(cfg))
        path = tmp_path / "exp.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        assert load_config_file(path) == cfg

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config_file("/nonexistent/exp.ini")

    def test_unknown_scenario_key(self):
        (cfg,) = preset("fig6")
        sections = config_to_sections(cfg)
        sections["scenario"]["mystery"] = "3"
        with pytest.raises(ConfigError, match="scenario.mystery"):
            sections_to_config(sections)

    def test_unknown_run_key(self):
        with pytest.raises(ConfigError, match="run.run is not a recognised key"):
            sections_to_config({"run": {"run": "3"}, "algo:rls": {"kind": "rls"}})

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"section \[scenaro\] is not"):
            sections_to_config({"scenaro": {"m": "4"}, "algo:rls": {"kind": "rls"}})

    def test_round_trip_keeps_every_preset_digest(self):
        for configs in presets().values():
            for cfg in configs:
                back = sections_to_config(config_to_sections(cfg))
                assert back.digest() == cfg.digest(), cfg.label

    def test_flag_round_trips(self):
        cfg = tiny_config(algorithms=(algo("sg", "sg", normalized=False),))
        sections = config_to_sections(cfg)
        assert sections["algo:sg"]["normalized"] == "false"
        assert sections_to_config(sections) == cfg

    def test_flag_that_is_not_true_or_false(self):
        with pytest.raises(
            ConfigError, match=r"algorithms\[sg\]\.normalized must be true or false, got 'maybe'"
        ):
            sections_to_config({"algo:sg": {"kind": "sg", "normalized": "maybe"}})

    def test_algo_section_requires_kind(self):
        with pytest.raises(ConfigError, match="algo:x is missing"):
            sections_to_config({"algo:x": {"eta": "0.5"}})

    def test_bad_epochs_entry(self):
        with pytest.raises(ConfigError, match="not start:sources"):
            sections_to_config({"scenario": {"epochs": "abc"}})

    def test_defaults_fill_missing_sections(self):
        cfg = sections_to_config({"algo:rls": {"kind": "rls"}})
        assert cfg.m == 16 and cfg.runs == 50
        assert cfg.algorithms == (algo("rls", "rls"),)

    def test_apply_overrides(self):
        base = {"scenario": {"snr_db": "10"}}
        out = apply_overrides(
            base,
            ["scenario.snr_db=20", "run.runs=3", "algo:rls.forgetting=0.99"],
        )
        assert out["scenario"]["snr_db"] == "20"
        assert out["run"]["runs"] == "3"
        assert out["algo:rls"]["forgetting"] == "0.99"
        assert base["scenario"]["snr_db"] == "10"

    @pytest.mark.parametrize("item", ["nonsense", "runs=3"])
    def test_bad_override(self, item):
        with pytest.raises(ConfigError, match="section.key=value"):
            apply_overrides({}, [item])


class TestEmitters:
    def test_csv_layout_and_determinism(self, tmp_path):
        res = run_experiment(tiny_config(n_snapshots=10, runs=1))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(res, p1)
        emit_csv(res, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "snapshot,algorithm,mean_sinr_db,mean_delta,update_rate_cum"
        assert len(lines) == 1 + 10 * 3
        assert lines[1].startswith("1,smcg,")
        assert lines[-1].startswith("10,mvdr,")

    def test_csv_formats_every_value_as_written_alone(self, tmp_path):
        """Runs of equal values are formatted once; values that compare equal
        but differ in their bits (0.0 and -0.0) are not one run."""
        col = np.array([1.0, 1.0, 0.0, -0.0, -0.0, np.nan, np.nan, np.inf, 1 / 3, 1 / 3, 2.5])
        n = len(col)
        res = harness.AggregateResult(
            label="x", runs=1, n_snapshots=n, master_seed=1, config_digest="",
            algorithms=("a", "b"),
            mean_sinr_db={"a": col, "b": col[::-1].copy()},
            mean_delta={"a": np.zeros(n), "b": col * 7},
            update_rate_cum={"a": np.arange(n) / n, "b": np.ones(n)},
            mean_update_rate={}, max_constraint_error={},
        )
        path = tmp_path / "x.csv"
        emit_csv(res, path)
        expected = ["snapshot,algorithm,mean_sinr_db,mean_delta,update_rate_cum"] + [
            f"{k + 1},{lab},{res.mean_sinr_db[lab][k]:.9g},{res.mean_delta[lab][k]:.9g},"
            f"{res.update_rate_cum[lab][k]:.9g}"
            for k in range(n)
            for lab in ("a", "b")
        ]
        assert path.read_text().splitlines() == expected
        assert "3,a,0," in path.read_text() and "4,a,-0," in path.read_text()

    def test_complexity_table_rows(self, tmp_path):
        path = tmp_path / "complexity.csv"
        emit_complexity_table(path, (16,))
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "m,algorithm,update_fraction,projection_order,additions,multiplications"
        )
        assert len(lines) == 9
        # each selective algorithm is costed at its own observed accept rate
        assert "16,sm-cg,0.06,,70760,77680" in lines
        assert "16,rls,,,1007000,1359000" in lines
        assert "16,sm-sg,0.198,,41504,50266" in lines
        assert "16,sm-ap,0.137,3,58208,69880" in lines
