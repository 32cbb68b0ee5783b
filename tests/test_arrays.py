"""Array model, scenario bookkeeping and snapshot statistics."""

import copy

import numpy as np
import numpy.testing as npt
import pytest
from reference import generate_snapshot_reference

from smcgbeam.arrays import (
    ArrayGeometry,
    Scenario,
    SnapshotBlock,
    Source,
    desired_covariance,
    epoch_index,
    generate_snapshot,
    interference_covariance,
    steering_vector,
    total_covariance,
)
from smcgbeam.harness import ConfigError, ExperimentConfig, algo


def make_scenario(m=4, n_snapshots=80):
    geometry = ArrayGeometry(m)
    first = (Source(90.0, 10.0), Source(40.0, 100.0), Source(135.0, 100.0))
    second = first + (Source(60.0, 100.0),)
    return Scenario(
        geometry=geometry,
        epochs=((1, first), (41, second)),
        noise_power=1.0,
        n_snapshots=n_snapshots,
    )


def cycling_scenario(qs, n_snapshots, length=7, m=12):
    """Epochs of ``length`` snapshots whose source counts cycle through ``qs``."""
    sources = tuple(
        Source(90.0 if k == 0 else 10.0 + 13.0 * k, 2.3 * (k + 1) ** 1.5) for k in range(m)
    )
    starts = range(1, n_snapshots + 1, length)
    epochs = tuple((start, sources[: qs[e % len(qs)]]) for e, start in enumerate(starts))
    return Scenario(geometry=ArrayGeometry(m), epochs=epochs, noise_power=0.3,
                    n_snapshots=n_snapshots)


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        a = steering_vector(ArrayGeometry(8), 90.0)
        npt.assert_allclose(a, np.ones(8), atol=1e-12)

    def test_unit_modulus_and_norm(self):
        a = steering_vector(ArrayGeometry(16), 37.0)
        npt.assert_allclose(np.abs(a), 1.0, atol=1e-12)
        assert np.vdot(a, a).real == pytest.approx(16.0, abs=1e-12)

    def test_endfire_phase_progression(self):
        # cos(0) = 1 at half-wavelength spacing alternates element signs
        a = steering_vector(ArrayGeometry(4, 0.5), 0.0)
        npt.assert_allclose(a, [1, -1, 1, -1], atol=1e-12)

    def test_phase_matches_definition(self):
        geom = ArrayGeometry(5, 0.37)
        theta = 72.5
        a = steering_vector(geom, theta)
        k = np.arange(5)
        expected = np.exp(-2j * np.pi * 0.37 * np.cos(np.radians(theta)) * k)
        npt.assert_allclose(a, expected, rtol=1e-14)

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(ValueError):
            steering_vector(ArrayGeometry(4), -1.0)
        with pytest.raises(ValueError):
            steering_vector(ArrayGeometry(4), 180.5)


class TestScenarioValidation:
    def test_first_epoch_must_start_at_one(self):
        with pytest.raises(ValueError):
            Scenario(
                geometry=ArrayGeometry(4),
                epochs=((2, (Source(90.0, 1.0),)),),
                noise_power=1.0,
                n_snapshots=10,
            )

    def test_epoch_starts_strictly_increasing(self):
        src = (Source(90.0, 1.0),)
        with pytest.raises(ValueError):
            Scenario(
                geometry=ArrayGeometry(4),
                epochs=((1, src), (1, src)),
                noise_power=1.0,
                n_snapshots=10,
            )

    def test_desired_angle_must_not_move(self):
        with pytest.raises(ValueError):
            Scenario(
                geometry=ArrayGeometry(4),
                epochs=(
                    (1, (Source(90.0, 1.0),)),
                    (5, (Source(80.0, 1.0),)),
                ),
                noise_power=1.0,
                n_snapshots=10,
            )

    def test_more_sources_than_sensors_rejected(self):
        sources = tuple(Source(20.0 + 10 * k, 1.0) for k in range(5))
        with pytest.raises(ValueError):
            Scenario(
                geometry=ArrayGeometry(4),
                epochs=((1, (Source(90.0, 1.0),) + sources[:4]),),
                noise_power=1.0,
                n_snapshots=10,
            )

    @pytest.mark.parametrize(
        "kw, message",
        [
            pytest.param(dict(spacing_wavelengths=0.0), "spacing_wavelengths must be positive",
                         id="spacing"),
            pytest.param(dict(noise_power=0.0), "noise_power must be positive", id="noise-power"),
            pytest.param(dict(n_snapshots=0), "n_snapshots must be at least 1", id="n-snapshots"),
            pytest.param(dict(epochs=()), "epochs must not be empty", id="no-epochs"),
            pytest.param(dict(epochs=((2, 3),)), "epochs must start at snapshot 1",
                         id="first-start-not-1"),
            pytest.param(dict(epochs=((1, 3), (1, 4))), "epochs starts must be strictly increasing",
                         id="starts-not-increasing"),
            pytest.param(dict(epochs=((1, 3), (11, 4))), "epochs start beyond n_snapshots",
                         id="start-beyond-end"),
            pytest.param(dict(epochs=((1, 0),)), "epochs entry at 1 needs at least one source",
                         id="empty-first-epoch"),
            pytest.param(dict(epochs=((1, 3), (5, 5))),
                         "epochs entry at 5 has more sources than sensors",
                         id="more-sources-than-sensors"),
        ],
    )
    def test_bad_scenario_is_named(self, kw, message):
        """One table of the scenario's rules: each bad scenario is refused with
        the same message by ``Scenario`` and by ``ExperimentConfig.validate``."""
        base = dict(m=4, n_snapshots=10, runs=1, algorithms=(algo("mvdr", "mvdr"),))
        config = ExperimentConfig(**{**base, **kw})
        q_max = max((q for _, q in config.epochs), default=0)
        sources = tuple(Source(90.0 if k == 0 else 20.0 + 10.0 * k, 1.0) for k in range(q_max))
        with pytest.raises(ValueError) as direct:
            Scenario(
                geometry=ArrayGeometry(config.m, config.spacing_wavelengths),
                epochs=tuple((start, sources[:q]) for start, q in config.epochs),
                noise_power=config.noise_power,
                n_snapshots=config.n_snapshots,
            )
        with pytest.raises(ConfigError) as validated:
            config.validate()
        assert str(direct.value) == str(validated.value) == message

    def test_geometry_bounds(self):
        with pytest.raises(ValueError, match="n_sensors must be at least 1"):
            ArrayGeometry(0)
        with pytest.raises(ValueError, match="spacing_wavelengths must be positive"):
            ArrayGeometry(4, spacing_wavelengths=0.0)

    def test_source_bounds(self):
        with pytest.raises(ValueError):
            Source(181.0, 1.0)
        with pytest.raises(ValueError):
            Source(90.0, 0.0)


class TestEpochs:
    def test_epoch_index(self):
        sc = make_scenario()
        assert epoch_index(sc, 1) == 0
        assert epoch_index(sc, 40) == 0
        assert epoch_index(sc, 41) == 1
        assert epoch_index(sc, 80) == 1

    def test_epoch_index_rejects_out_of_range(self):
        sc = make_scenario()
        with pytest.raises(ValueError):
            epoch_index(sc, 0)
        with pytest.raises(ValueError):
            epoch_index(sc, 81)


class TestGenerateSnapshot:
    def test_deterministic_given_seed(self):
        sc = make_scenario()
        r1 = [generate_snapshot(sc, i, np.random.default_rng(7)) for i in (1, 1)]
        npt.assert_array_equal(r1[0], r1[1])

    def test_stream_order_symbols_then_noise(self):
        """The documented draw order is what a fixed seed reproduces."""
        sc = make_scenario()
        r = generate_snapshot(sc, 1, np.random.default_rng(123))

        rng = np.random.default_rng(123)
        symbols = 2.0 * rng.integers(0, 2, size=3) - 1.0
        noise = np.sqrt(0.5) * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        mat = np.column_stack(
            [steering_vector(sc.geometry, s.doa_deg) for s in sc.epochs[0][1]]
        )
        amps = np.sqrt([s.power for s in sc.epochs[0][1]])
        npt.assert_array_equal(r, mat @ (amps * symbols) + noise)

    def test_symbols_are_bpsk(self):
        """One broadside source of amplitude 2 over negligible noise gives
        r = 2 s a0 with a0 all ones, so r[0] / 2 is the symbol s."""
        sc = Scenario(
            geometry=ArrayGeometry(4),
            epochs=((1, (Source(90.0, 4.0),)),),
            noise_power=1e-20,
            n_snapshots=1,
        )
        rng = np.random.default_rng(5)
        seen = {complex(np.round(generate_snapshot(sc, 1, rng)[0] / 2.0)) for _ in range(64)}
        assert seen == {(-1 + 0j), (1 + 0j)}

    @pytest.mark.parametrize("m", [2, 16, 64])
    @pytest.mark.parametrize("full", [False, True], ids=["q=1", "q=m"])
    def test_matches_reference_bit_for_bit(self, m, full):
        """Every snapshot, across an epoch change and for several seeds.

        One source only, or as many sources as sensors after the change;
        the powers differ so that every amplitude and the noise scale
        round.
        """
        sources = tuple(
            Source(90.0 if k == 0 else 10.0 + 155.0 * k / m, 3.7 * (k + 1) ** 1.5)
            for k in range(m)
        )
        epochs = ((1, sources[:1]), (7, sources[: m if full else 1]))
        sc = Scenario(geometry=ArrayGeometry(m), epochs=epochs, noise_power=0.3,
                      n_snapshots=12)
        for seed in (0, 1, 2024, 99991):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for i in range(1, 13):
                r = generate_snapshot(sc, i, rng)
                ref = generate_snapshot_reference(sc, i, ref_rng)
                assert r.view(float).tobytes() == ref.view(float).tobytes(), (seed, i)

    @pytest.mark.parametrize("bit_generator", ["PCG64", "PCG64DXSM", "Philox", "SFC64"])
    @pytest.mark.parametrize("qs", [(1, 3, 5, 2), (7,), (10, 11, 12)])
    def test_raw_bit_symbols_match_integers(self, qs, bit_generator):
        """Symbols decoded from raw 64-bit words equal ``integers(0, 2, size=q)``.

        Epochs of 7 snapshots cycle the source count through ``qs``, so odd
        leftover halves carry across snapshots, blocks of 5 and epochs:
        3000 snapshots on PCG64, the engine's bit generator, and 300 on the
        others. Drawn one at a time and in blocks, every ``r`` equals the
        reference's. The generator then holds a leftover half exactly when
        the reference's does, and its next draws are the reference's.
        """
        n_snapshots = 3000 if bit_generator == "PCG64" else 300
        sc = cycling_scenario(qs, n_snapshots)

        def generator():
            return np.random.Generator(getattr(np.random, bit_generator)(2024))

        ref_rng = generator()
        expected = [generate_snapshot_reference(sc, i, ref_rng) for i in range(1, n_snapshots + 1)]
        one_rng = generator()
        singles = [generate_snapshot(sc, i, one_rng) for i in range(1, n_snapshots + 1)]
        block_rng = generator()
        block = SnapshotBlock(sc, 5, block_rng)
        starts = [start for start, _ in sc.epochs] + [n_snapshots + 1]
        blocks = []
        for start, stop in zip(starts, starts[1:]):
            for first in range(start, stop, 5):
                for i in range(first, min(first + 5, stop)):
                    generate_snapshot(sc, i, block_rng, block)
                blocks.append(block.form().copy())
        want = np.array(expected).tobytes()
        assert np.array(singles).tobytes() == want
        assert np.concatenate(blocks).tobytes() == want
        for rng in (one_rng, block_rng):
            ref = copy.deepcopy(ref_rng)
            assert rng.bit_generator.state["has_uint32"] == ref.bit_generator.state["has_uint32"]
            assert rng.integers(0, 2, size=3).tolist() == ref.integers(0, 2, size=3).tolist()
            assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()
            assert rng.integers(0, 2, size=2).tolist() == ref.integers(0, 2, size=2).tolist()

    def test_block_refuses_a_second_epoch(self):
        sc = make_scenario()
        rng = np.random.default_rng(0)
        block = SnapshotBlock(sc, 4, rng)
        generate_snapshot(sc, 40, rng, block)
        with pytest.raises(ValueError, match="one epoch"):
            generate_snapshot(sc, 41, rng, block)

    def test_block_refuses_a_second_generator(self):
        """A block draws symbols and noise from the generator it was built
        with; a call that hands it another is refused before any draw."""
        sc = make_scenario()
        rng, other = np.random.default_rng(5), np.random.default_rng(6)
        block = SnapshotBlock(sc, 4, rng)
        before = (rng.bit_generator.state, other.bit_generator.state)
        with pytest.raises(ValueError, match="the generator it was built with"):
            generate_snapshot(sc, 1, other, block)
        assert (rng.bit_generator.state, other.bit_generator.state) == before
        assert block.count == 0

    def test_generator_without_a_buffered_half_is_named(self):
        sc = make_scenario()
        with pytest.raises(ValueError, match="MT19937"):
            generate_snapshot(sc, 1, np.random.Generator(np.random.MT19937(0)))

    def test_epoch_switch_changes_source_count(self):
        sc = make_scenario()
        rng = np.random.default_rng(0)
        # consume identical generator state for both epochs; only the
        # mixing matrix differs, so the vector dimensionality stays m
        r_old = generate_snapshot(sc, 40, rng)
        r_new = generate_snapshot(sc, 41, rng)
        assert r_old.shape == r_new.shape == (4,)


class TestCovariances:
    def test_total_is_desired_plus_interference(self):
        sc = make_scenario()
        for i in (1, 41):
            npt.assert_allclose(
                total_covariance(sc, i),
                desired_covariance(sc, i) + interference_covariance(sc, i),
                rtol=1e-14,
            )

    def test_diagonal_carries_total_power(self):
        sc = make_scenario()
        diag = np.diag(total_covariance(sc, 1)).real
        npt.assert_allclose(diag, 10.0 + 100.0 + 100.0 + 1.0, rtol=1e-12)

    def test_interference_includes_noise_floor(self):
        sc = make_scenario()
        lam = np.linalg.eigvalsh(interference_covariance(sc, 1))
        assert lam.min() == pytest.approx(1.0, rel=1e-9)

    def test_matches_monte_carlo_second_moment(self):
        """Analytic covariance against an independent sample estimate."""
        sc = make_scenario()
        rng = np.random.default_rng(2024)
        draws = 200_000
        mat = np.column_stack(
            [steering_vector(sc.geometry, s.doa_deg) for s in sc.epochs[0][1]]
        )
        amps = np.sqrt([s.power for s in sc.epochs[0][1]])
        symbols = 2.0 * rng.integers(0, 2, size=(draws, 3)) - 1.0
        noise = np.sqrt(0.5) * (
            rng.standard_normal((draws, 4)) + 1j * rng.standard_normal((draws, 4))
        )
        samples = symbols * amps @ mat.T + noise
        sample_cov = samples.T @ samples.conj() / draws
        analytic = total_covariance(sc, 1)
        err = np.linalg.norm(sample_cov - analytic) / np.linalg.norm(analytic)
        assert err < 0.02

    def test_desired_covariance_rank_one(self):
        sc = make_scenario()
        lam = np.linalg.eigvalsh(desired_covariance(sc, 1))
        assert lam[-1] == pytest.approx(10.0 * 4, rel=1e-12)
        npt.assert_allclose(lam[:-1], 0.0, atol=1e-9)
