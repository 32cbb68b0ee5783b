"""Gate bound policies: closed-form fixed points and recursion equivalence."""

import math

import numpy as np
import pytest

from smcgbeam.arrays import ArrayGeometry, Scenario, Source, generate_snapshot, steering_vector
from smcgbeam.baselines import mvdr_weights
from smcgbeam.bounds import FixedBound, PdbBound, PidbBound
from smcgbeam.smcg import SmCgState


class TestFixedBound:
    def test_constant(self):
        b = FixedBound(1.5)
        b.update(None, None, None)
        assert b.delta == 1.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FixedBound(0.0)


class TestPdb:
    def test_initial_value_is_weighted_noise_floor(self):
        w0 = np.array([0.25] * 16, dtype=complex)
        b = PdbBound(w0, noise_power=2.0, varsigma=21.0)
        assert b.delta == pytest.approx(math.sqrt(21.0 * 1.0 * 2.0), rel=1e-12)

    def test_geometric_contraction_to_fixed_point(self):
        """With frozen weights the recursion has the closed form
        delta_k = rho^k delta_0 + (1 - rho^k) target."""
        w0 = np.ones(4, dtype=complex)
        w = 0.5 * np.ones(4, dtype=complex)
        rho, vs, sigma2 = 0.9, 21.0, 1.0
        b = PdbBound(w0, sigma2, varsigma=vs, rho=rho)
        d0 = b.delta
        target = math.sqrt(vs * 1.0 * sigma2)
        for k in range(1, 40):
            b.update(None, None, w)
            expected = rho ** k * d0 + (1.0 - rho ** k) * target
            assert b.delta == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        w0 = np.ones(2, dtype=complex)
        with pytest.raises(ValueError):
            PdbBound(w0, 1.0, rho=1.0)
        with pytest.raises(ValueError):
            PdbBound(w0, 1.0, varsigma=0.0)
        with pytest.raises(ValueError):
            PdbBound(w0, 0.0)


class TestPidb:
    def test_recursion_matches_reference_loop(self):
        """Literal re-statement of the two-line recursion, kept separate
        from the implementation."""
        rng = np.random.default_rng(3)
        m = 4
        a0 = steering_vector(ArrayGeometry(m), 90.0)
        w0 = a0 / m
        rho, vs, eps, sigma2 = 0.95, 19.0, 1e-3, 1.0
        b = PidbBound(w0, sigma2, rho=rho, varsigma=vs, epsilon=eps)

        nu_ref = 0.0
        delta_ref = math.sqrt(vs * np.vdot(w0, w0).real * sigma2)
        assert b.delta == pytest.approx(delta_ref, rel=1e-12)
        w = w0.copy()
        for _ in range(200):
            r = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            y = complex(np.vdot(w, r))
            b.update(np.vdot(a0, r), y, w)
            e0 = complex(np.vdot(a0, r)) - y
            nu_ref = rho * nu_ref + (1.0 - rho) * abs(e0) ** 2
            floor = math.sqrt(vs * np.vdot(w, w).real * sigma2)
            delta_ref = rho * delta_ref + (1.0 - rho) * (
                math.sqrt(eps * nu_ref) + floor
            )
            assert b.nu == pytest.approx(nu_ref, rel=1e-12)
            assert b.delta == pytest.approx(delta_ref, rel=1e-12)
            w = w + 0.01 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))

    def test_zero_epsilon_collapses_to_pdb(self):
        rng = np.random.default_rng(8)
        m = 6
        a0 = steering_vector(ArrayGeometry(m), 90.0)
        w = a0 / m
        pidb = PidbBound(w, 1.0, rho=0.9, varsigma=21.0, epsilon=0.0)
        pdb = PdbBound(w, 1.0, varsigma=21.0, rho=0.9)
        for _ in range(100):
            r = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            y = complex(np.vdot(w, r))
            pidb.update(np.vdot(a0, r), y, w)
            pdb.update(np.vdot(a0, r), y, w)
            assert pidb.delta == pdb.delta  # bit for bit
            w = w * 1.001

    def test_nu_converges_to_analytic_innovation_power(self):
        """nu estimates E|a0^H r - w^H r|^2, which for a frozen beamformer
        equals (a0 - w)^H R (a0 - w)."""
        m = 8
        geometry = ArrayGeometry(m)
        sources = (Source(90.0, 10.0), Source(50.0, 100.0), Source(120.0, 100.0))
        sc = Scenario(geometry=geometry, epochs=((1, sources),), noise_power=1.0,
                      n_snapshots=30_000)
        a0 = steering_vector(geometry, 90.0)
        mat = np.column_stack([steering_vector(geometry, s.doa_deg) for s in sources])
        cov = (mat * [10.0, 100.0, 100.0]) @ mat.conj().T + np.eye(m)
        w = mvdr_weights(cov, a0)

        d = a0 - w
        analytic = np.vdot(d, cov @ d).real

        rng = np.random.default_rng(42)
        b = PidbBound(w, 1.0, rho=0.999, varsigma=19.0, epsilon=1e-3)
        for i in range(1, sc.n_snapshots + 1):
            r = generate_snapshot(sc, i, rng)
            y = complex(np.vdot(w, r))
            b.update(np.vdot(a0, r), y, w)
        assert b.nu == pytest.approx(analytic, rel=0.05)

    def test_validation(self):
        w0 = np.ones(2, dtype=complex)
        with pytest.raises(ValueError):
            PidbBound(w0, 1.0, rho=0.0)
        with pytest.raises(ValueError):
            PidbBound(w0, 1.0, varsigma=-1.0)
        with pytest.raises(ValueError):
            PidbBound(w0, 1.0, epsilon=-1e-9)
        with pytest.raises(ValueError):
            PidbBound(w0, -1.0)


@pytest.mark.parametrize("policy", [PdbBound, PidbBound])
def test_cached_noise_floor_matches_uncached_formula(policy):
    """Over a gated run with updates, the bound equals the formula recomputed
    from ``w`` at every snapshot, bit for bit."""
    m, rho, vs, eps, sigma2 = 6, 0.9, 21.0, 1e-3, 1.0
    geometry = ArrayGeometry(m)
    sources = (Source(90.0, 10.0), Source(48.0, 100.0), Source(126.0, 100.0))
    sc = Scenario(geometry=geometry, epochs=((1, sources),), noise_power=sigma2,
                  n_snapshots=600)
    a0 = steering_vector(geometry, 90.0)
    state = SmCgState(a0)
    extra = {"epsilon": eps} if policy is PidbBound else {}
    bound = policy(state.w, sigma2, rho=rho, varsigma=vs, **extra)
    delta_ref, nu_ref = bound.delta, 0.0
    rng = np.random.default_rng(4)
    for i in range(1, sc.n_snapshots + 1):
        r = generate_snapshot(sc, i, rng)
        w = state.w
        y = np.vdot(w, r)
        bound.update(np.vdot(a0, r), y, w)
        target = math.sqrt(vs * np.vdot(w, w).real * sigma2)
        if policy is PidbBound:
            nu_ref = rho * nu_ref + (1.0 - rho) * abs(np.vdot(a0, r) - y) ** 2
            target = math.sqrt(eps * nu_ref) + target
        delta_ref = rho * delta_ref + (1.0 - rho) * target
        assert bound.delta == delta_ref
        state.step(r, bound.delta, y)
    assert 20 < state.update_count < sc.n_snapshots - 20
