"""Output-quality metrics and the operation-count model.

The operation counts are checked against values computed by hand once and
frozen here; the counting formulas must reproduce them exactly in float64.
"""

import numpy as np
import pytest

from smcgbeam.arrays import (
    ArrayGeometry,
    Scenario,
    Source,
    desired_covariance,
    interference_covariance,
    steering_vector,
)
from smcgbeam.metrics import (
    COMPLEXITY_ALGORITHMS,
    complexity_counts,
    constraint_error_rows,
    sinr_linear,
)

# hand-computed counts at m=16, N=1000, update fraction 0.06, order 3
FROZEN_COUNTS = {
    "sg": (47_000.0, 65_000.0),
    "sm-sg": (34_880.0, 41_020.0),
    "rls": (1_007_000.0, 1_359_000.0),
    "sm-rls": (93_380.0, 119_680.0),
    "sm-ap": (44_040.0, 51_400.0),
    "cg": (625_000.0, 693_000.0),
    "ds-cg": (83_280.0, 87_540.0),
    "sm-cg": (70_760.0, 77_680.0),
}

# accepted-snapshot fractions the selective algorithms are typically run at
REPORTED_TAU = {
    "sm-sg": 0.198,
    "sm-rls": 0.063,
    "sm-ap": 0.137,
    "ds-cg": 0.221,
    "sm-cg": 0.06,
}


class TestSinr:
    def test_matches_hand_computation(self):
        m = 4
        a0 = steering_vector(ArrayGeometry(m), 90.0)
        w = a0 / m
        desired = 10.0 * np.outer(a0, a0.conj())
        intnoise = 2.0 * np.eye(m)
        # numerator 10 |w^H a0|^2 = 10, denominator 2 ||w||^2 = 0.5
        assert sinr_linear(w, desired, intnoise) == pytest.approx(20.0, rel=1e-12)

    def test_floor_applies_when_desired_is_nulled(self):
        a0 = np.ones(2, dtype=complex)
        w = np.array([0.5, -0.5], dtype=complex)
        desired = np.outer(a0, a0.conj())
        assert sinr_linear(w, desired, np.eye(2)) == 1e-20

    def test_overflowing_forms_are_not_floored(self):
        """Finite weights whose quadratic forms overflow give a SINR that is
        not finite, alone and as a row; ``inf / inf`` is not the floor."""
        w = np.full(4, 1e200 + 0j)
        with np.errstate(all="ignore"):
            assert sinr_linear(w, np.eye(4), np.eye(4)) == np.inf
            assert sinr_linear(w[None], np.eye(4), np.eye(4)).tolist() == [np.inf]

    def test_zero_weights_rejected(self):
        a0 = np.ones(2, dtype=complex)
        with pytest.raises(ValueError):
            sinr_linear(np.zeros(2, dtype=complex), np.outer(a0, a0.conj()), np.eye(2))

    def test_non_finite_weights_are_named(self):
        """One vector that is not finite is refused for its weights, not for
        an output power it never formed."""
        with pytest.raises(ValueError, match="^weights must be finite$"):
            sinr_linear(np.full(4, np.nan + 0j), np.eye(4), np.eye(4))
        with pytest.raises(ValueError, match="^interference-plus-noise output power must be"):
            sinr_linear(np.zeros(4, dtype=complex), np.eye(4), np.eye(4))

    def test_sinr_of_each_epoch_uses_its_covariances(self):
        geometry = ArrayGeometry(4)
        sc = Scenario(
            geometry=geometry,
            epochs=(
                (1, (Source(90.0, 10.0),)),
                (6, (Source(90.0, 10.0), Source(40.0, 100.0))),
            ),
            noise_power=1.0,
            n_snapshots=10,
        )
        a0 = steering_vector(geometry, 90.0)
        w = a0 / 4

        def sinr(i):
            return sinr_linear(w, desired_covariance(sc, i), interference_covariance(sc, i))

        # epoch 1: no interference, SINR = 10 * m / 1
        assert sinr(1) == pytest.approx(40.0, rel=1e-12)
        assert sinr(5) == sinr(1)
        assert sinr(6) < sinr(5)


class TestBatchedForms:
    """The stacked forms the engine uses must equal the per-vector ones bit for bit.

    A NumPy or BLAS change that rounds them differently breaks the
    byte-identity of the preset CSVs, so it has to fail here first.
    """

    @pytest.mark.parametrize("m", [1, 4, 16, 64])
    def test_equal_to_sinr_linear_and_vdot(self, m):
        rng = np.random.default_rng(m)
        a0 = np.ones(m, dtype=complex)
        basis = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        desired = 10.0 * np.outer(a0, a0.conj())
        intnoise = basis @ basis.conj().T + np.eye(m)
        w_rows = rng.standard_normal((300, m)) + 1j * rng.standard_normal((300, m))
        w_rows[7] = np.nan
        w_rows[8, 0] = np.inf
        w_rows[9] = 0.0  # zero output power: sinr_linear raises
        if m > 1:
            # orthogonal to the desired response: the floor applies
            w_rows[10] = 0.0
            w_rows[10, :2] = [1.0, -1.0]
            assert sinr_linear(w_rows[10], desired, intnoise) == 1e-20

        expected = []
        for w in w_rows:
            try:
                if not np.isfinite(w).all():
                    raise ValueError
                expected.append(sinr_linear(w, desired, intnoise))
            except ValueError:
                expected.append(np.nan)
        got = sinr_linear(w_rows, desired, intnoise)
        assert got.tobytes() == np.array(expected).tobytes()

        steering = np.exp(1j * rng.uniform(0.0, 2 * np.pi, m))
        finite = w_rows[np.isfinite(got)]
        # rows scaled onto the constraint leave only rounding in the error
        feasible = finite * (2.0 / np.conj(np.vecdot(finite, steering)))[:, None]
        finite = np.concatenate([finite, feasible])
        errs = [abs(np.vdot(w, steering) - 2.0) for w in finite]
        got_errs = constraint_error_rows(finite, steering, 2.0)
        assert got_errs.tobytes() == np.array(errs).tobytes()


class TestComplexityCounts:
    @pytest.mark.parametrize("name", COMPLEXITY_ALGORITHMS)
    def test_frozen_values(self, name):
        adds, mults = complexity_counts(
            name, 16, 1000, update_fraction=0.06, projection_order=3
        )
        assert (adds, mults) == FROZEN_COUNTS[name]

    def test_counts_are_integral(self):
        for name in COMPLEXITY_ALGORITHMS:
            adds, mults = complexity_counts(
                name, 12, 500, update_fraction=0.5, projection_order=4
            )
            assert adds == int(adds) and mults == int(mults)

    @pytest.mark.parametrize("m", [8, 16, 24, 32, 48, 64])
    def test_reported_orderings(self, m):
        """At the reported update fractions the gated CG sits between the
        gated SG and gated RLS, and below the data-reuse CG."""
        def mults(name):
            return complexity_counts(
                name, m, 1000,
                update_fraction=REPORTED_TAU.get(name),
                projection_order=3,
            )[1]

        assert mults("sm-sg") < mults("sm-cg") < mults("sm-rls")
        assert mults("sm-cg") < mults("ds-cg")

    def test_gating_never_costs_more_than_updating_every_snapshot(self):
        for m in (8, 16, 32):
            full = complexity_counts("cg", m, 1000)
            gated = complexity_counts("sm-cg", m, 1000, update_fraction=1.0)
            # the gated variant at fraction 1.0 pays the gate overhead but
            # skips the full-update bookkeeping; both stay the same order
            assert gated[1] < 2 * full[1]
            cheap = complexity_counts("sm-cg", m, 1000, update_fraction=0.05)
            assert cheap[1] < full[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            complexity_counts("nope", 8, 100)
        with pytest.raises(ValueError):
            complexity_counts("sg", 0, 100)
        with pytest.raises(ValueError):
            complexity_counts("sg", 8, 0)
        with pytest.raises(ValueError):
            complexity_counts("sm-cg", 8, 100)  # needs update_fraction
        with pytest.raises(ValueError):
            complexity_counts("sm-cg", 8, 100, update_fraction=1.5)
        with pytest.raises(ValueError):
            complexity_counts("sm-ap", 8, 100, update_fraction=0.1)  # needs order
        with pytest.raises(ValueError):
            complexity_counts(
                "ds-cg", 8, 100, update_fraction=0.1, projection_order=0
            )
