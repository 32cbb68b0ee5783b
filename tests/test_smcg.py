"""Gated conjugate-gradient state machine: invariants and the closed-form
forgetting factor against an independent bisection root finder."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    bisect_roots,
    boundary_gap,
    boundary_taus,
    lambda1_reference,
    lambda1_root_of,
    lambda1_root_reference,
    random_instance,
    root_branch,
    update_reference,
)

from smcgbeam import smcg
from smcgbeam.arrays import (
    ArrayGeometry,
    Scenario,
    Source,
    desired_covariance,
    generate_snapshot,
    interference_covariance,
    steering_vector,
)
from smcgbeam.bounds import FixedBound, PdbBound, PidbBound
from smcgbeam.harness import ExperimentConfig, algo, run_experiment
from smcgbeam.metrics import sinr_linear
from smcgbeam.smcg import DegenerateLambdaError, SmCgStack, SmCgState


def small_scenario(m=6, seed=11, n=400):
    geometry = ArrayGeometry(m)
    sources = (Source(90.0, 10.0), Source(48.0, 100.0), Source(126.0, 100.0))
    sc = Scenario(
        geometry=geometry,
        epochs=((1, sources),),
        noise_power=1.0,
        n_snapshots=n,
    )
    rng = np.random.default_rng(seed)
    return sc, rng


def step(state, r, delta):
    """Gate one snapshot as the engine does, passing the output it computed."""
    return state.step(r, delta, np.vdot(state.w, r)).updated


def drive(state, sc, rng, n, delta=2.0):
    """Run n snapshots, returning the weights after each update."""
    weights = []
    for i in range(1, n + 1):
        if step(state, generate_snapshot(sc, i, rng), delta):
            weights.append(state.w)
    return weights


def record_lambda1(monkeypatch):
    """The clamped forgetting factor of every solved update, in order."""
    seen = []
    compute = SmCgState.compute_lambda1

    def recording(self, r, delta):
        seen.append(compute(self, r, delta))
        return seen[-1]

    monkeypatch.setattr(SmCgState, "compute_lambda1", recording)
    return seen


# ---------------------------------------------------------------------------
# closed form against the independent bisection oracle (see reference.py)
# ---------------------------------------------------------------------------

def test_closed_form_matches_bisection_oracle():
    rng = np.random.default_rng(90210)
    checked = 0
    for k in range(300):
        inst = random_instance(rng, 2 + k % 3)
        if inst is None:
            continue
        v, g, p, r_hat, a0, r, delta, eta = inst
        taus = boundary_taus(v, g, p, r_hat, a0, r, delta, eta)
        in_range = [x for x in bisect_roots(taus, delta) if 0.0 < x <= 1.0]
        if not in_range:
            continue
        lam = lambda1_root_of(v, g, p, r_hat, a0, r, delta, eta)
        best = min(in_range, key=lambda x: abs(x - lam))
        assert lam == pytest.approx(best, rel=1e-6), f"instance {k}"
        checked += 1
    # the scaling of delta guarantees plenty of in-range boundary crossings
    assert checked > 60


def test_closed_form_lands_on_boundary():
    # the returned factor must actually satisfy the condition it solves
    rng = np.random.default_rng(777)
    hits = 0
    for k in range(200):
        inst = random_instance(rng, 3)
        if inst is None:
            continue
        v, g, p, r_hat, a0, r, delta, eta = inst
        try:
            lam = lambda1_root_of(v, g, p, r_hat, a0, r, delta, eta)
        except DegenerateLambdaError:
            continue
        if not 0.0 < lam <= 1.0:
            continue
        taus = boundary_taus(v, g, p, r_hat, a0, r, delta, eta)
        gap = boundary_gap(lam, taus, delta)
        scale = abs(boundary_gap(0.0, taus, delta)) + 1.0
        assert abs(gap) / scale < 1e-7
        hits += 1
    assert hits > 40


# ---------------------------------------------------------------------------
# the update against its NumPy-scalar reference, bit for bit (see reference.py)
# ---------------------------------------------------------------------------

def outcome(fn):
    """What ``fn()`` returns, or the type and message of what it raises."""
    try:
        return "returned", fn()
    except (DegenerateLambdaError, ValueError) as exc:
        return "raised", type(exc), str(exc)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def same_outcome(got, want):
    """Both raised alike, or both returned the same bits."""
    if want[0] == "raised":
        return got == want
    return got[0] == "returned" and same_bits(got[1], want[1])


def _random_instances(rng):
    """Random closed-form instances, in families that reach every branch."""
    for k in range(1200):
        inst = random_instance(rng, (2, 3, 4, 16)[k // 4 % 4])
        if inst is None:
            continue
        v, g, p, r_hat, a0, r, delta, eta = inst
        family = k % 4
        if family == 1:  # bounds far from the mid-path output
            delta *= 10.0 ** rng.uniform(-2.0, 2.0)
        elif family == 2:  # a tiny snapshot: qa vanishes next to qc, and often the denominator
            r, delta = 1e-5 * r, 1e-5 * delta
        elif family == 3:  # r = a0 at a unit bound: tau1 = tau3, tau2 = tau4, all coefficients 0
            r, delta = a0.copy(), 1.0
        yield v, g, p, r_hat, a0, r, delta, eta


def test_root_matches_numpy_scalar_reference_on_every_branch():
    branches = set()
    for inst in _random_instances(np.random.default_rng(2024)):
        got = outcome(lambda: lambda1_root_of(*inst))
        want = outcome(lambda: lambda1_root_reference(*inst))
        assert same_outcome(got, want), (got, want)
        branches.add(root_branch(*inst))
        if want[0] == "raised" and want[2] == "vanishing denominator in the ratio form":
            branches.add("vanishing denominator")
    assert branches == {
        "zero scale", "linear", "disc < 0", "vanishing denominator",
        "no root in (0, 1]", "root in (0, 1]",
    }


def _state_and_bound(kind, gamma, a0, noise_power):
    """The filter state and bound policy of one gated-run case."""
    if kind == "cg":  # the pinned baseline: every snapshot, no root
        state = SmCgState(a0, gamma=gamma, lambda1_min=0.998, lambda1_max=0.998)
        return state, SimpleNamespace(delta=0.0, update=lambda *args: None)
    state = SmCgState(a0, gamma=gamma)
    if kind == "fixed":
        return state, FixedBound(2.0 * abs(gamma))
    bound = PdbBound if kind == "pdb" else PidbBound
    return state, bound(state.w, noise_power)


@pytest.mark.parametrize("m", [2, 4, 16])
@pytest.mark.parametrize("gamma", [1.0, -3.0])
@pytest.mark.parametrize("kind", ["fixed", "pdb", "pidb", "cg"])
def test_update_matches_numpy_scalar_reference(monkeypatch, kind, gamma, m):
    """lambda1, alpha, v, g, p, R, w and any exception, bit for bit with the
    update in NumPy scalars, over a gated run; ``compute_lambda1`` called on
    its own returns the reference value too."""
    sources = (Source(90.0, 10.0), Source(48.0, 100.0), Source(126.0, 100.0))
    sc = Scenario(
        geometry=ArrayGeometry(m), epochs=((1, sources[: min(m, 3)]),),
        noise_power=1.0, n_snapshots=400,
    )
    rng = np.random.default_rng(m)
    a0 = steering_vector(sc.geometry, 90.0)
    state, bound = _state_and_bound(kind, gamma, a0, sc.noise_power)
    seen = {}
    compute_lambda1, compute_alpha = SmCgState.compute_lambda1, SmCgState.compute_alpha

    def recording_lambda1(self, r, delta):
        seen["lambda1"] = result = outcome(lambda: compute_lambda1(self, r, delta))
        if result[0] == "raised":
            raise result[1](result[2])
        return result[1]

    def recording_alpha(self, *args):
        seen["alpha"] = compute_alpha(self, *args)
        return seen["alpha"]

    monkeypatch.setattr(SmCgState, "compute_lambda1", recording_lambda1)
    monkeypatch.setattr(SmCgState, "compute_alpha", recording_alpha)
    updates = 0
    for i in range(1, sc.n_snapshots + 1):
        r = generate_snapshot(sc, i, rng)
        y = np.vdot(state.w, r)
        bound.update(np.vdot(state.steering, r), y, state.w)
        delta = bound.delta
        if not abs(complex(y)) ** 2 > delta ** 2:
            assert not state.step(r, delta, y).updated
            continue
        want_lambda1 = outcome(lambda: lambda1_reference(state, r, delta))
        assert same_outcome(outcome(lambda: compute_lambda1(state, r, delta)), want_lambda1)
        want = outcome(lambda: update_reference(state, r, delta))
        seen.clear()
        got = outcome(lambda: state.step(r, delta, y))
        if want[0] == "raised":
            assert got == want
            break
        _, alpha, *fields = want[1]
        assert got[0] == "returned" and state.updated
        assert same_outcome(seen["lambda1"], want_lambda1)
        assert same_bits(seen["alpha"], alpha)
        for name, value in zip(("v", "g", "p", "r_hat", "w"), fields):
            assert same_bits(getattr(state, name), value), name
        updates += 1
    assert updates >= 5


@pytest.mark.parametrize("rows", [1, 2], ids=["alone", "stacked"])
def test_lambda1_reads_reassigned_fields(rows):
    """Assigning ``p``, then ``r_hat``, between two ``compute_lambda1`` calls
    at the same snapshot: each call solves for the state as it stands, not
    from the products the stack formed before."""
    sc, rng = small_scenario()
    a0 = steering_vector(sc.geometry, 90.0)
    states = [SmCgState(a0) for _ in range(rows)]
    stack = SmCgStack(states)
    for i in range(1, 58):
        r = generate_snapshot(sc, i, rng)
        for state in states:
            step(state, r, 3.0)
        stack.commit()
    r, delta = generate_snapshot(sc, 58, rng), 3.0
    seen = [state.compute_lambda1(r, delta)]
    assert seen[-1] == lambda1_reference(state, r, delta)
    state.p = state.g  # restart the direction
    seen.append(state.compute_lambda1(r, delta))
    assert seen[-1] == lambda1_reference(state, r, delta)
    state.r_hat = 2.0 * state.r_hat
    seen.append(state.compute_lambda1(r, delta))
    assert seen[-1] == lambda1_reference(state, r, delta)
    assert seen[0] != seen[1] != seen[2]


def test_update_calls_seen_by_a_tracer(monkeypatch):
    """Over gated runs, each update calls ``compute_lambda1(r, delta)`` and
    ``compute_alpha`` once, and each solve reaches the module's
    ``lambda1_root`` once; the pinned ``cg`` baseline never reaches it."""
    calls = Counter()  # keyed by (call, whether the clamp pins lambda1)
    pinned = [False]
    step, compute_lambda1 = SmCgState.step, SmCgState.compute_lambda1
    compute_alpha, lambda1_root = SmCgState.compute_alpha, smcg.lambda1_root

    def counting_step(state, r, delta, y):
        out = step(state, r, delta, y)
        calls["update", state.lambda1_min == state.lambda1_max] += out.updated
        return out

    def counting_lambda1(state, r, delta):  # the signature a tracer wraps
        pinned.append(state.lambda1_min == state.lambda1_max)
        calls["lambda1", pinned[-1]] += 1
        try:
            return compute_lambda1(state, r, delta)
        finally:
            pinned.pop()

    def counting_root(*args, **kwargs):
        calls["root", pinned[-1]] += 1
        return lambda1_root(*args, **kwargs)

    def counting_alpha(*args, **kwargs):
        calls["alpha"] += 1
        return compute_alpha(*args, **kwargs)

    monkeypatch.setattr(SmCgState, "step", counting_step)
    monkeypatch.setattr(SmCgState, "compute_lambda1", counting_lambda1)
    monkeypatch.setattr(SmCgState, "compute_alpha", counting_alpha)
    monkeypatch.setattr(smcg, "lambda1_root", counting_root)
    cfg = ExperimentConfig(
        m=6, epochs=((1, 3),), n_snapshots=300, runs=2,
        algorithms=(algo("smcg", "smcg", bound="fixed", delta=2.0), algo("cg", "cg")),
    )
    run_experiment(cfg)
    solved, pinned_updates = calls["update", False], calls["update", True]
    assert 0 < solved < cfg.runs * cfg.n_snapshots
    assert calls["lambda1", False] == calls["root", False] == solved
    assert calls["lambda1", True] == pinned_updates == cfg.runs * cfg.n_snapshots
    assert calls["root", True] == 0
    assert calls["alpha"] == solved + pinned_updates


# ---------------------------------------------------------------------------
# a stack of filters against the same filters advanced alone, bit for bit
# ---------------------------------------------------------------------------

# Per row: state keywords and bound. Fixed, PDB and PIDB bounds; other eta,
# loading and clamps; a clamp pinned to one value.
_STACK_ROWS = (
    (dict(), ("fixed", 3.0)),
    (dict(eta=0.3, r_hat_init=10.0), ("pdb",)),
    (dict(lambda1_min=0.2, lambda1_max=0.95), ("fixed", 3.1)),
    (dict(lambda1_min=0.9, lambda1_max=0.9), ("fixed", 3.3)),
    (dict(r_hat_init=1.0), ("pidb",)),
)


def _gated_filter(a0, gamma, noise_power, keywords, bound):
    state = SmCgState(a0, gamma=gamma, **keywords)
    if bound[0] == "fixed":
        return state, FixedBound(bound[1] * abs(gamma))
    policy = PdbBound if bound[0] == "pdb" else PidbBound
    return state, policy(state.w, noise_power)


def _stack_against_alone(monkeypatch, rows, m, gamma, n=300, prepare=lambda filters: None):
    """Drive ``rows`` as one stack and as lone filters over the same snapshots.

    After every snapshot, asserts that each row's gate decision or raised
    error, lambda1, alpha, ``v``, ``g``, ``p``, ``R`` and ``w`` equal its
    lone twin's bit for bit. Returns each snapshot's outcomes.
    """
    sources = (Source(90.0, 10.0), Source(48.0, 100.0), Source(126.0, 100.0))
    sc = Scenario(geometry=ArrayGeometry(m), epochs=((1, sources[: min(m, 3)]),),
                  noise_power=1.0, n_snapshots=n)
    rng = np.random.default_rng(m)
    a0 = steering_vector(sc.geometry, 90.0)
    stacked = [_gated_filter(a0, gamma, sc.noise_power, *row) for row in rows]
    alone = [_gated_filter(a0, gamma, sc.noise_power, *row) for row in rows]
    prepare(stacked)
    prepare(alone)
    stack = SmCgStack([state for state, _ in stacked])
    seen = {}
    compute_lambda1, compute_alpha = SmCgState.compute_lambda1, SmCgState.compute_alpha

    def recording_lambda1(self, r, delta):
        seen[self, "lambda1"] = compute_lambda1(self, r, delta)
        return seen[self, "lambda1"]

    def recording_alpha(self, *args):
        seen[self, "alpha"] = compute_alpha(self, *args)
        return seen[self, "alpha"]

    monkeypatch.setattr(SmCgState, "compute_lambda1", recording_lambda1)
    monkeypatch.setattr(SmCgState, "compute_alpha", recording_alpha)

    def advance(filters, r):
        y0 = np.vdot(a0, r)
        outcomes = []
        for state, policy in filters:
            y = np.vdot(state.w, r)
            policy.update(y0, y, state.w)
            outcomes.append(outcome(lambda: state.step(r, policy.delta, y).updated))
        return outcomes

    history = []
    for i in range(1, n + 1):
        r = generate_snapshot(sc, i, rng)
        seen.clear()
        got = advance(stacked, r)
        stack.commit()
        assert got == advance(alone, r), i
        for (state, _), (twin, _) in zip(stacked, alone):
            for key in ("lambda1", "alpha"):
                assert same_bits(seen.get((state, key)), seen.get((twin, key))), (i, key)
            for name in ("v", "g", "p", "r_hat", "w"):
                assert same_bits(getattr(state, name), getattr(twin, name)), (i, name)
        history.append(got)
    return history


@pytest.mark.parametrize("m", [2, 16, 64])
@pytest.mark.parametrize("gamma", [1.0, -3.0])
def test_stack_matches_its_members_alone(monkeypatch, m, gamma):
    """Five filters as one stack, each equal to itself advanced alone, over
    snapshots where no row, some rows (the accepting ones not adjacent) and
    every row accept."""
    history = _stack_against_alone(monkeypatch, _STACK_ROWS, m, gamma)
    accepted = [[b for b, got in enumerate(row) if got == ("returned", True)] for row in history]
    assert any(not rows for rows in accepted)
    assert any(len(rows) == len(_STACK_ROWS) for rows in accepted)
    assert any(rows and rows[-1] - rows[0] >= len(rows) for rows in accepted)


def test_stack_row_that_raises_leaves_the_others_as_alone(monkeypatch):
    """A row whose estimate is not positive definite raises at each update it
    tries; it stays as it was, and the rows beside it commit as alone."""

    def indefinite_middle(filters):
        filters[1][0].r_hat = -1e6 * np.eye(16)

    history = _stack_against_alone(
        monkeypatch, _STACK_ROWS[:3], 16, 1.0, prepare=indefinite_middle
    )
    raised = [row[1] for row in history if row[1][0] == "raised"]
    assert raised and all(
        got == ("raised", ValueError, "covariance estimate lost positive definiteness")
        for got in raised
    )
    assert sum(row[0] == ("returned", True) for row in history) > 20


def test_beta_array_division_matches_numpy_scalar_division():
    """The stack forms beta as one array division; it rounds as NumPy's
    scalar division of each row, zero denominators included."""
    rng = np.random.default_rng(10)
    num = rng.standard_normal(50_000) + 1j * rng.standard_normal(50_000)
    num *= 10.0 ** rng.uniform(-150, 150, num.size)
    den = rng.standard_normal(num.size) * 10.0 ** rng.uniform(-150, 150, num.size)
    got = -num / den
    want = np.array([-a / d for a, d in zip(num, den)])
    assert got.tobytes() == want.tobytes()

    zeros = np.array([1.0 - 2.0j, -3.0 + 0.5j, 0.0j, 2.0 + 0.0j, complex(0.0, -1.0)])
    with pytest.warns(RuntimeWarning):
        got = -zeros / np.zeros(zeros.size)
    with pytest.warns(RuntimeWarning):
        want = np.array([-a / np.float64(0.0) for a in zeros])
    assert got.tobytes() == want.tobytes()
    assert not np.isfinite(got).any()


def _beta_denominator_zero(state, r, lam):
    """Set ``R`` so that the updated estimate has ``p = e_1`` in its null
    space but not in its left null space: beta's denominator is exactly 0
    and its numerator is not."""
    m = len(r)
    outer = lam * (r[:, None] * r.conj())
    r_hat = np.eye(m, dtype=complex) - outer
    r_hat[:, 0] = -outer[:, 0]
    r_hat[0, 1] += 1.0
    state.r_hat = r_hat
    state.p = np.eye(m, dtype=complex)[0]


def test_zero_beta_denominator_matches_the_numpy_scalar_update():
    """An update whose beta divides by an exact zero gives the non-finite
    ``p`` and the RuntimeWarning of the update in NumPy scalars, alone and
    as one row of a stack."""
    rng = np.random.default_rng(3)
    a0 = np.ones(4, dtype=complex)
    lam = 0.9
    for _ in range(100):  # a snapshot where alpha's denominator rounds positive
        r = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        probe = SmCgState(a0, lambda1_min=lam, lambda1_max=lam)
        _beta_denominator_zero(probe, r, lam)
        if float(np.vdot(probe.p, probe.r_hat @ probe.p).real) + lam * abs(r[0]) ** 2 > 0.0:
            break
    else:
        pytest.fail("no snapshot with a positive line-search denominator")

    lone = SmCgState(a0, lambda1_min=lam, lambda1_max=lam)
    _beta_denominator_zero(lone, r, lam)
    with pytest.warns(RuntimeWarning):
        want = update_reference(lone, r, 0.0)
    _, alpha, *fields = want
    assert not np.isfinite(fields[2]).all()  # p

    others = [SmCgState(a0) for _ in range(2)]
    stacked = SmCgState(a0, lambda1_min=lam, lambda1_max=lam)
    _beta_denominator_zero(stacked, r, lam)
    rows = [others[0], stacked, others[1]]
    stack = SmCgStack(rows)
    with pytest.warns(RuntimeWarning):
        assert lone.step(r, 0.0, np.vdot(lone.w, r)).updated
    with pytest.warns(RuntimeWarning):
        for state in rows:
            assert state.step(r, 0.0, np.vdot(state.w, r)).updated
        stack.commit()
    for state in (lone, stacked):
        for name, value in zip(("v", "g", "p", "r_hat", "w"), fields):
            assert same_bits(getattr(state, name), value), name


# ---------------------------------------------------------------------------
# state machine invariants
# ---------------------------------------------------------------------------

class TestStateInvariants:
    def test_constraint_held_on_every_update(self):
        sc, rng = small_scenario()
        a0 = steering_vector(sc.geometry, 90.0)
        state = SmCgState(a0, gamma=1.0, r_hat_init=10.0)
        weights = drive(state, sc, rng, 400)
        assert len(weights) > 20
        for w in weights:
            assert abs(np.vdot(w, a0) - 1.0) < 1e-10

    def test_gradient_identity_maintained_recursively(self):
        """g is kept equal to a0 - R v without ever recomputing it, and R
        stays Hermitian to rounding. Not bit for bit: the complex products
        of the rank-one term ``r r^H`` may round each pair of mirrored
        entries differently."""
        sc, rng = small_scenario()
        a0 = steering_vector(sc.geometry, 90.0)
        state = SmCgState(a0, r_hat_init=10.0)
        for i in range(1, 300):
            if step(state, generate_snapshot(sc, i, rng), 2.0):
                direct = a0 - state.r_hat @ state.v
                scale = np.linalg.norm(direct) + np.linalg.norm(state.g) + 1.0
                assert np.linalg.norm(state.g - direct) / scale < 1e-9
                asym = np.abs(state.r_hat - state.r_hat.conj().T).max()
                assert asym <= 1e-14 * np.abs(state.r_hat).max()
        assert state.update_count > 20

    def test_successive_directions_are_conjugate(self):
        sc, rng = small_scenario()
        a0 = steering_vector(sc.geometry, 90.0)
        state = SmCgState(a0, r_hat_init=10.0)
        for i in range(1, 300):
            p_prev = state.p.copy()
            if step(state, generate_snapshot(sc, i, rng), 2.0):
                cross = abs(np.vdot(p_prev, state.r_hat @ state.p))
                scale = abs(np.vdot(p_prev, state.r_hat @ p_prev))
                assert cross / scale < 1e-10

    def test_direction_gradient_product_contracts_by_eta(self):
        """Re{p^H g} shrinks by exactly eta on every accepted snapshot."""
        sc, rng = small_scenario()
        a0 = steering_vector(sc.geometry, 90.0)
        eta = 0.5
        state = SmCgState(a0, eta=eta, r_hat_init=10.0)
        seen = 0
        for i in range(1, 300):
            p_before = state.p.copy()
            g_before = state.g.copy()
            if step(state, generate_snapshot(sc, i, rng), 2.0):
                lhs = np.vdot(p_before, state.g).real
                rhs = eta * np.vdot(p_before, g_before).real
                assert abs(lhs - rhs) / (abs(rhs) + 1e-9) < 1e-9
                seen += 1
        assert seen > 20

    def test_gate_rejects_without_mutation(self):
        sc, rng = small_scenario()
        a0 = steering_vector(sc.geometry, 90.0)
        state = SmCgState(a0)
        r = generate_snapshot(sc, 1, rng)
        before = (
            state.v.copy(), state.g.copy(), state.p.copy(),
            state.r_hat.copy(), state.w.copy(),
        )
        assert state.step(r, 1e6, np.vdot(state.w, r)) is state
        assert not state.updated
        after = (state.v, state.g, state.p, state.r_hat, state.w)
        for b, a in zip(before, after):
            npt.assert_array_equal(b, a)
        assert state.update_count == 0

    def test_gate_is_strict(self):
        # |y| equal to the bound must not trigger an update
        a0 = steering_vector(ArrayGeometry(4), 90.0)
        state = SmCgState(a0, gamma=1.0)
        y = np.vdot(state.w, a0)  # w(0)^H a0 = gamma = 1 exactly
        assert abs(y) == pytest.approx(1.0, abs=1e-15)
        assert not state.step(a0, 1.0, y).updated

    def test_lambda_stays_clamped(self, monkeypatch):
        sc, rng = small_scenario()
        a0 = steering_vector(sc.geometry, 90.0)
        state = SmCgState(a0, lambda1_min=0.2, lambda1_max=0.95, r_hat_init=10.0)
        lams = record_lambda1(monkeypatch)
        drive(state, sc, rng, 400)
        assert lams
        assert all(0.2 <= lam <= 0.95 for lam in lams)

    def test_update_counts(self):
        sc, rng = small_scenario()
        a0 = steering_vector(sc.geometry, 90.0)
        state = SmCgState(a0, r_hat_init=10.0)
        updates = len(drive(state, sc, rng, 200))
        assert 0 < updates < 200
        assert state.update_count == updates

    def test_degenerate_projection_flagged_not_applied(self):
        # exact ones for a0 so the orthogonal subspace is exact in floats
        a0 = np.ones(4, dtype=complex)
        state = SmCgState(a0)
        # force a search subspace orthogonal to the protected direction
        q = np.array([1.0, -1.0, 1.0, -1.0], dtype=complex)
        state.v = 0.1 * q
        state.p = q.astype(complex)
        state.g = np.zeros(4, dtype=complex)
        w_before = state.w.copy()
        assert step(state, np.array([3.0, 0, 0, 0], dtype=complex), 0.5)
        assert state.update_count == 1
        npt.assert_array_equal(state.w, w_before)


def _gated_run(sc, rows, gamma, policy):
    """Drive a state built at ``gamma`` through ``rows`` under ``policy(state)``.

    Returns per snapshot the gate decision, the output and the weights.
    """
    state = SmCgState(steering_vector(sc.geometry, 90.0), gamma=gamma, r_hat_init=1.0)
    bound = policy(state)
    updated, ys, ws = [], [], []
    for r in rows:
        y = np.vdot(state.w, r)
        bound.update(np.vdot(state.steering, r), y, state.w)
        updated.append(state.step(r, bound.delta, y).updated)
        ys.append(y)
        ws.append(state.w)
    return np.array(updated), np.array(ys), np.array(ws)


@settings(max_examples=25, deadline=None)
@given(
    exponent=st.integers(-6, 6),
    sign=st.sampled_from([1.0, -1.0]),
    seed=st.integers(0, 2**16),
    pdb=st.booleans(),
)
def test_scaling_gamma_scales_w_and_y_and_keeps_the_gate(exponent, sign, seed, pdb):
    """Scaling gamma, and a fixed bound by |gamma|, scales w and y by gamma
    and leaves every gate decision and the SINR unchanged; PDB scales its
    bound with ``||w||`` by itself. Gamma is a signed power of two, which
    scales every product exactly, so the property holds bit for bit."""
    gamma = sign * 2.0 ** exponent
    sc, rng = small_scenario(m=6, seed=seed, n=300)
    rows = [generate_snapshot(sc, i, rng) for i in range(1, sc.n_snapshots + 1)]

    def policy(scale):
        if pdb:
            return lambda state: PdbBound(state.w, sc.noise_power)
        return lambda state: FixedBound(1.5 * scale)

    upd1, y1, w1 = _gated_run(sc, rows, 1.0, policy(1.0))
    upd, y, w = _gated_run(sc, rows, gamma, policy(abs(gamma)))
    assert upd1.sum() > 5
    npt.assert_array_equal(upd, upd1)
    npt.assert_array_equal(y, gamma * y1)
    npt.assert_array_equal(w, gamma * w1)
    des, rest = desired_covariance(sc, 1), interference_covariance(sc, 1)
    npt.assert_array_equal(sinr_linear(w, des, rest), sinr_linear(w1, des, rest))


class TestValidation:
    def test_rejects_one_sensor_naming_the_cause(self):
        with pytest.raises(ValueError, match="one sensor leaves no direction conjugate to p"):
            SmCgState(np.ones(1, dtype=complex))

    def test_rejects_bad_eta(self):
        a0 = steering_vector(ArrayGeometry(4), 90.0)
        with pytest.raises(ValueError):
            SmCgState(a0, eta=0.6)
        with pytest.raises(ValueError):
            SmCgState(a0, eta=-0.1)

    def test_rejects_bad_clamp(self):
        a0 = steering_vector(ArrayGeometry(4), 90.0)
        with pytest.raises(ValueError):
            SmCgState(a0, lambda1_min=0.9, lambda1_max=0.5)
        with pytest.raises(ValueError):
            SmCgState(a0, lambda1_min=0.0)

    def test_rejects_bad_loading_and_steering(self):
        a0 = steering_vector(ArrayGeometry(4), 90.0)
        with pytest.raises(ValueError):
            SmCgState(a0, r_hat_init=0.0)
        with pytest.raises(ValueError):
            SmCgState(np.zeros(4, dtype=complex))
        with pytest.raises(ValueError):
            SmCgState(np.zeros((2, 2), dtype=complex))

    def test_rejects_negative_delta_and_bad_snapshot(self):
        a0 = steering_vector(ArrayGeometry(4), 90.0)
        state = SmCgState(a0)
        with pytest.raises(ValueError):
            step(state, a0, -1.0)
        with pytest.raises(ValueError):
            step(state, np.ones(3, dtype=complex), 1.0)

    def test_initial_weights_are_quiescent(self):
        a0 = steering_vector(ArrayGeometry(8), 90.0)
        state = SmCgState(a0, gamma=2.0)
        npt.assert_allclose(state.w, 2.0 * a0 / 8.0, rtol=1e-14)
