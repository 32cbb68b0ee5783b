"""Shared reference implementations used by several test files.

The bisection machinery here re-derives the gate-boundary condition on the
adaptive forgetting factor from scratch and finds its roots numerically, so
the closed form in the package can be checked against an independent path.
"""

import math

import numpy as np

from smcgbeam.arrays import epoch_index, steering_vector
from smcgbeam.smcg import DegenerateLambdaError, lambda1_root


def lambda1_root_of(v, g, p, r_hat, a0, r, delta, eta, root=lambda1_root):
    """The package's closed form, or ``root``, on the inner products of the given vectors."""
    forms = (
        float(np.vdot(p, r_hat @ p).real),
        complex(np.vdot(v, r)),
        complex(np.vdot(v, a0)),
        complex(np.vdot(g, p)),
        complex(np.vdot(p, r)),
        complex(np.vdot(p, a0)),
    )
    return root(*forms, delta, eta)


def boundary_taus(v, g, p, r_hat, a0, r, delta, eta):
    """The four invariants of the boundary condition, computed directly.

    Uses only the pre-update covariance, mirroring how the closed form
    breaks the circular dependence between the factor and the update.
    """
    a_quad = np.vdot(p, r_hat @ p).real
    vr = np.vdot(v, r)
    va = np.vdot(v, a0)
    gp = np.vdot(g, p)
    pr = np.vdot(p, r)
    pa = np.vdot(p, a0)
    rp = np.conj(pr)
    tau1 = delta * va * a_quad + delta * (1.0 - eta) * gp * pa
    tau2 = vr * rp * pa
    tau3 = vr * a_quad + (1.0 - eta) * gp * pr
    tau4 = vr * rp * pr
    return tau1, tau2, tau3, tau4


def boundary_gap(lam, taus, delta):
    """Signed mismatch of the boundary condition at trial factor(s)."""
    tau1, tau2, tau3, tau4 = taus
    return np.abs(tau1 - lam * delta * tau2) - np.abs(tau3 - lam * tau4)


def bisect_roots(taus, delta, lo=1e-9, hi=1.0, grid=4001, iters=80):
    """All sign-change roots of the boundary gap on (lo, hi]."""
    xs = np.linspace(lo, hi, grid)
    ys = boundary_gap(xs, taus, delta)
    roots = []
    hits = np.flatnonzero((ys[:-1] == 0.0) | (ys[:-1] * ys[1:] <= 0.0))
    for k in hits:
        fa = ys[k]
        if fa == 0.0:
            roots.append(float(xs[k]))
            continue
        a, b = xs[k], xs[k + 1]
        for _ in range(iters):
            mid = 0.5 * (a + b)
            fm = boundary_gap(mid, taus, delta)
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    if ys[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def random_instance(rng, m):
    """A structurally consistent random filter state and snapshot.

    Returns ``None`` when the draw is too close to degenerate to give a
    meaningful boundary (zero output or undefined mid-path projection).
    """
    a0 = np.exp(1j * rng.uniform(0.0, 2 * np.pi, m))
    basis = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    r_hat = basis @ basis.conj().T + 0.1 * np.eye(m)
    v = 0.5 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    g = a0 - r_hat @ v
    p = g + 0.3 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    r = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    eta = float(rng.uniform(0.0, 0.5))

    # scale the bound to the mid-path output so that a boundary crossing
    # inside (0, 1] is likely rather than rare
    a_quad = np.vdot(p, r_hat @ p).real
    pr = np.vdot(p, r)
    num = (1.0 - eta) * np.vdot(p, g).real - 0.5 * (pr * np.vdot(r, v)).real
    alpha_mid = num / (a_quad + 0.5 * abs(pr) ** 2)
    v_mid = v + alpha_mid * p
    va_mid = np.vdot(v_mid, a0)
    if abs(va_mid) < 1e-9:
        return None
    y_mid = abs(np.vdot(v_mid, r)) / abs(va_mid)
    if not np.isfinite(y_mid) or y_mid < 1e-9:
        return None
    delta = float(y_mid * rng.uniform(0.7, 1.3))
    return v, g, p, r_hat, a0, r, delta, eta


# --- the gated update in NumPy scalars --------------------------------------
#
# The closed form, the line search and the commit as the package computed
# them before it solved lambda1 in Python floats. Every quadratic form is
# formed from the vectors where it is used, and all scalar arithmetic runs
# on NumPy scalars; the package must match these bit for bit.

_DENOM_FLOOR = 1e-12


def _csign_reference(z):
    mag = abs(z)
    return z / mag if mag > 0.0 else 1.0 + 0.0j


def lambda1_root_reference(v, g, p, r_hat, steering, r, delta, eta=0.5):
    """The unclamped forgetting factor, or ``DegenerateLambdaError``."""
    a_quad = np.vdot(p, r_hat @ p).real
    vr = np.vdot(v, r)
    va = np.vdot(v, steering)
    gp = np.vdot(g, p)  # g^H p
    pr = np.vdot(p, r)
    pa = np.vdot(p, steering)
    rp = np.conj(pr)

    tau1 = delta * va * a_quad + delta * (1.0 - eta) * gp * pa
    tau2 = vr * rp * pa
    tau3 = vr * a_quad + (1.0 - eta) * gp * pr
    tau4 = vr * rp * pr

    qa = abs(tau4) ** 2 - delta ** 2 * abs(tau2) ** 2
    qb = 2.0 * (delta * (tau1 * np.conj(tau2)).real - (tau3 * np.conj(tau4)).real)
    qc = abs(tau3) ** 2 - abs(tau1) ** 2

    scale = max(abs(qa), abs(qb), abs(qc))
    if scale == 0.0:
        raise DegenerateLambdaError("gate condition independent of lambda1")
    if abs(qa) <= 1e-14 * scale:
        if abs(qb) <= 1e-14 * scale:
            raise DegenerateLambdaError("gate condition independent of lambda1")
        roots = [-qc / qb]
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            raise DegenerateLambdaError("no real solution to the gate condition")
        sq = float(np.sqrt(disc))
        q = -0.5 * (qb + sq) if qb >= 0.0 else -0.5 * (qb - sq)
        roots = [q / qa, qc / q] if q != 0.0 else [0.0]

    in_range = [x for x in roots if 0.0 < x <= 1.0]
    if in_range:
        lam = max(in_range)
    else:
        lam = min(roots, key=lambda x: abs(x - 1.0) if x > 1.0 else abs(x))

    s_a = np.conj(_csign_reference(tau1 - lam * delta * tau2))
    s_r = np.conj(_csign_reference(tau3 - lam * tau4))
    num = tau1 * s_a - tau3 * s_r
    den = delta * tau2 * s_a - tau4 * s_r
    if abs(den) < _DENOM_FLOOR:
        raise DegenerateLambdaError("vanishing denominator in the ratio form")
    return float((num / den).real)


# --- the closed form as first written in Python floats ----------------------
#
# The package's root before it became one straight-line body, copied as it
# was: a complex-sign and a quotient helper, lists of candidate roots and a
# keyed ``min``. The package must match it bit for bit, exceptions included.

def _csign(z: complex) -> complex:
    """Complex sign ``z / |z|``, defined as 1 at the origin.

    NumPy's division by ``|z| + 0j`` written out: the ratio of the zero
    imaginary part to ``|z|`` is 0, so the reciprocal is ``1 / |z|``.
    """
    mag = abs(z)
    if not mag > 0.0:
        return 1.0 + 0.0j
    scl = 1.0 / mag
    return complex((z.real + z.imag * 0.0) * scl, (z.imag - z.real * 0.0) * scl)


def _real_quotient(a: complex, b: complex) -> float:
    """Real part of ``a / b`` as NumPy's complex division rounds it.

    Smith's method: divide by the larger part of ``b`` and multiply by the
    reciprocal of the scaled denominator.
    """
    if abs(b.real) >= abs(b.imag):
        rat = b.imag / b.real
        return (a.real + a.imag * rat) * (1.0 / (b.real + b.imag * rat))
    rat = b.real / b.imag
    return (a.real * rat + a.imag) * (1.0 / (b.imag + b.real * rat))


def lambda1_root_seed(
    p_r_p: float,
    vr: complex,
    va: complex,
    gp: complex,
    pr: complex,
    pa: complex,
    delta: float,
    eta: float = 0.5,
) -> float:
    """Unclamped forgetting factor meeting the gate-boundary condition.

    Takes the inner products of the pre-update state as Python numbers:
    ``Re p^H R p``, ``v^H r``, ``v^H a0``, ``g^H p``, ``p^H r`` and
    ``p^H a0``. The pre-update covariance estimate breaks the circular
    dependence between the forgetting factor and the covariance it scales.
    Raises :class:`DegenerateLambdaError` when the boundary condition has no
    real solution, the ratio denominator vanishes, or its terms leave the
    float range.
    """
    try:
        rp = pr.conjugate()
        tau1 = delta * va * p_r_p + delta * (1.0 - eta) * gp * pa
        tau2 = vr * rp * pa
        tau3 = vr * p_r_p + (1.0 - eta) * gp * pr
        tau4 = vr * rp * pr

        # |tau3 - lam tau4|^2 = |tau1 - lam delta tau2|^2, a real quadratic.
        qa = abs(tau4) ** 2 - delta ** 2 * abs(tau2) ** 2
        qb = 2.0 * (delta * (tau1 * tau2.conjugate()).real - (tau3 * tau4.conjugate()).real)
        qc = abs(tau3) ** 2 - abs(tau1) ** 2

        scale = max(abs(qa), abs(qb), abs(qc))
        if scale == 0.0:
            raise DegenerateLambdaError("gate condition independent of lambda1")
        if abs(qa) <= 1e-14 * scale:
            if abs(qb) <= 1e-14 * scale:
                raise DegenerateLambdaError("gate condition independent of lambda1")
            roots = [-qc / qb]
        else:
            disc = qb * qb - 4.0 * qa * qc
            if disc < 0.0:
                raise DegenerateLambdaError("no real solution to the gate condition")
            sq = math.sqrt(disc)
            q = -0.5 * (qb + sq) if qb >= 0.0 else -0.5 * (qb - sq)
            roots = [q / qa, qc / q] if q != 0.0 else [0.0]

        in_range = [x for x in roots if 0.0 < x <= 1.0]
        if in_range:
            lam = max(in_range)
        else:
            # keep the root nearest the admissible interval; clamping finishes the job
            lam = min(roots, key=lambda x: abs(x - 1.0) if x > 1.0 else abs(x))

        # Sign-weighted ratio form evaluated at the solution; exactness of the
        # root makes the ratio real, and a vanishing denominator flags a
        # boundary condition the closed form cannot express.
        s_a = _csign(tau1 - lam * delta * tau2).conjugate()
        s_r = _csign(tau3 - lam * tau4).conjugate()
        num = tau1 * s_a - tau3 * s_r
        den = delta * tau2 * s_a - tau4 * s_r
        if abs(den) < _DENOM_FLOOR:
            raise DegenerateLambdaError("vanishing denominator in the ratio form")
        return _real_quotient(num, den)
    except (OverflowError, ZeroDivisionError) as exc:
        # a term beyond float range, or a not-a-number denominator
        raise DegenerateLambdaError(f"gate condition not representable: {exc}") from exc


def root_branch(v, g, p, r_hat, a0, r, delta, eta):
    """Which branch of the closed form an instance takes before the ratio form."""
    tau1, tau2, tau3, tau4 = boundary_taus(v, g, p, r_hat, a0, r, delta, eta)
    qa = abs(tau4) ** 2 - delta ** 2 * abs(tau2) ** 2
    qb = 2.0 * (delta * (tau1 * np.conj(tau2)).real - (tau3 * np.conj(tau4)).real)
    qc = abs(tau3) ** 2 - abs(tau1) ** 2
    scale = max(abs(qa), abs(qb), abs(qc))
    if scale == 0.0:
        return "zero scale"
    if abs(qa) <= 1e-14 * scale:
        return "linear"
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return "disc < 0"
    sq = np.sqrt(disc)
    q = -0.5 * (qb + sq) if qb >= 0.0 else -0.5 * (qb - sq)
    roots = [q / qa, qc / q] if q != 0.0 else [0.0]
    return "root in (0, 1]" if any(0.0 < x <= 1.0 for x in roots) else "no root in (0, 1]"


def lambda1_reference(state, r, delta):
    """``state.compute_lambda1(r, delta)`` in NumPy scalars."""
    if state.lambda1_min == state.lambda1_max:
        return state.lambda1_max
    lam = lambda1_root_reference(
        state.v, state.g, state.p, state.r_hat, state.steering, r,
        delta / abs(state.gamma), state.eta,
    )
    return min(max(lam, state.lambda1_min), state.lambda1_max)


def update_reference(state, r, delta):
    """One accepted update of ``state`` in NumPy scalars, on copies.

    Returns ``(lambda1, alpha, v, g, p, r_hat, w)`` after the update and
    leaves ``state`` as it was; raises what the update raises.
    """
    v, g, p, r_hat = state.v, state.g, state.p, state.r_hat.copy()
    try:
        lam = lambda1_reference(state, r, delta)
    except DegenerateLambdaError:
        lam = state.lambda1_max

    pr = np.vdot(p, r)
    denom = np.vdot(p, r_hat @ p).real + lam * abs(pr) ** 2
    if not denom > 0.0:
        raise ValueError("covariance estimate lost positive definiteness")
    num = (1.0 - state.eta) * np.vdot(p, g).real
    num -= lam * (pr * np.vdot(r, v)).real
    alpha = float(num / denom)

    rv = np.vdot(r, v)
    r_hat += lam * (r[:, None] * r.conj())
    rp = r_hat @ p
    v = v + alpha * p
    g = g - alpha * rp - lam * rv * r
    beta = complex(-np.vdot(p, r_hat @ g) / np.vdot(p, rp).real)
    p = g + beta * p
    av = np.vdot(state.steering, v)
    w = state.gamma * v / av if av != 0.0 else state.w
    return lam, alpha, v, g, p, r_hat, w


def rls_reference(a0, rows, gamma=1.0, forgetting=0.998, inv_init=1e-2):
    """Constrained RLS one snapshot at a time, from scratch.

    Yields, per row, the inverse covariance after the update and the
    weights ``gamma Q a0 / (a0^H Q a0)``. Raises ``FloatingPointError`` at
    the first update that is not finite.
    """
    inv = np.eye(a0.size, dtype=complex) / inv_init
    for r in rows:
        qr = inv @ r
        gain = qr / (forgetting + np.vdot(r, qr).real)
        new = (inv - gain[:, None] * qr.conj()) / forgetting
        if not np.all(np.isfinite(new.view(float))):
            raise FloatingPointError("non-finite inverse covariance")
        inv = 0.5 * (new + new.conj().T)
        x = inv @ a0
        w = gamma * x / np.vdot(a0, x)
        yield inv, w


def generate_snapshot_reference(scenario, i, rng):
    """``r = A s + n`` at snapshot ``i``, written as the formula reads.

    Symbols are +-1.0 times the amplitudes, and the complex noise is built
    and then scaled as a whole. The mixing matrix and amplitudes are built
    from the scenario's sources here; symbols, then the noise's real and
    imaginary parts, are drawn in the documented stream order.
    """
    sources = scenario.epochs[epoch_index(scenario, i)][1]
    mat = np.column_stack([steering_vector(scenario.geometry, s.doa_deg) for s in sources])
    amps = np.sqrt(np.array([s.power for s in sources]))
    symbols = 2.0 * rng.integers(0, 2, size=mat.shape[1]) - 1.0
    m = len(mat)
    noise = rng.standard_normal(2 * m)
    scale = np.sqrt(scenario.noise_power / 2.0)
    return mat @ (amps * symbols) + scale * (noise[:m] + 1j * noise[m:])
