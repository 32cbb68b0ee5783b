"""Shared reference implementations used by several test files.

The bisection machinery here re-derives the gate-boundary condition on the
adaptive forgetting factor from scratch and finds its roots numerically, so
the closed form in the package can be checked against an independent path.
"""

import numpy as np


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


def rls_reference(a0, rows, gamma=1.0, forgetting=0.998, inv_init=1e-2):
    """Constrained RLS one snapshot at a time, from scratch.

    Yields, per row, the inverse covariance after the update, the weights
    ``gamma Q a0 / (a0^H Q a0)`` and the gate value ``|w^H r|^2`` of the
    weights the row met. Raises ``FloatingPointError`` at the first update
    that is not finite.
    """
    inv = np.eye(a0.size, dtype=complex) / inv_init
    w = gamma * a0 / np.vdot(a0, a0).real
    for r in rows:
        gate = abs(np.vdot(w, r)) ** 2
        qr = inv @ r
        gain = qr / (forgetting + np.vdot(r, qr).real)
        new = (inv - gain[:, None] * qr.conj()) / forgetting
        if not np.all(np.isfinite(new.view(float))):
            raise FloatingPointError("non-finite inverse covariance")
        inv = 0.5 * (new + new.conj().T)
        x = inv @ a0
        w = gamma * x / np.vdot(a0, x)
        yield inv, w, gate
