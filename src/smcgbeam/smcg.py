"""Set-membership conjugate-gradient beamformer with a distortionless constraint.

The filter minimises the output power ``w^H R w`` subject to
``w^H a0 = gamma`` and refreshes its state only when the instantaneous
output magnitude exceeds an error bound ``delta`` (the innovation gate).
Each accepted snapshot performs a single conjugate-gradient iteration on a
rank-one-updated covariance estimate:

    lambda1 : data-dependent forgetting factor weighting the rank-one term
    R       : R + lambda1 * r r^H
    alpha   : line-search step along the current direction p
    v       : v + alpha p          (unnormalised solution of R v = a0)
    g       : negative gradient a0 - R v, maintained recursively
    beta    : direction update keeping p(i+1) conjugate to p(i) under R
    w       : gamma * v / (a0^H v)

The forgetting factor is chosen so that the post-update solution lands on
the boundary of the constraint set, ``|w^H r| = delta``, i.e.
``|v^H r|^2 = (delta / |gamma|)^2 |v^H a0|^2`` with ``v`` evaluated along
the line search. Writing that condition with the pre-update covariance
gives a real quadratic in lambda1; its root is returned through the
sign-normalised ratio form (phases of the two complex affine forms divided
out at the solution), which is exact whenever the quadratic has a real
root. A gate that cannot be met by any admissible
forgetting factor is reported as degenerate and the caller falls back to
the upper clamp.

An accepted update forms its inner products once, as Python floats and
complex numbers, and solves lambda1 and alpha in them, which costs a
fraction of the same arithmetic on NumPy scalars. Python's products, sums,
``abs`` and ``** 2`` round as NumPy's scalar ones do, but its complex
division does not: NumPy divides by Smith's method and multiplies by a
reciprocal, and the two disagree in the last bit on about 42 % of random
quotients. The root therefore divides no complex numbers: it writes its
two quotients out inline in NumPy's float operations, the complex sign (a
division by ``|z| + 0j``, whose Smith ratio is 0) and the real part of the
ratio form, so that every lambda1 is the one the NumPy-scalar version of
the update computed.

Filters that see the same snapshots advance together as the rows of an
:class:`SmCgStack`. Per snapshot the stack forms every row's inner
products with one set of stacked NumPy calls, one row or many; each
accepting row solves its own lambda1 and alpha, and the stack commits
them in place: adjacent rows with one set of calls, and otherwise each
row alone. Stacked products round as ``vdot`` does, so a row ends each
snapshot bit for bit as the filter would alone, in a stack of one.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

# Absolute floor under which the sign-weighted ratio denominator is treated
# as vanishing and the closed form is declared unusable.
_DENOM_FLOOR = 1e-12


def checked_steering(steering) -> tuple[np.ndarray, float]:
    """``steering`` as a complex vector, with the squared norm the constrained
    filters divide by; a ``ValueError`` unless it is a finite nonzero vector."""
    steering = np.asarray(steering, dtype=complex)
    if steering.ndim != 1:
        raise ValueError("steering must be a vector")
    if not np.all(np.isfinite(steering.view(float))):
        raise ValueError("steering must be finite")
    norm_sq = np.vdot(steering, steering).real
    if norm_sq == 0.0:
        raise ValueError("steering must be nonzero")
    return steering, norm_sq


class DegenerateLambdaError(RuntimeError):
    """The gate-boundary condition has no usable closed-form solution."""


def lambda1_root(
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
        damp = 1.0 - eta
        tau1 = delta * va * p_r_p + delta * damp * gp * pa
        tau2 = vr * rp * pa
        tau3 = vr * p_r_p + damp * gp * pr
        tau4 = vr * rp * pr

        # |tau3 - lam tau4|^2 = |tau1 - lam delta tau2|^2, a real quadratic.
        qa = abs(tau4) ** 2 - delta ** 2 * abs(tau2) ** 2
        qb = 2.0 * (delta * (tau1 * tau2.conjugate()).real - (tau3 * tau4.conjugate()).real)
        qc = abs(tau3) ** 2 - abs(tau1) ** 2

        abs_qa, abs_qb = abs(qa), abs(qb)
        scale = max(abs_qa, abs_qb, abs(qc))
        if scale == 0.0:
            raise DegenerateLambdaError("gate condition independent of lambda1")
        if abs_qa <= 1e-14 * scale:
            if abs_qb <= 1e-14 * scale:
                raise DegenerateLambdaError("gate condition independent of lambda1")
            lam = -qc / qb
        else:
            disc = qb * qb - 4.0 * qa * qc
            if disc < 0.0:
                raise DegenerateLambdaError("no real solution to the gate condition")
            sq = math.sqrt(disc)
            q = -0.5 * (qb + sq) if qb >= 0.0 else -0.5 * (qb - sq)
            lam, other = (q / qa, qc / q) if q != 0.0 else (0.0, 0.0)
            if 0.0 < other <= 1.0:  # the larger root in (0, 1]
                if not 0.0 < lam <= 1.0 or other > lam:
                    lam = other
            elif not 0.0 < lam <= 1.0 and (other - 1.0 if other > 1.0 else abs(other)) < (
                lam - 1.0 if lam > 1.0 else abs(lam)
            ):  # neither: the root nearest (0, 1], the first on a tie; the clamp does the rest
                lam = other

        # Sign-weighted ratio form evaluated at the solution; exactness of the
        # root makes the ratio real, and a vanishing denominator flags a
        # boundary condition the closed form cannot express. The signs
        # conj(z / |z|), 1 at the origin, and the ratio divide as NumPy does.
        z = tau1 - lam * delta * tau2
        mag = abs(z)
        if mag > 0.0:
            scl = 1.0 / mag
            s_a = complex((z.real + z.imag * 0.0) * scl, -((z.imag - z.real * 0.0) * scl))
        else:
            s_a = complex(1.0, -0.0)
        z = tau3 - lam * tau4
        mag = abs(z)
        if mag > 0.0:
            scl = 1.0 / mag
            s_r = complex((z.real + z.imag * 0.0) * scl, -((z.imag - z.real * 0.0) * scl))
        else:
            s_r = complex(1.0, -0.0)
        num = tau1 * s_a - tau3 * s_r
        den = delta * tau2 * s_a - tau4 * s_r
        if abs(den) < _DENOM_FLOOR:
            raise DegenerateLambdaError("vanishing denominator in the ratio form")
        dr, di = den.real, den.imag
        if abs(dr) >= abs(di):
            rat = di / dr
            return (num.real + num.imag * rat) * (1.0 / (dr + di * rat))
        rat = dr / di
        return (num.real * rat + num.imag) * (1.0 / (di + dr * rat))
    except (OverflowError, ZeroDivisionError) as exc:
        # a term beyond float range, or a not-a-number denominator
        raise DegenerateLambdaError(f"gate condition not representable: {exc}") from exc


def _row_field(name: str) -> property:
    """``name`` of a filter: its row of the stack; assigning writes into the row."""
    attr = "_" + name

    def get(self):
        return getattr(self, attr)

    def set_(self, value):
        getattr(self, attr)[...] = value
        self._stack._forms = None  # the products formed before are stale

    return property(get, set_, doc=f"``{name}``, this filter's row of its stack.")


class SmCgState:
    """State of the set-membership conjugate-gradient beamformer.

    Parameters
    ----------
    steering : numpy.ndarray
        Array response of the protected direction, at least 2 entries.
    gamma : float
        Constrained response gain.
    eta : float
        Line-search damping in [0, 0.5]; keeps the direction/gradient
        inner product contracting without sign reversal.
    lambda1_min, lambda1_max : float
        Clamp applied to the data-dependent forgetting factor.
    r_hat_init : float
        Diagonal loading of the initial covariance estimate.

    ``v``, ``g``, ``p`` and ``r_hat`` are this filter's row of an
    :class:`SmCgStack`. A state built on its own is a stack of one, which
    commits each update before :meth:`step` returns. ``steering``, ``gamma``
    and the clamp are read when the state joins a stack.
    """

    v = _row_field("v")
    g = _row_field("g")
    p = _row_field("p")
    r_hat = _row_field("r_hat")

    def __init__(
        self,
        steering: np.ndarray,
        gamma: float = 1.0,
        eta: float = 0.5,
        lambda1_min: float = 0.1,
        lambda1_max: float = 0.999,
        r_hat_init: float = 1e-2,
    ) -> None:
        if np.ndim(steering) == 1 and np.size(steering) < 2:
            raise ValueError(
                "steering must have at least 2 entries: one sensor leaves no "
                "direction conjugate to p"
            )
        steering, norm_sq = checked_steering(steering)
        if not 0.0 <= eta <= 0.5:
            raise ValueError("eta must lie in [0, 0.5]")
        if not 0.0 < lambda1_min <= 1.0:
            raise ValueError("lambda1_min must lie in (0, 1]")
        if not 0.0 < lambda1_max <= 1.0:
            raise ValueError("lambda1_max must lie in (0, 1]")
        if lambda1_min > lambda1_max:
            raise ValueError("lambda1_min must not exceed lambda1_max")
        if not r_hat_init > 0.0:
            raise ValueError("r_hat_init must be positive")

        self.steering = steering
        self.gamma = float(gamma)
        self.eta = float(eta)
        self.lambda1_min = float(lambda1_min)
        self.lambda1_max = float(lambda1_max)

        m = steering.size
        self._v = np.zeros(m, dtype=complex)
        self._g = steering.copy()
        self._p = steering.copy()
        self._r_hat = r_hat_init * np.eye(m, dtype=complex)
        self.w = self.gamma * steering / norm_sq
        self.update_count = 0
        self.updated = False
        SmCgStack([self])

    def _join(self, stack: SmCgStack, row: int) -> None:
        self._stack, self._row = stack, row
        self._v, self._g, self._p = stack.v[row], stack.g[row], stack.p[row]
        self._r_hat = stack.r_hat[row]

    def compute_lambda1(self, r: np.ndarray, delta: float) -> float:
        """Clamped forgetting factor for an accepted snapshot.

        The root is solved for ``delta / |gamma|``: the gate compares
        ``|w^H r| = |gamma| |v^H r| / |v^H a0|`` with ``delta``, and the root
        puts ``|v^H r| / |v^H a0|`` on its bound. A clamp of zero width pins
        the factor, so no root is solved. The inner products are those the
        stack forms once per snapshot (:meth:`SmCgStack.forms`).
        """
        if self.lambda1_min == self.lambda1_max:
            return self.lambda1_max
        p_r_p, vr, gp, pr, va, pa = self._stack.forms(r)[self._row]
        lam = lambda1_root(p_r_p, vr, va, gp, pr, pa, delta / abs(self.gamma), self.eta)
        return min(max(lam, self.lambda1_min), self.lambda1_max)

    def compute_alpha(
        self, lambda1: float, p_r_p: float, pr: complex, pg: float, rv: complex
    ) -> float:
        """Line-search step along ``p`` under the updated covariance.

        Takes ``Re p^H R p``, ``p^H r``, ``Re p^H g`` and ``r^H v`` of the
        pre-update state. The denominator uses the post-update estimate
        ``r_hat + lambda1 r r^H`` without forming it; the numerator takes
        the real part of each inner product so the step is real and the
        direction/gradient product contracts by exactly ``eta`` per update.
        """
        try:
            denom = p_r_p + lambda1 * abs(pr) ** 2
        except OverflowError as exc:
            raise ValueError("line search overflows float range") from exc
        if not denom > 0.0:
            raise ValueError("covariance estimate lost positive definiteness")
        num = (1.0 - self.eta) * pg
        num -= lambda1 * (pr * rv).real
        return num / denom

    def step(self, r: np.ndarray, delta: float, y: complex) -> SmCgState:
        """Process one snapshot against the bound ``delta``.

        ``y`` must be the output ``np.vdot(self.w, r)`` the caller has
        computed already; it is trusted. The gate's decision, whether
        ``|y|^2`` strictly exceeds ``delta^2``, is kept in ``updated``, and
        the state itself is returned. Rejected snapshots leave every other
        field untouched. ``w`` is rebound on an update, never written in
        place, so a caller may hold on to an earlier ``w``.

        An update solves lambda1 and alpha on the inner products its stack
        forms once per snapshot (``r^H v`` as the conjugate of ``v^H r``,
        and ``Re p^H g`` as ``Re g^H p``, which round alike), then hands
        them to the stack, which commits it with the other rows that accept
        the snapshot; a second update there is refused before it is counted.
        """
        if delta < 0.0:
            raise ValueError("delta must be non-negative")
        self.updated = abs(complex(y)) ** 2 > delta ** 2  # rounded as the presets were recorded
        if not self.updated:
            return self

        stack = self._stack
        try:
            lam = self.compute_lambda1(r, delta)
        except DegenerateLambdaError:
            lam = self.lambda1_max
        p_r_p, vr, gp, pr, _, _ = stack.forms(r)[self._row]
        rv = vr.conjugate()
        alpha = self.compute_alpha(lam, p_r_p, pr, gp.real, rv)
        stack.stage(self._row, lam, alpha, rv)
        self.update_count += 1
        return self


class SmCgStack:
    """Gated filters advanced together, one row per filter.

    Holds ``r_hat`` as ``(B, m, m)`` and ``v``, ``g``, ``p``, ``w`` as
    ``(B, m)``; each :class:`SmCgState` reads and writes its own row. All
    rows step on the same snapshot ``r``: the first row that accepts it
    forms the inner products of every row at once (:meth:`forms`), each
    accepting row solves its own lambda1 and alpha in Python numbers and
    stages them once, and :meth:`commit` updates the staged rows in place,
    adjacent ones through one slice and otherwise one at a time. A stack of
    one commits as its row stages, so its :meth:`commit` returns at once.

    Stacked calls round as a row's own, one row or many: a stacked
    ``matvec`` and ``vecdot`` equal ``R @ p`` and ``vdot`` row by row, a
    ``(k, 1)`` real or complex column times ``(k, m)`` equals a scalar
    times each row, and an array division equals NumPy's scalar division.
    So every row ends each snapshot as it would have alone.

    ``w`` is rebound by every commit and never written in place, so the
    weights a row held stay valid. The stack holds its states weakly; the
    caller keeps them.
    """

    def __init__(self, states) -> None:
        states = list(states)
        # each state holds its stack, and the stack its rows' states only
        # weakly: a cycle would keep a run's arrays until the collector ran
        self._states = [weakref.ref(state) for state in states]
        self.r_hat = np.array([s._r_hat for s in states])
        # v and p side by side, so one vecdot forms v^H x and p^H x together
        self._vp = np.array([[s._v for s in states], [s._p for s in states]])
        self.v, self.p = self._vp
        self.g = np.array([s._g for s in states])
        self.w = np.array([s.w for s in states])
        self.steering = np.array([s.steering for s in states])
        # complex columns: (x, +0) is the operand NumPy makes of a float times a complex array
        self.gamma = np.array([[s.gamma] for s in states], dtype=complex)
        self._single = len(states) == 1
        self._solves = any(s.lambda1_min < s.lambda1_max for s in states)
        self._snapshot = self._forms = None
        # by row, the staged lambda1, alpha and lambda1 r^H v; and the rows staged
        self._stage = np.zeros((3, len(states)), dtype=complex)
        self._staged: list[int] = []
        for row, state in enumerate(states):
            state._join(self, row)

    def forms(self, r: np.ndarray) -> list[tuple]:
        """Per row, the inner products an update reads at snapshot ``r``, as
        Python numbers, formed once until the next commit or field write.

        ``(Re p^H R p, v^H r, g^H p, p^H r, v^H a0, p^H a0)``, each formed
        for every row by one stacked call, however many rows there are. The
        last two, which only a root reads, are ``None`` when every row's
        clamp pins lambda1.
        """
        if self._snapshot is r and self._forms is not None:
            return self._forms
        p = self.p
        p_r_p = np.vecdot(p, np.matvec(self.r_hat, p)).real.tolist()
        vr, pr = np.vecdot(self._vp, r).tolist()
        gp = np.vecdot(self.g, p).tolist()
        va = pa = [None] * len(gp)
        if self._solves:
            va, pa = np.vecdot(self._vp, self.steering).tolist()
        forms = list(zip(p_r_p, vr, gp, pr, va, pa))
        self._snapshot, self._forms = r, forms
        return forms

    def stage(self, row: int, lam: float, alpha: float, rv: complex) -> None:
        """Queue row ``row``'s update at the snapshot of :meth:`forms`.

        Takes the clamped lambda1, the step alpha and ``r^H v``. A row is
        staged at most once per snapshot: staging it again raises
        ``ValueError`` naming the row and leaves what was staged as it was.
        A stack of one commits the update at once.
        """
        if self._single:
            r, self._snapshot, self._forms = self._snapshot, None, None
            self._apply(r, 0, 1, lam, alpha, lam * rv)
            return
        if row in self._staged:
            raise ValueError(f"a row was staged twice at one snapshot: row {row}")
        stage = self._stage  # a float is stored as (x, +0), as np.array makes it
        stage[0, row] = lam
        stage[1, row] = alpha
        stage[2, row] = lam * rv
        self._staged.append(row)

    def commit(self) -> None:
        """Apply every update staged at the current snapshot, in place:
        adjacent rows through one slice of the stack's arrays, and rows with
        a hole between them one at a time. ``w`` is rebound to a copy holding
        the new weights, which a row whose ``a0^H v`` is zero does without.
        A stack of one has committed already.
        """
        if not self._staged:
            return
        rows, self._staged = sorted(self._staged), []
        r, self._snapshot, self._forms = self._snapshot, None, None
        self.w = w = self.w.copy()
        hole = rows[-1] - rows[0] >= len(rows)
        for lo, hi in [(row, row + 1) for row in rows] if hole else [(rows[0], rows[-1] + 1)]:
            cols = self._stage[:, lo:hi]
            av = self._apply(r, lo, hi, cols[0, :, None, None], cols[1, :, None], cols[2, :, None])
            col = av[:, None]
            np.divide(self.gamma[lo:hi] * self.v[lo:hi], col, out=w[lo:hi], where=col != 0.0)
            for row, x in enumerate(av.tolist(), lo):
                if x != 0.0:
                    self._states[row]().w = w[row]

    def _apply(self, r, lo, hi, lam, alpha, lam_rv):
        """The recursion of one update at snapshot ``r`` on rows ``lo:hi``,
        in place; returns their ``a0^H v``.

        ``lam``, ``alpha`` and ``lam_rv`` (lambda1 times ``r^H v``) are
        columns with one entry per row. A stack of one is updated on its
        row's views, with ``vdot`` and Python scalars, as a lone filter is,
        and sets its ``w`` here. Every operation keeps the operand order of
        the single-filter recursion.
        """
        if self._single:
            state = self._states[0]()
            r_hat, v, g, p = state._r_hat, state._v, state._g, state._p
            a0, dot = state.steering, np.vdot
        else:
            fields = (self.r_hat, self.v, self.g, self.p, self.steering)
            r_hat, v, g, p, a0 = [x[lo:hi] for x in fields]
            dot = np.vecdot
        r_hat += lam * (r[:, None] * r.conj())
        rp = np.matvec(r_hat, p)
        v += alpha * p
        g -= alpha * rp
        g -= lam_rv * r
        beta = -dot(p, np.matvec(r_hat, g))
        beta /= dot(p, rp).real
        np.multiply(beta if self._single else beta[:, None], p, out=p)
        np.add(g, p, out=p)
        av = dot(a0, v)
        # a row whose v lost the constrained component keeps its feasible w
        if self._single and av != 0.0:
            state.w = state.gamma * v / av
            self.w = state.w[None]
        return av
