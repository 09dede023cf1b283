"""Reference stepper: the shift form of the explicit characteristic scheme.

Every step rewrites the three densities, x^{n+1}[j+1] = x^n[j] * (1 - h *
exit_rate[j]), and evaluates the boundary functionals on the shifted
arrays. `sveair.solver.simulate` keeps the densities in a moving frame
instead; the property tests require the two to agree to round-off.
"""

import math

import numpy as np

from sveair.errors import AbortedRunError, ParameterError, StabilityError
from sveair.grid import AgeProfile, Units
from sveair.solver import DensitySnapshot, SimulationResult, State, TimeSeries


class _Precomputed:
    """Step-invariant arrays and scalars of the explicit scheme."""

    def __init__(self, params):
        grid = params.grid
        h = grid.h
        worst = max(
            float(params.exit_rate_e.max()),
            float(params.exit_rate_a.max()),
            float(params.exit_rate_i.max()),
        )
        if h * worst >= 1.0:
            raise StabilityError(
                f"h * max exit rate = {h * worst:.3g} >= 1; "
                f"reduce h below {1.0 / worst:.3g} days"
            )
        self.h = h
        # Decay factors for the shift e^{n+1}[j+1] = e^n[j] * (1 - h*rate[j]),
        # already restricted to the source nodes j <= J-1.
        self.decay_e = (1.0 - h * params.exit_rate_e)[:-1]
        self.decay_a = (1.0 - h * params.exit_rate_a)[:-1]
        self.decay_i = (1.0 - h * params.exit_rate_i)[:-1]
        self.beta_a = params.beta_a.values
        self.beta_i = params.beta_i.values
        self.kq = params.k.values * params.q.values
        self.k1q = params.k.values * (1.0 - params.q.values)
        self.chi_branch = params.chi.values * (1.0 - params.xi.values)
        self.recov_a = params.gamma_a.values * params.xi.values
        self.recov_i = params.gamma_i.values
        self.mu = params.mu
        self.mu_n0 = params.mu * params.n0
        self.p = params.p
        self.zeta_eps = params.zeta * params.epsilon
        self.one_minus_eps = 1.0 - params.epsilon

    def functionals(self, s, v, e, a, i):
        """(beta, eps, alpha, iota) of raw state arrays."""
        h = self.h
        beta = h * (self.beta_a @ a + self.beta_i @ i)
        eps = beta * (s + self.one_minus_eps * v)
        alpha = h * (self.kq @ e)
        iota = h * (self.k1q @ e + self.chi_branch @ a)
        return beta, eps, alpha, iota


class _ClampCounter:
    __slots__ = ("events",)

    def __init__(self):
        self.events = 0

    def scalar(self, value):
        if value < 0.0:
            self.events += 1
            return 0.0
        return value

    def arrays(self, h, *arrays):
        for arr in arrays:
            neg = arr < 0.0
            if neg.any():
                self.events += int(neg.sum())
                arr[neg] = 0.0


def _advance(pre, s, v, e, a, i, out_e, out_a, out_i, clamps):
    """One explicit step from raw arrays into the out buffers; returns
    (s_next, v_next, phi_v)."""
    beta, _, alpha, iota = pre.functionals(s, v, e, a, i)
    h = pre.h
    rate_s = pre.p + beta + pre.mu
    rate_v = pre.zeta_eps + beta * pre.one_minus_eps + pre.mu
    phi_s = phi_v = 1.0
    if h * rate_s > 1.0:
        phi_s = 1.0 / (h * rate_s)
        clamps.events += 1
    if h * rate_v > 1.0:
        phi_v = 1.0 / (h * rate_v)
        clamps.events += 1
    eps = beta * (phi_s * s + pre.one_minus_eps * phi_v * v)
    s_next = s * (1.0 - h * phi_s * rate_s) + h * pre.mu_n0
    v_next = v * (1.0 - h * phi_v * rate_v) + h * phi_s * pre.p * s
    s_next = clamps.scalar(s_next)
    v_next = clamps.scalar(v_next)
    np.multiply(e[:-1], pre.decay_e, out=out_e[1:])
    np.multiply(a[:-1], pre.decay_a, out=out_a[1:])
    np.multiply(i[:-1], pre.decay_i, out=out_i[1:])
    out_e[0] = eps
    out_a[0] = alpha
    out_i[0] = iota
    return s_next, v_next, phi_v


def simulate_shift(init, params, t_max, sample_every=1.0, snapshot_times=(), observer=None):
    """`sveair.solver.simulate` with the densities shifted every step."""
    if t_max <= 0:
        raise ParameterError(f"t_max must be positive, got {t_max}")
    if init.e.grid != params.grid:
        raise ParameterError("initial state is not on the parameter grid")
    pre = _Precomputed(params)
    h = pre.h
    n_steps = int(round(t_max / h))
    stride = max(1, int(round(sample_every / h)))
    snap_steps = {int(round(ts / h)) for ts in snapshot_times}

    e = init.e.values.copy()
    a = init.a.values.copy()
    i = init.i.values.copy()
    s, v = init.s, init.v

    samples = []
    beta_steps = []
    snapshots = []
    clamps = _ClampCounter()
    nodes = params.grid.nodes

    e_next = np.empty_like(e)
    a_next = np.empty_like(a)
    i_next = np.empty_like(i)

    r_tilde = None
    for n in range(n_steps + 1):
        t = init.t + n * h
        beta, eps, alpha, iota = pre.functionals(s, v, e, a, i)
        if not (math.isfinite(beta) and math.isfinite(alpha) and math.isfinite(iota)
                and math.isfinite(s) and math.isfinite(v)):
            raise AbortedRunError(f"non-finite value at step {n} (t={t})", step_index=n)
        beta_steps.append(beta)
        if n % stride == 0 or n == n_steps:
            clamps.arrays(h, e, a, i)
            e_tot = h * float(e.sum())
            a_tot = h * float(a.sum())
            i_tot = h * float(i.sum())
            if r_tilde is None:
                r_tilde = params.n0 - s - v - e_tot - a_tot - i_tot
            removed = params.n0 - s - v - e_tot - a_tot - i_tot
            samples.append(
                (t, s, v, e_tot, a_tot, i_tot, removed, params.n0,
                 beta, eps, alpha, iota, r_tilde)
            )
            if observer is not None:
                observer(t, s, v, e, a, i)
        if n in snap_steps:
            snapshots.append(
                DensitySnapshot(t=t, theta=nodes.copy(), e=e.copy(), a=a.copy(), i=i.copy())
            )
        if n == n_steps:
            break
        recov_flux = h * (pre.recov_a @ a + pre.recov_i @ i)
        s_new, v_new, phi_v = _advance(pre, s, v, e, a, i, e_next, a_next, i_next, clamps)
        r_tilde = r_tilde + h * (pre.zeta_eps * phi_v * v + recov_flux - pre.mu * r_tilde)
        s, v = s_new, v_new
        e, e_next = e_next, e
        a, a_next = a_next, a
        i, i_next = i_next, i

    cols = np.array(samples, dtype=np.float64).T
    timeseries = TimeSeries(
        t=cols[0], s=cols[1], v=cols[2], e=cols[3], a=cols[4], i=cols[5],
        r=cols[6], n=cols[7], beta=cols[8], eps=cols[9], alpha=cols[10],
        iota=cols[11], r_tilde=cols[12], snapshots=snapshots,
    )
    final_state = State(
        t=init.t + n_steps * h,
        s=s,
        v=v,
        e=AgeProfile(params.grid, e, Units.DENSITY),
        a=AgeProfile(params.grid, a, Units.DENSITY),
        i=AgeProfile(params.grid, i, Units.DENSITY),
    )
    return SimulationResult(
        timeseries=timeseries,
        final_state=final_state,
        clamp_events=clamps.events,
        beta_steps=np.array(beta_steps),
    )
