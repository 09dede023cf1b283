"""Reference stepper: the shift form of the characteristic scheme.

Every step rewrites the three densities, x^{n+1}[j+1] = x^n[j] * (1 - h *
exit_rate[j]), and evaluates the boundary functionals on the shifted
arrays. S and V take the linearly implicit update of `sveair.solver`. `sveair.solver.simulate` keeps the densities in a moving frame
instead; the property tests require the two to agree to round-off.
"""

import math

import numpy as np

from sveair.errors import AbortedRunError, ParameterError, StabilityError
from sveair.grid import AgeProfile, Units
from sveair.solver import DensitySnapshot, SimulationResult, State, TimeSeries


class _Precomputed:
    """Step-invariant arrays and scalars of the scheme."""

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
        # The shares that the oldest node passes on, out of the grid.
        self.aged_out = [1.0 - h * rate[-1] for rate in
                         (params.exit_rate_e, params.exit_rate_a, params.exit_rate_i)]
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

    def functionals(self, e, a, i):
        """(beta, alpha, iota) of raw density arrays."""
        h = self.h
        beta = h * (self.beta_a @ a + self.beta_i @ i)
        alpha = h * (self.kq @ e)
        iota = h * (self.k1q @ e + self.chi_branch @ a)
        return beta, alpha, iota

    def pools(self, beta, s, v):
        """(S', V', eps) of one step: explicit deaths, implicit transfers,
        and the latent boundary fed by the transfers."""
        h = self.h
        s_next = (s * (1.0 - h * self.mu) + h * self.mu_n0) / (1.0 + h * (self.p + beta))
        v_next = (v * (1.0 - h * self.mu) + h * self.p * s_next) / (
            1.0 + h * (self.zeta_eps + self.one_minus_eps * beta))
        return s_next, v_next, beta * (s_next + self.one_minus_eps * v_next)


def _shift(pre, e, a, i, out_e, out_a, out_i, eps, alpha, iota):
    """Move the densities one node on into the out buffers and write the
    boundary values at node 0."""
    np.multiply(e[:-1], pre.decay_e, out=out_e[1:])
    np.multiply(a[:-1], pre.decay_a, out=out_a[1:])
    np.multiply(i[:-1], pre.decay_i, out=out_i[1:])
    out_e[0] = eps
    out_a[0] = alpha
    out_i[0] = iota


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

    e_next = np.empty_like(e)
    a_next = np.empty_like(a)
    i_next = np.empty_like(i)

    r_tilde = None
    for n in range(n_steps + 1):
        t = init.t + n * h
        beta, alpha, iota = pre.functionals(e, a, i)
        s_next, v_next, eps = pre.pools(beta, s, v)
        if not (math.isfinite(beta) and math.isfinite(alpha) and math.isfinite(iota)
                and math.isfinite(s) and math.isfinite(v)):
            raise AbortedRunError(f"non-finite value at step {n} (t={t})", step_index=n)
        beta_steps.append(beta)
        if n % stride == 0 or n == n_steps:
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
                DensitySnapshot(t=t, e=e.copy(), a=a.copy(), i=i.copy())
            )
        if n == n_steps:
            break
        recov_flux = h * (pre.recov_a @ a + pre.recov_i @ i)
        aged_out = sum(keep * x[-1] for keep, x in zip(pre.aged_out, (e, a, i)))
        _shift(pre, e, a, i, e_next, a_next, i_next, eps, alpha, iota)
        r_tilde = r_tilde + h * (pre.zeta_eps * v_next + recov_flux + aged_out
                                 - pre.mu * r_tilde)
        s, v = s_next, v_next
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
        beta_steps=np.array(beta_steps),
    )
