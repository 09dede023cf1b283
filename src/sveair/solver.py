"""Time stepper for the scaled system: linearly implicit transfers for S and
V, transport along characteristics for the age densities, rectangle-rule
renewal integrals for the theta = 0 boundaries.

The time step equals the age step h, so one step moves each density one
node along its characteristic and multiplies it by the explicit decay
factor: x^{n+1}[j+1] = x^n[j] * (1 - h * exit_rate[j]). The force of
infection and the renewal integrals feeding a step are evaluated on the
previous state (explicit coupling). The share that the oldest node
passes on leaves the system (absorbing boundary at theta_max); the
recovered ledger counts it, so the ledger stays exact once mass ages out.
While node J - 1 lies off the live spans (below) that share is an exact 0,
and the step does not compute it.

The densities are kept in a moving frame instead of being shifted in
memory. The age axis is cut into blocks of L nodes, and Q[c, j] is the
product of compartment c's decay factors from the start of node j's block
up to node j - 1 (so Q = 1 at every block start), built by
`grid.block_products`. The three densities live in one (3, J + n_steps)
frame as u = x / Q, sized to the run. Within a block u is constant along a
characteristic, so a step decrements the start index of the J-node window,
multiplies the cells that have just crossed into the next block (at most
J / L per compartment) by the product over the block they left, and writes
the three boundary values at window position 0. The window starts at the
end of the frame and reaches its start at the last step, so it is never
copied. L is the largest block length for which the smallest decay factor,
raised to the power L, stays above 1e-250, so Q never underflows; in
exchange a density must stay below about 1e58 to be representable as u.

Each step reads only the live span of the window. After n steps a node
can be nonzero only in the boundary history [0, n) or in the initial
support [first, last) (`State.support`) moved n nodes on; every other node
holds an exact 0. So three matrix-vector products against the kernel rows
weight * Q, with the weights from `ParameterSet.flux_rows`,
summed over the live spans, give the force of infection, the two boundary
integrals and the recovered flux together, and sample masses are
h * (Q[c] @ u[c]) over the same spans, the three compartments' dots in one
stacked `np.matmul`, which numpy runs as the same dot per compartment, so
the masses keep their bits. The densities are rebuilt as Q * u
only where they are read: the snapshots and the final state on all J
nodes (off the live spans u, and so Q * u, is an exact +-0), and the
observer's nodes: all J, unless it declares leading prefixes, which it
carries along the characteristics; then the whole prefixes at its first
sample and, at each later one, the leading nodes that entered since.

While the two spans are apart, a step skips the seed span's products when
they cannot change a float (`_seed_negligible`). The seed is the initial
data carried forward and never fed again, so its share of a flux row w_r
of compartment c after n steps is at most max(w_r) * sum(x_c at t = 0) *
decay_c^n, decay_c being the compartment's largest one-step factor; the
bound handed over is twice that, which covers the frame's rounding, and
twice again for a row with a positive subnormal kernel entry (a weight
below about 1e-58 can make one), which rounding can make up to twice its
exact value.
Every kernel and density is nonnegative, so when the bound is at most a
quarter ulp of every history product it would be added to, history + seed
rounds to the history value, and skipping the seed changes no bit. The
sample masses are skipped on the same test (weight 1). The check is made
at every step, since a history that shrinks brings the seed back; merged
spans (steady-scaled seeds) always read everything, and a non-finite
history reads the seed as before.

A step's seven flux-row products are taken right after the window moves
at the end of the step before, and one assembly turns them into the force
of infection, the boundary integrals and the recovered flux. At t = 0 they
are instead the unscaled dot products row @ density of the given
densities (`_functionals`, the arithmetic of the renewal oracle's first
step too), so the first sample of a run gives every reader of an initial
state the same numbers, not numbers that agree to round-off.

S and V take their deaths explicitly and their transfers implicitly
(Mickens' nonstandard finite-difference form):

    S' = (S (1 - h mu) + h mu N0) / (1 + h (p + beta))
    V' = (V (1 - h mu) + h p S') / (1 + h (zeta epsilon + (1 - epsilon) beta))

The latent boundary the step writes, which is also the sample's `eps`, is
beta * (S' + (1 - epsilon) V'), and the recovered ledger gains
h * zeta * epsilon * V': each transfer leaves and enters at one value, so
the mass ledger is exact. The numerators are nonnegative under the
stability bound, which covers h * mu, and the denominators are at least 1,
so S and V stay nonnegative at any h and any force of infection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from sveair.errors import AbortedRunError, ParameterError
from sveair.grid import AgeProfile, Units, block_products, scheme_factors
from sveair.params import ParameterSet

_SMALLEST_NORMAL = np.finfo(np.float64).tiny


@dataclass(frozen=True, eq=False)
class State:
    """System state at one instant: scalars S, V and the three densities."""

    t: float
    s: float
    v: float
    e: AgeProfile
    a: AgeProfile
    i: AgeProfile

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.s) and math.isfinite(self.v)):
            raise ParameterError("state scalars must be finite")
        if self.s < 0 or self.v < 0:
            raise ParameterError(f"S and V must be nonnegative, got S={self.s}, V={self.v}")
        for name in ("e", "a", "i"):
            profile = getattr(self, name)
            if profile.units is not Units.DENSITY:
                raise ParameterError(f"density {name} must be density-typed")
            if profile.grid != self.e.grid:
                raise ParameterError("state densities must share one grid")

    def support(self) -> tuple[int, int]:
        """The union support [first, last) of the three densities: every node
        outside it is 0 in all three. first == last when they are all zero."""
        nonzero = (self.e.values != 0.0) | (self.a.values != 0.0) | (self.i.values != 0.0)
        first = int(nonzero.argmax())
        last = nonzero.size - int(nonzero[::-1].argmax()) if nonzero[first] else first
        return first, last


@dataclass(frozen=True, eq=False)
class DensitySnapshot:
    """Age densities on the grid's nodes at t, init.t plus the time requested."""

    t: float
    e: np.ndarray
    a: np.ndarray
    i: np.ndarray


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Per-sample aggregates of a run; `r_tilde` is the explicitly
    integrated recovered compartment used by the conservation diagnostic
    (the R column itself is the remainder N0 - S - V - E - A - I)."""

    t: np.ndarray
    s: np.ndarray
    v: np.ndarray
    e: np.ndarray
    a: np.ndarray
    i: np.ndarray
    r: np.ndarray
    n: np.ndarray
    beta: np.ndarray
    eps: np.ndarray
    alpha: np.ndarray
    iota: np.ndarray
    r_tilde: np.ndarray
    snapshots: list[DensitySnapshot]

    def balance_error(self, n0: float) -> float:
        """Max relative defect of S+V+E+A+I+R_tilde against N0."""
        total = self.s + self.v + self.e + self.a + self.i + self.r_tilde
        return float(np.max(np.abs(total - n0)) / n0)


@dataclass(frozen=True, eq=False)
class SimulationResult:
    timeseries: TimeSeries
    final_state: State
    beta_steps: np.ndarray  # force of infection at every step, n_steps + 1 values
    # No step is limited since the S/V transfers became implicit; the
    # benchmark tracer (bench/child.py) still sums this count.
    clamp_events = 0


def _functionals(params: ParameterSet, state: State) -> tuple:
    """The seven flux-row products of a state, unscaled: row @ density for
    each row of `ParameterSet.flux_rows`, e's rows, then a's, then i's."""
    return tuple(row @ profile.values for c, profile in enumerate((state.e, state.a, state.i))
                 for row in params.flux_rows(c))


def _live_spans(n: int, first: int, last: int, n_nodes: int) -> tuple:
    """Window node ranges that can be nonzero after n steps.

    They are the boundary history [0, n) and the initial support
    [first, last) moved n nodes on, both cut at n_nodes and merged when
    they touch. Every other node holds an exact 0.
    """
    head = min(n, n_nodes)
    low, high = first + n, min(last + n, n_nodes)
    if low >= high:
        return ((0, head),)
    if low <= head:
        return ((0, high),)
    return ((0, head), (low, high))


def _seed_negligible(bound, head) -> bool:
    """Whether adding a nonnegative seed part of at most `bound` leaves every
    entry of `head` unchanged: bound <= ulp(head) / 4 at every entry.

    Rounding to nearest moves head + seed off head only from half an ulp
    on. A non-finite head gives False, so the seed is read there. The test
    runs on Python floats and stops at the first entry that fails; its ulp
    is np.spacing's, the step to the next float away from zero, signed like
    the head, inf past the largest float and NaN at an infinity."""
    for entry, x in zip(bound.tolist(), head):
        x = float(x)
        if not entry <= 0.25 * (math.nextafter(x, math.copysign(math.inf, x)) - x):
            return False
    return True


def _kernel(q_row: np.ndarray, weights) -> tuple:
    """Flux rows weight * Q of one compartment, stacked for one matrix-vector
    product, and the seed bound's factor of each row: the largest weight,
    doubled when a positive entry of the row is subnormal, as rounding can
    make such an entry up to twice its exact value."""
    out = np.empty((len(weights), q_row.shape[0]))
    peaks = []
    for row, weight in zip(out, weights):
        np.multiply(weight, q_row, out=row)
        subnormal = ((row > 0.0) & (row < _SMALLEST_NORMAL)).any()
        peaks.append(weight.max() * (2.0 if subnormal else 1.0))
    return out, peaks


def step_plan(grid, t_max: float, sample_every: float, snapshot_times=(),
              names=("t_max", "sample_every", "snapshot_times")) -> tuple[int, int, list]:
    """(n_steps, stride, snapshot steps) of a run on the AgeGrid `grid`, the
    rule on the durations and times of `simulate`: t_max and sample_every
    positive, every value a whole multiple of h (`AgeGrid.steps`) and every
    snapshot on a step of the run, or a ParameterError naming the refused
    value by its entry in `names`."""
    t_name, every_name, snap_name = names
    for name, days in ((t_name, t_max), (every_name, sample_every)):
        if not days > 0:
            raise ParameterError(f"{name} must be positive, got {days}")
    n_steps = grid.steps(t_max, t_name)
    stride = grid.steps(sample_every, every_name)
    snap_steps = [grid.steps(ts, snap_name) for ts in snapshot_times]
    missed = [ts for ts, n in zip(snapshot_times, snap_steps) if not 0 <= n <= n_steps]
    if missed:
        raise ParameterError(f"{snap_name}: snapshot times {missed} match no step "
                             f"of [0, {n_steps * grid.h:g}]")
    return n_steps, stride, snap_steps


def simulate(
    init: State,
    params: ParameterSet,
    t_max: float,
    sample_every: float = 1.0,
    snapshot_times: Sequence[float] = (),
    observer=None,
) -> SimulationResult:
    """Run the scheme over [init.t, init.t + t_max]. Every duration and time
    is in days; `step_plan` turns them into steps and refuses any it cannot.

    A step reads the live spans of the window only, and a seed span apart
    from the history only while its bound can change a float, so the
    results are the same bits as with the seed read (module docstring).

    Args:
        init: Initial state on the parameter grid.
        params: Model parameters.
        t_max: Run length, positive.
        sample_every: Aggregate-recording interval, positive.
        snapshot_times: Times in [0, t_max], relative to init.t, at which to
            capture the full age densities; one per step, at the first time.
        observer: Optional callable invoked at every sample as
            observer(t, s, v, e, a, i) with the raw density arrays (reused
            buffers that the next sample overwrites; do not mutate or
            retain them). Without a `nodes` attribute the arrays hold all
            J nodes. An observer with `nodes` (k_e, k_a, k_i) reads only
            the prefixes e[:k_e], a[:k_a] and i[:k_i] and carries what it
            read along the characteristics, where a node's value moves to
            the next node times the decay factor at each step. It receives
            the whole prefixes at the first sample and, at each later one,
            only the leading min(k_c, steps since the previous sample)
            nodes, the cohorts that entered since; only those are rebuilt.

    Returns:
        SimulationResult with the sampled TimeSeries, the per-step force
        of infection and the final State.

    Raises:
        ParameterError: naming the refused duration or time (`step_plan`).
        StabilityError: at setup when h * max exit rate >= 1 (`grid.scheme_factors`).
        AbortedRunError: when a non-finite value appears; carries the step.
    """
    grid = params.grid
    if init.e.grid != grid:
        raise ParameterError("initial state is not on the parameter grid")
    h, n_nodes = grid.h, grid.n_nodes
    n_steps, stride, snap_steps = step_plan(grid, t_max, sample_every, snapshot_times)
    # The time each snapshot step was first requested at.
    snap_times = {n: init.t + ts for ts, n in reversed(list(zip(snapshot_times, snap_steps)))}
    # The seven flux-row products of a step over the history span, each
    # compartment's rows in one view. At t = 0 they are the unscaled ones
    # (module docstring), taken before the frame and the kernels exist, so
    # the rows they build do not raise the run's peak memory.
    dots = np.array(_functionals(params, init))
    dot_e, dot_a, dot_i = dots[:2], dots[2:5], dots[5:]
    first, last = init.support()

    rates = np.stack((params.exit_rate_e, params.exit_rate_a, params.exit_rate_i))
    q = scheme_factors(rates, h)
    # Each compartment's largest one-step factor, before Q overwrites q.
    decay = q[:, 1:].max(axis=1, initial=0.0)
    block, products = block_products(q)
    # Q times the share that node J - 1 passes on, out of the grid.
    aged_out_weight = q[:, -1] * (1.0 - h * rates[:, -1])
    del rates
    frame = np.empty((3, n_nodes + n_steps))
    start = n_steps
    for row, q_row, profile in zip(frame, q, (init.e, init.a, init.i)):
        np.divide(profile.values, q_row, out=row[start:])
    (kernel_e, peaks_e), (kernel_a, peaks_a), (kernel_i, peaks_i) = (
        _kernel(q[c], params.flux_rows(c)) for c in range(3))
    # The bounds on the seed span's share (module docstring), multiplied by
    # decay_c at each step the spans are apart. A density too large to be
    # stored as u voids them.
    owner = [0, 0, 1, 1, 1, 2, 2, 0, 1, 2]  # compartment of each flux row, then each mass
    seed_mass = np.array([init.e.values.sum(), init.a.values.sum(), init.i.values.sum()])
    seed_bound = 2.0 * np.array(peaks_e + peaks_a + peaks_i + [1.0] * 3) * seed_mass[owner]
    if not math.isfinite(frame[:, start:].sum()):
        seed_bound[:] = math.inf
    seed_decay = decay[owner]
    row_bound, mass_bound = seed_bound[:7], seed_bound[7:]
    # The same products over the seed span.
    seed_dots = np.empty(7)
    seed_e, seed_a, seed_i = seed_dots[:2], seed_dots[2:5], seed_dots[5:]
    # A sample's three masses Q_c @ u_c over a span, as one stacked product.
    masses, seed_masses = np.empty((3, 1, 1)), np.empty((3, 1, 1))
    mass_row = masses.reshape(3)
    if observer is not None:
        # The leading nodes the observer reads, rebuilt into reused buffers.
        # One that declares `nodes` carries what it read along the
        # characteristics, so after the first sample it is handed only the
        # `fresh` leading nodes that entered since the previous sample.
        carries = hasattr(observer, "nodes")
        densities = tuple(np.empty(k) for k in getattr(observer, "nodes", (n_nodes,) * 3))
        fresh = n_nodes

    mu, p, n0 = params.mu, params.p, params.n0
    keep = 1.0 - h * mu
    born = h * mu * n0
    zeta_eps = params.zeta * params.epsilon
    one_minus_eps = 1.0 - params.epsilon
    s, v = init.s, init.v
    samples: list[tuple] = []
    beta_steps = np.empty(n_steps + 1)
    snapshots: list[DensitySnapshot] = []
    r_tilde = None
    window = frame[:, start:start + n_nodes]
    spans = _live_spans(0, first, last, n_nodes)
    # The history span, merged with the seed span when they touch.
    history, apart = slice(*spans[0]), len(spans) == 2
    for n in range(n_steps + 1):
        t = init.t + n * h
        to_asym, to_symp, infect_a, branch_a, recover_a, infect_i, recover_i = dots.tolist()
        beta = h * (infect_a + infect_i)
        alpha = h * to_asym
        iota = h * (to_symp + branch_a)
        recovered = h * (recover_a + recover_i)
        if not (math.isfinite(beta) and math.isfinite(alpha) and math.isfinite(iota)
                and math.isfinite(s) and math.isfinite(v)):
            raise AbortedRunError(f"non-finite value at step {n} (t={t})", step_index=n)
        beta_steps[n] = beta
        s_next = (s * keep + born) / (1.0 + h * (p + beta))
        v_next = (v * keep + h * p * s_next) / (1.0 + h * (zeta_eps + one_minus_eps * beta))
        eps = beta * (s_next + one_minus_eps * v_next)
        if n % stride == 0 or n == n_steps:
            np.matmul(q[:, None, history], window[:, history, None], out=masses)
            if apart and not _seed_negligible(mass_bound, mass_row):
                seed = slice(*spans[1])
                np.matmul(q[:, None, seed], window[:, seed, None], out=seed_masses)
                masses += seed_masses
            e_tot, a_tot, i_tot = (h * mass for mass in mass_row.tolist())
            removed = n0 - s - v - e_tot - a_tot - i_tot
            if r_tilde is None:
                # Initial recovered mass: population minus the modeled pools.
                r_tilde = removed
            samples.append(
                (t, s, v, e_tot, a_tot, i_tot, removed, n0,
                 beta, eps, alpha, iota, r_tilde)
            )
            if observer is not None:
                views = tuple(out[:fresh] for out in densities)
                for q_row, u, out in zip(q, window, views):
                    np.multiply(q_row[:out.size], u[:out.size], out=out)
                observer(t, s, v, *views)
                if carries:
                    fresh = min(stride, n_steps - n)
        if n in snap_times:
            e, a, i = q * window
            snapshots.append(DensitySnapshot(t=snap_times[n], e=e, a=a, i=i))
        if n == n_steps:
            break

        # Recovered-compartment ledger (conservation diagnostic); the
        # vaccine-immunity inflow leaves V at its new value, and the mass
        # that ages out through theta_max is counted with the recovered.
        # Off the live spans node J - 1 holds an exact 0, and so does its share.
        aged_out = (float(aged_out_weight @ window[:, -1]) if spans[-1][1] == n_nodes
                    else 0.0)
        r_tilde = r_tilde + h * (zeta_eps * v_next + recovered + aged_out - mu * r_tilde)
        s, v = s_next, v_next
        if apart:
            seed_bound *= seed_decay

        start -= 1
        frame[:, start + block:start + n_nodes:block] *= products
        frame[0, start] = eps
        frame[1, start] = alpha
        frame[2, start] = iota
        window = frame[:, start:start + n_nodes]
        # Step n + 1's live spans and products.
        spans = _live_spans(n + 1, first, last, n_nodes)
        history, apart = slice(*spans[0]), len(spans) == 2
        np.matmul(kernel_e[:, history], window[0, history], out=dot_e)
        np.matmul(kernel_a[:, history], window[1, history], out=dot_a)
        np.matmul(kernel_i[:, history], window[2, history], out=dot_i)
        if apart and not _seed_negligible(row_bound, dots):
            seed = slice(*spans[1])
            np.matmul(kernel_e[:, seed], window[0, seed], out=seed_e)
            np.matmul(kernel_a[:, seed], window[1, seed], out=seed_a)
            np.matmul(kernel_i[:, seed], window[2, seed], out=seed_i)
            dots += seed_dots

    # The kernels go before the final densities are rebuilt in Q's place;
    # the loop ended at n = n_steps, so window is the final one.
    del kernel_e, kernel_a, kernel_i
    e, a, i = np.multiply(q, window, out=q)
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
        e=AgeProfile(grid, e, Units.DENSITY),
        a=AgeProfile(grid, a, Units.DENSITY),
        i=AgeProfile(grid, i, Units.DENSITY),
    )
    return SimulationResult(
        timeseries=timeseries,
        final_state=final_state,
        beta_steps=beta_steps,
    )
