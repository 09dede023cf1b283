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

Each step reads only the live spans of the window. After n steps a node
can be nonzero only in the boundary history [0, n) or in the seed span,
the initial support [first, last) (`State.support`) moved n nodes on; both
are cut at J, and every other node holds an exact 0. The two spans never
overlap, and they are read as two spans at every step, also where they
touch (a seed from node 0). So the products of the kernel rows weight * Q,
with the weights from `ParameterSet.flux_rows`, summed over the live spans
(three matrix-vector products over the history and a table for the seed
span, below), give the force of infection, the two boundary integrals and
the recovered flux together, and sample masses are h * (Q[c] @ u[c]) over
the same spans, the three compartments' dots in one stacked `np.matmul`,
which numpy runs as the same dot per compartment, so the masses keep their
bits. The densities are rebuilt as Q * u only where they are read: the
snapshots and the final state on all J nodes (off the live spans u, and so
Q * u, is an exact +-0), and the observer's nodes: all J, unless it
declares leading prefixes, which it carries along the characteristics;
then the whole prefixes at its first sample and, at each later one, the
leading nodes that entered since.

While the seed span is on the grid, a step skips its products when they
cannot change a float (`_seed_negligible`). The seed is the initial data
carried forward and never fed again, so its share of a flux row w_r of
compartment c after n steps is at most max(w_r) * sum(x_c at t = 0) *
decay_c^n, decay_c being the compartment's largest one-step factor; the
bound handed over is twice that, which covers the frame's rounding, and
twice again for a row with a positive subnormal kernel entry (a weight
below about 1e-58 can make one), which rounding can make up to twice its
exact value.
Every kernel and density is nonnegative, so when the bound is at most a
quarter ulp of every history product it would be added to, history + seed
rounds to the history value, and skipping the seed changes no bit. The
sample masses are skipped on the same test (weight 1). The check is made
at every step, since a history that shrinks brings the seed back, and a
non-finite history reads the seed as before.

The seed span is not read step by step: its share of the seven flux-row
products comes from a table of _WINDOW steps (`_seed_table`), built at the
first step that reads the seed past the current table. Nothing enters the
seed, and within an age block b a seed cell holds its initial u times the
products of the blocks it has crossed, multiplied in the frame's order, at
every step. So for each block the seed crosses in the window, one
np.correlate('valid') of each kernel row over the whole block against
those cells gives the block's share at every step of the window: sums of
the frame's own products K[m] * u. A step's share of a block is one dot
over the same kernel entries and the same cells, in the same order,
whatever the window (cells off the seed count as 0, and no window trims a
block), and the blocks add up in ascending order; so the table's bits do
not depend on where a window starts or how long it is. A shorter run is a
bitwise prefix of a longer one, and retiring the seed on some steps, which
opens windows elsewhere, changes no bit. Those dots go through BLAS
(`ddot`, numpy's dot loop), like the kernel products, so the
byte-determinism the `runner` states, at one BLAS thread count, still
holds. The sums differ from a matrix-vector product over the seed span in
order only, so the results move by round-off against it. The sample masses
still read the seed span per sample.

A stationary seed is not read from the frame at all. When every initial
density is its node-0 value times the scheme's survival, bit for bit
(`_stationary_tails`; the steady and steady-scaled seeds of `scenarios`
are built that way), transport leaves it in place: after n steps nodes
[n, J) hold the initial values again, to round-off. Its share of step n's
products is then the sum over [n, J) of each flux row times the initial
density, and of each density for the masses. A table of these tail sums,
one entry per step the run reaches, replaces the seed span's table and its
check; a step reads the history span [0, min(n, J)) only, and the kernels
keep just the columns it reaches. The frame still carries the seed, so the
snapshots, the final state, the observer's nodes and the share that node
J - 1 passes on out of the grid read it as for any other seed, and the
ledger stays exact while the seed runs off the oldest node. The results
move by round-off against reading the seed's nodes.

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
from sveair.grid import AgeProfile, Units, block_products, block_survival, scheme_factors
from sveair.params import ParameterSet

_SMALLEST_NORMAL = np.finfo(np.float64).tiny
# Steps per table of a moving seed's flux-row products (`_seed_table`). A
# longer window reads each kernel block for more steps at once but wastes
# more entries past the seed's last read; in-process `simulate` on the band
# bench workloads was flat within noise from 128 to 1024.
_WINDOW = 256


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


def _stationary_tails(params: ParameterSet, init: State, q: np.ndarray, block: int,
                      products: np.ndarray, size: int):
    """The tail-sum table of a stationary seed, or None for any other seed.

    A seed is stationary when it is nonzero and each density is its node-0
    value times the scheme's survival (`grid.block_survival` of simulate's
    Q and block products), bit for bit. The table is (10, size): entry n of
    a row is the sum over nodes j >= n of one of the seven flux rows of
    `ParameterSet.flux_rows` times its density, in the frame's row order,
    then of each of the three densities. It is built one J-node temporary
    at a time."""
    densities = (init.e.values, init.a.values, init.i.values)
    if not any(x[0] for x in densities):
        return None
    for x, q_row, row_products in zip(densities, q, products):
        stationary = block_survival(q_row.copy(), block, row_products)
        stationary *= x[0]
        if not np.array_equal(stationary, x):
            return None
    tails = np.empty((10, size))
    sums = np.empty(q.shape[1])
    rows = iter(tails)
    for c, x in enumerate(densities):
        for weight in params.flux_rows(c):
            np.multiply(weight, x, out=sums)
            np.cumsum(sums[::-1], out=sums[::-1])
            next(rows)[:] = sums[:size]
    for x in densities:
        np.cumsum(x[::-1], out=sums[::-1])
        next(rows)[:] = sums[:size]
    return tails


def _seed_table(kernels, window: np.ndarray, products: np.ndarray, block: int,
                low: int, high: int, width: int) -> np.ndarray:
    """The seed span's share of the seven flux-row products for `width`
    steps from step n on, as a (7, width) table whose column s is step
    n + s (module docstring).

    `window` is the frame's window at step n, its seed cells the nodes
    [low, high), and `kernels` the three compartments' kernel rows in
    `ParameterSet.flux_rows` order. For each age block the seed reaches in
    these steps, the cells that enter it from the block before are
    multiplied by that block's product, as the frame multiplies them, and
    one np.correlate('valid') per kernel row over the whole block adds the
    block's share to every column. Cells off [low, high), the history's
    included, count as 0."""
    n_nodes = window.shape[1]
    table = np.zeros((7, width))
    first_block = low // block
    last_block = min(high + width - 2, n_nodes - 1) // block
    # Buffer entry i is the cell at node base + i at step n.
    base = first_block * block - (width - 1)
    cells = np.zeros(min((last_block + 1) * block, n_nodes) - base)
    rows = iter(table)
    for u, kernel, row_products in zip(window, kernels, products):
        cells[low - base:high - base] = u[low:high]
        out = [next(rows) for _ in kernel]
        for b in range(first_block, last_block + 1):
            offset = (b - first_block) * block
            if b > first_block:
                # The cells that reach block b from the one before it.
                cells[offset:offset + width - 1] *= row_products[b - 1]
            entries = slice(b * block, min((b + 1) * block, n_nodes))
            for row, kernel_row in zip(out, kernel):
                row += np.correlate(cells[offset:entries.stop - base], kernel_row[entries],
                                    "valid")[::-1]
    return table


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

    A step reads the live spans of the window only: the boundary history
    and, while its bound can change a float, the seed span, so the results
    are the same bits as with the seed read. The seed span's flux-row
    products come from tables of _WINDOW steps, and a stationary seed is
    read from its tail sums instead; both move the results by round-off
    against per-step products over the seed (module docstring).

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
    # A stationary seed's share of step n's products is entry n of its tail
    # sums, so the products read only the history span [0, n), which never
    # passes min(n_steps, J) nodes (module docstring).
    tails = _stationary_tails(params, init, q, block, products, min(n_steps + 1, n_nodes))
    cols = n_nodes if tails is None else min(n_steps, n_nodes)
    frame = np.empty((3, n_nodes + n_steps))
    start = n_steps
    for row, q_row, profile in zip(frame, q, (init.e, init.a, init.i)):
        np.divide(profile.values, q_row, out=row[start:])
    (kernel_e, peaks_e), (kernel_a, peaks_a), (kernel_i, peaks_i) = (
        _kernel(q[c, :cols], [weight[:cols] for weight in params.flux_rows(c)])
        for c in range(3))
    # The bounds on the seed span's share (module docstring), multiplied by
    # decay_c at each step while `apart`. A density too large to be stored
    # as u voids them.
    owner = [0, 0, 1, 1, 1, 2, 2, 0, 1, 2]  # compartment of each flux row, then each mass
    seed_mass = np.array([init.e.values.sum(), init.a.values.sum(), init.i.values.sum()])
    seed_bound = 2.0 * np.array(peaks_e + peaks_a + peaks_i + [1.0] * 3) * seed_mass[owner]
    if not math.isfinite(frame[:, start:].sum()):
        seed_bound[:] = math.inf
    seed_decay = decay[owner]
    row_bound, mass_bound = seed_bound[:7], seed_bound[7:]
    # The seed span's products of steps table_start onwards (`_seed_table`).
    kernels = (kernel_e, kernel_a, kernel_i)
    table, table_start = np.empty((7, 0)), 0
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
    # The live spans of step 0: the boundary history [0, min(n, J)) and the
    # seed [first + n, min(last + n, J)), apart while a seed that is not
    # read from its tail sums is on the grid (module docstring).
    history, seed = slice(0, 0), slice(first, last)
    apart = tails is None and seed.start < seed.stop
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
            if tails is not None and n < n_nodes:
                mass_row += tails[7:, n]
            if apart and not _seed_negligible(mass_bound, mass_row):
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
        # Unless the history or the seed reaches node J - 1 it holds an exact
        # 0, and so does its share.
        aged_out = (float(aged_out_weight @ window[:, -1])
                    if history.stop == n_nodes or seed.start < seed.stop == n_nodes else 0.0)
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
        history = slice(0, min(n + 1, n_nodes))
        seed = slice(first + n + 1, min(last + n + 1, n_nodes))
        apart = tails is None and seed.start < seed.stop
        np.matmul(kernel_e[:, history], window[0, history], out=dot_e)
        np.matmul(kernel_a[:, history], window[1, history], out=dot_a)
        np.matmul(kernel_i[:, history], window[2, history], out=dot_i)
        if tails is not None and n + 1 < n_nodes:
            dots += tails[:7, n + 1]
        if apart and not _seed_negligible(row_bound, dots):
            if n + 1 - table_start >= table.shape[1]:
                table_start = n + 1
                table = _seed_table(kernels, window, products, block, seed.start, seed.stop,
                                    min(_WINDOW, n_steps - n))
            dots += table[:, n + 1 - table_start]

    # The kernels go before the final densities are rebuilt in Q's place;
    # the loop ended at n = n_steps, so window is the final one.
    del kernel_e, kernel_a, kernel_i, kernels
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
