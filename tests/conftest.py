"""Shared fixtures and independent oracles for the test suite."""

import csv
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from sveair.grid import AgeProfile, Units, build_grid, constant_profile
from sveair.params import ParameterSet


def read_csv(path):
    """Read back a numeric CSV written by `sveair.io.write_csv`: (header,
    columns), one float64 array per column."""
    with open(path, encoding="ascii", newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    data = np.array([[float(cell) for cell in row] for row in rows[1:]], dtype=np.float64)
    data = data.reshape(len(rows) - 1, len(header))
    return header, list(data.T)


# A snapshot handed to simulate's `on_snapshot`, its densities copied.
Snapshot = namedtuple("Snapshot", "t e a i")


def snapshot_recorder(snapshots):
    """An `on_snapshot` callable for simulate that appends each snapshot to
    `snapshots`, copying the densities, which simulate reuses."""
    return lambda t, e, a, i: snapshots.append(Snapshot(t, e.copy(), a.copy(), i.copy()))


def make_constant_params(
    grid,
    n0=1e6,
    mu=5e-5,
    p=1e-3,
    epsilon=0.5,
    zeta=0.05,
    beta_a=1e-9,
    beta_i=2e-9,
    k=0.1,
    q=0.4,
    xi=0.5,
    chi=0.05,
    gamma_a=0.08,
    gamma_i=0.06,
):
    """Parameter set with every age profile constant."""
    return ParameterSet(
        n0=n0, mu=mu, p=p, epsilon=epsilon, zeta=zeta,
        beta_a=constant_profile(grid, beta_a, Units.TRANSMISSION),
        beta_i=constant_profile(grid, beta_i, Units.TRANSMISSION),
        k=constant_profile(grid, k, Units.RATE),
        q=constant_profile(grid, q, Units.PROPORTION),
        xi=constant_profile(grid, xi, Units.PROPORTION),
        chi=constant_profile(grid, chi, Units.RATE),
        gamma_a=constant_profile(grid, gamma_a, Units.RATE),
        gamma_i=constant_profile(grid, gamma_i, Units.RATE),
    )


# Closed forms for constant rates (untruncated integrals; the grids used in
# tests make the truncated tails negligible against the tolerances).

def analytic_RA(k, q, mu, beta_a, gamma_a, xi, chi):
    rate_a = gamma_a * xi + chi * (1.0 - xi) + mu
    return (k * q / (k + mu)) * (beta_a / rate_a)


def analytic_RI(k, q, mu, beta_i, gamma_a, gamma_i, xi, chi):
    rate_a = gamma_a * xi + chi * (1.0 - xi) + mu
    bracket = k * (1.0 - q) / (k + mu) + (k * q / (k + mu)) * (chi * (1.0 - xi) / rate_a)
    return bracket * (beta_i / (gamma_i + mu))


def analytic_prefactor(n0, mu, p, epsilon, zeta):
    return mu * n0 / (p + mu) * (1.0 + p * (1.0 - epsilon) / (zeta * epsilon + mu))


def analytic_R0(n0, mu, p, epsilon, zeta, **rates):
    r_a = analytic_RA(rates["k"], rates["q"], mu, rates["beta_a"],
                      rates["gamma_a"], rates["xi"], rates["chi"])
    r_i = analytic_RI(rates["k"], rates["q"], mu, rates["beta_i"],
                      rates["gamma_a"], rates["gamma_i"], rates["xi"], rates["chi"])
    return analytic_prefactor(n0, mu, p, epsilon, zeta) * (r_a + r_i)


def with_last_node_k(params, k_last):
    """params with the latent rate k set to k_last at the last age node only."""
    values = params.k.values.copy()
    values[-1] = k_last
    return replace(params, k=params.k.with_values(values))


def bisect_beta_star(r_sum, n0, mu, p, epsilon, zeta, iters=200):
    """Bisection on 1 = (mu n0/(p+b+mu)) (1 + p(1-eps)/(zeta eps + b(1-eps) + mu)) r_sum."""

    def excess(b):
        pool = mu * n0 / (p + b + mu) * (
            1.0 + p * (1.0 - epsilon) / (zeta * epsilon + b * (1.0 - epsilon) + mu)
        )
        return pool * r_sum - 1.0

    lo, hi = 0.0, 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise AssertionError("bisection bracket blew up")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="session")
def small_grid():
    return build_grid(0.25, 400.0)


@pytest.fixture(scope="session")
def small_params(small_grid):
    return make_constant_params(small_grid)


def zero_density(grid):
    return AgeProfile(grid, np.zeros(grid.n_nodes), Units.DENSITY)


def rate_profile(rng, grid, top, units):
    """Constant or piecewise-constant profile with values in [0, top]."""
    if rng.random() < 0.5:
        return constant_profile(grid, rng.uniform(0.0, top), units)
    # At most n_nodes - 1 cuts fit: a two-node grid has room for one.
    cuts = np.sort(rng.choice(np.arange(1, grid.n_nodes),
                              size=rng.integers(1, min(4, grid.n_nodes)), replace=False))
    pieces = rng.uniform(0.0, top, cuts.size + 1)
    return AgeProfile(grid, pieces[np.searchsorted(cuts, np.arange(grid.n_nodes),
                                                   side="right")], units)


def band_density(grid, lo, hi, mass):
    mask = (grid.nodes >= lo) & (grid.nodes < hi)
    values = np.zeros(grid.n_nodes)
    values[mask] = mass / (grid.h * mask.sum())
    return AgeProfile(grid, values, Units.DENSITY)
