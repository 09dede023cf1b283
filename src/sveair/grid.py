"""Age mesh, sampled age profiles, and the survival products.

Everything downstream shares one uniform age grid with nodes theta_j = j*h;
the time stepper reuses the same h so the upwind stencil sits on
characteristics. Integrals over age are the rectangle sums h * sum(g_j u_j)
over all nodes. It forms the oracle's exponential `survival` and the scheme's
decay factors, bounded by `scheme_factors` and multiplied by `block_products`
into every survival and tail the scheme reads. The oracle ages its cohorts by
its own exp(-h * rate), in place (`volterra`), to stay independent of these.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from sveair.errors import InvalidGridError, ParameterError, ProfileError, StabilityError

# Grid nodes within this many days of a step-table breakpoint are treated as
# sitting exactly on it (right-closed semantics); h is always >> this.
_BREAKPOINT_SNAP = 1e-6

# Lower bound on a survival product over one age block of `block_products`.
BLOCK_FLOOR = 1e-250


class Units(enum.Enum):
    """Unit tag of an age profile, fixing its admissible value range."""

    RATE = "per-day"                    # >= 0
    PROPORTION = "dimensionless"        # in [0, 1]
    DENSITY = "individuals-per-day"     # >= 0
    TRANSMISSION = "per-individual-per-day"  # >= 0


@dataclass(frozen=True)
class AgeGrid:
    """Uniform age mesh with nodes theta_j = j*h for j = 0 .. n_nodes-1;
    `build_grid` judges h and theta_max."""

    h: float
    theta_max: float
    n_nodes: int

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.h

    def steps(self, days: float, name: str) -> int:
        """n = round(days / h), the one conversion of days into steps. Raises a
        ParameterError naming `name` unless days is within 1e-9 * |days| of n * h."""
        ratio = days / self.h
        if not math.isfinite(ratio) or abs(days - round(ratio) * self.h) > 1e-9 * abs(days):
            raise ParameterError(f"{name} must be a whole multiple of grid.h = {self.h}, got {days}")
        return int(round(ratio))

    def __post_init__(self):
        if self.n_nodes < 1:
            raise InvalidGridError(f"grid needs at least one node, got {self.n_nodes}")


def build_grid(h: float, theta_max: float) -> AgeGrid:
    """Build the uniform age mesh on [0, theta_max] with step h.

    Args:
        h: Step size in days (also the time step downstream).
        theta_max: Maximum age in days; must be at least h.

    Returns:
        AgeGrid with n_nodes = floor(theta_max/h) + 1.
    """
    if not (isinstance(h, (int, float)) and math.isfinite(h)) or h <= 0:
        raise InvalidGridError(f"step size must be positive and finite, got h={h}")
    if not math.isfinite(theta_max) or theta_max < h:
        raise InvalidGridError(
            f"theta_max must be at least one step, got theta_max={theta_max}, h={h}"
        )
    # Tolerate float division falling a hair short of an integer node count.
    n_nodes = int(math.floor(theta_max / h + 1e-9)) + 1
    return AgeGrid(h=float(h), theta_max=float(theta_max), n_nodes=n_nodes)


_RANGE_CHECKS = {
    Units.RATE: (0.0, math.inf),
    Units.PROPORTION: (0.0, 1.0),
    Units.DENSITY: (0.0, math.inf),
    Units.TRANSMISSION: (0.0, math.inf),
}


@dataclass(frozen=True, eq=False)
class AgeProfile:
    """A sampled function of age on a shared AgeGrid.

    Values are snapshot to a read-only float64 array and validated against
    the unit's range on construction.
    """

    grid: AgeGrid
    values: np.ndarray = field(repr=False)
    units: Units

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.grid.n_nodes,):
            raise ProfileError(
                f"profile has {values.shape} values for a grid of {self.grid.n_nodes} nodes"
            )
        if not np.isfinite(values).all():
            raise ProfileError("profile contains non-finite values")
        lo, hi = _RANGE_CHECKS[self.units]
        if values.min(initial=lo) < lo or values.max(initial=hi) > hi:
            raise ProfileError(
                f"{self.units.name.lower()} profile out of range [{lo}, {hi}]: "
                f"min={values.min()}, max={values.max()}"
            )
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def with_values(self, values: np.ndarray) -> "AgeProfile":
        """New profile on the same grid, with the same units."""
        return AgeProfile(self.grid, values, self.units)


def constant_profile(grid: AgeGrid, value: float, units: Units) -> AgeProfile:
    """Profile equal to `value` at every node."""
    return AgeProfile(grid, np.full(grid.n_nodes, float(value)), units)


def rect_integral(values: np.ndarray, grid: AgeGrid) -> float:
    """Rectangle quadrature h * sum over all nodes (the scheme's rule)."""
    return grid.h * float(np.sum(values))


def sample_step_function(
    breakpoints,
    values,
    grid: AgeGrid,
    units: Units,
) -> AgeProfile:
    """Sample a piecewise-constant table onto the grid.

    `values[i]` applies on [breakpoints[i-1], breakpoints[i]); the final
    value applies from the last breakpoint onward. Intervals are
    right-closed at breakpoints: a node equal to b_i takes the value of the
    interval starting at b_i.

    Args:
        breakpoints: Strictly ascending interior breakpoints (may be empty).
        values: One value per interval, len(breakpoints) + 1 of them.
        grid: Target mesh.
        units: Unit tag; values must satisfy its range.
    """
    breakpoints = np.asarray(breakpoints, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if breakpoints.ndim != 1 or values.ndim != 1:
        raise ProfileError("breakpoints and values must be one-dimensional")
    if breakpoints.size and np.any(np.diff(breakpoints) <= 0):
        raise ProfileError("breakpoints must be strictly ascending")
    if values.size != breakpoints.size + 1:
        raise ProfileError(
            f"need {breakpoints.size + 1} interval values, got {values.size}"
        )
    idx = np.searchsorted(breakpoints, grid.nodes + _BREAKPOINT_SNAP, side="right")
    return AgeProfile(grid, values[idx], units)


def sample_contact(
    center_age: float,
    mean_contacts: float,
    width: float,
    grid: AgeGrid,
) -> AgeProfile:
    """Gaussian contact bump normalized to a prescribed grid-average.

    Returns c(theta) = K * exp(-((theta - center_age)/width)^2) with K fixed
    so the rectangle-rule grid average of c over [0, theta_max] equals
    mean_contacts.

    Args:
        center_age: Age of peak contact activity (days).
        mean_contacts: Target average contacts per day over the grid.
        width: Gaussian width parameter (days).
    """
    if width <= 0:
        raise ProfileError(f"width must be positive, got {width}")
    if mean_contacts <= 0:
        raise ProfileError(f"mean_contacts must be positive, got {mean_contacts}")
    if grid.n_nodes < 2:
        raise InvalidGridError("contact sampling needs a grid with at least two nodes")
    bump = np.exp(-(((grid.nodes - center_age) / width) ** 2))
    scale = mean_contacts / float(np.mean(bump))
    return AgeProfile(grid, scale * bump, Units.RATE)


def load_profile_csv(path, grid: AgeGrid, units: Units) -> AgeProfile:
    """Load a two-column `age_days,value` CSV and interpolate onto the grid.

    Linear interpolation between data points; constant extrapolation beyond
    the data range. A leading `age_days,value` header row is accepted.

    Args:
        path: CSV file path (UTF-8, comma-separated, '.' decimal point,
            LF or CRLF line endings).
        grid: Target mesh.
        units: Unit tag; interpolated values must satisfy its range.
    """
    ages: list[float] = []
    vals: list[float] = []
    try:
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ProfileError(f"cannot read profile CSV {path}: {exc}") from exc
    with handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ProfileError(f"{path}:{lineno}: expected two columns, got {len(row)}")
            a_txt, v_txt = row[0].strip(), row[1].strip()
            if lineno == 1 and a_txt.lower() == "age_days":
                continue
            try:
                ages.append(float(a_txt))
                vals.append(float(v_txt))
            except ValueError as exc:
                raise ProfileError(f"{path}:{lineno}: non-numeric row {row!r}") from exc
    if not ages:
        raise ProfileError(f"{path}: no data rows")
    age_arr = np.asarray(ages)
    if age_arr.size > 1 and np.any(np.diff(age_arr) <= 0):
        raise ProfileError(f"{path}: ages must be strictly ascending")
    sampled = np.interp(grid.nodes, age_arr, np.asarray(vals))
    return AgeProfile(grid, sampled, units)


def survival(rates: np.ndarray, h: float) -> np.ndarray:
    """Exponential survival of an exit-rate array: F[0] = 1 and
    F[j] = exp(-sum_{m<j} rates[m] * h), the left-rectangle cumulative
    hazard, exact for rates constant on each cell (may underflow to 0)."""
    hazard = np.empty(rates.shape[0])
    hazard[0] = 0.0
    np.cumsum(rates[:-1] * h, out=hazard[1:])
    return np.exp(-hazard)


def scheme_factors(rates: np.ndarray, h: float) -> np.ndarray:
    """The scheme's one-step decay factors of exit-rate rows (J or (C, J)),
    written one node on as `block_products` reads them: factors[..., 0] = 1
    and factors[..., j] = 1 - h * rates[..., j - 1], the share of a cohort at
    node j - 1 that reaches node j. Raises StabilityError when h times the
    largest rate, the last node's included, is at least 1.
    """
    worst = float(rates.max())
    if h * worst >= 1.0:
        raise StabilityError(f"h * max exit rate = {h * worst:.3g} >= 1; "
                             f"reduce h below {1.0 / worst:.3g} days")
    factors = np.empty(rates.shape)
    factors[..., 0] = 1.0
    np.multiply(rates[..., :-1], -h, out=factors[..., 1:])  # 1 - h * rate, bit for bit
    factors[..., 1:] += 1.0
    return factors


def scheme_survival(rates: np.ndarray, h: float) -> np.ndarray:
    """The scheme's survival of exit-rate rows (J or (C, J), array-like):
    prod_{m<j} (1 - h * rates[m]), the share of a cohort left after j steps.

    It is Q of `block_products` times the running product of the whole-block
    products before node j's block, and is flushed to 0 below the smallest
    normal float, as the exponential underflows, so that the stepper never
    works on subnormals. Raises StabilityError as `scheme_factors` does.
    """
    q = scheme_factors(np.atleast_2d(rates), h)
    block, products = block_products(q)
    carry = np.cumprod(np.insert(products, 0, 1.0, axis=1), axis=1)
    full = (q.shape[1] // block) * block
    for row, row_carry in zip(q, carry):  # in place: no J-node temporary
        blocks = row[:full].reshape(-1, block)
        blocks *= row_carry[:blocks.shape[0], np.newaxis]
        row[full:] *= row_carry[-1]
    q[q < np.finfo(np.float64).tiny] = 0.0
    return q.reshape(np.shape(rates))


def scheme_tail(source: np.ndarray, rates: np.ndarray, h: float) -> np.ndarray:
    """F[j] = h*src[j] + (1 - h*rate[j]) * F[j+1], F beyond the last node 0.

    Discretizes F(theta) = integral_theta^theta_max src(s) *
    exp(-integral_theta^s rate) ds with the scheme's own decay factors, so
    F[0] equals the rectangle quadrature of src * `scheme_survival`
    exactly. Raises StabilityError as `scheme_factors` does. Solved in the
    age blocks of `block_products`, from the oldest down: within a block
    [low, high), with Q[j] the product of the factors over low .. j-1, F[j]
    is the reversed cumulative sum of h * src[m] * Q[m] over m >= j, divided
    by Q[j], plus F[high] times the product of the factors over j .. high-1.
    """
    n = source.shape[0]
    q = scheme_factors(rates[np.newaxis], h)
    block, products = block_products(q)
    out = np.empty(n)
    carry = 0.0
    for low in range(block * ((n - 1) // block), -1, -block):
        high = min(low + block, n)
        head = q[0, low:high]
        tail = np.cumsum((h * source[low:high] * head)[::-1])[::-1]
        out[low:high] = tail / head
        if high < n:
            out[low:high] += carry * (products[0, low // block] / head)
        carry = out[low]
    return out


def block_products(q: np.ndarray) -> tuple[int, np.ndarray]:
    """Blocked survival products of the (C, J) factor rows q, in place.

    On entry q[c, j] is the factor of node j - 1 (q[c, 0] is ignored). L is
    the largest block length with (smallest factor)^L >= BLOCK_FLOOR, at
    least 1 and at most J. On return q[c, j] is the product of row c's
    factors over nodes block_start(j) .. j-1, so q = 1 at every block start
    and no product underflows. Returns (L, products), products[c, b] being
    the product over the whole block b, for every block that another follows.
    """
    n_nodes = q.shape[1]
    smallest = float(q[:, 1:].min(initial=1.0))
    block = n_nodes
    if smallest < 1.0:
        block = min(n_nodes, max(1, int(math.log(BLOCK_FLOOR) / math.log(smallest))))
    full = (n_nodes // block) * block
    products = q[:, block::block].copy()  # factor of each block's last node
    q[:, ::block] = 1.0
    for row, product in zip(q, products):
        blocks = row[:full].reshape(-1, block)
        np.multiply.accumulate(blocks, axis=1, out=blocks)
        np.multiply.accumulate(row[full:], out=row[full:])
        product *= row[block - 1::block][:product.size]
    return block, products
