"""The contact-function labeling check against the published r0 pair.

The paper's printed formulas center contact function c1 at age 80 and c2
at age 10; its figure caption says the opposite. `contact_labeling_outcomes`
evaluates r0 under both readings, and `write_contact_labeling_report`
records the signed deviations from the published values (endemic 9.14,
disease-free 5.95e-5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from sveair import reproduction, scenarios
from sveair.grid import build_grid
from sveair.io import format_value

# Published reference values for the two Table-2 scenarios and the bands
# the labeling check uses: the endemic value within 10 percent, the
# disease-free value below 1e-3.
REFERENCE_R0_ENDEMIC = 9.14
REFERENCE_R0_ENDEMIC_RTOL = 0.10
REFERENCE_R0_DFE = 5.95e-5
DFE_R0_CEILING = 1e-3


@dataclass(frozen=True)
class LabelingOutcome:
    name: str
    r0_c1: float
    r0_c2: float

    @property
    def c1_ok(self) -> bool:
        return self.r0_c1 <= DFE_R0_CEILING

    @property
    def c2_ok(self) -> bool:
        return abs(self.r0_c2 - REFERENCE_R0_ENDEMIC) <= REFERENCE_R0_ENDEMIC_RTOL * REFERENCE_R0_ENDEMIC

    @property
    def ok(self) -> bool:
        return self.c1_ok and self.c2_ok


def contact_labeling_outcomes(h: float = 0.05, theta_max: float = scenarios.THETA_MAX_DEFAULT):
    """r0 under both readings of the contact-function labels."""
    grid = build_grid(h, theta_max)
    r0_by_center = {}
    for contact, center_years in (("c1", 80), ("c2", 10)):
        params = scenarios.build_parameters(grid, contact=contact)
        r0_by_center[center_years] = reproduction.compute_R0(params).r0
    return (
        LabelingOutcome("formula (c1 centered at 80y, c2 at 10y)",
                        r0_c1=r0_by_center[80], r0_c2=r0_by_center[10]),
        LabelingOutcome("caption (c1 centered at 10y, c2 at 80y)",
                        r0_c1=r0_by_center[10], r0_c2=r0_by_center[80]),
    )


def write_contact_labeling_report(path, outcomes=None) -> bool:
    """Signed discrepancy report for the contact-labeling check.

    Returns True when some labeling matches both published values; when
    none does, the report records the signed deviations for each labeling
    and the r0 ratio between the two scenarios, which the labeling only
    inverts.
    """
    outcomes = contact_labeling_outcomes() if outcomes is None else outcomes
    any_ok = any(out.ok for out in outcomes)
    lines = [
        "contact-function labeling check against the published r0 pair",
        f"targets: endemic scenario r0 = {REFERENCE_R0_ENDEMIC} "
        f"(+/- {REFERENCE_R0_ENDEMIC_RTOL:.0%}), disease-free scenario "
        f"r0 <= {DFE_R0_CEILING} (published {REFERENCE_R0_DFE})",
        "",
    ]
    for out in outcomes:
        dev_c2 = (out.r0_c2 - REFERENCE_R0_ENDEMIC) / REFERENCE_R0_ENDEMIC
        dev_c1 = out.r0_c1 - REFERENCE_R0_DFE
        lines.append(f"labeling: {out.name}")
        lines.append(f"  r0_c2 = {format_value(out.r0_c2)}  signed relative deviation "
                     f"from {REFERENCE_R0_ENDEMIC}: {dev_c2:+.4%}  -> {'ok' if out.c2_ok else 'MISMATCH'}")
        lines.append(f"  r0_c1 = {format_value(out.r0_c1)}  signed deviation from "
                     f"{format_value(REFERENCE_R0_DFE)}: {dev_c1:+.6g}  "
                     f"(ceiling {DFE_R0_CEILING}) -> {'ok' if out.c1_ok else 'MISMATCH'}")
    lines.append("")
    if any_ok:
        lines.append("verdict: a labeling reproduces the published pair")
    else:
        first = outcomes[0]
        ratio = max(first.r0_c2 / first.r0_c1, first.r0_c1 / first.r0_c2)
        lines.append(
            "verdict: no labeling reproduces both published values; with "
            "equal-width mean-16.71 Gaussian contacts the ratio between the "
            f"two scenarios' r0 is exp({math.log(ratio):.2f}) ~ {ratio:.2g} for any "
            "asymptomatic-proportion data, while the published pair implies "
            f"{REFERENCE_R0_ENDEMIC / REFERENCE_R0_DFE:.2g}; recorded as a "
            "non-blocking discrepancy"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return any_ok
