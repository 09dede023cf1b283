"""Golden-output gate: short runs of the shipped configs against committed
numbers.

The goldens in `tests/golden_outputs.json` are written by
`tests/golden_outputs.py`, which also defines the short runs. Every column
of every CSV must lie within 1e-12 of that column's largest magnitude at
the kept rows, and so must that magnitude; not bytes, since BLAS kernels
split their sums differently on different CPUs. `violation_flag`, the file
list, the headers and row counts, and every printed report field except
`balance_error` must be exactly equal.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from golden_outputs import CONFIGS, GOLDEN_PATH, capture

RTOL_OF_MAX = 1e-12
EXACT_COLUMNS = ("violation_flag",)


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="ascii"))


@pytest.mark.parametrize("name", CONFIGS)
def test_short_shipped_config_matches_its_goldens(name, goldens, tmp_path):
    want = goldens[name]
    got = capture(name, tmp_path)
    assert got["ok"] == want["ok"]
    assert got["lines"] == want["lines"]
    assert sorted(got["files"]) == sorted(want["files"])
    for file, ref in want["files"].items():
        mine = got["files"][file]
        for key in ("header", "n_rows", "rows"):
            assert mine[key] == ref[key], (file, key)
        for column, scale, values, ref_scale, ref_values in zip(
                ref["header"], mine["scale"], mine["values"], ref["scale"], ref["values"]):
            where = f"{file}:{column}"
            if column in EXACT_COLUMNS:
                assert values == ref_values, where
                continue
            atol = RTOL_OF_MAX * ref_scale
            assert abs(scale - ref_scale) <= atol, where
            np.testing.assert_allclose(values, ref_values, rtol=0.0, atol=atol, err_msg=where)
