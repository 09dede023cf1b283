"""Deterministic CSV emission.

Floats are written with repr(), the shortest decimal that round-trips to
the same float64, so identical runs produce byte-identical files and
re-parsing reproduces the in-memory values exactly. LF line endings.
`format_value` specifies one cell; `write_csv` formats a block of rows at a
time, column by column, to the same bytes.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from sveair.errors import SveairError

# Rows formatted per block. The cell strings of one block are alive at once,
# and larger blocks raise a run's peak RSS without writing any faster.
_BLOCK_ROWS = 256


def format_value(x) -> str:
    """Shortest round-trip decimal for a float (ints stay integral)."""
    value = float(x)
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _format_cells(values: np.ndarray) -> list:
    """format_value of every entry of a float64 array, in bulk."""
    if not values.any():  # all 0.0 or -0.0, each written "0"
        return ["0"] * values.shape[0]
    cells = list(map(repr, values.tolist()))
    integral = (values == np.trunc(values)) & (np.abs(values) < 1e16)
    for index, whole in zip(np.flatnonzero(integral).tolist(),
                            values[integral].astype(np.int64).tolist()):
        cells[index] = str(whole)
    return cells


def write_csv(path, header, columns) -> None:
    """Write columns of equal length under a comma-separated header."""
    columns = [np.asarray(col) for col in columns]
    if len(columns) != len(header):
        raise SveairError(f"{len(header)} header fields but {len(columns)} columns")
    length = columns[0].shape[0]
    if any(col.shape != (length,) for col in columns):
        raise SveairError("CSV columns must share one length")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # A signalling NaN makes np.trunc warn; it is written as "nan" all the same.
    with open(path, "w", encoding="utf-8", newline="\n") as handle, \
            np.errstate(invalid="ignore"):
        handle.write(",".join(header) + "\n")
        for low in range(0, length, _BLOCK_ROWS):
            cells = [_format_cells(np.asarray(col[low:low + _BLOCK_ROWS], dtype=np.float64))
                     for col in columns]
            handle.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_csv(path):
    """Read back a numeric CSV written by write_csv.

    Returns:
        (header, columns) with one float64 array per column.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise SveairError(f"{path}: empty CSV")
    header = rows[0]
    data = np.array([[float(cell) for cell in row] for row in rows[1:]], dtype=np.float64)
    if data.size == 0:
        data = data.reshape(0, len(header))
    return header, [data[:, j] for j in range(len(header))]
