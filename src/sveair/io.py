"""Deterministic CSV emission.

Floats are written with repr(), the shortest decimal that round-trips to
the same float64, so identical runs produce byte-identical files and
re-parsing reproduces the in-memory values exactly. LF line endings.
`format_value` specifies one cell; `write_csv` formats a block of rows at a
time to the same bytes, and formats each distinct value of a block once: a
snapshot's densities are mostly exact zeros and at most a few thousand
values repeated over whole age groups, so most of its cells reuse a string
already made.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from sveair.errors import SveairError

# Rows formatted per block. The cell strings of one block are alive at once,
# so a block of all-distinct values costs memory in proportion to its cells:
# against 256 rows, 512 rows raised the peak RSS of a 1500-day oracle run
# (12- and 7-column files of distinct values) by 0.25 MB and 1024 rows by
# 0.7 MB. Each block pays one np.unique and its set-up, 20-30 us, so at 256
# rows a 129,601-row snapshot spends about 15 ms of its 0.16 s on them.
_BLOCK_ROWS = 256


def format_value(x) -> str:
    """Shortest round-trip decimal for a float (ints stay integral)."""
    value = float(x)
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _format_cells(values: np.ndarray) -> list:
    """format_value of every entry of a float64 array, each distinct value
    formatted once. Entries that compare equal format alike: 0.0 and -0.0
    are both "0", and np.unique merges every NaN into one "nan"."""
    distinct, inverse = np.unique(values, return_inverse=True)
    strings = np.array(list(map(repr, distinct.tolist())), dtype=object)
    integral = (distinct == np.trunc(distinct)) & (np.abs(distinct) < 1e16)
    strings[integral] = list(map(str, distinct[integral].astype(np.int64).tolist()))
    return strings[inverse].tolist()


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
    # One block of rows in row-major order, so its cells come out row by row.
    block = np.empty((min(length, _BLOCK_ROWS), len(columns)))
    # A signalling NaN makes np.trunc warn; it is written as "nan" all the same.
    with open(path, "w", encoding="utf-8", newline="\n") as handle, \
            np.errstate(invalid="ignore"):
        handle.write(",".join(header) + "\n")
        for low in range(0, length, _BLOCK_ROWS):
            rows = block[:min(length - low, _BLOCK_ROWS)]
            for j, col in enumerate(columns):
                rows[:, j] = col[low:low + _BLOCK_ROWS]
            cells = iter(_format_cells(rows.ravel()))
            handle.write("\n".join(map(",".join, zip(*[cells] * len(columns)))) + "\n")


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
