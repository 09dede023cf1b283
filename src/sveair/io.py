"""Deterministic CSV emission.

Floats are written with repr(), the shortest decimal that round-trips to
the same float64, so identical runs produce byte-identical files and
re-parsing reproduces the in-memory values exactly. LF line endings.
`format_value` specifies one cell; `write_csv` writes a block of rows at a
time to the same bytes:
  - each distinct value of a block is formatted once: a snapshot's
    densities are mostly exact zeros and at most a few thousand values
    repeated over whole age groups, so most of its cells reuse a cell
    already made;
  - a column that arrives already formatted, as the bytes array of
    `format_column`, is copied as it is. The runner formats the age column
    of the snapshots once per scenario this way; `repr` of its 129,601
    distinct values at h = 0.25 took 40-50% of each snapshot's write;
  - the rows are assembled as bytes by numpy, not joined cell by cell.
On the three snapshots of `c1-fine-snapshots` (seed 1), the age column once
and the three files now take 0.16-0.20 s to write, against 0.29-0.37 s when
each file formatted its own age column and joined str cells (best of 15,
in-process, 2-vCPU Xeon). The code uses only numpy APIs that 1.24, the
declared floor, has; `np.strings`, for one, needs numpy 2.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from sveair.errors import SveairError

# Cells per block; a block holds _BLOCK_CELLS // n_columns rows. Each block
# pays one np.unique and the set-up of its numpy calls, and the cells of one
# block are alive at once. Writing the three 129,601-row snapshots of
# `c1-fine-snapshots` (seed 1, age column given formatted) took at best 124,
# 117, 94 and 95 ms at 2,048, 4,096, 8,192 and 16,384 cells. The tracemalloc
# peak of a 3001 x 12 file of distinct values was 0.35, 0.70, 1.39 and
# 2.77 MiB (0.41 MiB with the former 256-row blocks of str cells), and
# 16,384 cells raised the peak RSS of `c2-oracle-sweep` from 48.1 to 49.5 MB.
# In-process, 2-vCPU Xeon, numpy 2.4.
_BLOCK_CELLS = 8192


def format_value(x) -> str:
    """Shortest round-trip decimal for a float (ints stay integral)."""
    value = float(x)
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _format_cells(values: np.ndarray) -> np.ndarray:
    """format_value of every entry of a float64 array, as a bytes array of
    the same shape, each distinct value formatted once. Entries that
    compare equal format alike: 0.0 and -0.0 are both "0", and np.unique
    merges every NaN into one "nan"."""
    distinct, inverse = np.unique(values, return_inverse=True)
    # A signalling NaN makes np.trunc warn; it is written as "nan" all the same.
    with np.errstate(invalid="ignore"):
        integral = (distinct == np.trunc(distinct)) & (np.abs(distinct) < 1e16)
    strings = np.array(list(map(repr, distinct.tolist())), dtype=object)
    strings[integral] = list(map(str, distinct[integral].astype(np.int64).tolist()))
    return np.array(strings.tolist(), dtype=np.bytes_)[inverse.reshape(values.shape)]


def format_column(values) -> np.ndarray:
    """format_value of every entry, as a fixed-width bytes array that
    write_csv writes as it is. Formatted _BLOCK_CELLS values at a time, so
    only one block's strings are alive at once."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([_format_cells(values[low:low + _BLOCK_CELLS])
                           for low in range(0, max(values.size, 1), _BLOCK_CELLS)])


def _join_rows(columns: list) -> bytes:
    """CSV lines of bytes arrays of equal length, one array per column.

    Every cell goes into a slot as wide as the widest cell, followed by a
    comma, or by a newline after the last column. The rest of the slot is
    NUL bytes, which no formatted number holds, so dropping every NUL
    leaves the lines."""
    width = max(col.dtype.itemsize for col in columns)
    slots = np.zeros((columns[0].size, len(columns), width + 1), dtype=np.uint8)
    for j, col in enumerate(columns):
        cells = np.ascontiguousarray(col).view(np.uint8)
        slots[:, j, :col.dtype.itemsize] = cells.reshape(-1, col.dtype.itemsize)
    slots[:, :, width] = ord(",")
    slots[:, -1, width] = ord("\n")
    return slots[slots != 0].tobytes()


def write_csv(path, header, columns) -> None:
    """Write columns of equal length under a comma-separated header. A
    column is numeric, or a bytes array of cells from format_column."""
    columns = [np.asarray(col) for col in columns]
    if len(columns) != len(header):
        raise SveairError(f"{len(header)} header fields but {len(columns)} columns")
    length = columns[0].shape[0]
    if any(col.shape != (length,) for col in columns):
        raise SveairError("CSV columns must share one length")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    formatted = [col.dtype.kind == "S" for col in columns]
    numeric = [col for col, done in zip(columns, formatted) if not done]
    rows_per_block = max(1, _BLOCK_CELLS // len(columns))
    # The numeric cells of one block, formatted together.
    block = np.empty((min(length, rows_per_block), len(numeric)))
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for low in range(0, length, rows_per_block):
            high = min(length, low + rows_per_block)
            rows = block[:high - low]
            for j, col in enumerate(numeric):
                rows[:, j] = col[low:high]
            cells = iter(_format_cells(rows).T)
            handle.write(_join_rows([col[low:high] if done else next(cells)
                                     for col, done in zip(columns, formatted)]))


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
