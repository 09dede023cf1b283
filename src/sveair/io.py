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
  - a block whose numeric cells are all zeros of either sign is written as
    "0" cells without that pass: 123 of the 192 blocks of the three
    snapshots of `c1-fine-snapshots` (seed 1);
  - a column that arrives already formatted, as the bytes array of
    `format_column`, is copied as it is. The runner formats the age column
    of the snapshots once per scenario this way. Where integer arithmetic
    provably gives repr's own string, as for every node j*h of a dyadic h
    such as 0.25, `format_column` builds the cell from the digits of its
    integer part and a table of the block's distinct fractions
    (`_format_exact`); the other cells go through repr;
  - the rows are assembled as bytes by numpy, each column in slots of its
    own width, not joined cell by cell.
On `c1-fine-snapshots` (seed 1), the age column takes 4.4-5.2 ms against
27-28 ms with repr of every node, and the three files 26 ms against
32-36 ms with one slot width for all columns and the distinct-value pass
on every block (best of 15, in-process, 2-vCPU AMD EPYC, numpy 2.4). At
h = 0.1 and 0.05 most nodes go through repr, and the column takes 71-76
and 150-155 ms against 81-86 and 165-174 ms. The code uses only numpy APIs
that 1.24, the declared floor, has; `np.strings`, for one, needs numpy 2.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from sveair.errors import SveairError

# Cells per block; a block holds _BLOCK_CELLS // n_columns rows. Each block
# pays one np.unique and the set-up of its numpy calls, and the cells of one
# block are alive at once. The age column of `c1-fine-snapshots` (seed 1)
# took at best 6.3, 5.2, 4.6 and 4.5 ms at 2,048, 4,096, 8,192 and 16,384
# cells, and writing its three 129,601-row snapshots (age column given
# formatted) 37, 30, 26 and 24 ms. The tracemalloc peak of a 3001 x 12 file
# of distinct values was 0.36, 0.70, 1.40 and 2.78 MiB. In-process, 2-vCPU
# AMD EPYC, numpy 2.4. At an earlier commit, on a 2-vCPU Xeon, 16,384 cells
# raised the peak RSS of `c2-oracle-sweep` from 48.1 to 49.5 MB.
_BLOCK_CELLS = 8192

# format_column builds a cell by integer arithmetic when its fraction has at
# most this many bits. At x >= 1e-4 the ulp test admits at most 20.
_FRACTION_BITS = 20
_POWERS_OF_TEN = 10 ** np.arange(1, 17, dtype=np.int64)


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


def _format_exact(values: np.ndarray) -> np.ndarray:
    """format_value of every entry of a 1-d float64 block, as a bytes array.

    A cell x = i + f with x = 0 or 1e-4 <= x < 1e16, whose fraction f has at
    most _FRACTION_BITS bits, has an exact decimal of k = (bits of f)
    digits after the point. When ulp(x)/2 < 10^-k, every decimal with fewer
    digits lies at least 5 * 10^-k from x and does not round-trip, so repr
    gives that exact decimal, in positional notation in that range. Such a
    cell is built with integer arithmetic: the digits of i by integer
    division, those of f from a table of the block's distinct fractions.
    Every other cell goes through _format_cells."""
    # NaNs and infinities fail the tests quietly, signalling NaNs included.
    with np.errstate(invalid="ignore"):
        whole = np.trunc(values)
        scaled = (values - whole) * 2.0 ** _FRACTION_BITS
        exact = (((values >= 1e-4) & (values < 1e16)) | (values == 0)) & (
            scaled == np.trunc(scaled))
    if not exact.any():
        return _format_cells(values)
    kept = values[exact]
    fractions, which = np.unique(scaled[exact].astype(np.int64), return_inverse=True)
    # Each fraction's digits after the point: n / 2^B = n * 5^B / 10^B.
    digits = [str(n * 5 ** _FRACTION_BITS).rjust(_FRACTION_BITS, "0").rstrip("0")
              for n in fractions.tolist()]
    # ulp(x) < 2 * 10^-k, read on the block's largest cell first. The float
    # 10^-k is off by an ulp at most, far inside the factor 5 of the margin.
    limit = np.array([2.0 * 10.0 ** -len(tail) for tail in digits])
    if not np.spacing(kept.max()) < limit.min():
        near = np.spacing(kept) < limit[which]
        exact[exact] = near
        if not near.any():
            return _format_cells(values)
        which = which[near]
    whole = whole[exact].astype(np.int64)
    length = np.searchsorted(_POWERS_OF_TEN, whole, side="right") + 1
    tail_width = max(map(len, digits)) + 1 if any(digits) else 0
    width = int(length.max()) + tail_width
    slots = np.zeros((whole.size, width), dtype=np.uint8)
    flat = slots.reshape(-1)
    # The digits of i from the last, each at its row's offset; a row runs
    # out of digits once i < 10^place.
    starts = np.arange(0, flat.size, width)
    at = starts + length - 1
    shortest = int(length.min())
    for place in range(width - tail_width):
        whole, digit = np.divmod(whole, 10)
        digit += ord("0")
        if place < shortest:
            flat[at] = digit
        else:
            more = length > place
            flat[at[more]] = digit[more]
        at -= 1
    if tail_width:
        tails = np.array([b"." + tail.encode() if tail else b"" for tail in digits],
                         dtype=f"S{tail_width}")
        tails = tails.view(np.uint8).reshape(-1, tail_width)[which]
        at = starts + length
        for place in range(tail_width):
            flat[at] = tails[:, place]
            at += 1
    cells = slots.view(f"S{width}")[:, 0]
    if exact.all():
        return cells
    rest = _format_cells(values[~exact])
    out = np.empty(values.size, dtype=np.result_type(cells.dtype, rest.dtype))
    out[exact] = cells
    out[~exact] = rest
    return out


def format_column(values) -> np.ndarray:
    """format_value of every entry, as a fixed-width bytes array that
    write_csv writes as it is. Formatted _BLOCK_CELLS values at a time, so
    only one block's strings are alive at once."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([_format_exact(values[low:low + _BLOCK_CELLS])
                           for low in range(0, max(values.size, 1), _BLOCK_CELLS)])


def _join_rows(columns: list) -> bytes:
    """CSV lines of bytes arrays of equal length, one array per column.

    Each column's cells go into slots of its own width, each followed by a
    comma, or by a newline after the last column. The rest of a slot is
    NUL bytes, which no formatted number holds, so dropping every NUL
    leaves the lines."""
    ends = np.cumsum([col.dtype.itemsize + 1 for col in columns])
    slots = np.zeros((columns[0].size, int(ends[-1])), dtype=np.uint8)
    for end, col in zip(ends.tolist(), columns):
        width = col.dtype.itemsize
        cells = np.ascontiguousarray(col).view(np.uint8).reshape(-1, width)
        slots[:, end - 1 - width:end - 1] = cells
        slots[:, end - 1] = ord(",")
    slots[:, -1] = ord("\n")
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
            # Zeros of either sign count as zero, NaNs do not; unlike a ufunc,
            # count_nonzero raises no warning on a signalling NaN.
            if np.count_nonzero(rows):
                cells = iter(_format_cells(rows).T)
            else:
                cells = iter(np.full(rows.shape, b"0").T)
            handle.write(_join_rows([col[low:high] if done else next(cells)
                                     for col, done in zip(columns, formatted)]))
