"""Column-wise sweep tables and their CSV form.

A ``SweepTable`` holds one NumPy column per header field and checks the
columns once; ``write_csv`` formats each column once and joins the rows
from the formatted columns, so a table of any size writes the same bytes
as one ``str`` per value, row by row. A long column finds its distinct
values with one sort over their bit patterns, a short one with a dict;
the bytes are the same either way.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError


@dataclass(frozen=True, eq=False)  # array fields: == on them is elementwise
class SweepTable:
    """One experiment's output: a fixed column schema, one NumPy column per
    header field (int columns stay int), rows in grid order, and a
    human-readable summary. Columns of another count or of unequal lengths
    raise ``ConfigError``; a NaN or inf raises ``NumericalError`` naming the
    first row that holds one, so no such value reaches a CSV."""

    experiment: str
    header: tuple[str, ...]
    columns: tuple[np.ndarray, ...]
    summary: str

    def __post_init__(self) -> None:
        columns = tuple(map(_column, self.columns))
        object.__setattr__(self, "columns", columns)
        if len(columns) != len(self.header):
            raise ConfigError(f"{len(columns)} columns != header width {len(self.header)}")
        lengths = sorted({len(column) for column in columns})
        if len(lengths) > 1:
            raise ConfigError(f"columns of unequal lengths {lengths}")
        bad = np.zeros(lengths[0] if lengths else 0, dtype=bool)
        for column in columns:
            if column.dtype.kind == "f":
                bad |= ~np.isfinite(column)
        if bad.any():
            row = tuple(column[bad.argmax()].item() for column in columns)
            raise NumericalError(f"{self.experiment} produced a non-finite row {row}")

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The table row by row, as Python ints and floats."""
        return tuple(zip(*(column.tolist() for column in self.columns)))


def _column(values) -> np.ndarray:
    """One 1-D table column: int64 for integers, float64 otherwise."""
    column = np.asarray(values)
    if column.ndim != 1:
        raise ConfigError(f"a table column must be 1-D, got shape {column.shape}")
    return column.astype(np.int64 if column.dtype.kind in "biu" else np.float64, copy=False)


# Column length from which one sort finds the distinct values faster than a
# dict. On repeated columns the two cross at about 120 values for floats and
# 250 for ints; below that the sort's fixed cost loses, and the first
# np.unique call in a process costs about 0.2 ms and 0.7 MB more. Sorting
# every column made the oracle-sweep benchmark (columns of 24 and 150
# values) about 5 % slower.
_SORT_FROM = 256


def _column_text(column: np.ndarray) -> list[str]:
    """Each value of a column as ``str`` writes it, rendered by one ``repr``
    of a Python list. Values are keyed by their 64-bit pattern, so -0.0 and
    0.0 stay apart. A long column finds its distinct patterns with one sort
    (``np.unique``) and expands their text to every row with one gather; a
    short one with a dict, whose fixed cost is lower. A column of mostly
    repeated values formats each distinct value once, any other column
    formats every value; the text is the same on either path."""
    long = len(column) >= _SORT_FROM
    if long:
        distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
    else:
        keys = column.view(np.int64).tolist()
        distinct = list(dict.fromkeys(keys))
    if 2 * len(distinct) > len(column):
        return repr(column.tolist())[1:-1].split(", ")
    text = repr(np.asarray(distinct, np.int64).view(column.dtype).tolist())[1:-1].split(", ")
    if long:
        return np.array(text, dtype=object)[inverse].tolist()
    return list(map(dict(zip(distinct, text)).__getitem__, keys))


def _open_in_place(path: str, flags: int) -> int:
    # open's own flags without O_TRUNC: a rerun overwrites the old blocks.
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_csv(table: SweepTable, path: str) -> None:
    """Write the table as UTF-8 CSV: header row, ints as written, floats in
    shortest round-trip form (``repr`` of a Python float), rows in grid
    order. Each column is formatted once and the rows are joined from the
    formatted columns. Byte-identical across runs. A file is rewritten in
    place and only a regular one is cut to length, so ``path`` may be a pipe."""
    lines = [",".join(table.header)]
    lines.extend(map(",".join, zip(*map(_column_text, table.columns))))
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n", opener=_open_in_place) as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc
