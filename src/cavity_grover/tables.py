"""Column-wise sweep tables and their CSV form.

A run's table is the plain triple ``(header, columns, summary)``: one
``Axis`` (values, repeat, tile) or plain 1-D column per header field, and
a human-readable summary. ``write_csv`` checks the columns without
expanding them, before it opens the path, then renders each axis value
once with one ``repr`` and spreads that text to the axis's rows, so a
table of any size writes the same bytes as one ``str`` per value, row by
row.
"""

from __future__ import annotations

import os
import stat
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError


class Axis(NamedTuple):
    """A grid coordinate column: each of ``values`` repeated ``repeat``
    times, that block laid ``tile`` times, so its rows are
    ``np.tile(np.repeat(values, repeat), tile)``."""

    values: object
    repeat: int = 1
    tile: int = 1


def _checked_axes(header: tuple[str, ...], columns) -> tuple[Axis, ...]:
    """The table rule: the columns as one ``Axis`` per header field (a plain
    column becomes one that repeats and tiles once; int values stay int), all
    of one length. Columns of another count or of unequal lengths, or a
    malformed axis, raise ``ConfigError``; a NaN or inf raises
    ``NumericalError`` naming the first row that holds one, so no such value
    reaches a CSV."""
    axes = tuple(map(_axis, columns))
    if len(axes) != len(header):
        raise ConfigError(f"{len(axes)} columns != header width {len(header)}")
    lengths = sorted({len(a.values) * a.repeat * a.tile for a in axes})
    if len(lengths) > 1:
        raise ConfigError(f"columns of unequal lengths {lengths}")
    # Value j of an axis first appears at row j * repeat: the earliest such
    # row of a non-finite value over the float axes is the bad row.
    floats = (a for a in axes if a.values.dtype.kind == "f")
    bad = [a.repeat * j for a in floats for j in np.flatnonzero(~np.isfinite(a.values))[:1]]
    if bad:
        row = tuple(a.values[min(bad) // a.repeat % len(a.values)].item() for a in axes)
        raise NumericalError(f"table holds a non-finite row {row}")
    return axes


def _axis(column) -> Axis:
    """A column as an ``Axis`` (a plain one repeats and tiles once): 1-D
    values, int64 for integers and float64 otherwise, and int repeat, tile >= 1."""
    axis = column if isinstance(column, Axis) else Axis(column)
    values = np.asarray(axis.values)
    if values.ndim != 1 or not all(isinstance(n, (int, np.integer)) and n >= 1 for n in axis[1:]):
        raise ConfigError(f"axes need 1-D values, int repeat, tile >= 1: {values.shape}, {axis[1:]}")
    kind = np.int64 if values.dtype.kind in "biu" else np.float64
    return axis._replace(values=values.astype(kind, copy=False))


def _column_text(axis: Axis) -> list[str]:
    """A column's text row by row, each value as ``str`` writes it. One
    ``repr`` per axis value renders it once (``str`` and ``repr`` agree on
    ints and floats); that text is repeated and tiled."""
    text = list(map(repr, axis.values.tolist()))
    if axis.repeat > 1:
        once, text = text, []
        for value in once:
            text += [value] * axis.repeat
    return text * axis.tile


def _open_in_place(path: str, flags: int) -> int:
    # open's own flags without O_TRUNC: a rerun overwrites the old blocks.
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_csv(table: tuple, path: str) -> None:
    """Write a ``(header, columns, summary)`` table as UTF-8 CSV: header
    row, ints as written, floats in shortest round-trip form (``repr`` of a
    Python float), rows in grid order. The table rule runs first, so a
    malformed or non-finite table raises with ``path`` untouched. Each
    column is formatted once (an axis once per value) and the rows are
    joined from the formatted columns. Byte-identical across runs. A file is
    rewritten in place and only a regular one is cut to length, so ``path``
    may be a pipe."""
    header, columns, _ = table
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*map(_column_text, _checked_axes(header, columns)))))
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n", opener=_open_in_place) as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc
