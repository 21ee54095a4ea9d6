"""The one CSV format every tabular artifact is written in.

A ``# <comment>`` line (the resolved config), then the ``csv`` module's
default dialect.  A bool or integer cell (Python or numpy) is written as an
int and a float as ``repr(float(v))``, so every numeric cell round-trips
exactly through ``float()``; a string is written as is.
"""

from __future__ import annotations

import csv

import numpy as np

__all__ = ["write_table"]


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer, np.bool_)):
        return str(int(v))
    if isinstance(v, str):
        return v
    raise TypeError(f"no CSV cell format for {type(v).__name__}")


def write_table(path, columns, rows, comment: str) -> None:
    """Write rows (iterables of cells) under a comment line and a header of column names."""
    with open(path, "w", newline="") as f:
        f.write(f"# {comment}\n")
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)
