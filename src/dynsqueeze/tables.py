"""CSV tables of numbers: a header line, then one comma-separated row per entry.

The moments, theory, summary and residual files all share this layout.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def write_table(path, columns, arrays) -> None:
    """Write equal-length columns as CSV: a header line, then one row per entry.

    Integer and boolean columns print as integers (``%d``), float columns as
    ``%.12g`` (the same bytes as ``{:.12g}``); a scalar is formatted once and
    repeated down its column.
    """
    if len(arrays) != len(columns):
        raise ValueError(f"{len(columns)} columns but {len(arrays)} arrays")
    arrays = [np.asarray(a) for a in arrays]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    fields = ("%d" if a.dtype.kind in "biu" else "%.12g" for a in arrays)
    row = ",".join(f if a.ndim else f % a.item() for f, a in zip(fields, arrays)) + "\n"
    cols = [np.broadcast_to(a, shape).tolist() for a in arrays if a.ndim]
    body = "".join([row % values for values in zip(*cols)])
    Path(path).write_text(",".join(columns) + "\n" + body)


def read_table(path, columns) -> dict[str, np.ndarray]:
    """Read a CSV written by :func:`write_table`; one float array per column.

    The header must equal ``columns``, every row must carry one number per
    column, and there must be at least one row.  A bad row is reported as
    ``path:line``.
    """
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0].split(",") != list(columns):
        raise ValueError(f"{path}: expected header {','.join(columns)}")
    body = lines[1:]
    if not body:
        raise ValueError(f"{path}: no data rows")
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise _row_error(path, body, len(columns), exc) from exc
    if data.shape != (len(body), len(columns)):
        # loadtxt skips empty lines and takes any field count all rows share
        raise _row_error(path, body, len(columns), f"read {data.shape} values")
    return {col: data[:, i] for i, col in enumerate(columns)}


def _row_error(path, body, n_fields, cause) -> ValueError:
    """The error naming the first row of ``body`` that is not ``n_fields`` numbers."""
    for ln, line in enumerate(body, start=2):
        parts = line.split(",")
        if len(parts) != n_fields:
            return ValueError(f"{path}:{ln}: expected {n_fields} fields")
        for part in parts:
            try:
                float(part)
            except ValueError:
                return ValueError(f"{path}:{ln}: not a number: {part.strip()!r}")
    return ValueError(f"{path}: {cause}")
