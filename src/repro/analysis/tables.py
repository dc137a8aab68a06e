"""Plain-text table rendering for experiment reports.

Benches and the CLI print their result rows through :func:`format_table`
so EXPERIMENTS.md and terminal output share one format.  No third-party
table library is used (offline environment).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["format_value", "format_table", "format_sweep"]


def format_value(value: object, *, precision: int = 6) -> str:
    """Render one cell: floats get fixed precision, NaN prints as ``--``."""
    if isinstance(value, float):
        if math.isnan(value):
            return "--"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.{precision}g}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    precision: int = 6,
) -> str:
    """Monospace table with a header rule, columns right-aligned.

    >>> print(format_table(["x", "y"], [[1, 2.5], [10, float("nan")]]))
     x    y
    --  ---
     1  2.5
    10   --
    """
    str_rows = [[format_value(v, precision=precision) for v in row] for row in rows]
    str_headers = [str(h) for h in headers]
    ncols = len(str_headers)
    for row in str_rows:
        if len(row) != ncols:
            raise ValueError(
                f"row has {len(row)} cells but table has {ncols} headers"
            )
    widths = [
        max([len(str_headers[c])] + [len(r[c]) for r in str_rows])
        for c in range(ncols)
    ]
    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(cells))

    lines = [fmt_row(str_headers)]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(r) for r in str_rows)
    return "\n".join(lines)


def format_sweep(sweep, *, precision: int = 4, max_rows: int | None = None) -> str:
    """Render a :class:`repro.analysis.series.SweepResult` as a table.

    ``max_rows`` subsamples evenly (first and last rows always kept) so wide
    figure grids stay readable in terminal output.
    """
    rows = sweep.to_rows()
    if max_rows is not None and len(rows) > max_rows:
        import numpy as np

        idx = np.unique(np.linspace(0, len(rows) - 1, max_rows).astype(int))
        rows = [rows[i] for i in idx]
    title = f"{sweep.title}  {dict(sweep.params)!r}"
    body = format_table(sweep.header(), rows, precision=precision)
    return f"{title}\n{body}"
