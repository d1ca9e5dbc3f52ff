"""Plain-text table rendering shared by the spec, sweep and CLI layers.

The paper reports its results as figures; since this library is plotting-free
(offline environment), every scenario renders the same series as aligned
text tables that can be diffed, logged or piped into any plotting tool.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["render_table", "render_series"]


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned text table with a header rule."""
    rendered_rows: List[List[str]] = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but the table has {len(headers)} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    rule = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        for row in rendered_rows
    ]
    return "\n".join([header_line, rule, *body])


def render_series(label: str, values: Sequence[float], max_points: int = 12) -> str:
    """Render a numeric series as a single labelled line, subsampled for
    readability when it is long."""
    values = list(values)
    if len(values) > max_points and max_points > 1:
        step = max(1, len(values) // max_points)
        sampled = values[::step]
        if values[-1] != sampled[-1]:
            sampled.append(values[-1])
    else:
        sampled = values
    rendered = ", ".join(_format_cell(v) for v in sampled)
    return f"{label}: [{rendered}]"
