"""Plain-text tables for experiment reports.

The paper presents its evaluation as figures; the runners print the same
series as rows so "who wins / by how much / where curves cross" is
readable in a terminal and diffable as the text files under ``results/``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

Number = Union[int, float]


def format_table(
    title: str,
    col_headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.3f}",
) -> str:
    """A fixed-width text table with a title line."""
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)

    headers = [str(h) for h in col_headers]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rendered)) if rendered else len(headers[c])
        for c in range(len(headers))
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for cells in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines) + "\n"


def series_table(
    title: str,
    x_name: str,
    x_values: Sequence[Number],
    series: Dict[str, Sequence[Number]],
    float_format: str = "{:.3f}",
) -> str:
    """A table with one x column and one column per named series."""
    names = list(series)
    headers = [x_name] + names
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [series[name][i] for name in names])
    return format_table(title, headers, rows, float_format)


def write_report(text: str, out_dir: Optional[Union[str, Path]], filename: str) -> None:
    """Write *text* under *out_dir* (created if needed); no-op if None."""
    if out_dir is None:
        return
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / filename).write_text(text)
