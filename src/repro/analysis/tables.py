"""Table rendering for experiment output.

Experiments produce rows as lists of dicts; these helpers render them as
aligned ASCII (for the terminal / bench logs) and GitHub Markdown (for
EXPERIMENTS.md).
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence

__all__ = ["render_table", "render_markdown"]


def _columns(rows: Sequence[Dict[str, object]],
             columns: Optional[Sequence[str]]) -> List[str]:
    if columns is not None:
        return list(columns)
    seen: List[str] = []
    for row in rows:
        for key in row:
            if key not in seen:
                seen.append(key)
    return seen


def _fmt(value: object, float_fmt: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_fmt)
    return str(value)


def render_table(rows: Sequence[Dict[str, object]],
                 columns: Optional[Sequence[str]] = None,
                 float_fmt: str = ".4g",
                 title: Optional[str] = None) -> str:
    """Aligned fixed-width ASCII table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    cols = _columns(rows, columns)
    cells = [[_fmt(row.get(c), float_fmt) for c in cols] for row in rows]
    widths = [max(len(c), *(len(line[i]) for line in cells))
              for i, c in enumerate(cols)]
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(cols))
    out.write(header + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for line in cells:
        out.write("  ".join(line[i].ljust(widths[i])
                            for i in range(len(cols))) + "\n")
    return out.getvalue().rstrip("\n")


def render_markdown(rows: Sequence[Dict[str, object]],
                    columns: Optional[Sequence[str]] = None,
                    float_fmt: str = ".4g") -> str:
    """GitHub-flavoured Markdown table.

    Literal ``|`` characters in cell values are escaped so free-text
    columns (e.g. claim evidence strings) cannot break the row grid.
    """
    if not rows:
        return "(no rows)"

    def cell(value: object) -> str:
        return _fmt(value, float_fmt).replace("|", "\\|")

    cols = _columns(rows, columns)
    out = io.StringIO()
    out.write("| " + " | ".join(cols) + " |\n")
    out.write("|" + "|".join("---" for _ in cols) + "|\n")
    for row in rows:
        out.write("| " + " | ".join(cell(row.get(c)) for c in cols) + " |\n")
    return out.getvalue().rstrip("\n")

