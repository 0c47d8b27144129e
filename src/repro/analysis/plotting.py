"""Dependency-free ASCII charts.

matplotlib is unavailable offline, so the figure experiments render their
series as terminal scatter/line charts: logarithmic or linear axes, one
glyph per series, a legend, and axis tick labels.  The output is plain
text suitable for bench logs and EXPERIMENTS.md code blocks.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = ["ascii_plot"]

_GLYPHS = "ox+*#@%&"


def _transform(value: float, log: bool) -> float:
    if log:
        if value <= 0:
            raise ConfigurationError(f"log axis requires positive values, got {value}")
        return math.log10(value)
    return value


def _ticks(lo: float, hi: float, log: bool, count: int) -> List[float]:
    if count < 2:
        count = 2
    raw = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    return [10 ** v if log else v for v in raw]


def ascii_plot(series: Dict[str, Tuple[Sequence[float], Sequence[float]]],
               width: int = 72, height: int = 20,
               logx: bool = False, logy: bool = False,
               xlabel: str = "x", ylabel: str = "y",
               title: Optional[str] = None) -> str:
    """Render named ``(xs, ys)`` series as an ASCII scatter chart.

    Parameters
    ----------
    series:
        Mapping series-name → (xs, ys); up to 8 series get distinct glyphs.
    width, height:
        Plot-area size in characters.
    logx, logy:
        Logarithmic axes (all values must then be positive).
    """
    if not series:
        raise ConfigurationError("series must be non-empty")
    if len(series) > len(_GLYPHS):
        raise ConfigurationError(f"at most {len(_GLYPHS)} series supported")
    pts: List[Tuple[str, float, float]] = []
    for name, (xs, ys) in series.items():
        if len(xs) != len(ys):
            raise ConfigurationError(f"series {name!r}: xs and ys lengths differ")
        for x, y in zip(xs, ys):
            pts.append((name, _transform(float(x), logx),
                        _transform(float(y), logy)))
    if not pts:
        raise ConfigurationError("no data points")
    tx = [p[1] for p in pts]
    ty = [p[2] for p in pts]
    x_lo, x_hi = min(tx), max(tx)
    y_lo, y_hi = min(ty), max(ty)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    glyph_of = {name: _GLYPHS[i] for i, name in enumerate(series)}
    for name, x, y in pts:
        col = int(round((x - x_lo) / (x_hi - x_lo) * (width - 1)))
        row = int(round((y - y_lo) / (y_hi - y_lo) * (height - 1)))
        grid[height - 1 - row][col] = glyph_of[name]

    def fmt(v: float) -> str:
        return f"{v:.3g}"

    y_ticks = _ticks(y_lo, y_hi, logy, 5)
    x_ticks = _ticks(x_lo, x_hi, logx, 5)
    label_w = max(len(fmt(v)) for v in y_ticks)

    lines: List[str] = []
    if title:
        lines.append(title)
    tick_rows = {0: y_ticks[4], (height - 1) // 4: y_ticks[3],
                 (height - 1) // 2: y_ticks[2],
                 3 * (height - 1) // 4: y_ticks[1],
                 height - 1: y_ticks[0]}
    for r in range(height):
        label = fmt(tick_rows[r]) if r in tick_rows else ""
        lines.append(label.rjust(label_w) + " |" + "".join(grid[r]))
    lines.append(" " * label_w + " +" + "-" * width)
    # x tick labels spread under the axis
    tick_line = [" "] * (width + label_w + 2)
    for i, v in enumerate(x_ticks):
        pos = label_w + 2 + int(i * (width - 1) / (len(x_ticks) - 1))
        text = fmt(v)
        for j, ch in enumerate(text):
            k = min(pos + j, len(tick_line) - 1)
            tick_line[k] = ch
    lines.append("".join(tick_line))
    axes = f"{'log ' if logx else ''}{xlabel} vs {'log ' if logy else ''}{ylabel}"
    legend = "   ".join(f"{glyph_of[name]}={name}" for name in series)
    lines.append(f"[{axes}]  {legend}")
    return "\n".join(lines)
