"""A tiny text bar chart for experiment reports.

The benchmarks and examples print their regenerated tables; for series
with a visual trend (the Table 2 growth, the speedup frontier, blocking
curves) a horizontal bar chart reads better than numbers alone.  Pure
ASCII, no dependencies.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

from repro.errors import ConfigurationError

Number = Union[int, float]


def bar_chart(
    series: Sequence[Tuple[str, Number]],
    width: int = 40,
    unit: str = "",
) -> str:
    """Render labeled values as horizontal bars.

    Args:
        series: ``(label, value)`` pairs, drawn in order.
        width: Character width of the longest bar.
        unit: Suffix appended to each printed value.

    Raises:
        ConfigurationError: for an empty series, negative values, or a
            non-positive width.
    """
    if not series:
        raise ConfigurationError("need at least one data point")
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    values = [float(value) for _, value in series]
    if any(value < 0 for value in values):
        raise ConfigurationError("bar charts need non-negative values")
    peak = max(values) or 1.0
    label_width = max(len(label) for label, _ in series)
    lines = []
    for (label, _), value in zip(series, values):
        bar = "#" * max(1 if value > 0 else 0, round(value / peak * width))
        lines.append(
            f"{label.ljust(label_width)}  {bar.ljust(width)}  "
            f"{value:g}{unit}"
        )
    return "\n".join(lines)

