"""ASCII rendering of the paper's stacked-bar figures.

The experiment reports are tables; for the distribution figures
(4, 5, 7) a visual form communicates the shape better.  These helpers
render horizontal stacked bars with one character class per d-group —
the terminal equivalent of the paper's Figure 4/5/7 charts.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.common.errors import ConfigurationError

#: Fill characters per stacked segment, fastest d-group first; misses
#: render as '#'.  Mirrors the paper's white-to-black shading.
SEGMENT_CHARS = " .:=oO%@"
MISS_CHAR = "#"


def stacked_bar(
    fractions: Sequence[float], miss: float, width: int = 50
) -> str:
    """One stacked bar: d-group fractions then the miss share."""
    if width <= 0:
        raise ConfigurationError("width must be positive")
    if any(f < 0 for f in fractions) or miss < 0:
        raise ConfigurationError("fractions must be non-negative")
    total = sum(fractions) + miss
    if total > 1.0 + 1e-6:
        raise ConfigurationError(f"fractions sum to {total} > 1")
    cells: List[str] = []
    for index, fraction in enumerate(fractions):
        char = SEGMENT_CHARS[min(index, len(SEGMENT_CHARS) - 1)]
        cells.extend(char * int(round(fraction * width)))
    cells.extend(MISS_CHAR * int(round(miss * width)))
    bar = "".join(cells)[:width]
    return "[" + bar.ljust(width) + "]"


def distribution_chart(
    rows: Mapping[str, Tuple[Sequence[float], float]],
    width: int = 50,
    legend_groups: int = 4,
) -> str:
    """Multi-row stacked-bar chart keyed by benchmark (or config) name.

    ``rows`` maps a label to (d-group fractions, miss fraction).
    """
    if not rows:
        raise ConfigurationError("nothing to chart")
    label_width = max(len(label) for label in rows)
    lines = []
    for label, (fractions, miss) in rows.items():
        lines.append(
            f"{label:<{label_width}} {stacked_bar(fractions, miss, width)}"
        )
    legend = "  ".join(
        f"dg{g}='{SEGMENT_CHARS[min(g, len(SEGMENT_CHARS) - 1)]}'"
        for g in range(legend_groups)
    )
    lines.append(f"{'':<{label_width}} legend: {legend}  miss='{MISS_CHAR}'")
    return "\n".join(lines)


def render_figure_distribution(
    report_rows: List[Dict[str, object]],
    group_keys: List[str],
    label_keys: List[str],
    width: int = 50,
) -> str:
    """Render an ExperimentReport's rows as a distribution chart.

    ``group_keys`` name the d-group fraction columns (e.g. ["dg0",
    "dg1", ...]); ``label_keys`` are joined to label each bar.
    """
    rows: Dict[str, Tuple[List[float], float]] = {}
    for row in report_rows:
        label = " ".join(str(row[k]) for k in label_keys if k in row)
        fractions = [float(row.get(k, 0.0)) for k in group_keys]
        miss = float(row.get("miss", 0.0))
        rows[label] = (fractions, miss)
    return distribution_chart(rows, width=width, legend_groups=len(group_keys))
