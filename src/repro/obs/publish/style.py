"""Publication typography and the shared chart palette.

One place for everything visual: series colors follow the protection
mode (the entity), never the draw order; paper reference curves reuse
the mode's hue dashed, so "ours vs paper" is carried by line style
while identity stays with color; pass/fail badges use the reserved
status colors and always pair a glyph with the color so state is
never color-alone.

The categorical palette is the validated default order (adjacent-pair
colorblind separation ΔE >= 8, normal-vision >= 15 on a light
surface); sub-3:1-contrast slots are relieved by the HTML index's
claim tables and per-series direct labels.
"""

from __future__ import annotations

__all__ = [
    "FONT_SIZE",
    "FONT_FAMILY",
    "MODE_COLORS",
    "EXTRA_COLORS",
    "PASS_COLOR",
    "FAIL_COLOR",
    "SKIP_COLOR",
    "WARN_COLOR",
    "SURFACE",
    "TEXT",
    "TEXT_MUTED",
    "GRID",
    "series_color",
]


# Typography: one serif face at one base size (pt); axis text is 2 pt
# smaller, titles 3 pt larger.
FONT_SIZE = 11
FONT_FAMILY = "serif"

# Categorical slots in validated fixed order; a protection mode keeps
# its slot in every figure (color follows the entity).
MODE_COLORS: dict[str, str] = {
    "off": "#2a78d6",  # blue
    "strict": "#eb6834",  # orange
    "fns": "#1baf7a",  # aqua
    "linux+A": "#eda100",  # yellow
    "linux+B": "#e87ba4",  # magenta
}

# Remaining validated slots for series outside the mode vocabulary
# (trace-digest kinds, model columns); assigned by stable sorted order.
EXTRA_COLORS: tuple[str, ...] = (
    "#2a78d6",
    "#eb6834",
    "#1baf7a",
    "#eda100",
    "#e87ba4",
    "#008300",
    "#4a3aa7",
    "#e34948",
)

# Status colors (reserved; never used for a data series).
PASS_COLOR = "#0ca30c"
FAIL_COLOR = "#d03b3b"
WARN_COLOR = "#ec835a"
SKIP_COLOR = "#52514e"

SURFACE = "#fcfcfb"
TEXT = "#0b0b0b"
TEXT_MUTED = "#52514e"
GRID = "#e7e6e2"


def series_color(label: str, index: int) -> str:
    """The color for a series: its mode's slot, else a stable extra."""
    color = MODE_COLORS.get(label)
    if color is not None:
        return color
    return EXTRA_COLORS[index % len(EXTRA_COLORS)]
