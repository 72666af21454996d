"""
SVG rendering of shuffle diagrams in the style of box-and-strand figures.

Each diagram shows the source composition's boxes along the bottom, the
target composition's boxes along the top and straight strands between slot
anchors, captioned with the one-line permutation.  Output is deterministic
byte for byte.
"""

from __future__ import annotations

from pathlib import Path

from .compositions import Composition, Pair, blocks, total
from .fiber import total_fiber
from .perms import Perm

SLOT_WIDTH = 26
BOX_HEIGHT = 16
STRAND_HEIGHT = 64
BOX_GAP = 6
MARGIN = 12
CAPTION_HEIGHT = 18
DIAGRAM_GAP = 20
FONT_SIZE = 11
STROKE = "#1a1a1a"
BOX_FILL = "#f2f2f2"


def _slot_x(slot: int) -> float:
    return MARGIN + (slot - 0.5) * SLOT_WIDTH


def _boxes_svg(comp: Composition, y: float, x0: float) -> list[str]:
    out = []
    for lo, hi in blocks(comp):
        left = x0 + (lo - 1) * SLOT_WIDTH + BOX_GAP / 2
        width = (hi - lo + 1) * SLOT_WIDTH - BOX_GAP
        out.append(
            f'<rect x="{left:.1f}" y="{y:.1f}" width="{width:.1f}" '
            f'height="{BOX_HEIGHT}" fill="{BOX_FILL}" '
            f'stroke="{STROKE}"/>'
        )
    return out


def diagram_svg(
    w: Perm, source: Composition, target: Composition, x0: float = 0.0
) -> list[str]:
    """SVG fragments for one permutation between composition boxes."""
    n = len(w)
    top_y = MARGIN
    strand_top = top_y + BOX_HEIGHT
    strand_bot = strand_top + STRAND_HEIGHT
    caption_y = strand_bot + BOX_HEIGHT + CAPTION_HEIGHT
    out = _boxes_svg(target, top_y, x0)
    out += _boxes_svg(source, strand_bot, x0)
    for p in range(1, n + 1):
        x_from = x0 + _slot_x(p) - MARGIN
        x_to = x0 + _slot_x(w[p - 1]) - MARGIN
        out.append(
            f'<line x1="{x_from:.1f}" y1="{strand_bot:.1f}" '
            f'x2="{x_to:.1f}" y2="{strand_top:.1f}" '
            f'stroke="{STROKE}"/>'
        )
    caption = ",".join(str(v) for v in w)
    mid = x0 + (n * SLOT_WIDTH) / 2
    out.append(
        f'<text x="{mid:.1f}" y="{caption_y:.1f}" font-size="{FONT_SIZE}" '
        f'text-anchor="middle" font-family="monospace">{caption}</text>'
    )
    return out


def vertex_svg(
    diagrams: tuple[Perm, ...], source: Composition, target: Composition
) -> str:
    """One SVG document holding every diagram of a vertex, side by side."""
    n = total(source)
    width_each = n * SLOT_WIDTH
    count = max(len(diagrams), 1)
    width = MARGIN * 2 + count * width_each + (count - 1) * DIAGRAM_GAP
    height = MARGIN * 3 + 2 * BOX_HEIGHT + STRAND_HEIGHT + CAPTION_HEIGHT
    body: list[str] = []
    for k, w in enumerate(diagrams):
        x0 = MARGIN + k * (width_each + DIAGRAM_GAP)
        body += diagram_svg(w, source, target, x0)
    if not diagrams:
        body.append(
            f'<text x="{width / 2:.1f}" y="{height / 2:.1f}" '
            f'font-size="{FONT_SIZE}" text-anchor="middle" '
            f'font-family="monospace">(empty)</text>'
        )
    joined = "\n".join(body)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f"{joined}\n</svg>\n"
    )


def render_level(pair: Pair, level: int, out_dir: str | Path) -> list[Path]:
    """Write one SVG per vertex of the intermediate cube at `level`.

    Files are named B{level}_{bits}.svg; the final single vertex gets
    B0.svg.  Returns the written paths.
    """
    report = total_fiber(pair)
    cube = next((c for c in report.levels if c.level == level), None)
    if cube is None:
        lo, hi = 0, report.levels[0].level
        raise ValueError(f"level {level} out of range {lo}..{hi}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way: bad input, not a bug
        raise ValueError(f"cannot create directory {out}: {exc.strerror}") from None
    written = []
    source, target = pair
    for index in sorted(cube.vertex_sets):
        bits = "".join(str(b) for b in index)
        name = f"B{level}_{bits}.svg" if bits else f"B{level}.svg"
        path = out / name
        path.write_text(
            vertex_svg(cube.vertex_sets[index], source, target),
            encoding="utf-8",
        )
        written.append(path)
    return written
