"""Deterministic SVG diagrams for scenes.

Only the initial statements and the scene's drawn segments drive the
picture: segments, circles, point dots and labels, right-angle squares, and
equal-length tick marks. Identical scenes always produce byte-identical
output (fixed sizes, fixed float formatting, fixed element order).
"""

from __future__ import annotations

import math

from .constructions import Scene
from .statements import Predicate, Statement


class RenderError(RuntimeError):
    pass


CANVAS = 440
STROKE_WIDTH = 2.0
MARK_STROKE_WIDTH = 1.2
FONT_SIZE = 15
POINT_RADIUS = 2.6
LABEL_OFFSET = 14.0
RIGHT_ANGLE_SIZE = 10.0
TICK_SIZE = 5.0


def _fmt(x: float) -> str:
    out = f"{x:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _referenced_segments(scene: Scene) -> list[tuple[str, str]]:
    segs: dict[tuple[str, str], None] = {}

    def add(a: str, b: str) -> None:
        segs[(a, b) if a < b else (b, a)] = None

    for seg in scene.drawn_segments:
        add(*seg)
    for s in scene.initial_statements:
        p = s.predicate
        if p in (
            Predicate.PARALLEL,
            Predicate.PERPENDICULAR,
            Predicate.EQUAL_SEGMENTS,
            Predicate.SEGMENT_RATIO,
        ):
            add(*s.groups[0])
            add(*s.groups[1])
        elif p is Predicate.SEGMENT_LENGTH:
            add(*s.groups[0])
        elif p is Predicate.MIDPOINT:
            add(*s.groups[1])
        elif p in (Predicate.ANGLE_MEASURE, Predicate.RIGHT_ANGLE):
            a, v, c = s.groups[0]
            add(v, a)
            add(v, c)
        elif p is Predicate.EQUAL_ANGLES:
            for a, v, c in s.groups:
                add(v, a)
                add(v, c)
        elif p in (Predicate.CONGRUENT_TRIANGLES, Predicate.SIMILAR_TRIANGLES):
            for t in s.groups:
                add(t[0], t[1])
                add(t[1], t[2])
                add(t[0], t[2])
        elif p is Predicate.COLLINEAR:
            pts = s.groups[0]
            best = max(
                ((a, b) for a in pts for b in pts if a < b),
                key=lambda seg: scene.geometry.distance(*seg),
            )
            add(*best)
    return list(segs)


def _circles(scene: Scene) -> list[tuple[str, float]]:
    # the first radius drawn for each (center, rounded radius)
    out: dict[tuple[str, float], tuple[str, float]] = {}
    for s in scene.initial_statements:
        if s.predicate is Predicate.ON_CIRCLE:
            center = s.groups[1][0]
            radius = scene.geometry.distance(*s.groups[2])
            out.setdefault((center, round(radius, 9)), (center, radius))
    return list(out.values())


_PROBE_DIRECTIONS = [
    (1.0, 0.0),
    (0.7071, -0.7071),
    (0.0, -1.0),
    (-0.7071, -0.7071),
    (-1.0, 0.0),
    (-0.7071, 0.7071),
    (0.0, 1.0),
    (0.7071, 0.7071),
]


def render_svg(scene: Scene) -> str:
    """Render the scene to an SVG 1.1 document (line/circle/text/path only)."""
    geom = scene.geometry
    x0, y0, x1, y1 = geom.bbox()
    span = max(x1 - x0, y1 - y0, 1e-9)
    margin = 0.05 * span
    scale = CANVAS / (span + 2 * margin)

    def to_svg(p: tuple[float, float]) -> tuple[float, float]:
        return (
            (p[0] - x0 + margin) * scale,
            (y1 - p[1] + margin) * scale,  # flip y: SVG grows downward
        )

    width = (x1 - x0 + 2 * margin) * scale
    height = (y1 - y0 + 2 * margin) * scale
    pos = {label: to_svg(p) for label, p in geom.points.items()}

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]

    for center, radius in _circles(scene):
        cx, cy = pos[center]
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius * scale)}" '
            f'fill="none" stroke="black" stroke-width="{_fmt(MARK_STROKE_WIDTH)}"/>'
        )

    segments = _referenced_segments(scene)
    for a, b in segments:
        (xa, ya), (xb, yb) = pos[a], pos[b]
        parts.append(
            f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" y2="{_fmt(yb)}" '
            f'stroke="black" stroke-width="{_fmt(STROKE_WIDTH)}"/>'
        )

    for s in scene.initial_statements:
        if s.predicate is Predicate.RIGHT_ANGLE:
            parts.append(_right_angle_mark(pos, s))

    group = 0
    for s in scene.initial_statements:
        if s.predicate is Predicate.EQUAL_SEGMENTS:
            group += 1
            ticks = min(group, 3)
            for seg in s.groups:
                parts.extend(_tick_marks(pos, seg, ticks))

    for label in geom.points:
        cx, cy = pos[label]
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(POINT_RADIUS)}" '
            'fill="black"/>'
        )

    parts.extend(_labels(scene, pos, segments))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _right_angle_mark(pos, s: Statement) -> str:
    a, v, c = s.groups[0]
    pv, pa, pc = pos[v], pos[a], pos[c]
    ua = _unit((pa[0] - pv[0], pa[1] - pv[1]))
    uc = _unit((pc[0] - pv[0], pc[1] - pv[1]))
    k = RIGHT_ANGLE_SIZE
    p1 = (pv[0] + k * ua[0], pv[1] + k * ua[1])
    p2 = (pv[0] + k * (ua[0] + uc[0]), pv[1] + k * (ua[1] + uc[1]))
    p3 = (pv[0] + k * uc[0], pv[1] + k * uc[1])
    d = (
        f"M {_fmt(p1[0])} {_fmt(p1[1])} L {_fmt(p2[0])} {_fmt(p2[1])} "
        f"L {_fmt(p3[0])} {_fmt(p3[1])}"
    )
    return (
        f'<path d="{d}" fill="none" stroke="black" '
        f'stroke-width="{_fmt(MARK_STROKE_WIDTH)}"/>'
    )


def _tick_marks(pos, seg, ticks: int) -> list[str]:
    (xa, ya), (xb, yb) = pos[seg[0]], pos[seg[1]]
    ux, uy = _unit((xb - xa, yb - ya))
    nx, ny = -uy, ux
    mx, my = (xa + xb) / 2.0, (ya + yb) / 2.0
    gap = 3.0
    out = []
    for i in range(ticks):
        off = (i - (ticks - 1) / 2.0) * gap
        cx, cy = mx + off * ux, my + off * uy
        t = TICK_SIZE
        out.append(
            f'<line x1="{_fmt(cx - t * nx)}" y1="{_fmt(cy - t * ny)}" '
            f'x2="{_fmt(cx + t * nx)}" y2="{_fmt(cy + t * ny)}" '
            f'stroke="black" stroke-width="{_fmt(MARK_STROKE_WIDTH)}"/>'
        )
    return out


def _unit(v: tuple[float, float]) -> tuple[float, float]:
    n = math.hypot(v[0], v[1])
    return (1.0, 0.0) if n == 0.0 else (v[0] / n, v[1] / n)


def _labels(scene: Scene, pos, segments) -> list[str]:
    neighbors: dict[str, list[str]] = {label: [] for label in scene.geometry.points}
    for a, b in segments:
        neighbors[a].append(b)
        neighbors[b].append(a)

    anchors: dict[str, tuple[float, float]] = {}
    out = []
    for label in scene.geometry.points:
        px, py = pos[label]
        sx = sy = 0.0
        for other in neighbors[label]:
            ux, uy = _unit((pos[other][0] - px, pos[other][1] - py))
            sx += ux
            sy += uy
        candidates = []
        if math.hypot(sx, sy) > 1e-6:
            candidates.append(_unit((-sx, -sy)))
        candidates.extend(_PROBE_DIRECTIONS)
        anchor = None
        for dx, dy in candidates:
            cand = (px + LABEL_OFFSET * dx, py + LABEL_OFFSET * dy)
            if all(math.hypot(cand[0] - ax, cand[1] - ay) > 1.0 for ax, ay in anchors.values()):
                anchor = cand
                break
        if anchor is None:
            raise RenderError(f"cannot place label for point {label}")
        anchors[label] = anchor
        out.append(
            f'<text x="{_fmt(anchor[0])}" y="{_fmt(anchor[1])}" '
            f'font-size="{FONT_SIZE}" font-family="sans-serif" '
            f'text-anchor="middle" dominant-baseline="middle">{label}</text>'
        )
    return out
