"""Scene construction: base generators plus pre/post-conditioned constructions.

A scene starts from one of the base generators (numerically instantiated
primitive configurations) and grows by applying constructions whose
preconditions hold. Every applied step must leave the scene valid under the
numeric kernel; placements that would create degeneracies are resampled and
eventually abandoned. The whole process is a pure function of the seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice
from typing import Callable, Container

from .geometry import Coord, GeometryError, SceneGeometry
from .statements import (
    MalformedStatementError,
    Predicate,
    Seg,
    Statement,
    angle_measure,
    collinear,
    equal_angles,
    equal_segments,
    midpoint,
    on_circle,
    parallel,
    parse_statement,
    perpendicular,
    right_angle,
    segment_length,
    segment_ratio,
)

POINT_CAP = 12
BOX = 10.0
MARGIN = 0.5
PLACEMENT_ATTEMPTS = 50


class ConstructionError(ValueError):
    pass


class UnknownGeneratorError(ConstructionError):
    pass


class PlacementFailureError(ConstructionError):
    """Raised when a base generator cannot produce a valid scene."""


class CorruptRecordError(ValueError):
    """A stored record or scene whose fields are not of the shape written."""


@dataclass(frozen=True)
class AppliedConstruction:
    construction: str
    binding: tuple[str, ...]
    new_points: tuple[str, ...]


@dataclass(frozen=True)
class Scene:
    """A numerically instantiated scene plus its construction history.

    ``initial_statements`` is the union of every construction effect (the
    problem premises S0), a dict whose keys keep construction order.
    Replaying the same seeds reproduces the scene bit-exactly.
    """

    generator: str
    seed: int
    geometry: SceneGeometry
    constructions: tuple[AppliedConstruction, ...]
    initial_statements: dict[Statement, None]
    drawn_segments: tuple[Seg, ...]
    exhausted: bool = False

    @cached_property
    def midpoint_segments(self) -> frozenset[Seg]:
        """Segments, in both orientations, whose midpoint an initial statement names."""
        segs = [s.groups[1] for s in self.initial_statements if s.predicate is Predicate.MIDPOINT]
        return frozenset(segs + [(b, a) for a, b in segs])

    def to_doc(self) -> dict:
        return {
            "seed": self.seed,
            "generator": self.generator,
            "constructions": [
                {"id": c.construction, "binding": list(c.binding), "new_points": list(c.new_points)}
                for c in self.constructions
            ],
            "points": {label: [x, y] for label, (x, y) in self.geometry.points.items()},
            "initial_statements": [s.text() for s in self.initial_statements],
            "drawn_segments": [list(seg) for seg in self.drawn_segments],
            "exhausted": self.exhausted,
        }


def scene_from_doc(doc: dict) -> Scene:
    # SceneGeometry makes the numbers floats and refuses a non-finite one
    points = {
        label: _pair(xy, (int, float), f"point {label}", "numbers")
        for label, xy in doc["points"].items()
    }
    known = frozenset(points)
    seed = doc["seed"]
    if type(seed) is not int:  # bootstrap grows from it, so a bool or a float is no seed
        raise CorruptRecordError(f"seed is not an integer: {seed!r}")
    return Scene(
        generator=doc["generator"],
        seed=seed,
        geometry=SceneGeometry(points),
        constructions=tuple(
            AppliedConstruction(c["id"], tuple(c["binding"]), tuple(c["new_points"]))
            for c in doc["constructions"]
        ),
        initial_statements=dict.fromkeys(parse_statement(t, known) for t in doc["initial_statements"]),
        drawn_segments=tuple(
            _pair(seg, (str,), "drawn segment", "labels") for seg in doc["drawn_segments"]
        ),
        exhausted=doc.get("exhausted", False),
    )


def _pair(value, types: tuple[type, ...], field: str, what: str) -> tuple:
    """``value``, a JSON array of two items of ``types`` (a bool is no number), as a tuple."""
    if type(value) is list and len(value) == 2 and type(value[0]) in types and type(value[1]) in types:
        return tuple(value)
    raise CorruptRecordError(f"{field} is not two {what}: {value!r}")


def _canon_seg(a: str, b: str) -> Seg:
    return (a, b) if a < b else (b, a)


_LABEL_POOL = [chr(c) for c in range(ord("A"), ord("Z") + 1)] + [
    f"{chr(c)}{d}" for d in range(1, 10) for c in range(ord("A"), ord("Z") + 1)
]


def _next_labels(existing: Container[str], n: int) -> list[str]:
    return list(islice((label for label in _LABEL_POOL if label not in existing), n))


def _dir(deg: float) -> Coord:
    rad = math.radians(deg)
    return (math.cos(rad), math.sin(rad))


def _fit(points: dict[str, Coord], rng: random.Random) -> dict[str, Coord] | None:
    """Randomly rotate and translate local coordinates into the scene box."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    cos, sin = math.cos(theta), math.sin(theta)
    rotated = {k: (x * cos - y * sin, x * sin + y * cos) for k, (x, y) in points.items()}
    xs = [p[0] for p in rotated.values()]
    ys = [p[1] for p in rotated.values()]
    if max(xs) - min(xs) > BOX - 2 * MARGIN or max(ys) - min(ys) > BOX - 2 * MARGIN:
        return None
    tx = rng.uniform(MARGIN - min(xs), BOX - MARGIN - max(xs))
    ty = rng.uniform(MARGIN - min(ys), BOX - MARGIN - max(ys))
    return {k: (x + tx, y + ty) for k, (x, y) in rotated.items()}


# --- base scene generators -------------------------------------------------

BaseDraw = tuple[dict[str, Coord], list[Statement], list[Seg]]


def _gen_scalene_triangle(rng: random.Random) -> BaseDraw:
    while True:
        alpha = 5 * rng.randint(6, 20)  # 30..100
        beta = 5 * rng.randint(5, 20)  # 25..100
        gamma = 180 - alpha - beta
        if gamma >= 25 and len({alpha, beta, gamma}) == 3:
            break
    c = rng.choice([3, 4, 5, Fraction(9, 2), Fraction(7, 2)])
    ta, tb = math.tan(math.radians(alpha)), math.tan(math.radians(beta))
    cx = float(c) * tb / (ta + tb)
    pts = {"A": (0.0, 0.0), "B": (float(c), 0.0), "C": (cx, cx * ta)}
    stmts = [
        angle_measure(("B", "A", "C"), alpha),
        angle_measure(("A", "B", "C"), beta),
        segment_length(("A", "B"), c),
    ]
    return pts, stmts, [("A", "B"), ("B", "C"), ("A", "C")]


def _gen_isosceles_triangle(rng: random.Random) -> BaseDraw:
    base_angle = 5 * rng.randint(6, 15)  # 30..75
    w = rng.choice([3, 4, 5, 6])
    h = (w / 2.0) * math.tan(math.radians(base_angle))
    pts = {"A": (w / 2.0, h), "B": (0.0, 0.0), "C": (float(w), 0.0)}
    stmts = [
        equal_segments(("A", "B"), ("A", "C")),
        equal_angles(("A", "B", "C"), ("A", "C", "B")),
        angle_measure(("A", "B", "C"), base_angle),
        segment_length(("B", "C"), w),
    ]
    return pts, stmts, [("A", "B"), ("B", "C"), ("A", "C")]


def _gen_equilateral_triangle(rng: random.Random) -> BaseDraw:
    s = rng.choice([3, 4, 5, 6])
    pts = {"A": (0.0, 0.0), "B": (float(s), 0.0), "C": (s / 2.0, s * math.sqrt(3.0) / 2.0)}
    stmts = [
        equal_segments(("A", "B"), ("B", "C")),
        equal_segments(("A", "C"), ("B", "C")),
        angle_measure(("A", "B", "C"), 60),
        segment_length(("A", "B"), s),
    ]
    return pts, stmts, [("A", "B"), ("B", "C"), ("A", "C")]


_TRIPLES = [
    ((3, 4, 5), [Fraction(1), Fraction(1, 2), Fraction(3, 2)]),
    ((5, 12, 13), [Fraction(1, 2), Fraction(1, 3)]),
    ((8, 15, 17), [Fraction(1, 3), Fraction(2, 5)]),
    ((7, 24, 25), [Fraction(1, 4), Fraction(1, 5)]),
]


def _gen_right_triangle(rng: random.Random) -> BaseDraw:
    (a, b, _), scales = rng.choice(_TRIPLES)
    k = rng.choice(scales)
    la, lb = Fraction(a) * k, Fraction(b) * k
    pts = {"A": (float(la), 0.0), "B": (0.0, 0.0), "C": (0.0, float(lb))}
    stmts = [
        right_angle(("A", "B", "C")),
        segment_length(("A", "B"), la),
        segment_length(("B", "C"), lb),
    ]
    return pts, stmts, [("A", "B"), ("B", "C"), ("A", "C")]


def _gen_rectangle(rng: random.Random) -> BaseDraw:
    w, h = rng.choice([(3, 4), (6, 8), (4, 6), (Fraction(9, 2), 6), (3, 7)])
    pts = {
        "A": (0.0, 0.0),
        "B": (float(w), 0.0),
        "C": (float(w), float(h)),
        "D": (0.0, float(h)),
    }
    stmts = [
        perpendicular(("A", "B"), ("B", "C")),
        parallel(("A", "B"), ("C", "D")),
        parallel(("B", "C"), ("A", "D")),
        segment_length(("A", "B"), w),
        segment_length(("B", "C"), h),
    ]
    drawn = [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"), ("A", "C")]
    return pts, stmts, drawn


def _gen_square(rng: random.Random) -> BaseDraw:
    s = rng.choice([3, 4, 5, Fraction(11, 2)])
    pts = {
        "A": (0.0, 0.0),
        "B": (float(s), 0.0),
        "C": (float(s), float(s)),
        "D": (0.0, float(s)),
    }
    stmts = [
        perpendicular(("A", "B"), ("B", "C")),
        equal_segments(("A", "B"), ("B", "C")),
        parallel(("A", "B"), ("C", "D")),
        segment_length(("A", "B"), s),
    ]
    drawn = [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"), ("A", "C")]
    return pts, stmts, drawn


def _gen_parallelogram(rng: random.Random) -> BaseDraw:
    theta = 5 * rng.randint(8, 14)  # 40..70, keeps the shape fat
    w = rng.choice([4, 5, 6])
    side = rng.choice([Fraction(5, 2), 3, Fraction(7, 2)])
    d = _dir(theta)
    dx, dy = float(side) * d[0], float(side) * d[1]
    pts = {
        "A": (0.0, 0.0),
        "B": (float(w), 0.0),
        "C": (float(w) + dx, dy),
        "D": (dx, dy),
    }
    stmts = [
        parallel(("A", "B"), ("C", "D")),
        parallel(("B", "C"), ("A", "D")),
        angle_measure(("D", "A", "B"), theta),
        segment_length(("A", "B"), w),
    ]
    drawn = [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"), ("B", "D")]
    return pts, stmts, drawn


def _gen_trapezoid(rng: random.Random) -> BaseDraw:
    theta = 5 * rng.randint(9, 14)  # 45..70
    w1 = rng.choice([5, 6, 7])
    w2 = rng.choice([Fraction(5, 2), 3, Fraction(7, 2)])
    leg = rng.choice([Fraction(5, 2), 3])
    d = _dir(theta)
    dx, dy = float(leg) * d[0], float(leg) * d[1]
    pts = {
        "A": (0.0, 0.0),
        "B": (float(w1), 0.0),
        "C": (dx + float(w2), dy),
        "D": (dx, dy),
    }
    stmts = [
        parallel(("A", "B"), ("C", "D")),
        angle_measure(("D", "A", "B"), theta),
        segment_length(("A", "B"), w1),
        segment_length(("C", "D"), w2),
    ]
    drawn = [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"), ("A", "C"), ("B", "D")]
    return pts, stmts, drawn


def _gen_circle_inscribed_triangle(rng: random.Random) -> BaseDraw:
    r = rng.choice([3, Fraction(7, 2), 4])
    delta = 10 * rng.randint(4, 15)  # central angle 40..150
    start = rng.randint(0, 359)
    gamma = rng.randint(25, 360 - delta - 25)  # C stays on the major arc
    pos = {"A": start, "B": start + delta, "C": start + delta + gamma}
    pts: dict[str, Coord] = {"O": (0.0, 0.0)}
    for label, ang in pos.items():
        d = _dir(ang)
        pts[label] = (float(r) * d[0], float(r) * d[1])
    sr = ("O", "A")
    stmts = [
        on_circle("A", "O", sr),
        on_circle("B", "O", sr),
        on_circle("C", "O", sr),
        angle_measure(("A", "O", "B"), delta),
        equal_segments(("O", "A"), ("O", "B")),
    ]
    drawn = [("O", "A"), ("O", "B"), ("A", "B"), ("B", "C"), ("A", "C")]
    return pts, stmts, drawn


def _gen_circle_diameter_point(rng: random.Random) -> BaseDraw:
    r = rng.choice([Fraction(5, 2), 3, Fraction(7, 2)])
    start = rng.randint(0, 359)
    delta = 5 * rng.randint(5, 31)  # 25..155
    if rng.random() < 0.5:
        delta_pos = delta
    else:
        delta_pos = 360 - delta
    da = _dir(start)
    dc = _dir(start + delta_pos)
    ax, ay = float(r) * da[0], float(r) * da[1]
    pts: dict[str, Coord] = {
        "O": (0.0, 0.0),
        "A": (ax, ay),
        "B": (-ax, -ay),
        "C": (float(r) * dc[0], float(r) * dc[1]),
    }
    sr = ("O", "A")
    stmts = [
        on_circle("A", "O", sr),
        on_circle("B", "O", sr),
        on_circle("C", "O", sr),
        midpoint("O", ("A", "B")),
        equal_segments(("O", "A"), ("O", "C")),
        angle_measure(("A", "O", "C"), delta),
    ]
    drawn = [("A", "B"), ("O", "C"), ("A", "C"), ("B", "C")]
    return pts, stmts, drawn


def _gen_parallel_lines_transversal(rng: random.Random) -> BaseDraw:
    theta = 5 * rng.randint(7, 29)
    if theta == 90:
        theta = 85
    b = rng.uniform(3.0, 5.0)
    m = rng.uniform(2.5, 4.0)
    w2 = rng.uniform(2.0, 4.0)
    t = rng.uniform(0.4, 0.8)
    zshape = rng.random() < 0.5
    B = (b, 0.0)
    d = _dir(180 - theta)
    C = (B[0] + m * d[0], B[1] + m * d[1])
    # A sits on the negative-x side of B; the Z shape puts D on the opposite
    # side of line BC, the F shape on the same side.
    dxs = -w2 if zshape else w2
    pts = {
        "A": (0.0, 0.0),
        "B": B,
        "C": C,
        "D": (C[0] + dxs, C[1]),
        "E": (C[0] + t * (C[0] - B[0]), C[1] + t * (C[1] - B[1])),
    }
    stmts = [
        parallel(("A", "B"), ("C", "D")),
        collinear("B", "C", "E"),
        angle_measure(("A", "B", "C"), theta),
    ]
    drawn = [("A", "B"), ("C", "D"), ("B", "E")]
    return pts, stmts, drawn


def _gen_triangle_cevian(rng: random.Random) -> BaseDraw:
    base_angle = 5 * rng.randint(7, 14)  # 35..70
    w = rng.choice([4, 5, 6])
    q = rng.choice([Fraction(1, 3), Fraction(2, 5), Fraction(3, 5), Fraction(2, 3), Fraction(1, 4)])
    h = (w / 2.0) * math.tan(math.radians(base_angle))
    pts = {
        "A": (w / 2.0, h),
        "B": (0.0, 0.0),
        "C": (float(w), 0.0),
        "D": (float(q) * w, 0.0),
    }
    stmts = [
        equal_segments(("A", "B"), ("A", "C")),
        angle_measure(("A", "B", "C"), base_angle),
        collinear("B", "D", "C"),
        segment_ratio(("B", "D"), ("B", "C"), q),
    ]
    drawn = [("A", "B"), ("B", "C"), ("A", "C"), ("A", "D")]
    return pts, stmts, drawn


BASE_GENERATORS: dict[str, Callable[[random.Random], BaseDraw]] = {
    "scalene_triangle": _gen_scalene_triangle,
    "isosceles_triangle": _gen_isosceles_triangle,
    "equilateral_triangle": _gen_equilateral_triangle,
    "right_triangle": _gen_right_triangle,
    "rectangle": _gen_rectangle,
    "square": _gen_square,
    "parallelogram": _gen_parallelogram,
    "trapezoid": _gen_trapezoid,
    "circle_inscribed_triangle": _gen_circle_inscribed_triangle,
    "circle_diameter_point": _gen_circle_diameter_point,
    "parallel_lines_transversal": _gen_parallel_lines_transversal,
    "triangle_cevian": _gen_triangle_cevian,
}


def generate_base_scene(generator_id: str, rng_seed: int) -> Scene:
    """Instantiate one base configuration; deterministic in the seed."""
    if generator_id not in BASE_GENERATORS:
        raise UnknownGeneratorError(generator_id)
    rng = random.Random(("base", generator_id, rng_seed).__repr__())
    for _ in range(PLACEMENT_ATTEMPTS):
        local, stmts, drawn = BASE_GENERATORS[generator_id](rng)
        fitted = _fit(local, rng)
        if fitted is None:
            continue
        geometry = SceneGeometry(fitted)
        statements = dict.fromkeys(stmts)
        if not geometry.check_scene(statements).valid:
            continue
        return Scene(
            generator=generator_id,
            seed=rng_seed,
            geometry=geometry,
            constructions=(),
            initial_statements=statements,
            drawn_segments=tuple(_canon_seg(*s) for s in drawn),
        )
    raise PlacementFailureError(f"{generator_id} with seed {rng_seed}")


# --- constructions ----------------------------------------------------------

Build = tuple[tuple[Coord, ...], list[Statement], list[Seg]]


@dataclass(frozen=True)
class Construction:
    """A conditional scene-building step.

    ``bindings`` enumerates point bindings whose preconditions (including
    numeric degeneracy pre-checks) hold, reading the scene's shared tables.
    ``build(scene, binding, new_labels, rng)`` places the new points and
    returns their coordinates in ``new_labels`` order, the effects they add
    and the segments to draw, or None when the draw is unusable.
    """

    id: str
    new_point_count: int
    stochastic: bool
    bindings: Callable[[Scene, _Tables], list[tuple[str, ...]]]
    build: Callable[[Scene, tuple[str, ...], tuple[str, ...], random.Random], Build | None]


def _pt(scene: Scene, label: str) -> Coord:
    return scene.geometry.point(label)


def _mid(scene: Scene, a: str, b: str) -> Coord:
    pa, pb = _pt(scene, a), _pt(scene, b)
    return ((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0)


def _non_collinear(scene: Scene, a: str, b: str, c: str) -> bool:
    smallest = scene.geometry.min_angle_deg(a, b, c)
    return smallest is not None and smallest >= 12.0


def _inside_box(p: Coord) -> bool:
    return MARGIN / 2 <= p[0] <= BOX - MARGIN / 2 and MARGIN / 2 <= p[1] <= BOX - MARGIN / 2


class _Tables:
    """What several constructions' bindings ask of one scene, each built on
    first use and kept for one ``applicable_constructions`` call only."""

    def __init__(self, scene: Scene):
        self.scene = scene

    @cached_property
    def angles(self) -> list[tuple[str, str, str, float]]:
        """(p, a, b, smallest angle of pab) for each point p off each drawn
        segment ab, points outer; a triangle with a zero-length side is left out."""
        geometry = self.scene.geometry
        memo = geometry._min_angles
        rows = []
        for p in geometry.points:
            for a, b in self.scene.drawn_segments:
                if p in (a, b):
                    continue
                key = frozenset((p, a, b))
                smallest = memo[key] if key in memo else geometry.min_angle_deg(p, a, b)
                if smallest is not None:
                    rows.append((p, a, b, smallest))
        return rows

    @cached_property
    def neighbours(self) -> dict[str, set[str]]:
        """Each point's drawn neighbours, for membership tests only."""
        out: dict[str, set[str]] = {p: set() for p in self.scene.geometry.points}
        for a, b in self.scene.drawn_segments:
            out[a].add(b)
            out[b].add(a)
        return out


def _midpoint_bindings(scene: Scene, tables: _Tables) -> list[tuple[str, ...]]:
    mids = scene.midpoint_segments
    return [seg for seg in scene.drawn_segments if seg not in mids]


def _midpoint_build(scene: Scene, binding, new, rng) -> Build:
    return (_mid(scene, *binding),), [midpoint(new[0], binding)], []


def _foot_bindings(scene: Scene, tables: _Tables) -> list[tuple[str, ...]]:
    out = []
    points = scene.geometry.points
    dmin = scene.geometry.d_min()
    for apex, a, b, smallest in tables.angles:
        if smallest < 10.0:
            continue
        # t along ab of the apex's perpendicular foot, as _foot_build places it
        pa, pb, pp = points[a], points[b], points[apex]
        ux, uy = pb[0] - pa[0], pb[1] - pa[1]
        t = ((pp[0] - pa[0]) * ux + (pp[1] - pa[1]) * uy) / (ux * ux + uy * uy)
        if not (0.12 <= t <= 0.88):
            continue
        if math.dist((pa[0] + t * ux, pa[1] + t * uy), pp) < 4 * dmin:
            continue
        out.append((apex, a, b))
    return out


def _foot_build(scene: Scene, binding, new, rng) -> Build:
    (apex, a, b), (f,) = binding, new
    pa, pb, pp = _pt(scene, a), _pt(scene, b), _pt(scene, apex)
    ux, uy = pb[0] - pa[0], pb[1] - pa[1]
    t = ((pp[0] - pa[0]) * ux + (pp[1] - pa[1]) * uy) / (ux * ux + uy * uy)
    effects = [perpendicular((apex, f), (a, b)), collinear(a, f, b)]
    return ((pa[0] + t * ux, pa[1] + t * uy),), effects, [(apex, f)]


def _vertex_segment_pairs(scene: Scene) -> list[tuple[str, str, str]]:
    """(vertex, ray endpoint, ray endpoint) for pairs of drawn segments."""
    rays: dict[str, list[str]] = {}
    for a, b in scene.drawn_segments:
        rays.setdefault(a, []).append(b)
        rays.setdefault(b, []).append(a)
    out = []
    for v in scene.geometry.points:
        ends = rays.get(v, [])
        for x, y in combinations(ends, 2):
            out.append((v, x, y))
    return out


def _bisector_bindings(scene: Scene, tables: _Tables) -> list[tuple[str, ...]]:
    out = []
    for v, x, y in _vertex_segment_pairs(scene):
        try:
            theta = scene.geometry.angle_deg(x, v, y)
        except GeometryError:
            continue
        if 24.0 <= theta <= 150.0:
            out.append((v, x, y))
    return out


def _bisector_build(scene: Scene, binding, new, rng) -> Build | None:
    (v, x, y), (p,) = binding, new
    pv, px, py = _pt(scene, v), _pt(scene, x), _pt(scene, y)
    ux, uy = px[0] - pv[0], px[1] - pv[1]
    wx, wy = py[0] - pv[0], py[1] - pv[1]
    nu, nw = math.hypot(ux, uy), math.hypot(wx, wy)
    bx, by = ux / nu + wx / nw, uy / nu + wy / nw
    nb = math.hypot(bx, by)
    if nb < 1e-9:
        return None
    dist = rng.uniform(0.45, 0.85) * min(nu, nw)
    placed = (pv[0] + dist * bx / nb, pv[1] + dist * by / nb)
    return (placed,), [equal_angles((x, v, p), (p, v, y))], [(v, p)]


def _parallel_bindings(scene: Scene, tables: _Tables) -> list[tuple[str, ...]]:
    return [(p, a, b) for p, a, b, smallest in tables.angles if smallest >= 6.0]


def _parallel_build(scene: Scene, binding, new, rng) -> Build:
    (p, a, b), (q,) = binding, new
    pp, pa, pb = _pt(scene, p), _pt(scene, a), _pt(scene, b)
    t = rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 0.9)
    placed = (pp[0] + t * (pb[0] - pa[0]), pp[1] + t * (pb[1] - pa[1]))
    return (placed,), [parallel((p, q), (a, b))], [(p, q)]


def _extension_bindings(scene: Scene, tables: _Tables) -> list[tuple[str, ...]]:
    out = []
    for a, b in scene.drawn_segments:
        out.append((a, b))  # extend beyond b
        out.append((b, a))  # extend beyond a
    return out


_EXTENSION_FACTORS = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]


def _extension_build(scene: Scene, binding, new, rng) -> Build | None:
    (a, b), (c,) = binding, new
    pa, pb = _pt(scene, a), _pt(scene, b)
    t = float(rng.choice(_EXTENSION_FACTORS))
    placed = (pb[0] + t * (pb[0] - pa[0]), pb[1] + t * (pb[1] - pa[1]))
    # most draws leave the box and are redrawn: refuse them before the effect
    if not _inside_box(placed):
        return None
    return (placed,), [collinear(a, b, c)], [(b, c)]


def _connect_bindings(scene: Scene, tables: _Tables) -> list[tuple[str, ...]]:
    drawn = tables.neighbours
    return [(p, q) for p, q in combinations(scene.geometry.points, 2) if q not in drawn[p]]


def _connect_build(scene: Scene, binding, new, rng) -> Build:
    return (), [], [binding]


def _circumcenter_bindings(scene: Scene, tables: _Tables) -> list[tuple[str, ...]]:
    drawn = tables.neighbours
    return [
        (a, b, c)
        for a, b, c in combinations(scene.geometry.points, 3)
        if b in drawn[a] and c in drawn[b] and c in drawn[a]
        and _non_collinear(scene, a, b, c)
    ]


def _circumcenter_build(scene: Scene, binding, new, rng) -> Build | None:
    (o,) = new
    a, b, c = (_pt(scene, x) for x in binding)
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if abs(d) < 1e-9:
        return None
    a2, b2, c2 = a[0] ** 2 + a[1] ** 2, b[0] ** 2 + b[1] ** 2, c[0] ** 2 + c[1] ** 2
    ox = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    oy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    sr = (o, binding[0])
    return ((ox, oy),), [on_circle(x, o, sr) for x in binding], [(o, x) for x in binding]


def _median_bindings(scene: Scene, tables: _Tables) -> list[tuple[str, ...]]:
    return [
        (v, a, b)
        for v, a, b, smallest in tables.angles
        if smallest >= 10.0 and (a, b) not in scene.midpoint_segments
    ]


def _median_build(scene: Scene, binding, new, rng) -> Build:
    (v, a, b), (m,) = binding, new
    return (_mid(scene, a, b),), [midpoint(m, (a, b))], [(v, m)]


def _reflect_bindings(scene: Scene, tables: _Tables) -> list[tuple[str, ...]]:
    labels = list(scene.geometry.points)
    out = []
    for p in labels:
        for c in labels:
            if p != c:
                out.append((p, c))
    return out


def _reflect_build(scene: Scene, binding, new, rng) -> Build:
    (p, c), (q,) = binding, new
    pp, pc = _pt(scene, p), _pt(scene, c)
    placed = (2.0 * pc[0] - pp[0], 2.0 * pc[1] - pp[1])
    return (placed,), [midpoint(c, (p, q))], [(p, q)]


def _midsegment_bindings(scene: Scene, tables: _Tables) -> list[tuple[str, ...]]:
    drawn = tables.neighbours
    mids = scene.midpoint_segments
    out = []
    for a, b, c in combinations(scene.geometry.points, 3):
        for apex, e1, e2 in ((a, b, c), (b, a, c), (c, a, b)):
            if e1 in drawn[apex] and e2 in drawn[apex]:
                if not _non_collinear(scene, apex, e1, e2):
                    continue
                if (apex, e1) in mids or (apex, e2) in mids:
                    continue
                out.append((apex, e1, e2))
    return out


def _midsegment_build(scene: Scene, binding, new, rng) -> Build:
    (apex, e1, e2), (m1, m2) = binding, new
    coords = (_mid(scene, apex, e1), _mid(scene, apex, e2))
    return coords, [midpoint(m1, (apex, e1)), midpoint(m2, (apex, e2))], [(m1, m2)]


CONSTRUCTIONS: tuple[Construction, ...] = (
    Construction(
        id="midpoint",
        new_point_count=1,
        stochastic=False,
        bindings=_midpoint_bindings,
        build=_midpoint_build,
    ),
    Construction(
        id="perpendicular_foot",
        new_point_count=1,
        stochastic=False,
        bindings=_foot_bindings,
        build=_foot_build,
    ),
    Construction(
        id="angle_bisector_point",
        new_point_count=1,
        stochastic=True,
        bindings=_bisector_bindings,
        build=_bisector_build,
    ),
    Construction(
        id="parallel_through_point",
        new_point_count=1,
        stochastic=True,
        bindings=_parallel_bindings,
        build=_parallel_build,
    ),
    Construction(
        id="segment_extension",
        new_point_count=1,
        stochastic=True,
        bindings=_extension_bindings,
        build=_extension_build,
    ),
    Construction(
        id="connect_points",
        new_point_count=0,
        stochastic=False,
        bindings=_connect_bindings,
        build=_connect_build,
    ),
    Construction(
        id="circumcenter",
        new_point_count=1,
        stochastic=False,
        bindings=_circumcenter_bindings,
        build=_circumcenter_build,
    ),
    Construction(
        id="median",
        new_point_count=1,
        stochastic=False,
        bindings=_median_bindings,
        build=_median_build,
    ),
    Construction(
        id="reflect_point",
        new_point_count=1,
        stochastic=False,
        bindings=_reflect_bindings,
        build=_reflect_build,
    ),
    Construction(
        id="midsegment_endpoints",
        new_point_count=2,
        stochastic=False,
        bindings=_midsegment_bindings,
        build=_midsegment_build,
    ),
)


def applicable_constructions(scene: Scene) -> list[tuple[Construction, tuple[str, ...]]]:
    """Every (construction, binding) whose preconditions currently hold."""
    out: list[tuple[Construction, tuple[str, ...]]] = []
    n_points = len(scene.geometry)
    tables = _Tables(scene)
    for construction in CONSTRUCTIONS:
        if n_points + construction.new_point_count > POINT_CAP:
            continue
        for binding in construction.bindings(scene, tables):
            out.append((construction, binding))
    return out


def _apply(
    scene: Scene,
    construction: Construction,
    binding: tuple[str, ...],
    rng: random.Random,
) -> Scene | None:
    attempts = PLACEMENT_ATTEMPTS if construction.stochastic else 1
    labels = tuple(_next_labels(scene.geometry.points, construction.new_point_count))
    for _ in range(attempts):
        try:
            built = construction.build(scene, binding, labels, rng)
        except MalformedStatementError:
            continue
        if built is None:
            continue
        coords, effects, segments = built
        if not all(_inside_box(p) for p in coords):
            continue
        geometry = scene.geometry.extended(dict(zip(labels, coords)))
        statements = scene.initial_statements | dict.fromkeys(effects)
        # degeneracies first: it refuses coincident points, on which no angle
        # of the new effects can be measured; the first problem is enough
        if any(geometry.degeneracies(statements)):
            continue
        # the merge appended only the new effects, in order; the scene's own
        # statements hold already, on points that did not move
        added = islice(statements, len(scene.initial_statements), None)
        if not all(geometry.check_statement(s).holds for s in added):
            continue
        drawn = (*scene.drawn_segments, *(_canon_seg(*seg) for seg in segments))
        return Scene(
            generator=scene.generator,
            seed=scene.seed,
            geometry=geometry,
            constructions=(*scene.constructions, AppliedConstruction(construction.id, binding, labels)),
            initial_statements=statements,
            drawn_segments=tuple(dict.fromkeys(drawn)),
            exhausted=scene.exhausted,
        )
    return None


def extend_scene(scene: Scene, steps: int, rng_seed: int) -> Scene:
    """Apply ``steps`` seeded-uniform applicable constructions.

    When no applicable construction can be placed and steps remain, the
    partial scene is returned flagged ``exhausted``.
    """
    if steps < 0:
        raise ConstructionError("steps must be >= 0")
    rng = random.Random(("extend", scene.seed, rng_seed).__repr__())
    current = scene
    for _ in range(steps):
        candidates = applicable_constructions(current)
        applied = None
        while candidates:
            construction, binding = candidates.pop(rng.randrange(len(candidates)))
            applied = _apply(current, construction, binding, rng)
            if applied is not None:
                break
        if applied is None:
            return replace(current, exhausted=True)
        current = applied
    return current
