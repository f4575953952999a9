"""Numeric kernel: the geometric compiler.

Holds instantiated coordinates and decides, with explicit relative
residuals, whether statements hold on them. All predicates reduce to a
dimensionless residual compared against ``EPS_REL``; scenes additionally
pass degeneracy thresholds (minimum pairwise distance, minimum referenced
triangle angle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .statements import Predicate, Statement

Coord = tuple[float, float]


class GeometryError(ValueError):
    pass


class UnknownScenePointError(GeometryError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"unknown point {label!r}")


class DegenerateMeasurementError(GeometryError):
    pass


# Thresholds, chosen so double-precision construction noise never flips verdicts.
EPS_REL = 1e-9
D_MIN_FACTOR = 1e-3  # of the bounding-box diagonal
THETA_MIN_DEG = 5.0


@dataclass(frozen=True)
class Verdict:
    holds: bool
    residual: float


@dataclass(frozen=True)
class SceneVerdict:
    valid: bool
    failing: tuple[Statement, ...]
    degeneracies: tuple[str, ...]


def _sub(a: Coord, b: Coord) -> Coord:
    return (a[0] - b[0], a[1] - b[1])


def _dot(u: Coord, v: Coord) -> float:
    return u[0] * v[0] + u[1] * v[1]


def _cross(u: Coord, v: Coord) -> float:
    return u[0] * v[1] - u[1] * v[0]


def _acos_deg(cos: float) -> float:
    return math.degrees(math.acos(max(-1.0, min(1.0, cos))))


def _collinear_residual(pa: Coord, pb: Coord, pc: Coord) -> float:
    u = _sub(pb, pa)
    v = _sub(pc, pa)
    denom = math.hypot(*u) * math.hypot(*v)
    return math.inf if denom == 0.0 else abs(_cross(u, v)) / denom


class SceneGeometry:
    """Immutable map of point labels to coordinates.

    Triangle measures asked for by label are memoised per unordered triple:
    coordinates never move once placed, so an entry stays valid for this
    geometry and for every geometry ``extended`` from it.
    """

    def __init__(self, points: Mapping[str, Coord]):
        clean: dict[str, Coord] = {}
        for label, (x, y) in points.items():
            if not (math.isfinite(x) and math.isfinite(y)):
                raise GeometryError(f"non-finite coordinate for {label}")
            clean[label] = (float(x), float(y))
        self.points = clean
        self._min_angles: dict[frozenset[str], float | None] = {}
        self._collinear_residuals: dict[frozenset[str], float] = {}

    def extended(self, new_points: Mapping[str, Coord]) -> "SceneGeometry":
        """This geometry plus ``new_points``, starting from a copy of the memo.

        The copy keeps sibling extensions (the same new label placed at
        different coordinates) from seeing each other's entries.
        """
        moved = self.points.keys() & new_points.keys()
        if moved:
            raise GeometryError(f"points already placed: {sorted(moved)}")
        child = SceneGeometry({**self.points, **new_points})
        child._min_angles = dict(self._min_angles)
        child._collinear_residuals = dict(self._collinear_residuals)
        return child

    def __len__(self) -> int:
        return len(self.points)

    def point(self, label: str) -> Coord:
        try:
            return self.points[label]
        except KeyError:
            raise UnknownScenePointError(label) from None

    def bbox(self) -> tuple[float, float, float, float]:
        xs = [p[0] for p in self.points.values()]
        ys = [p[1] for p in self.points.values()]
        return (min(xs), min(ys), max(xs), max(ys))

    def bbox_diagonal(self) -> float:
        x0, y0, x1, y1 = self.bbox()
        return math.hypot(x1 - x0, y1 - y0)

    def d_min(self) -> float:
        return D_MIN_FACTOR * max(self.bbox_diagonal(), 1e-6)

    def distance(self, a: str, b: str) -> float:
        points = self.points
        try:
            pa, pb = points[a], points[b]
        except KeyError as exc:
            raise UnknownScenePointError(exc.args[0]) from None
        return math.hypot(pa[0] - pb[0], pa[1] - pb[1])

    def angle_deg(self, a: str, v: str, c: str) -> float:
        """Measure of the angle at vertex ``v`` in degrees, in [0, 180].
        ``DegenerateMeasurementError`` when a ray has zero length, or its
        length times the other's underflows to zero."""
        points = self.points
        try:
            pa, pv, pc = points[a], points[v], points[c]
        except KeyError as exc:
            raise UnknownScenePointError(exc.args[0]) from None
        ux, uy = pa[0] - pv[0], pa[1] - pv[1]
        wx, wy = pc[0] - pv[0], pc[1] - pv[1]
        nu, nw = math.hypot(ux, uy), math.hypot(wx, wy)
        if nu == 0.0 or nw == 0.0:
            raise DegenerateMeasurementError(f"zero-length ray at {v}")
        try:
            return _acos_deg((ux * wx + uy * wy) / (nu * nw))
        except ZeroDivisionError:  # two short rays whose norms' product underflows
            raise DegenerateMeasurementError(f"ray norms underflow at {v}") from None

    def min_angle_deg(self, a: str, b: str, c: str) -> float | None:
        """Smallest interior angle of triangle abc, or None when a side has
        zero length. Every argument order gives the same value: the angle at
        a vertex does not depend on the order of its two rays. Two side
        lengths whose product underflows raise ``DegenerateMeasurementError``."""
        key = frozenset((a, b, c))
        try:
            return self._min_angles[key]
        except KeyError:
            pass
        points = self.points
        try:
            pb, pa, pc = points[b], points[a], points[c]  # as angle_deg(b, a, c) reads them
        except KeyError as exc:
            raise UnknownScenePointError(exc.args[0]) from None
        abx, aby = pb[0] - pa[0], pb[1] - pa[1]
        acx, acy = pc[0] - pa[0], pc[1] - pa[1]
        bcx, bcy = pc[0] - pb[0], pc[1] - pb[1]
        ab, ac, bc = math.hypot(abx, aby), math.hypot(acx, acy), math.hypot(bcx, bcy)
        smallest: float | None = None
        # the angles at a, b and c as angle_deg measures them, one after the
        # other: a ray a - b is -(b - a), and negation is exact, as is hypot's sign
        if ab != 0.0 and ac != 0.0:
            try:
                at_a = _acos_deg((abx * acx + aby * acy) / (ab * ac))
                if bc != 0.0:
                    smallest = min(
                        at_a,
                        _acos_deg(-(abx * bcx + aby * bcy) / (ab * bc)),
                        _acos_deg((acx * bcx + acy * bcy) / (ac * bc)),
                    )
            except ZeroDivisionError:  # as in angle_deg
                raise DegenerateMeasurementError(f"sides of {a}{b}{c} underflow") from None
        self._min_angles[key] = smallest
        return smallest

    def collinear_residual(self, a: str, b: str, c: str) -> float:
        """Residual of ``collinear(a, b, c)``, whose points are sorted, so
        every argument order gives the same value."""
        key = frozenset((a, b, c))
        residual = self._collinear_residuals.get(key)
        if residual is None:
            p, q, r = sorted(key)
            residual = _collinear_residual(self.point(p), self.point(q), self.point(r))
            self._collinear_residuals[key] = residual
        return residual

    def strictly_between(self, a: str, x: str, b: str) -> bool:
        """True when ``x`` lies strictly inside segment ab (assumes collinear)."""
        u = _sub(self.point(a), self.point(x))
        v = _sub(self.point(b), self.point(x))
        return _dot(u, v) < 0.0

    # residuals ---------------------------------------------------------

    def _seg_vec(self, seg: tuple[str, ...]) -> Coord:
        return _sub(self.point(seg[1]), self.point(seg[0]))

    def _dir_residual(self, s1, s2, perpendicular: bool) -> float:
        u, v = self._seg_vec(s1), self._seg_vec(s2)
        denom = math.hypot(*u) * math.hypot(*v)
        if denom == 0.0:
            return math.inf
        num = abs(_dot(u, v)) if perpendicular else abs(_cross(u, v))
        return num / denom

    def _length_eq_residual(self, s1, s2) -> float:
        l1, l2 = math.hypot(*self._seg_vec(s1)), math.hypot(*self._seg_vec(s2))
        m = max(l1, l2)
        return math.inf if m == 0.0 else abs(l1 - l2) / m

    def statement_residual(self, s: Statement) -> float:
        """Dimensionless defining residual of ``s`` on these coordinates."""
        pred = s.predicate
        if pred is Predicate.COLLINEAR:
            a, b, c = s.groups[0]
            return _collinear_residual(self.point(a), self.point(b), self.point(c))
        if pred is Predicate.PARALLEL:
            return self._dir_residual(s.groups[0], s.groups[1], perpendicular=False)
        if pred is Predicate.PERPENDICULAR:
            return self._dir_residual(s.groups[0], s.groups[1], perpendicular=True)
        if pred is Predicate.EQUAL_SEGMENTS:
            return self._length_eq_residual(s.groups[0], s.groups[1])
        if pred is Predicate.EQUAL_ANGLES:
            a1 = self.angle_deg(*s.groups[0])
            a2 = self.angle_deg(*s.groups[1])
            return abs(a1 - a2) / 180.0
        if pred is Predicate.SEGMENT_LENGTH:
            if s.value is None:
                raise GeometryError("cannot check a query-form statement")
            length = math.hypot(*self._seg_vec(s.groups[0]))
            v = float(s.value)
            return abs(length - v) / max(length, v)
        if pred is Predicate.ANGLE_MEASURE:
            if s.value is None:
                raise GeometryError("cannot check a query-form statement")
            return abs(self.angle_deg(*s.groups[0]) - float(s.value)) / 180.0
        if pred is Predicate.RIGHT_ANGLE:
            a, v, c = s.groups[0]
            return self._dir_residual((v, a), (v, c), perpendicular=True)
        if pred is Predicate.MIDPOINT:
            (m,), (a, b) = s.groups
            pa, pb, pm = self.point(a), self.point(b), self.point(m)
            mid = ((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0)
            ab = math.hypot(*_sub(pb, pa))
            return math.inf if ab == 0.0 else math.hypot(*_sub(pm, mid)) / ab
        if pred is Predicate.ON_CIRCLE:
            (p,), (o,), radius = s.groups
            r = math.hypot(*self._seg_vec(radius))
            if r == 0.0:
                return math.inf
            return abs(self.distance(p, o) - r) / r
        if pred is Predicate.CONGRUENT_TRIANGLES:
            t1, t2 = s.groups
            return max(
                self._length_eq_residual((t1[i], t1[j]), (t2[i], t2[j]))
                for i, j in ((0, 1), (1, 2), (0, 2))
            )
        if pred is Predicate.SIMILAR_TRIANGLES:
            t1, t2 = s.groups
            ratios = []
            for i, j in ((0, 1), (1, 2), (0, 2)):
                l1 = self.distance(t1[i], t1[j])
                l2 = self.distance(t2[i], t2[j])
                if l1 == 0.0:
                    return math.inf
                ratios.append(l2 / l1)
            hi = max(ratios)
            return math.inf if hi == 0.0 else (hi - min(ratios)) / hi
        if pred is Predicate.SEGMENT_RATIO:
            if s.value is None:
                raise GeometryError("cannot check a query-form statement")
            l1 = math.hypot(*self._seg_vec(s.groups[0]))
            l2 = math.hypot(*self._seg_vec(s.groups[1]))
            if l2 == 0.0:
                return math.inf
            v = float(s.value)
            return abs(l1 / l2 - v) / v
        raise AssertionError(pred)  # pragma: no cover - exhaustive

    def check_statement(self, s: Statement) -> Verdict:
        """Holds iff the defining residual is within ``EPS_REL``."""
        residual = self.statement_residual(s)
        return Verdict(residual <= EPS_REL, residual)

    # scene-level validation --------------------------------------------

    def referenced_triangles(self, statements: Iterable[Statement]) -> set[tuple[str, str, str]]:
        tris: set[tuple[str, str, str]] = set()
        for s in statements:
            pred = s.predicate
            if pred in (Predicate.ANGLE_MEASURE, Predicate.RIGHT_ANGLE):
                tris.add(tuple(sorted(s.groups[0])))
            elif pred in (
                Predicate.EQUAL_ANGLES, Predicate.CONGRUENT_TRIANGLES, Predicate.SIMILAR_TRIANGLES
            ):
                tris.update(tuple(sorted(g)) for g in s.groups)
        return tris

    def degeneracies(self, statements: Iterable[Statement]) -> Iterator[str]:
        """Each problem in turn: point pairs closer than ``d_min``, then the
        triangles ``statements`` refer to; lazy, so a caller can stop at the
        first."""
        labels = sorted(self.points)
        dmin = self.d_min()
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                if self.distance(a, b) < dmin:
                    yield f"points {a},{b} closer than d_min"
        for a, b, c in sorted(self.referenced_triangles(statements)):
            smallest = self.min_angle_deg(a, b, c)
            if smallest is None:
                yield f"triangle {a}{b}{c} has a zero-length side"
            elif smallest < THETA_MIN_DEG:
                yield f"triangle {a}{b}{c} has an angle below theta_min"

    def check_scene(self, statements: Iterable[Statement]) -> SceneVerdict:
        stmts = list(statements)
        failing = tuple(s for s in stmts if not self.check_statement(s).holds)
        degeneracies = tuple(self.degeneracies(stmts))
        return SceneVerdict(not failing and not degeneracies, failing, degeneracies)
