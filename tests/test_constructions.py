import dataclasses
import json
import math
import random
from itertools import combinations
from typing import Iterable

import pytest

from geoforge import constructions
from geoforge.constructions import (
    BASE_GENERATORS,
    CONSTRUCTIONS,
    POINT_CAP,
    ConstructionError,
    Scene,
    UnknownGeneratorError,
    _apply,
    applicable_constructions,
    extend_scene,
    generate_base_scene,
    scene_from_doc,
)
from geoforge.geometry import Coord, DegenerateMeasurementError, GeometryError, SceneGeometry
from geoforge.pipeline import _build_scene
from geoforge.statements import (
    Predicate,
    Seg,
    equal_angles,
    equal_segments,
    midpoint,
    parse_statement,
)


def _placed_at(construction_id, point):
    """The construction, placing its one new point at ``point``."""
    construction = next(c for c in CONSTRUCTIONS if c.id == construction_id)

    def build(scene, binding, new_labels, rng):
        _, effects, drawn = construction.build(scene, binding, new_labels, rng)
        return (point,), effects, drawn

    return dataclasses.replace(construction, build=build)


class TestBaseGenerators:
    def test_catalog_size(self):
        assert len(BASE_GENERATORS) == 12

    def test_isosceles_contract(self):
        scene = generate_base_scene("isosceles_triangle", 7)
        s0 = scene.initial_statements
        assert equal_segments(("A", "B"), ("A", "C")) in s0
        assert equal_angles(("A", "B", "C"), ("A", "C", "B")) in s0

    def test_right_triangle_contract(self):
        for seed in range(5):
            scene = generate_base_scene("right_triangle", seed)
            kinds = {s.predicate for s in scene.initial_statements}
            assert Predicate.RIGHT_ANGLE in kinds

    def test_determinism(self):
        a = generate_base_scene("trapezoid", 3)
        b = generate_base_scene("trapezoid", 3)
        assert a.to_json() == b.to_json()

    def test_unknown_generator(self):
        with pytest.raises(UnknownGeneratorError):
            generate_base_scene("hyperbolic_manifold", 0)

    @pytest.mark.parametrize("generator", sorted(BASE_GENERATORS))
    def test_all_generators_valid_scenes(self, generator):
        for seed in range(10):
            scene = generate_base_scene(generator, seed)
            assert len(scene.initial_statements) > 0
            verdict = scene.geometry.check_scene(scene.initial_statements)
            assert verdict.valid, (generator, seed, verdict)
            for label, (x, y) in scene.geometry.points.items():
                assert 0.0 <= x <= 10.0 and 0.0 <= y <= 10.0

    def test_soundness_over_many_seeds(self):
        # acceptance-grade sweep: every extension step keeps the scene valid
        count = 0
        for seed in range(1000):
            generator = sorted(BASE_GENERATORS)[seed % len(BASE_GENERATORS)]
            scene = generate_base_scene(generator, seed)
            scene = extend_scene(scene, 2, seed)
            assert scene.geometry.check_scene(scene.initial_statements).valid, (generator, seed)
            count += 1
        assert count == 1000


class TestExtension:
    def test_zero_steps_identity(self):
        scene = generate_base_scene("square", 1)
        assert extend_scene(scene, 0, 99).to_json() == scene.to_json()

    def test_monotone_growth_and_determinism(self):
        scene = generate_base_scene("isosceles_triangle", 11)
        ext1 = extend_scene(scene, 3, 42)
        ext2 = extend_scene(scene, 3, 42)
        assert ext1.to_json() == ext2.to_json()
        for s in scene.initial_statements:
            assert s in ext1.initial_statements
        assert len(ext1.constructions) >= 1

    def test_point_cap_respected(self):
        scene = generate_base_scene("rectangle", 5)
        big = extend_scene(scene, 40, 7)
        assert len(big.geometry) <= POINT_CAP

    def test_exhaustion_flag(self):
        scene = generate_base_scene("rectangle", 5)
        drained = extend_scene(scene, 300, 7)
        assert drained.exhausted
        assert len(drained.geometry) <= POINT_CAP

    def test_new_effect_must_hold(self):
        # only the effects a placement adds are checked numerically
        scene = generate_base_scene("scalene_triangle", 2)
        a, b = scene.drawn_segments[0]
        (ax, ay), (bx, by) = scene.geometry.point(a), scene.geometry.point(b)

        def placed_at(t):
            point = (ax + t * (bx - ax), ay + t * (by - ay))
            return _placed_at("midpoint", point)

        assert _apply(scene, placed_at(0.4), (a, b), random.Random(0)) is None
        applied = _apply(scene, placed_at(0.5), (a, b), random.Random(0))
        (new,) = applied.constructions[-1].new_points
        assert midpoint(new, (a, b)) in applied.initial_statements

    def test_repeated_effects_are_added_once_in_effect_order(self, monkeypatch):
        scene = generate_base_scene("isosceles_triangle", 7)
        halves = equal_segments(("B", "D"), ("D", "C"))
        effects = [
            halves,
            parse_statement("eq_seg(C,A;B,A)"),  # a premise, spelled otherwise
            midpoint("D", ("B", "C")),
            parse_statement("eq_seg(C,D;D,B)"),  # ``halves`` again
            midpoint("D", ("C", "B")),
        ]
        midpoint_of = next(c for c in CONSTRUCTIONS if c.id == "midpoint")

        def build(scene, binding, new_labels, rng):
            assert new_labels == ("D",)
            coords, _, drawn = midpoint_of.build(scene, binding, new_labels, rng)
            return coords, effects, drawn

        checked = []
        check_statement = SceneGeometry.check_statement

        def recording(self, s):
            checked.append(s)
            return check_statement(self, s)

        monkeypatch.setattr(SceneGeometry, "check_statement", recording)
        construction = dataclasses.replace(midpoint_of, build=build)
        applied = _apply(scene, construction, ("B", "C"), random.Random(0))
        added = [halves, midpoint("D", ("B", "C"))]
        assert list(applied.initial_statements) == [*scene.initial_statements, *added]
        # only the new statements are checked numerically
        assert checked == added

    def test_parent_premises_are_left_unchanged(self):
        scene = generate_base_scene("isosceles_triangle", 7)
        before = list(scene.initial_statements)
        midpoint_of = next(c for c in CONSTRUCTIONS if c.id == "midpoint")
        applied = _apply(scene, midpoint_of, ("B", "C"), random.Random(0))
        extended = extend_scene(scene, 3, 42)
        assert list(scene.initial_statements) == before
        assert len(applied.initial_statements) > len(before)
        assert len(extended.initial_statements) > len(before)

    def test_premise_found_under_another_spelling(self):
        s0 = generate_base_scene("isosceles_triangle", 7).initial_statements
        assert parse_statement("eq_seg(C,A;B,A)") in s0
        assert parse_statement("eq_angle(A,C,B;A,B,C)") in s0
        assert parse_statement("seg_len(C,B;3)") in s0

    def test_placement_onto_an_existing_point_is_refused(self):
        # the bisector's new effect measures angles at its vertex, which a
        # point placed onto the vertex would leave without a ray
        scene = generate_base_scene("scalene_triangle", 2)
        onto_a = scene.geometry.point("A")
        for construction_id, binding in (
            ("midpoint", ("A", "B")),
            ("angle_bisector_point", ("A", "B", "C")),
        ):
            placed = _placed_at(construction_id, onto_a)
            assert _apply(scene, placed, binding, random.Random(0)) is None

    def test_negative_steps_rejected(self):
        scene = generate_base_scene("rectangle", 5)
        with pytest.raises(Exception):
            extend_scene(scene, -1, 0)


class TestApplicability:
    def test_perpendicular_foot_available_on_triangle(self):
        scene = generate_base_scene("scalene_triangle", 2)
        pairs = applicable_constructions(scene)
        ids = {c.id for c, _ in pairs}
        assert "perpendicular_foot" in ids
        assert "midpoint" in ids

    def test_applicability_is_deterministic(self):
        scene = generate_base_scene("parallelogram", 4)
        a = [(c.id, b) for c, b in applicable_constructions(scene)]
        b = [(c.id, b) for c, b in applicable_constructions(scene)]
        assert a == b

    def test_point_adding_constructions_blocked_at_cap(self):
        scene = generate_base_scene("rectangle", 5)
        scene = extend_scene(scene, 40, 7)
        if len(scene.geometry) == POINT_CAP:
            for construction, _ in applicable_constructions(scene):
                assert construction.new_point_count == 0

    def test_catalog_size(self):
        assert len(CONSTRUCTIONS) == 10

    def test_bisector_bindings_skip_only_kernel_errors(self, monkeypatch):
        # a kernel error means the angle has no measure, so the binding is
        # left out; any other error is a fault and propagates
        scene = generate_base_scene("scalene_triangle", 2)
        tables = constructions._Tables(scene)

        def raising(error):
            def angle_deg(self, a, v, c):
                raise error

            return angle_deg

        monkeypatch.setattr(SceneGeometry, "angle_deg", raising(DegenerateMeasurementError("ray")))
        assert constructions._bisector_bindings(scene, tables) == []
        monkeypatch.setattr(SceneGeometry, "angle_deg", raising(RuntimeError("kernel fault")))
        with pytest.raises(RuntimeError, match="kernel fault"):
            constructions._bisector_bindings(scene, tables)


class TestBuild:
    def test_effects_hold_at_the_build_placement(self):
        # without this, a wrong coordinate would only show as a placement
        # that _apply silently refuses
        checked = {c.id: 0 for c in CONSTRUCTIONS}
        scenes = [
            extend_scene(generate_base_scene(generator, seed), 2, seed)
            for generator in sorted(BASE_GENERATORS)
            for seed in range(5)
        ]
        for scene in scenes:
            for construction, binding in applicable_constructions(scene):
                count = construction.new_point_count
                labels = tuple(constructions._next_labels(scene.geometry.points, count))
                built = construction.build(scene, binding, labels, random.Random(0))
                if built is None:
                    continue
                coords, effects, _ = built
                assert len(coords) == count, (construction.id, binding)
                geometry = scene.geometry.extended(dict(zip(labels, coords)))
                for effect in effects:
                    verdict = geometry.check_statement(effect)
                    assert verdict.holds, (scene.generator, scene.seed, binding, effect)
                checked[construction.id] += 1
        assert all(checked.values()), checked

    def test_apply_refuses_malformed_effects_and_propagates_kernel_faults(self):
        scene = generate_base_scene("scalene_triangle", 2)
        midpoint_of = next(c for c in CONSTRUCTIONS if c.id == "midpoint")

        def degenerate_effect(scene, binding, new_labels, rng):
            a, _ = binding
            return ((5.0, 5.0),), [midpoint(new_labels[0], (a, a))], []

        malformed = dataclasses.replace(midpoint_of, build=degenerate_effect)
        assert _apply(scene, malformed, ("A", "B"), random.Random(0)) is None
        # a placement reading a point the scene lacks is a fault, not a bad draw
        with pytest.raises(GeometryError):
            _apply(scene, midpoint_of, ("A", "Z"), random.Random(0))


class TestSerialization:
    def test_round_trip(self):
        scene = extend_scene(generate_base_scene("circle_diameter_point", 9), 3, 10)
        clone = scene_from_doc(json.loads(scene.to_json()))
        assert clone.to_json() == scene.to_json()
        assert clone.geometry.points == scene.geometry.points
        assert list(clone.initial_statements) == list(scene.initial_statements)

    def test_statements_parse_against_scene_points(self):
        scene = generate_base_scene("triangle_cevian", 3)
        for s in scene.initial_statements:
            parse_statement(s.text(), known_points=scene.geometry.points)


class TestCandidateReference:
    """The candidate list, order included, against the binding loops as they
    stood before the bindings shared one angle table and one neighbour map
    per call (kept verbatim below). ``extend_scene`` draws from this list by
    index, so a different order is different output."""

    def test_matches_reference_on_every_listed_scene(self, monkeypatch):
        listed = constructions.applicable_constructions
        sizes = []

        def compared(scene):
            candidates = listed(scene)
            got = [(c.id, b) for c, b in candidates]
            assert got == _reference_candidates(scene), (scene.seed, len(scene.constructions))
            sizes.append(len(scene.geometry))
            return candidates

        monkeypatch.setattr(constructions, "applicable_constructions", compared)
        for seed in range(300):
            try:
                scene = _build_scene(seed)
            except ConstructionError:
                continue
            # three more steps, seeded as bootstrap's first generation seeds them
            extend_scene(scene, 3, seed * 1000003 + 101)
        assert len(sizes) > 2000
        assert max(sizes) == POINT_CAP

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_next_labels_matches_full_filter(self, n):
        pool = _LABEL_POOL
        cases = [pool[:k] for k in range(POINT_CAP + 2)]
        cases += [pool[1:POINT_CAP], pool[::2][:POINT_CAP], ["Z", "A1", "B"], pool[:-1], pool]
        cases += [list(generate_base_scene(g, 0).geometry.points) for g in sorted(BASE_GENERATORS)]
        for existing in cases:
            expected = _next_labels(existing, n)
            assert constructions._next_labels(dict.fromkeys(existing), n) == expected, existing


def _reference_candidates(scene):
    n_points = len(scene.geometry)
    return [
        (construction_id, binding)
        for construction_id, new_point_count, bindings in _REFERENCE_CATALOG
        if n_points + new_point_count <= POINT_CAP
        for binding in bindings(scene)
    ]


# --- reference: label and binding code before the per-call tables ----------

_LABEL_POOL = [chr(c) for c in range(ord("A"), ord("Z") + 1)] + [
    f"{chr(c)}{d}" for d in range(1, 10) for c in range(ord("A"), ord("Z") + 1)
]


def _canon_seg(a: str, b: str) -> Seg:
    return (a, b) if a < b else (b, a)


def _next_labels(existing: Iterable[str], n: int) -> list[str]:
    used = set(existing)
    fresh = [label for label in _LABEL_POOL if label not in used]
    return fresh[:n]


def _pt(scene: Scene, label: str) -> Coord:
    return scene.geometry.point(label)


def _has_midpoint_statement(scene: Scene, seg: Seg) -> bool:
    return _canon_seg(*seg) in scene.midpoint_segments


def _non_collinear(scene: Scene, a: str, b: str, c: str, margin_deg: float = 8.0) -> bool:
    smallest = scene.geometry.min_angle_deg(a, b, c)
    return smallest is not None and smallest >= margin_deg


def _midpoint_bindings(scene: Scene) -> list[tuple[str, ...]]:
    out = []
    for seg in scene.drawn_segments:
        if not _has_midpoint_statement(scene, seg):
            out.append(seg)
    return out


def _foot_bindings(scene: Scene) -> list[tuple[str, ...]]:
    out = []
    dmin = scene.geometry.d_min()
    for apex in scene.geometry.points:
        for a, b in scene.drawn_segments:
            if apex in (a, b) or not _non_collinear(scene, apex, a, b, 10.0):
                continue
            pa, pb, pp = _pt(scene, a), _pt(scene, b), _pt(scene, apex)
            ux, uy = pb[0] - pa[0], pb[1] - pa[1]
            denom = ux * ux + uy * uy
            t = ((pp[0] - pa[0]) * ux + (pp[1] - pa[1]) * uy) / denom
            if not (0.12 <= t <= 0.88):
                continue
            foot = (pa[0] + t * ux, pa[1] + t * uy)
            if math.hypot(foot[0] - pp[0], foot[1] - pp[1]) < 4 * dmin:
                continue
            out.append((apex, a, b))
    return out


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


def _bisector_bindings(scene: Scene) -> list[tuple[str, ...]]:
    out = []
    for v, x, y in _vertex_segment_pairs(scene):
        try:
            theta = scene.geometry.angle_deg(x, v, y)
        except Exception:
            continue
        if 24.0 <= theta <= 150.0:
            out.append((v, x, y))
    return out


def _parallel_bindings(scene: Scene) -> list[tuple[str, ...]]:
    out = []
    for p in scene.geometry.points:
        for a, b in scene.drawn_segments:
            if p in (a, b):
                continue
            if not _non_collinear(scene, p, a, b, 6.0):
                continue
            out.append((p, a, b))
    return out


def _extension_bindings(scene: Scene) -> list[tuple[str, ...]]:
    out = []
    for a, b in scene.drawn_segments:
        out.append((a, b))  # extend beyond b
        out.append((b, a))  # extend beyond a
    return out


def _connect_bindings(scene: Scene) -> list[tuple[str, ...]]:
    drawn = {frozenset(s) for s in scene.drawn_segments}
    labels = list(scene.geometry.points)
    return [
        (p, q)
        for p, q in combinations(labels, 2)
        if frozenset((p, q)) not in drawn
    ]


def _circumcenter_bindings(scene: Scene) -> list[tuple[str, ...]]:
    drawn = {frozenset(s) for s in scene.drawn_segments}
    out = []
    for a, b, c in combinations(list(scene.geometry.points), 3):
        sides = [frozenset((a, b)), frozenset((b, c)), frozenset((a, c))]
        if not all(s in drawn for s in sides):
            continue
        if _non_collinear(scene, a, b, c, 12.0):
            out.append((a, b, c))
    return out


def _median_bindings(scene: Scene) -> list[tuple[str, ...]]:
    out = []
    for v in scene.geometry.points:
        for a, b in scene.drawn_segments:
            if v in (a, b) or not _non_collinear(scene, v, a, b, 10.0):
                continue
            if _has_midpoint_statement(scene, (a, b)):
                continue
            out.append((v, a, b))
    return out


def _reflect_bindings(scene: Scene) -> list[tuple[str, ...]]:
    labels = list(scene.geometry.points)
    out = []
    for p in labels:
        for c in labels:
            if p != c:
                out.append((p, c))
    return out


def _midsegment_bindings(scene: Scene) -> list[tuple[str, ...]]:
    drawn = {frozenset(s) for s in scene.drawn_segments}
    out = []
    for a, b, c in combinations(list(scene.geometry.points), 3):
        for apex, e1, e2 in ((a, b, c), (b, a, c), (c, a, b)):
            if frozenset((apex, e1)) in drawn and frozenset((apex, e2)) in drawn:
                if not _non_collinear(scene, apex, e1, e2, 12.0):
                    continue
                if _has_midpoint_statement(scene, (apex, e1)) or _has_midpoint_statement(
                    scene, (apex, e2)
                ):
                    continue
                out.append((apex, e1, e2))
    return out


_REFERENCE_CATALOG = (
    ("midpoint", 1, _midpoint_bindings),
    ("perpendicular_foot", 1, _foot_bindings),
    ("angle_bisector_point", 1, _bisector_bindings),
    ("parallel_through_point", 1, _parallel_bindings),
    ("segment_extension", 1, _extension_bindings),
    ("connect_points", 0, _connect_bindings),
    ("circumcenter", 1, _circumcenter_bindings),
    ("median", 1, _median_bindings),
    ("reflect_point", 1, _reflect_bindings),
    ("midsegment_endpoints", 2, _midsegment_bindings),
)
