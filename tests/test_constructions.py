import dataclasses
import random

import pytest

from geoforge.constructions import (
    BASE_GENERATORS,
    CONSTRUCTIONS,
    POINT_CAP,
    UnknownGeneratorError,
    _apply,
    applicable_constructions,
    extend_scene,
    generate_base_scene,
    scene_from_json,
)
from geoforge.statements import (
    Predicate,
    equal_angles,
    equal_segments,
    midpoint,
    parse_statement,
)


def _placed_at(construction_id, point):
    """The construction, placing its one new point at ``point``."""
    construction = next(c for c in CONSTRUCTIONS if c.id == construction_id)
    return dataclasses.replace(construction, place=lambda scene, binding, rng: {"new0": point})


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


class TestSerialization:
    def test_round_trip(self):
        scene = extend_scene(generate_base_scene("circle_diameter_point", 9), 3, 10)
        clone = scene_from_json(scene.to_json())
        assert clone.to_json() == scene.to_json()
        assert clone.geometry.points == scene.geometry.points
        assert list(clone.initial_statements) == list(scene.initial_statements)

    def test_statements_parse_against_scene_points(self):
        scene = generate_base_scene("triangle_cevian", 3)
        for s in scene.initial_statements:
            parse_statement(s.text(), known_points=scene.geometry.points)
