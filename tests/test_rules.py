import dataclasses
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import geoforge.rules as rules_module

from geoforge.constructions import (
    BASE_GENERATORS,
    ConstructionError,
    extend_scene,
    generate_base_scene,
)
from geoforge.geometry import SceneGeometry
from geoforge.pipeline import _build_scene
from geoforge.reasoner import saturate, saturate_statements
from geoforge.rules import DEFAULT_RULES, RULES_BY_ID, MatchContext
from geoforge.statements import (
    Predicate,
    angle_measure,
    collinear,
    congruent_triangles,
    equal_angles,
    equal_segments,
    midpoint,
    on_circle,
    parallel,
    perpendicular,
    right_angle,
    segment_length,
    segment_ratio,
    similar_triangles,
)


def assert_replays(geometry, graph):
    """Every transition is re-derived by its own rule from exactly its
    premises, whichever premise is cited last: so each premise's predicate
    must be one of the rule's triggers."""
    for t in graph.transitions:
        rule = RULES_BY_ID[t.rule]
        premises = [graph.stmt(p) for p in t.premises]
        conclusion = graph.stmt(t.conclusion)
        for i, last in enumerate(premises):
            cited = premises[:i] + premises[i + 1 :] + [last]
            assert rule.recheck(geometry, cited, conclusion), (t.rule, cited, conclusion)


def fired(geometry, initial, rule_id, conclusion=None):
    """Saturate and assert the rule produced (optionally) the conclusion;
    every transition of the closure must also replay."""
    scene_geometry = SceneGeometry(geometry)
    graph = saturate_statements(scene_geometry, initial)
    assert_replays(scene_geometry, graph)
    rules_used = {t.rule for t in graph.transitions}
    assert rule_id in rules_used, f"{rule_id} never fired (used: {sorted(rules_used)})"
    if conclusion is not None:
        assert conclusion in graph.index, f"missing conclusion {conclusion}"
        by_rule = {
            graph.stmt(t.conclusion)
            for t in graph.transitions
            if t.rule == rule_id
        }
        assert conclusion in by_rule
    return graph


def _polar(r, deg):
    return (r * math.cos(math.radians(deg)), r * math.sin(math.radians(deg)))


ISO = {"A": (2.0, 2.0 * math.tan(math.radians(65.0))), "B": (0.0, 0.0), "C": (4.0, 0.0)}


class TestTriangleRules:
    def test_isosceles_base_angles(self):
        fired(
            ISO,
            [equal_segments(("A", "B"), ("A", "C"))],
            "isosceles_base_angles",
            equal_angles(("A", "B", "C"), ("A", "C", "B")),
        )

    def test_isosceles_converse(self):
        fired(
            ISO,
            [equal_angles(("A", "B", "C"), ("A", "C", "B"))],
            "isosceles_converse",
            equal_segments(("A", "B"), ("A", "C")),
        )

    def test_triangle_angle_sum(self):
        fired(
            ISO,
            [angle_measure(("B", "A", "C"), 50), angle_measure(("A", "B", "C"), 65)],
            "triangle_angle_sum",
            angle_measure(("A", "C", "B"), 65),
        )

    def test_angle_sum_equal_pair(self):
        fired(
            ISO,
            [
                equal_angles(("A", "B", "C"), ("A", "C", "B")),
                angle_measure(("B", "A", "C"), 50),
            ],
            "triangle_angle_sum_equal_pair",
            angle_measure(("A", "B", "C"), 65),
        )


class TestLineAndAngleRules:
    def test_vertical_angles(self):
        geometry = {
            "A": (0.0, 0.0), "B": (2.0, 2.0), "X": (1.0, 1.0), "C": (0.0, 2.0), "D": (2.0, 0.0),
        }
        fired(
            geometry,
            [collinear("A", "X", "B"), collinear("C", "X", "D")],
            "vertical_angles",
            equal_angles(("A", "X", "C"), ("B", "X", "D")),
        )

    def test_alternate_interior(self):
        geometry = {"A": (0.0, 0.0), "B": (4.0, 0.0), "C": (5.0, 2.0), "D": (1.0, 2.0)}
        fired(
            geometry,
            [parallel(("A", "B"), ("C", "D"))],
            "alternate_interior_angles",
            equal_angles(("A", "B", "D"), ("B", "D", "C")),
        )

    def test_corresponding_angles(self):
        geometry = {
            "A": (0.0, 0.0), "B": (4.0, 0.0), "C": (5.0, 2.0), "D": (2.0, 2.0), "E": (5.5, 3.0),
        }
        fired(
            geometry,
            [parallel(("A", "B"), ("C", "D")), collinear("B", "C", "E")],
            "corresponding_angles",
            equal_angles(("A", "B", "C"), ("D", "C", "E")),
        )

    def test_perpendicular_shared_endpoint(self):
        geometry = {"A": (2.0, 0.0), "B": (0.0, 0.0), "C": (0.0, 3.0)}
        fired(
            geometry,
            [perpendicular(("A", "B"), ("B", "C"))],
            "perpendicular_right_angle",
            right_angle(("A", "B", "C")),
        )

    def test_perpendicular_foot_on_line(self):
        geometry = {"A": (1.0, 2.0), "D": (1.0, 0.0), "B": (0.0, 0.0), "C": (3.0, 0.0)}
        graph = fired(
            geometry,
            [perpendicular(("A", "D"), ("B", "C")), collinear("B", "D", "C")],
            "perpendicular_right_angle",
            right_angle(("A", "D", "B")),
        )
        assert right_angle(("A", "D", "C")) in graph.index

    def test_right_angle_measure(self):
        geometry = {"A": (2.0, 0.0), "B": (0.0, 0.0), "C": (0.0, 3.0)}
        fired(
            geometry,
            [right_angle(("A", "B", "C"))],
            "right_angle_measure",
            angle_measure(("A", "B", "C"), 90),
        )

    def test_angle_addition(self):
        geometry = {
            "B": (0.0, 0.0),
            "A": (2.0, 0.0),
            "D": _polar(2.0, 30.0),
            "C": _polar(2.0, 75.0),
        }
        fired(
            geometry,
            [angle_measure(("A", "B", "D"), 30), angle_measure(("D", "B", "C"), 45)],
            "angle_addition",
            angle_measure(("A", "B", "C"), 75),
        )


class TestMidpointRules:
    MID = {"A": (0.0, 0.0), "B": (2.0, 0.0), "M": (1.0, 0.0)}

    def test_equal_halves(self):
        fired(
            self.MID,
            [midpoint("M", ("A", "B"))],
            "midpoint_equal_halves",
            equal_segments(("A", "M"), ("B", "M")),
        )

    def test_half_ratio(self):
        fired(
            self.MID,
            [midpoint("M", ("A", "B"))],
            "midpoint_half_ratio",
            segment_ratio(("A", "M"), ("A", "B"), Fraction(1, 2)),
        )

    def test_midsegment(self):
        geometry = {
            "A": (0.0, 0.0), "B": (4.0, 0.0), "C": (2.0, 3.0),
            "M": (2.0, 0.0), "N": (1.0, 1.5),
        }
        initial = [midpoint("M", ("A", "B")), midpoint("N", ("A", "C"))]
        fired(geometry, initial, "midsegment_parallel", parallel(("M", "N"), ("B", "C")))
        fired(
            geometry,
            initial,
            "midsegment_half_length",
            segment_ratio(("M", "N"), ("B", "C"), Fraction(1, 2)),
        )


class TestPythagoras:
    R345 = {"A": (0.0, 0.0), "B": (3.0, 0.0), "C": (0.0, 4.0)}

    def test_forward(self):
        fired(
            self.R345,
            [
                right_angle(("B", "A", "C")),
                segment_length(("A", "B"), 3),
                segment_length(("A", "C"), 4),
            ],
            "pythagoras",
            segment_length(("B", "C"), 5),
        )

    def test_leg(self):
        fired(
            self.R345,
            [
                right_angle(("B", "A", "C")),
                segment_length(("B", "C"), 5),
                segment_length(("A", "B"), 3),
            ],
            "pythagoras_leg",
            segment_length(("A", "C"), 4),
        )

    def test_irrational_hypotenuse_stays_silent(self):
        geometry = {"A": (0.0, 0.0), "B": (1.0, 0.0), "C": (0.0, 1.0)}
        graph = saturate_statements(
            SceneGeometry(geometry),
            [
                right_angle(("B", "A", "C")),
                segment_length(("A", "B"), 1),
                segment_length(("A", "C"), 1),
            ],
        )
        assert not any(t.rule == "pythagoras" for t in graph.transitions)


_SHIFT = (5.0, 5.0)
_CONG = {
    "A": (0.0, 0.0), "B": (3.0, 0.0), "C": (1.0, 2.0),
    "D": (0.0 + _SHIFT[0], 0.0 + _SHIFT[1]),
    "E": (3.0 + _SHIFT[0], 0.0 + _SHIFT[1]),
    "F": (1.0 + _SHIFT[0], 2.0 + _SHIFT[1]),
}


class TestCongruence:
    def test_sss(self):
        fired(
            _CONG,
            [
                equal_segments(("A", "B"), ("D", "E")),
                equal_segments(("B", "C"), ("E", "F")),
                equal_segments(("A", "C"), ("D", "F")),
            ],
            "sss_congruence",
            congruent_triangles(("A", "B", "C"), ("D", "E", "F")),
        )

    def test_sss_shared_side(self):
        geometry = {"A": (0.0, 0.0), "C": (4.0, 0.0), "B": (2.0, 3.0), "D": (2.0, 0.0)}
        fired(
            geometry,
            [
                equal_segments(("A", "B"), ("C", "B")),
                equal_segments(("A", "D"), ("C", "D")),
            ],
            "sss_congruence",
            congruent_triangles(("A", "B", "D"), ("C", "B", "D")),
        )

    def test_sas(self):
        fired(
            _CONG,
            [
                equal_segments(("B", "A"), ("E", "D")),
                equal_angles(("A", "B", "C"), ("D", "E", "F")),
                equal_segments(("B", "C"), ("E", "F")),
            ],
            "sas_congruence",
            congruent_triangles(("A", "B", "C"), ("D", "E", "F")),
        )

    def test_asa(self):
        fired(
            _CONG,
            [
                equal_angles(("B", "A", "C"), ("E", "D", "F")),
                equal_segments(("A", "B"), ("D", "E")),
                equal_angles(("A", "B", "C"), ("D", "E", "F")),
            ],
            "asa_congruence",
            congruent_triangles(("A", "B", "C"), ("D", "E", "F")),
        )

    def test_congruent_sides_and_angles(self):
        initial = [congruent_triangles(("A", "B", "C"), ("D", "E", "F"))]
        fired(_CONG, initial, "congruent_sides", equal_segments(("A", "B"), ("D", "E")))
        fired(_CONG, initial, "congruent_angles", equal_angles(("A", "B", "C"), ("D", "E", "F")))


_SIM = {
    "A": (0.0, 0.0), "B": (3.0, 0.0), "C": (1.0, 2.0),
    "D": (5.0, 5.0), "E": (6.5, 5.0), "F": (5.5, 6.0),
}


class TestSimilarity:
    def test_aa(self):
        fired(
            _SIM,
            [
                equal_angles(("B", "A", "C"), ("E", "D", "F")),
                equal_angles(("A", "B", "C"), ("D", "E", "F")),
            ],
            "aa_similarity",
            similar_triangles(("A", "B", "C"), ("D", "E", "F")),
        )

    def test_side_ratio(self):
        fired(
            _SIM,
            [
                similar_triangles(("A", "B", "C"), ("D", "E", "F")),
                segment_length(("A", "B"), 3),
                segment_length(("D", "E"), Fraction(3, 2)),
            ],
            "similar_side_ratio",
            segment_ratio(("A", "C"), ("D", "F"), 2),
        )


class TestCircleRules:
    def test_inscribed_angle(self):
        geometry = {
            "O": (0.0, 0.0),
            "A": _polar(2.0, 0.0),
            "B": _polar(2.0, 100.0),
            "C": _polar(2.0, 200.0),
        }
        sr = ("O", "A")
        fired(
            geometry,
            [
                on_circle("A", "O", sr),
                on_circle("B", "O", sr),
                on_circle("C", "O", sr),
                angle_measure(("A", "O", "B"), 100),
            ],
            "inscribed_angle",
            angle_measure(("A", "C", "B"), 50),
        )

    def test_inscribed_angle_minor_arc_blocked(self):
        geometry = {
            "O": (0.0, 0.0),
            "A": _polar(2.0, 0.0),
            "B": _polar(2.0, 100.0),
            "C": _polar(2.0, 50.0),  # inside the minor arc
        }
        sr = ("O", "A")
        graph = saturate_statements(
            SceneGeometry(geometry),
            [
                on_circle("A", "O", sr),
                on_circle("B", "O", sr),
                on_circle("C", "O", sr),
                angle_measure(("A", "O", "B"), 100),
            ],
        )
        assert angle_measure(("A", "C", "B"), 50) not in graph.index

    def test_thales(self):
        geometry = {
            "O": (0.0, 0.0),
            "A": (2.0, 0.0),
            "B": (-2.0, 0.0),
            "C": _polar(2.0, 120.0),
        }
        sr = ("O", "A")
        fired(
            geometry,
            [
                on_circle("A", "O", sr),
                on_circle("B", "O", sr),
                on_circle("C", "O", sr),
                midpoint("O", ("A", "B")),
            ],
            "thales_right_angle",
            right_angle(("A", "C", "B")),
        )


class TestAlgebraicRules:
    EQ = {"A": (0.0, 0.0), "B": (2.0, 0.0), "C": (0.0, 1.0), "D": (2.0, 1.0), "E": (0.0, 2.0), "F": (2.0, 2.0)}

    def test_equal_segments_transitive(self):
        fired(
            self.EQ,
            [equal_segments(("A", "B"), ("C", "D")), equal_segments(("C", "D"), ("E", "F"))],
            "equal_segments_transitive",
            equal_segments(("A", "B"), ("E", "F")),
        )

    def test_equal_angles_transitive(self):
        geometry = {
            "A": (2.0, 0.0), "B": (0.0, 0.0), "C": _polar(2.0, 40.0),
            "D": (5.0, 0.0), "E": (3.0, 0.0), "F": (3.0 + 2.0 * math.cos(math.radians(40.0)), 2.0 * math.sin(math.radians(40.0))),
            "G": (8.0, 0.0), "H": (6.0, 0.0), "I": (6.0 + 2.0 * math.cos(math.radians(40.0)), 2.0 * math.sin(math.radians(40.0))),
        }
        fired(
            geometry,
            [
                equal_angles(("A", "B", "C"), ("D", "E", "F")),
                equal_angles(("D", "E", "F"), ("G", "H", "I")),
            ],
            "equal_angles_transitive",
            equal_angles(("A", "B", "C"), ("G", "H", "I")),
        )

    def test_segment_length_substitution(self):
        fired(
            self.EQ,
            [equal_segments(("A", "B"), ("C", "D")), segment_length(("A", "B"), 2)],
            "segment_length_substitution",
            segment_length(("C", "D"), 2),
        )

    def test_angle_measure_substitution(self):
        fired(
            ISO,
            [
                equal_angles(("A", "B", "C"), ("A", "C", "B")),
                angle_measure(("A", "B", "C"), 65),
            ],
            "angle_measure_substitution",
            angle_measure(("A", "C", "B"), 65),
        )

    def test_ratio_length_substitution(self):
        geometry = {"B": (0.0, 0.0), "D": (2.0, 0.0), "C": (6.0, 0.0)}
        fired(
            geometry,
            [
                segment_ratio(("B", "D"), ("B", "C"), Fraction(1, 3)),
                segment_length(("B", "C"), 6),
            ],
            "ratio_length_substitution",
            segment_length(("B", "D"), 2),
        )


    def test_substituted_length_no_float_holds_is_dropped(self):
        geometry = {"B": (0.0, 0.0), "D": (2.0, 0.0), "C": (6.0, 0.0)}
        for size in (10**200, Fraction(1, 10**200)):  # BD = 10^400, or 1/10^400
            ratio = segment_ratio(("B", "D"), ("B", "C"), size)
            assert matched(geometry, [ratio, segment_length(("B", "C"), size)], "ratio_length_substitution") == []


def matched(points, statements, rule_id):
    """What the rule's matcher yields when the last statement is the newest."""
    ctx = MatchContext.of(SceneGeometry(points), statements)
    return list(RULES_BY_ID[rule_id].match(ctx, len(statements) - 1))


_EQUILATERAL = {"A": (0.0, 0.0), "B": (4.0, 0.0), "C": (2.0, 2.0 * math.sqrt(3.0))}


class TestTrianglePrefilters:
    """The congruence and similarity matchers skip facts that cannot take
    part in a match; every path that can fire still fires, and a near miss
    next to it does not."""

    ABC_DEF = congruent_triangles(("A", "B", "C"), ("D", "E", "F"))

    def test_sas_on_new_side_equality(self):
        angle_b = equal_angles(("A", "B", "C"), ("D", "E", "F"))
        for first, last in (
            (equal_segments(("B", "A"), ("E", "D")), equal_segments(("B", "C"), ("E", "F"))),
            (equal_segments(("B", "C"), ("E", "F")), equal_segments(("B", "A"), ("E", "D"))),
        ):
            assert matched(_CONG, [first, angle_b, last], "sas_congruence") == [
                ((0, 1, 2), self.ABC_DEF)
            ]
        # AC = DF does not touch the angle's vertices B and E: side-side-angle
        near_miss = [
            equal_segments(("B", "A"), ("E", "D")),
            angle_b,
            equal_segments(("A", "C"), ("D", "F")),
        ]
        assert matched(_CONG, near_miss, "sas_congruence") == []

    def test_asa_completed_by_new_side(self):
        angles = [
            equal_angles(("B", "A", "C"), ("E", "D", "F")),
            equal_angles(("A", "C", "B"), ("D", "F", "E")),  # vertices C, F: skipped
            equal_angles(("A", "B", "C"), ("D", "E", "F")),
        ]
        found = matched(_CONG, [*angles, equal_segments(("A", "B"), ("D", "E"))], "asa_congruence")
        assert found == [((0, 2, 3), self.ABC_DEF)]
        # AC = DF is not the side between the angles at A and B
        near_miss = [angles[0], angles[2], equal_segments(("A", "C"), ("D", "F"))]
        assert matched(_CONG, near_miss, "asa_congruence") == []

    def test_asa_and_aa_from_second_angle(self):
        angle_a = equal_angles(("B", "A", "C"), ("E", "D", "F"))
        side = equal_segments(("A", "B"), ("D", "E"))
        angle_b = equal_angles(("A", "B", "C"), ("D", "E", "F"))
        assert matched(_CONG, [angle_a, side, angle_b], "asa_congruence") == [
            ((0, 1, 2), self.ABC_DEF)
        ]
        assert matched(_SIM, [angle_a, angle_b], "aa_similarity") == [
            ((0, 1), similar_triangles(("A", "B", "C"), ("D", "E", "F")))
        ]
        # the second angle pairs triangle ABC with DEG, not with DEF
        points = {**_CONG, "G": (6.0, 7.0)}
        other_pair = equal_angles(("A", "B", "C"), ("D", "E", "G"))
        assert matched(points, [angle_a, side, other_pair], "asa_congruence") == []
        assert matched(points, [angle_a, other_pair], "aa_similarity") == []

    def test_asa_and_aa_with_triangles_listed_in_either_order(self):
        # canonical order lists BCD first in the angle-A fact and AEF first in
        # the angle-E fact
        points = {
            "A": (0.0, 0.0), "E": (3.0, 0.0), "F": (1.0, 2.0),
            "B": (5.0, 5.0), "C": (8.0, 5.0), "D": (6.0, 7.0),
        }
        angle_a = equal_angles(("E", "A", "F"), ("C", "B", "D"))
        angle_e = equal_angles(("A", "E", "F"), ("B", "C", "D"))
        assert angle_a.groups[0] == ("C", "B", "D") and angle_e.groups[0] == ("A", "E", "F")
        side = equal_segments(("A", "E"), ("B", "C"))
        pair = (("A", "E", "F"), ("B", "C", "D"))
        assert matched(points, [angle_a, side, angle_e], "asa_congruence") == [
            ((0, 1, 2), congruent_triangles(*pair))
        ]
        assert matched(points, [angle_a, angle_e], "aa_similarity") == [
            ((0, 1), similar_triangles(*pair))
        ]

    def test_asa_and_aa_from_base_angles_of_one_triangle(self):
        # both facts relate two angles of the same triangle ABC
        b_c = equal_angles(("A", "B", "C"), ("A", "C", "B"))
        a_b = equal_angles(("B", "A", "C"), ("A", "B", "C"))
        side = equal_segments(("B", "C"), ("A", "B"))
        relabelled = (("B", "C", "A"), ("A", "B", "C"))  # B->A, C->B, A->C
        asa = matched(_EQUILATERAL, [b_c, side, a_b], "asa_congruence")
        assert ((0, 1, 2), congruent_triangles(*relabelled)) in asa
        aa = matched(_EQUILATERAL, [b_c, a_b], "aa_similarity")
        assert ((0, 1), similar_triangles(*relabelled)) in aa
        # a second fact on triangle ABC and some other triangle cannot match
        points = {**_EQUILATERAL, "D": (2.0, -3.0)}
        mixed = equal_angles(("B", "A", "C"), ("A", "D", "B"))
        assert matched(points, [b_c, side, mixed], "asa_congruence") == []
        assert matched(points, [b_c, mixed], "aa_similarity") == []

    def test_sss_skips_an_equality_off_one_triangle(self):
        # SSS keeps an earlier equality only when one of its segments meets
        # AB and the other meets DE; AC = GH and AC = BC meet only ABC
        points = {**_CONG, "G": (6.0, 7.0), "H": (9.0, 8.0)}
        ab = equal_segments(("A", "B"), ("D", "E"))
        bc = equal_segments(("B", "C"), ("E", "F"))
        ac = equal_segments(("A", "C"), ("D", "F"))
        assert matched(points, [bc, ac, ab], "sss_congruence") == [((0, 1, 2), self.ABC_DEF)]
        for off in (equal_segments(("A", "C"), ("G", "H")), equal_segments(("A", "C"), ("B", "C"))):
            assert matched(points, [bc, off, ab], "sss_congruence") == []
            assert matched(points, [off, ab], "sss_congruence") == []

    def test_sss_shared_side_with_either_equality_newest(self):
        # AB = CB and AD = CD with BD shared: each equality meets both of the
        # other's segments, whichever of them is new
        kite = {"A": (0.0, 0.0), "C": (4.0, 0.0), "B": (2.0, 3.0), "D": (2.0, 0.0)}
        sides = [equal_segments(("A", "B"), ("C", "B")), equal_segments(("A", "D"), ("C", "D"))]
        abd_cbd = congruent_triangles(("A", "B", "D"), ("C", "B", "D"))
        for order in (sides, sides[::-1]):
            assert matched(kite, order, "sss_congruence") == [((0, 1), abd_cbd)]

    def test_asa_on_new_side_with_angle_facts_in_either_order(self):
        angle_a = equal_angles(("B", "A", "C"), ("E", "D", "F"))
        angle_b = equal_angles(("A", "B", "C"), ("D", "E", "F"))
        side = equal_segments(("A", "B"), ("D", "E"))
        for first, second in ((angle_a, angle_b), (angle_b, angle_a)):
            assert matched(_CONG, [first, second, side], "asa_congruence") == [
                ((0, 1, 2), self.ABC_DEF)
            ]
        # two triangle pairs on the side AB = DE, with their angle facts
        # interleaved: fires come in ascending (first, second) fact order
        points = {**_CONG, "G": (1.0, -2.0), "H": (6.0, 3.0)}
        facts = [
            angle_a,
            equal_angles(("B", "A", "G"), ("E", "D", "H")),
            equal_angles(("A", "B", "G"), ("D", "E", "H")),
            angle_b,
            side,
        ]
        assert matched(points, facts, "asa_congruence") == [
            ((0, 3, 4), self.ABC_DEF),
            ((1, 2, 4), congruent_triangles(("A", "B", "G"), ("D", "E", "H"))),
        ]
        # an angle fact on another triangle pair is not paired with angle A
        points = {**_CONG, "G": (6.0, 7.0)}
        other_pair = equal_angles(("A", "B", "C"), ("D", "E", "G"))
        for first, second in ((angle_a, other_pair), (other_pair, angle_a)):
            assert matched(points, [first, second, side], "asa_congruence") == []


class TestFiresOnce:
    def test_sss_reports_each_fire_once(self):
        # each side equality can be read in either direction, and reading the
        # new one the other way round gives the same correspondence reversed
        sides = [
            equal_segments(("A", "B"), ("D", "E")),
            equal_segments(("B", "C"), ("E", "F")),
            equal_segments(("A", "C"), ("D", "F")),
        ]
        assert matched(_CONG, sides, "sss_congruence") == [
            ((0, 1, 2), congruent_triangles(("A", "B", "C"), ("D", "E", "F")))
        ]

    def test_fires_on_one_triangle_reported_once(self):
        # the facts relate angles and sides of the one triangle ABC, so a
        # labelling the matchers do not try would give the same fire again,
        # or its reverse, which is the same statement
        b_c = equal_angles(("A", "B", "C"), ("A", "C", "B"))
        a_b = equal_angles(("B", "A", "C"), ("A", "B", "C"))
        bc_ab = equal_segments(("B", "C"), ("A", "B"))
        ab_ac = equal_segments(("A", "B"), ("A", "C"))
        rotated = (("A", "B", "C"), ("B", "C", "A"))
        reflected = congruent_triangles(("A", "B", "C"), ("A", "C", "B"))
        cases = [
            ([b_c, a_b], "aa_similarity", [((0, 1), similar_triangles(*rotated))]),
            ([b_c, bc_ab, a_b], "asa_congruence", [((0, 1, 2), congruent_triangles(*rotated))]),
            ([a_b, b_c, bc_ab], "asa_congruence", [((0, 1, 2), congruent_triangles(*rotated))]),
            ([ab_ac, b_c], "sas_congruence", [((0, 1), reflected)]),
            ([b_c, ab_ac], "sas_congruence", [((0, 1), reflected)]),
            (
                [bc_ab, equal_segments(("B", "C"), ("A", "C")), ab_ac],
                "sss_congruence",
                [((0, 1, 2), congruent_triangles(*rotated))],
            ),
        ]
        for facts, rule_id, expected in cases:
            assert matched(_EQUILATERAL, facts, rule_id) == expected, rule_id

    def test_each_triangle_conclusion_is_built_once(self, monkeypatch):
        # each (premises, correspondence) is yielded once per matcher call,
        # and its statement is built once
        built, fired, calls = [], [], []

        def counting(factory):
            def build(*args):
                stmt = factory(*args)
                built.append(stmt)
                return stmt

            return build

        for name in ("congruent_triangles", "similar_triangles"):
            monkeypatch.setattr(rules_module, name, counting(getattr(rules_module, name)))

        def recording(rule):
            def match(ctx, sid):
                calls.append([])
                for fire in rule.match(ctx, sid):
                    fired.append(fire[1])
                    calls[-1].append(fire)
                    yield fire

            return dataclasses.replace(rule, match=match)

        triangle_rules = {"sss_congruence", "sas_congruence", "asa_congruence", "aa_similarity"}
        traced = tuple(recording(r) if r.id in triangle_rules else r for r in DEFAULT_RULES)
        for seed in range(40):
            try:
                scene = _build_scene(seed)
            except ConstructionError:
                continue
            saturate(scene, rules=traced)
        assert len(built) == len(fired) > 0
        assert built == fired
        assert all(len(set(fires)) == len(fires) for fires in calls)


class TestReplay:
    """``Rule.recheck`` accepts exactly what the rule's matcher derives."""

    def test_saturated_transitions_replay(self):
        replayed: set[str] = set()
        for seed in range(0, 300, 10):
            try:
                scene = _build_scene(seed)
            except ConstructionError:
                continue
            graph = saturate(scene)
            assert_replays(scene.geometry, graph)
            replayed.update(t.rule for t in graph.transitions)
        assert len(replayed) >= 18, sorted(replayed)

    # isosceles_converse and pythagoras_leg never fire on seeds 0-299; their
    # hand-built scenes above replay through ``fired``

    def test_wrong_rule_rejected(self):
        geometry = SceneGeometry(ISO)
        premise = equal_angles(("A", "B", "C"), ("A", "C", "B"))
        conclusion = equal_segments(("A", "B"), ("A", "C"))
        assert RULES_BY_ID["isosceles_converse"].recheck(geometry, [premise], conclusion)
        for rule in DEFAULT_RULES:
            if rule.id != "isosceles_converse":
                assert not rule.recheck(geometry, [premise], conclusion), rule.id

    def test_off_trigger_last_premise_refused(self):
        # guardless matchers assume a trigger predicate; replay must not hand
        # them anything else, since verify replays parsed outside input
        geometry = SceneGeometry(_CONG)
        congruent = congruent_triangles(("A", "B", "C"), ("D", "E", "F"))
        one_of_each = {
            Predicate.COLLINEAR: collinear("A", "B", "C"),
            Predicate.PARALLEL: parallel(("A", "B"), ("D", "E")),
            Predicate.PERPENDICULAR: perpendicular(("A", "B"), ("B", "C")),
            Predicate.EQUAL_SEGMENTS: equal_segments(("A", "B"), ("D", "E")),
            Predicate.EQUAL_ANGLES: equal_angles(("A", "B", "C"), ("D", "E", "F")),
            Predicate.SEGMENT_LENGTH: segment_length(("A", "B"), 3),
            Predicate.ANGLE_MEASURE: angle_measure(("A", "B", "C"), 60),
            Predicate.RIGHT_ANGLE: right_angle(("A", "B", "C")),
            Predicate.MIDPOINT: midpoint("C", ("A", "B")),
            Predicate.ON_CIRCLE: on_circle("B", "A", ("A", "C")),
            Predicate.CONGRUENT_TRIANGLES: congruent,
            Predicate.SIMILAR_TRIANGLES: similar_triangles(("A", "B", "C"), ("D", "E", "F")),
            Predicate.SEGMENT_RATIO: segment_ratio(("A", "B"), ("D", "E"), Fraction(1, 2)),
        }
        assert set(one_of_each) == set(Predicate)
        for rule in DEFAULT_RULES:
            assert rule.triggers, rule.id
            for pred in set(Predicate) - rule.triggers:
                for cited in ([one_of_each[pred]], [*one_of_each.values(), one_of_each[pred]]):
                    assert not rule.recheck(geometry, cited, congruent), (rule.id, pred)

    def test_premises_must_be_exact(self):
        geometry = SceneGeometry(_CONG)
        angle_a = equal_angles(("B", "A", "C"), ("E", "D", "F"))
        side = equal_segments(("A", "B"), ("D", "E"))
        angle_b = equal_angles(("A", "B", "C"), ("D", "E", "F"))
        asa = RULES_BY_ID["asa_congruence"]
        conclusion = congruent_triangles(("A", "B", "C"), ("D", "E", "F"))
        assert asa.recheck(geometry, [angle_a, side, angle_b], conclusion)
        assert not asa.recheck(geometry, [angle_a, angle_b], conclusion)  # side dropped
        assert not asa.recheck(geometry, [angle_a, side], conclusion)  # angle dropped
        extra = equal_segments(("B", "C"), ("E", "F"))  # true, but not cited by ASA
        assert not asa.recheck(geometry, [angle_a, side, angle_b, extra], conclusion)
        assert not asa.recheck(geometry, [extra, angle_a, side, angle_b], conclusion)
        assert not asa.recheck(geometry, [angle_a, side, angle_b, angle_b], conclusion)
        assert not asa.recheck(geometry, [], conclusion)
        # the conclusion must be the one derived, not another true statement
        similar = similar_triangles(("A", "B", "C"), ("D", "E", "F"))
        assert not asa.recheck(geometry, [angle_a, side, angle_b], similar)


class TestCatalog:
    def test_every_rule_has_unique_id(self):
        assert len(RULES_BY_ID) == len(DEFAULT_RULES)

    def test_rule_set_matches_benchmark(self):
        # perfbench reports one rules.<id>.s metric per rule and exits 3 when
        # the metrics it makes differ from those BENCHMARK.json declares
        spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
        names = [metric["name"] for metric in spec["per_layer"]]
        timed = {m[1] for m in map(re.compile(r"rules\.(\w+)\.s").fullmatch, names) if m}
        fired = {m[1] for m in map(re.compile(r"rules\.(\w+)\.(?:dup_)?fires").fullmatch, names) if m}
        ids = {rule.id for rule in DEFAULT_RULES}
        hint = "a rule change needs a benchmark-only change to BENCHMARK.json first"
        assert ids == timed, (
            f"{hint}: only in DEFAULT_RULES {sorted(ids - timed)}, "
            f"only in BENCHMARK.json {sorted(timed - ids)}"
        )
        assert fired <= ids, f"{hint}: BENCHMARK.json counts fires of {sorted(fired - ids)}"

    def test_soundness_on_random_scenes(self):
        # no rule may ever derive a numerically false conclusion
        generators = sorted(BASE_GENERATORS)
        for seed in range(150):
            scene = generate_base_scene(generators[seed % len(generators)], seed)
            scene = extend_scene(scene, 3, seed + 1)
            graph = saturate(scene)
            for i, stmt in enumerate(graph.statements):
                assert scene.geometry.check_statement(stmt).holds, (scene.generator, seed, stmt)

    def test_rules_fired_across_catalog(self):
        # the random sweep should exercise most of the catalog
        used: set[str] = set()
        generators = sorted(BASE_GENERATORS)
        for seed in range(120):
            scene = generate_base_scene(generators[seed % len(generators)], seed)
            scene = extend_scene(scene, 4, seed + 2)
            graph = saturate(scene)
            used.update(t.rule for t in graph.transitions)
        assert len(used) >= 18, sorted(used)
