import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoforge.geometry import (
    DegenerateMeasurementError,
    GeometryError,
    SceneGeometry,
    UnknownScenePointError,
)
from geoforge.pipeline import _build_scene
from geoforge.statements import (
    angle_measure,
    collinear,
    congruent_triangles,
    equal_segments,
    midpoint,
    on_circle,
    parallel,
    parse_statement,
    perpendicular,
    right_angle,
    segment_length,
    segment_ratio,
    similar_triangles,
)


@pytest.fixture
def right_345():
    return SceneGeometry({"A": (0.0, 0.0), "B": (3.0, 0.0), "C": (0.0, 4.0)})


class TestCheckStatement:
    def test_isosceles_by_symmetry(self):
        g = SceneGeometry({"A": (0.0, 0.0), "B": (2.0, 0.0), "C": (1.0, 1.0)})
        assert g.check_statement(equal_segments(("A", "C"), ("B", "C"))).holds

    def test_collinear_on_axis(self):
        g = SceneGeometry({"A": (0.0, 0.0), "B": (1.0, 0.0), "C": (2.0, 0.0)})
        assert g.check_statement(collinear("A", "B", "C")).holds

    def test_345_hypotenuse(self, right_345):
        assert right_345.check_statement(segment_length(("B", "C"), 5)).holds

    def test_failing_statement_reports_residual(self, right_345):
        verdict = right_345.check_statement(segment_length(("B", "C"), 6))
        assert not verdict.holds
        assert verdict.residual > 0.1

    def test_unknown_point(self, right_345):
        with pytest.raises(UnknownScenePointError):
            right_345.check_statement(segment_length(("B", "Z"), 5))

    def test_right_angle_and_measure(self, right_345):
        assert right_345.check_statement(right_angle(("B", "A", "C"))).holds
        assert right_345.check_statement(angle_measure(("B", "A", "C"), 90)).holds

    def test_parallel_perpendicular_midpoint(self):
        g = SceneGeometry(
            {"A": (0.0, 0.0), "B": (4.0, 0.0), "C": (1.0, 2.0), "D": (5.0, 2.0), "M": (2.0, 0.0)}
        )
        assert g.check_statement(parallel(("A", "B"), ("C", "D"))).holds
        assert not g.check_statement(perpendicular(("A", "B"), ("C", "D"))).holds
        assert g.check_statement(midpoint("M", ("A", "B"))).holds

    def test_circle_membership(self):
        g = SceneGeometry({"O": (0.0, 0.0), "A": (2.0, 0.0), "P": (0.0, 2.0)})
        assert g.check_statement(on_circle("P", "O", ("O", "A"))).holds

    def test_triangle_pairs(self):
        g = SceneGeometry(
            {
                "A": (0.0, 0.0), "B": (3.0, 0.0), "C": (0.0, 4.0),
                "D": (10.0, 10.0), "E": (7.0, 10.0), "F": (10.0, 6.0),
                "G": (4.0, 8.0), "H": (5.5, 8.0), "I": (4.0, 6.0),
            }
        )
        assert g.check_statement(congruent_triangles(("A", "B", "C"), ("D", "E", "F"))).holds
        assert g.check_statement(similar_triangles(("A", "B", "C"), ("G", "H", "I"))).holds
        assert not g.check_statement(congruent_triangles(("A", "B", "C"), ("G", "H", "I"))).holds

    def test_query_form_rejected(self, right_345):
        with pytest.raises(GeometryError):
            right_345.check_statement(parse_statement("seg_len(A,B)"))


class TestCheckScene:
    def test_valid_isosceles(self):
        g = SceneGeometry({"A": (1.0, 2.0), "B": (0.0, 0.0), "C": (2.0, 0.0)})
        verdict = g.check_scene([equal_segments(("A", "B"), ("A", "C"))])
        assert verdict.valid

    def test_coincident_points_degenerate(self):
        g = SceneGeometry({"A": (0.0, 0.0), "B": (1e-9, 0.0), "C": (2.0, 0.0)})
        verdict = g.check_scene([])
        assert not verdict.valid
        assert any("d_min" in d for d in verdict.degeneracies)

    def test_failing_statement_listed(self):
        g = SceneGeometry({"A": (0.0, 0.0), "B": (4.0, 0.0), "C": (1.0, 2.0), "D": (5.0, 3.0)})
        bad = parallel(("A", "B"), ("C", "D"))
        verdict = g.check_scene([bad])
        assert not verdict.valid
        assert bad in verdict.failing

    def test_thin_triangle_rejected(self):
        g = SceneGeometry({"A": (0.0, 0.0), "B": (10.0, 0.0), "C": (5.0, 0.05)})
        verdict = g.check_scene([angle_measure(("A", "B", "C"), Fraction(57, 100))])
        assert any("theta_min" in d for d in verdict.degeneracies)


def _direct_min_angle(g: SceneGeometry, a: str, b: str, c: str) -> float | None:
    try:
        return min(g.angle_deg(b, a, c), g.angle_deg(a, b, c), g.angle_deg(a, c, b))
    except DegenerateMeasurementError:
        return None


class TestTriangleMemo:
    @pytest.mark.parametrize("seed", [0, 2, 5, 9, 14, 23])
    def test_memo_equals_direct_measures_in_every_order(self, seed):
        # the built scene's memo was filled while its points were being placed
        built = _build_scene(seed).geometry
        for tri in combinations(sorted(built.points), 3):
            angle = _direct_min_angle(built, *tri)
            residual = built.statement_residual(collinear(*tri))
            for order in permutations(tri):
                fresh = SceneGeometry(built.points)
                assert fresh.min_angle_deg(*order) == angle
                assert fresh.collinear_residual(*order) == residual
                assert built.min_angle_deg(*order) == angle
                assert built.collinear_residual(*order) == residual

    def test_zero_length_side(self):
        g = SceneGeometry({"A": (0.0, 0.0), "B": (0.0, 0.0), "C": (1.0, 0.0)})
        for order in permutations("ABC"):
            assert g.min_angle_deg(*order) is None
        assert g.collinear_residual("C", "B", "A") == math.inf

    def test_extended_children_keep_their_own_measures(self):
        parent = SceneGeometry({"A": (0.0, 0.0), "B": (4.0, 0.0), "C": (0.0, 3.0)})
        base_angle = parent.min_angle_deg("A", "B", "C")
        on_line = parent.extended({"D": (2.0, 0.0)})
        off_line = parent.extended({"D": (2.0, 2.0)})
        assert on_line.min_angle_deg("A", "B", "D") == 0.0
        assert on_line.collinear_residual("A", "B", "D") == 0.0
        assert off_line.min_angle_deg("D", "A", "B") == pytest.approx(45.0)
        assert off_line.collinear_residual("D", "A", "B") > 0.5
        # asking the second child did not change the first, nor the parent
        assert on_line.min_angle_deg("B", "D", "A") == 0.0
        with pytest.raises(UnknownScenePointError):
            parent.min_angle_deg("A", "B", "D")
        for child in (on_line, off_line):
            assert child.min_angle_deg("C", "B", "A") == base_angle

    def test_extended_rejects_moving_a_point(self):
        g = SceneGeometry({"A": (0.0, 0.0), "B": (4.0, 0.0)})
        with pytest.raises(GeometryError):
            g.extended({"B": (5.0, 0.0)})


_DIMENSIONLESS = [
    collinear("A", "B", "C"),
    equal_segments(("A", "C"), ("B", "C")),
    angle_measure(("A", "C", "B"), 90),
    right_angle(("A", "C", "B")),
    segment_ratio(("A", "C"), ("A", "B"), "7071/10000"),
]


class TestInvariance:
    @given(
        st.floats(-3.0, 3.0),
        st.floats(-50.0, 50.0),
        st.floats(-50.0, 50.0),
        st.floats(0.1, 20.0),
    )
    @settings(max_examples=150)
    def test_rigid_motion_and_scale(self, theta, tx, ty, scale):
        base = {"A": (0.0, 0.0), "B": (2.0, 0.0), "C": (1.0, 1.0)}
        cos, sin = math.cos(theta), math.sin(theta)
        moved = {
            k: (scale * (x * cos - y * sin) + tx, scale * (x * sin + y * cos) + ty)
            for k, (x, y) in base.items()
        }
        g0, g1 = SceneGeometry(base), SceneGeometry(moved)
        for s in _DIMENSIONLESS:
            assert g0.check_statement(s).holds == g1.check_statement(s).holds

    @given(st.floats(0.25, 8.0))
    def test_length_scales_linearly(self, scale):
        base = {"A": (0.0, 0.0), "B": (2.0, 0.0)}
        g = SceneGeometry({k: (x * scale, y * scale) for k, (x, y) in base.items()})
        assert g.distance("A", "B") == pytest.approx(2.0 * scale, rel=1e-12)

    def test_residual_changes_linearly_with_perturbation(self):
        # finite-difference sanity: residual growth is O(delta)
        rng = random.Random(1)
        s = collinear("A", "B", "C")
        for _ in range(20):
            delta = 10.0 ** rng.uniform(-8, -3)
            g = SceneGeometry({"A": (0.0, 0.0), "B": (1.0, 0.0), "C": (2.0, delta)})
            residual = g.statement_residual(s)
            assert residual == pytest.approx(delta / 2.0, rel=1e-2)
