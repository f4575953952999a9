import xml.etree.ElementTree as ET

import pytest

from geoforge.constructions import extend_scene, generate_base_scene
from geoforge.render import CANVAS, render_svg

NS = {"svg": "http://www.w3.org/2000/svg"}


def _lines(svg: str):
    return ET.fromstring(svg).findall("svg:line", NS)


def _texts(svg: str):
    return ET.fromstring(svg).findall("svg:text", NS)


class TestRenderSvg:
    def test_right_triangle_elements(self):
        scene = generate_base_scene("right_triangle", 0)
        svg = render_svg(scene)
        root = ET.fromstring(svg)
        wide = [
            line
            for line in root.findall("svg:line", NS)
            if float(line.get("stroke-width")) > 1.5
        ]
        assert len(wide) == 3  # the three sides
        labels = {t.text for t in root.findall("svg:text", NS)}
        assert labels == set(scene.geometry.points)
        assert len(root.findall("svg:path", NS)) == 1  # one right-angle square

    def test_determinism(self):
        scene = extend_scene(generate_base_scene("parallelogram", 3), 3, 4)
        assert render_svg(scene) == render_svg(scene)

    def test_circle_scene_has_circle_element(self):
        scene = generate_base_scene("circle_inscribed_triangle", 2)
        root = ET.fromstring(render_svg(scene))
        circles = [
            c
            for c in root.findall("svg:circle", NS)
            if c.get("fill") == "none"  # point dots are filled
        ]
        assert len(circles) == 1
        radius = scene.geometry.distance("O", "A")
        assert float(circles[0].get("r")) == pytest.approx(
            radius * _scale_of(scene), abs=1e-3
        )

    def test_equal_tick_marks_present(self):
        # AB = AC: one thin tick line across each of the two segments
        scene = generate_base_scene("isosceles_triangle", 1)
        lines = _lines(render_svg(scene))
        ticks = [line for line in lines if float(line.get("stroke-width")) < 1.5]
        assert len(ticks) == 2
        assert len(lines) == 3 + len(ticks)

    def test_all_points_kept_inside_viewbox(self):
        scene = extend_scene(generate_base_scene("trapezoid", 5), 4, 6)
        root = ET.fromstring(render_svg(scene))
        _, _, width, height = (float(x) for x in root.get("viewBox").split())
        for line in root.findall("svg:line", NS):
            for attr in ("x1", "x2"):
                assert -1e-6 <= float(line.get(attr)) <= width + 1e-6
            for attr in ("y1", "y2"):
                assert -1e-6 <= float(line.get(attr)) <= height + 1e-6


def _scale_of(scene) -> float:
    x0, y0, x1, y1 = scene.geometry.bbox()
    span = max(x1 - x0, y1 - y0, 1e-9)
    return CANVAS / (span + 2 * 0.05 * span)


class TestFidelity:
    @pytest.mark.parametrize("generator", ["square", "scalene_triangle", "circle_diameter_point"])
    def test_segments_are_affine_images(self, generator):
        scene = generate_base_scene(generator, 4)
        svg = render_svg(scene)
        geom = scene.geometry
        x0, y0, x1, y1 = geom.bbox()
        span = max(x1 - x0, y1 - y0, 1e-9)
        margin = 0.05 * span
        scale = CANVAS / (span + 2 * margin)

        def expect(p):
            return ((p[0] - x0 + margin) * scale, (y1 - p[1] + margin) * scale)

        expected_endpoints = {
            tuple(round(v, 2) for v in expect(p)) for p in geom.points.values()
        }
        wide = [
            line
            for line in _lines(svg)
            if float(line.get("stroke-width")) > 1.5
        ]
        assert wide
        for line in wide:
            for px, py in ((line.get("x1"), line.get("y1")), (line.get("x2"), line.get("y2"))):
                key = (round(float(px), 2), round(float(py), 2))
                assert key in expected_endpoints

    def test_label_anchors_distinct(self):
        for seed in range(15):
            scene = extend_scene(generate_base_scene("rectangle", seed), 4, seed)
            anchors = [
                (float(t.get("x")), float(t.get("y"))) for t in _texts(render_svg(scene))
            ]
            assert len(anchors) == len(set(anchors))
