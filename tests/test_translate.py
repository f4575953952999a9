import json
import re

import pytest

from geoforge.constructions import extend_scene, generate_base_scene
from geoforge.pipeline import PipelineConfig, build_record, generate
from geoforge.reasoner import SolutionStep, saturate
from geoforge.rules import DEFAULT_RULES
from geoforge.sampler import ProblemDraft, ReasoningPath, geo_explore
from geoforge.statements import (
    Predicate,
    Statement,
    angle_measure,
    equal_angles,
    equal_segments,
    parse_statement,
    right_angle,
)
from geoforge.translate import (
    RETRIES,
    _RULE_PHRASES,
    BackendUnavailableError,
    ExternalBackend,
    TemplateBackend,
    TranslationError,
    connect_thinking,
    statement_nl,
    translate_steps,
)

BACKEND = TemplateBackend()

# numbers not glued to a point label (so A1 does not count as "1")
_NUMBER = re.compile(r"(?<![A-Za-z0-9])\d+(?:/\d+)?(?:\.\d+)?")


def _iso_step() -> SolutionStep:
    return SolutionStep(
        premises=(equal_segments(("A", "B"), ("A", "C")),),
        rule="isosceles_base_angles",
        conclusion=equal_angles(("A", "B", "C"), ("A", "C", "B")),
    )


def _seg(group):
    return "".join(group)


def _ang(group):
    return "∠" + "".join(group)


def _tri(group):
    return "△" + "".join(group)


def _reference_statement_nl(s: Statement) -> str:
    """The chain of ``is`` tests ``statement_nl`` was before its table."""
    p = s.predicate
    g = s.groups
    if p is Predicate.COLLINEAR:
        a, b, c = g[0]
        return f"points {a}, {b} and {c} are collinear"
    if p is Predicate.PARALLEL:
        return f"{_seg(g[0])} ∥ {_seg(g[1])}"
    if p is Predicate.PERPENDICULAR:
        return f"{_seg(g[0])} ⊥ {_seg(g[1])}"
    if p is Predicate.EQUAL_SEGMENTS:
        return f"{_seg(g[0])} = {_seg(g[1])}"
    if p is Predicate.EQUAL_ANGLES:
        return f"{_ang(g[0])} = {_ang(g[1])}"
    if p is Predicate.SEGMENT_LENGTH:
        if s.value is None:
            return f"the length of {_seg(g[0])} is unknown"
        return f"{_seg(g[0])} = {s.value}"
    if p is Predicate.ANGLE_MEASURE:
        if s.value is None:
            return f"the measure of {_ang(g[0])} is unknown"
        return f"{_ang(g[0])} = {s.value}°"
    if p is Predicate.RIGHT_ANGLE:
        return f"{_ang(g[0])} is a right angle"
    if p is Predicate.MIDPOINT:
        return f"{g[0][0]} is the midpoint of {_seg(g[1])}"
    if p is Predicate.ON_CIRCLE:
        return f"{g[0][0]} lies on the circle centered at {g[1][0]} with radius {_seg(g[2])}"
    if p is Predicate.CONGRUENT_TRIANGLES:
        return f"{_tri(g[0])} ≅ {_tri(g[1])}"
    if p is Predicate.SIMILAR_TRIANGLES:
        return f"{_tri(g[0])} ∼ {_tri(g[1])}"
    if p is Predicate.SEGMENT_RATIO:
        if s.value is None:
            return f"the ratio {_seg(g[0])} / {_seg(g[1])} is unknown"
        return f"{_seg(g[0])} / {_seg(g[1])} = {s.value}"
    raise AssertionError(p)  # pragma: no cover - exhaustive


# one statement per predicate, and each value-bearing one with its value too
_ONE_PER_PREDICATE = (
    "collinear(A,B,C)",
    "parallel(A,B;C,D)",
    "perp(A,B;C,D)",
    "eq_seg(A,B;C,D)",
    "eq_angle(A,B,C;D,E,F)",
    "seg_len(A,B)",
    "seg_len(A,B;3/2)",
    "angle_val(A,B,C)",
    "angle_val(A,B,C;45)",
    "right_angle(A,B,C)",
    "midpoint(M;A,B)",
    "on_circle(P;O;O,A)",
    "congruent(A,B,C;D,E,F)",
    "similar(A,B,C;D,E,F)",
    "seg_ratio(A,B;C,D)",
    "seg_ratio(A,B;C,D;1/2)",
)


class TestStatementNl:
    def test_table_matches_reference_by_hand(self):
        statements = [parse_statement(t) for t in _ONE_PER_PREDICATE]
        assert {s.predicate for s in statements} == set(Predicate)
        for s in statements:
            assert statement_nl(s) == _reference_statement_nl(s), s.text()

    def test_table_matches_reference_on_generated_records(self, tmp_path):
        report = generate(PipelineConfig(seed_start=0, count=30), tmp_path)
        statements = set()
        for r in report.records:
            statements.update(r.premises)
            statements.add(r.target)
            for steps in (*r.solutions, r.wrong_branch or ()):
                for step in steps:
                    statements.update((*step.premises, step.conclusion))
        assert any(s.value is None for s in statements)  # a shown numeric target
        for s in statements:
            assert statement_nl(s) == _reference_statement_nl(s), s.text()

    def test_value_rendering(self):
        assert statement_nl(angle_measure(("A", "B", "C"), 45)) == "∠ABC = 45°"
        assert statement_nl(parse_statement("seg_ratio(A,B;C,D;1/2)")) == "AB / CD = 1/2"

    def test_right_angle(self):
        assert "right angle" in statement_nl(right_angle(("A", "B", "C")))


class TestTranslateSteps:
    def test_every_rule_has_a_phrase(self):
        # a new or renamed rule would otherwise read "applying a known theorem"
        assert set(_RULE_PHRASES) == {rule.id for rule in DEFAULT_RULES}

    def test_isosceles_template_sentence(self):
        assert translate_steps([_iso_step()], BACKEND) == [
            "Since AB = AC, triangle ABC is isosceles, so ∠ABC = ∠ACB."
        ]

    def test_empty_path(self):
        assert translate_steps([], BACKEND) == []

    def test_value_token_preserved(self):
        step = SolutionStep(
            premises=(right_angle(("A", "B", "C")),),
            rule="right_angle_measure",
            conclusion=angle_measure(("A", "B", "C"), 90),
        )
        (text,) = translate_steps([step], BACKEND)
        assert "90" in text

    def test_one_step_per_transition(self):
        scene = generate_base_scene("isosceles_triangle", 3)
        graph = saturate(scene)
        target = len(graph.statements) - 1
        path = geo_explore(graph, target, 0, 0.0)
        assert isinstance(path, ReasoningPath)
        steps = path.resolve(graph)
        assert translate_steps(steps, BACKEND) == [BACKEND.step_sentence(s) for s in steps]


class TestConnectThinking:
    def _steps(self, seed=7, extension=3):
        scene = extend_scene(generate_base_scene("isosceles_triangle", seed), extension, seed)
        graph = saturate(scene)
        target = len(graph.statements) - 1
        path = geo_explore(graph, target, 0, 0.0)
        return path.resolve(graph), graph.stmt(target)

    def test_structure(self):
        steps, target = self._steps()
        nl = translate_steps(steps, BACKEND)
        connected = connect_thinking(steps, nl, target, BACKEND)
        # each step after its bridge, whose goal-orientation clause ends in the target
        bridge_end = f"we can take the next step toward showing {statement_nl(target)}."
        for sentence in nl:
            at = connected.index(sentence)
            assert connected[:at].endswith(f"{bridge_end} ")
            connected = connected[at + len(sentence):]
        assert connected == " " + BACKEND.closing_sentence(target)

    def test_single_step_bridge_references_goal_only(self):
        step = _iso_step()
        nl = translate_steps([step], BACKEND)
        connected = connect_thinking([step], nl, step.conclusion, BACKEND)
        assert connected.startswith("Starting from the given premises")

    def test_bridge_cites_previous_conclusion(self):
        steps, target = self._steps()
        if len(steps) < 2:
            pytest.skip("need a two-step path")
        nl = translate_steps(steps, BACKEND)
        connected = connect_thinking(steps, nl, target, BACKEND)
        second_bridge = f"So far we have established that {statement_nl(steps[0].conclusion)}."
        assert f"{nl[0]} {second_bridge}" in connected

    def test_empty_rejected(self):
        with pytest.raises(TranslationError):
            connect_thinking([], [], _iso_step().conclusion, BACKEND)

    @pytest.mark.parametrize("seed", range(8))
    def test_faithfulness_numbers_and_labels(self, seed):
        # every label/value of the formal path appears; no foreign numbers
        scene = extend_scene(generate_base_scene(
            ["isosceles_triangle", "square", "circle_diameter_point", "parallelogram"][seed % 4],
            seed,
        ), 3, seed)
        graph = saturate(scene)
        for target in range(graph.n_initial, len(graph.statements)):
            path = geo_explore(graph, target, 0, 0.0)
            steps = path.resolve(graph)
            nl = translate_steps(steps, BACKEND)
            text = connect_thinking(steps, nl, graph.stmt(target), BACKEND)
            formal_numbers: set[str] = set()
            labels: set[str] = set()
            for step in steps:
                for stmt in (*step.premises, step.conclusion):
                    labels.update(*stmt.groups)
                    if stmt.value is not None:
                        formal_numbers.update(_NUMBER.findall(str(stmt.value)))
                        formal_numbers.add(str(stmt.value))
            for label in labels:
                assert label in text
            for token in _NUMBER.findall(text):
                parts = {token, *token.split("/")}
                assert parts & formal_numbers, f"foreign number {token!r} in output"


def _right_angle_step(c: str) -> SolutionStep:
    return SolutionStep(
        premises=(right_angle(("A", "B", c)),),
        rule="right_angle_measure",
        conclusion=angle_measure(("A", "B", c), 90),
    )


def _traceback_record(wrong, correct, backend):
    scene = generate_base_scene("isosceles_triangle", 0)
    draft = ProblemDraft(
        kind="proof",
        target=correct[-1].conclusion,
        solutions=(tuple(correct),),
        wrong_branch=tuple(wrong),
        cited=(frozenset(scene.initial_statements),) * 2,
    )
    record, _ = build_record(draft, scene, "scene", PipelineConfig(), 0, backend)
    return record


class TestTraceback:
    def test_narrative_frame(self):
        record = _traceback_record([_iso_step()], [_right_angle_step("D")], BACKEND)
        for text in (record.nl_solution, record.connection_thinking):
            assert "Re-examining the goal" in text
            pivot_at = text.index("Re-examining")
            assert text.index("isosceles") < pivot_at < text.index("90")

    def test_each_step_translated_once(self):
        # an external backend is asked once per wrong-branch step and twice
        # per primary step (its sentence and its bridge)
        wrong = [_iso_step(), _right_angle_step("E")]
        correct = [_right_angle_step(c) for c in "DFG"]
        transport = _FakeTransport()
        backend = ExternalBackend(endpoint="https://llm.invalid", model="m", transport=transport)
        record = _traceback_record(wrong, correct, backend)
        assert record.connection_thinking.startswith("Translated sentence.")
        assert len(transport.calls) == len(wrong) + 2 * len(correct)


class _FakeTransport:
    def __init__(self, fail_times=0):
        self.calls = []
        self.fail_times = fail_times

    def __call__(self, url, payload, timeout):
        self.calls.append((url, payload, timeout))
        if self.fail_times > 0:
            self.fail_times -= 1
            raise OSError("synthetic outage")
        return json.dumps(
            {"choices": [{"message": {"content": "Translated sentence."}}]}
        )


class TestExternalBackend:
    def test_wire_format(self):
        transport = _FakeTransport()
        backend = ExternalBackend(
            endpoint="https://llm.invalid/v1/chat", model="m-1", transport=transport
        )
        text = backend.step_sentence(_iso_step())
        assert text == "Translated sentence."
        url, payload, _ = transport.calls[0]
        assert url == "https://llm.invalid/v1/chat"
        assert payload["model"] == "m-1"
        assert payload["temperature"] == 0
        assert payload["messages"][0]["role"] == "system"
        assert "eq_seg(A,B;A,C)" in payload["messages"][1]["content"]

    def test_retry_then_success(self):
        transport = _FakeTransport(fail_times=1)
        backend = ExternalBackend(endpoint="https://llm.invalid", model="m", transport=transport)
        assert backend.step_sentence(_iso_step()) == "Translated sentence."
        assert len(transport.calls) == 2

    def test_exhausted_retries_surface(self):
        transport = _FakeTransport(fail_times=10)
        backend = ExternalBackend(endpoint="https://llm.invalid", model="m", transport=transport)
        with pytest.raises(BackendUnavailableError):
            backend.step_sentence(_iso_step())
        assert len(transport.calls) == RETRIES + 1
