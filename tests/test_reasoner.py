import hashlib
from collections import Counter

import pytest
from helpers import HAND_GRAPHS, build_graph, dummy_statement, every_closure

from geoforge import reasoner
from geoforge.constructions import BASE_GENERATORS, extend_scene, generate_base_scene
from geoforge.geometry import SceneGeometry
from geoforge.pipeline import _build_scene
from geoforge.reasoner import (
    ReasonerError,
    ReasoningGraph,
    VerifierContradictionError,
    saturate,
    saturate_statements,
)
from geoforge.rules import DEFAULT_RULES, Rule
from geoforge.statements import (
    Predicate,
    angle_measure,
    equal_angles,
    equal_segments,
    right_angle,
    segment_length,
    serialize_statement,
)

# sha256 over the saturated graphs of the scenes of `generate` seeds 0-199:
# each graph's statement texts in id order, then its transitions in order
GENERATE_0_200_GRAPHS = "d10aa8fb9cecfb7c3fa0da1f13f17cdbfef1148eadfef6f5df25dec24b6f9c08"


def _scene(seed):
    generators = sorted(BASE_GENERATORS)
    scene = generate_base_scene(generators[seed % len(generators)], seed)
    return extend_scene(scene, 3, seed + 17)


class TestSaturate:
    def test_isosceles_derivation_direction(self):
        g = SceneGeometry({"A": (2.0, 3.0), "B": (0.0, 0.0), "C": (4.0, 0.0)})
        graph = saturate_statements(g, [equal_segments(("A", "B"), ("A", "C"))])
        assert equal_angles(("A", "B", "C"), ("A", "C", "B")) in graph.index

    def test_345_value_chain(self):
        g = SceneGeometry({"A": (0.0, 0.0), "B": (3.0, 0.0), "C": (3.0, 4.0)})
        graph = saturate_statements(
            g,
            [
                angle_measure(("A", "B", "C"), 90),
                segment_length(("A", "B"), 3),
                segment_length(("B", "C"), 4),
            ],
        )
        # the right angle itself is not given as RightAngle, so pythagoras
        # needs the derived form; with only the measure no RightAngle exists
        assert segment_length(("A", "C"), 5) not in graph.index
        graph2 = saturate_statements(
            g,
            [
                right_angle(("A", "B", "C")),
                segment_length(("A", "B"), 3),
                segment_length(("B", "C"), 4),
            ],
        )
        assert segment_length(("A", "C"), 5) in graph2.index

    def test_fixpoint_idempotence(self):
        scene = _scene(3)
        graph = saturate(scene)
        again = saturate_statements(scene.geometry, graph.statements)
        assert len(again.statements) == len(graph.statements)

    def test_determinism(self):
        scene = _scene(5)
        a = saturate(scene)
        b = saturate(scene)
        assert a.statements == b.statements
        assert a.transitions == b.transitions

    def test_modes_incoming_counts(self):
        graph = saturate(_scene(8))
        for sid in range(graph.n_initial, len(graph.statements)):
            assert len(graph.incoming_transitions(sid)) >= 1

    def test_trust_invariant(self):
        for seed in range(25):
            scene = _scene(seed)
            graph = saturate(scene)
            for stmt in graph.statements:
                assert scene.geometry.check_statement(stmt).holds

    def test_each_statement_checked_once(self):
        for seed in range(10):
            scene = _scene(seed)
            geometry = SceneGeometry(scene.geometry.points)
            calls: Counter = Counter()
            check = geometry.check_statement

            def counting(stmt):
                calls[stmt] += 1
                return check(stmt)

            geometry.check_statement = counting
            graph = saturate_statements(geometry, scene.initial_statements)
            assert max(calls.values()) == 1, (seed, calls.most_common(1))
            assert set(graph.statements[graph.n_initial :]) <= set(calls)

    def test_rederived_false_initial_statement_aborts(self):
        # initial statements are trusted until a rule re-derives one
        g = SceneGeometry({"A": (0.0, 0.0), "B": (3.0, 0.0), "C": (0.0, 4.0)})
        false = segment_length(("A", "B"), 7)
        true = segment_length(("A", "C"), 4)

        def echo(ctx, sid):
            if ctx.stmt(sid) == true:
                yield (sid,), false

        saturate_statements(g, [false, true])  # no rule re-derives it
        with pytest.raises(VerifierContradictionError) as exc_info:
            echo_rule = Rule("echo", echo, frozenset({Predicate.SEGMENT_LENGTH}))
            saturate_statements(g, [false, true], rules=(echo_rule, *DEFAULT_RULES))
        assert exc_info.value.rule_id == "echo"
        assert exc_info.value.conclusion == false

    def test_rule_firing_on_a_stale_premise_combination_raises(self):
        # every premise combination fires once, when its newest premise is
        # processed; a rule that cites only earlier ids breaks that
        g = SceneGeometry({"A": (0.0, 0.0), "B": (3.0, 0.0), "C": (0.0, 4.0)})
        ab, ac = segment_length(("A", "B"), 3), segment_length(("A", "C"), 4)

        def stale(ctx, sid):
            if ctx.stmt(sid) == ac:
                yield (0,), segment_length(("B", "C"), 5)

        rule = Rule("stale", stale, frozenset({Predicate.SEGMENT_LENGTH}))
        with pytest.raises(ReasonerError, match="rule stale fired on a stale premise combination"):
            saturate_statements(g, [ab, ac], rules=(rule,))

    def test_budget_truncation_flag(self, monkeypatch):
        monkeypatch.setattr(reasoner, "MAX_STATEMENTS", 6)
        monkeypatch.setattr(reasoner, "MAX_TRANSITIONS", 3)
        monkeypatch.setattr(reasoner, "MAX_ROUNDS", 2)
        graph = saturate(_scene(2))
        assert graph.truncated

    def test_generate_graphs_match_pinned_digest(self):
        # most of these scenes write no record, so the records pins cannot
        # see a matcher that fires in another order or cites other premises
        digest = hashlib.sha256()
        for seed in range(200):
            graph = saturate(_build_scene(seed))
            for stmt in graph.statements:
                digest.update(f"{serialize_statement(stmt)}\n".encode())
            for t in graph.transitions:
                digest.update(f"{t.premises} {t.rule} {t.conclusion}\n".encode())
            digest.update(f"end {graph.n_initial} {graph.truncated}\n".encode())
        assert digest.hexdigest() == GENERATE_0_200_GRAPHS

    def test_transitions_respect_insertion_order(self):
        for seed in range(10):
            graph = saturate(_scene(seed))
            for t in graph.transitions:
                assert max(t.premises) < t.conclusion
                assert t.conclusion not in t.premises


class TestReasoningGraph:
    def make_diamond(self):
        """a,b initial; c derived two ways; d from c."""
        graph = ReasoningGraph(SceneGeometry({}))
        a = graph.add_initial(segment_length(("A", "B"), 1))
        b = graph.add_initial(segment_length(("C", "D"), 2))
        c = graph.add_statement(segment_length(("E", "F"), 3))
        d = graph.add_statement(segment_length(("G", "H"), 4))
        graph.add_transition([a], "r1", c)
        graph.add_transition([b], "r2", c)
        graph.add_transition([c], "r3", d)
        return graph, (a, b, c, d)

    def test_upstream_initial_is_itself(self):
        graph, (a, b, c, d) = self.make_diamond()
        assert every_closure(graph, a) == {a}

    def test_upstream_linear_chain(self):
        graph = ReasoningGraph(SceneGeometry({}))
        a = graph.add_initial(segment_length(("A", "B"), 1))
        b = graph.add_statement(segment_length(("C", "D"), 2))
        c = graph.add_statement(segment_length(("E", "F"), 3))
        graph.add_transition([a], "r", b)
        graph.add_transition([b], "r", c)
        assert every_closure(graph, c) == {a, b, c}

    def test_upstream_diamond_union(self):
        # brute-force DFS oracle on the hand-built diamond
        graph, (a, b, c, d) = self.make_diamond()

        def brute(sid, acc):
            acc.add(sid)
            for t in graph.incoming_transitions(sid):
                for p in t.premises:
                    if p not in acc:
                        brute(p, acc)
            return acc

        assert every_closure(graph, d) == brute(d, set()) == {a, b, c, d}

    def test_infrastructure_invariants(self):
        graph, _ = self.make_diamond()
        with pytest.raises(ReasonerError):
            graph.add_transition([], "r", 3)
        with pytest.raises(ReasonerError):
            graph.add_transition([3], "r", 3)
        with pytest.raises(ReasonerError):
            graph.add_transition([3], "r", 2)  # premise after conclusion


def _reachable(graph: ReasoningGraph, sid: int, follow) -> set[int]:
    """Statements backward-reachable from ``sid`` over ``follow(statement)``'s
    transitions, ``sid`` included."""
    seen, stack = {sid}, [sid]
    while stack:
        for t in follow(stack.pop()):
            for p in t.premises:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
    return seen


def _bits(ids) -> int:
    return sum(1 << i for i in set(ids))


def _assert_closures_brute_force(graph: ReasoningGraph) -> None:
    def first_derivation(sid):
        return [] if graph.is_initial(sid) else graph.incoming_transitions(sid)[:1]

    for sid in range(len(graph.statements)):
        first = _reachable(graph, sid, first_derivation)
        every = _reachable(graph, sid, graph.incoming_transitions)
        underived = [
            s for s in first if not graph.is_initial(s) and not graph.incoming_transitions(s)
        ]
        assert graph.closures(sid) == (_bits(first), _bits(every), _bits(underived)), sid


CLOSURE_GRAPHS = {
    **{name: make for name, (make, _, _) in HAND_GRAPHS.items()},
    # statement 1 is derived but nothing concludes it
    "underived": lambda: build_graph(1, [([0, 1], "r", 2)]),
    # initial statement 1 is re-derived: the every closure follows that
    # derivation, the first closure stops at initial statements
    "rederived_initial": lambda: build_graph(2, [([0], "r", 1), ([1], "s", 2), ([0], "t", 2)]),
}


class TestClosures:
    @pytest.mark.parametrize("name", sorted(CLOSURE_GRAPHS))
    def test_match_brute_force_on_hand_graphs(self, name):
        _assert_closures_brute_force(CLOSURE_GRAPHS[name]())

    def test_match_brute_force_on_pipeline_scenes(self):
        for seed in range(40):
            _assert_closures_brute_force(saturate(_build_scene(seed)))

    def test_recomputed_after_each_addition(self):
        graph = build_graph(2, [([0], "a", 2), ([2], "b", 3)])
        assert graph.closures(3) == (0b1101, 0b1101, 0)
        graph.add_transition([1], "c", 2)  # a second derivation of 2
        assert graph.closures(3) == (0b1101, 0b1111, 0)
        four = graph.add_statement(dummy_statement(4))
        assert graph.closures(four) == (0b10000, 0b10000, 0b10000)
        graph.add_transition([1, 3], "d", four)
        assert graph.closures(four) == (0b11111, 0b11111, 0)

    def test_unknown_statement(self):
        graph = build_graph(1, [([0], "r", 1)])
        for sid in (-1, 2):
            with pytest.raises(ReasonerError, match="unknown statement id"):
                graph.closures(sid)
