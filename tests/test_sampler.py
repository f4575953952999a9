import dataclasses
import hashlib
import math

import pytest
from helpers import (
    HAND_GRAPHS,
    brute_force_paths,
    build_graph,
    diamond_graph,
    every_closure,
    reference_derivations,
)

from geoforge.constructions import ConstructionError, generate_base_scene
from geoforge.geometry import SceneGeometry
from geoforge.pipeline import PipelineConfig, _build_scene, build_record
from geoforge.reasoner import ReasoningGraph, saturate
from geoforge.sampler import (
    NoEligibleErroneousStatementError,
    OracleMismatchError,
    ReasoningPath,
    Rejected,
    SamplerError,
    TargetIsInitialError,
    _derivations,
    _every_derivation,
    _filter,
    _finish_path,
    formulate_problem,
    geo_explore,
    geo_explore_m,
    geo_explore_t,
    tier_of,
)
from geoforge.statements import angle_measure
from geoforge.translate import TemplateBackend


# sha256 over the sampler outputs on the scenes of `generate` seeds 0-199 at
# the default config: geo_explore on every derived target, geo_explore_m at
# 5 / 0.5 / 8, and geo_explore_t on every target with a passing path
GENERATE_0_200_SAMPLES = "1206703d5dbf0d593173fcbf0b8723c536dada19c8fe876d5415b0d775b8652a"


def _path_text(path: ReasoningPath) -> str:
    return " ".join(f"{t.premises}{t.rule}{t.conclusion}" for t in path.transitions)


def test_generate_samples_match_pinned_digest():
    # most of these scenes write no record, so the records pins cannot see
    # a sampler that walks derivations in another order or keeps other leaves
    config = PipelineConfig()
    digest = hashlib.sha256()
    for seed in range(200):
        graph = saturate(_build_scene(seed))
        for sid in range(graph.n_initial, len(graph.statements)):
            first = geo_explore(graph, sid, config.tau_l, config.tau_r)
            text = _path_text(first) if isinstance(first, ReasoningPath) else repr(first)
            digest.update(f"{seed} {sid} d {text}\n".encode())
            correct = geo_explore_m(graph, sid, 5, 0.5, 8)
            for path in correct:
                digest.update(f"m {_path_text(path)}\n".encode())
            if not correct:
                continue
            try:
                record = geo_explore_t(graph, sid, correct, 0.3, seed * 8191 + sid, 8)
            except SamplerError as exc:
                digest.update(f"t {type(exc).__name__}\n".encode())
                continue
            if record is None:
                digest.update(b"t None\n")
            else:
                digest.update(f"t {_path_text(record.wrong_branch)} | ".encode())
                digest.update(f"{_path_text(record.correct_path)} {record.overlap}\n".encode())
    assert digest.hexdigest() == GENERATE_0_200_SAMPLES


def _chain(n_transitions: int, n_initial: int = 4) -> ReasoningGraph:
    """Linear chain using all initial statements in the first transition."""
    edges = [(list(range(n_initial)), "r0", n_initial)]
    for i in range(1, n_transitions):
        edges.append(([n_initial + i - 1], f"r{i}", n_initial + i))
    return build_graph(n_initial, edges)


def _first_derivation_walk(graph, target, tau_l, tau_r):
    """Reference for ``geo_explore``: walk the target's first derivations
    backward, one statement at a time, then sort and filter the leaf."""

    def first(sid):
        t_idxs = graph.incoming.get(sid)
        if not t_idxs:
            raise SamplerError(f"derived statement {sid} has no derivation")
        return (graph.transitions[t_idxs[0]],)

    path = _finish_path(graph, next(_derivations(graph, target, first, math.inf)), target)
    return _filter(path.length, path.premise_ratio, tau_l, tau_r) or path


class TestGeoExplore:
    def test_full_use_chain(self):
        graph = _chain(6)
        path = geo_explore(graph, 9, tau_l=5, tau_r=0.5)
        assert isinstance(path, ReasoningPath)
        assert path.length == 6
        assert path.premise_ratio == 1.0

    def test_length_filter(self):
        graph = _chain(6)
        rejected = geo_explore(graph, 9, tau_l=7, tau_r=0.5)
        assert isinstance(rejected, Rejected)
        assert rejected.reason == "length"

    def test_ratio_filter(self):
        graph = build_graph(4, [([0], "r", 4), ([4], "r", 5)])
        rejected = geo_explore(graph, 5, tau_l=0, tau_r=0.5)
        assert isinstance(rejected, Rejected)
        assert rejected.reason == "premise_ratio"
        assert rejected.premise_ratio == 0.25

    def test_target_is_initial(self):
        graph = _chain(3)
        with pytest.raises(TargetIsInitialError):
            geo_explore(graph, 0, 0, 0.0)

    def test_follows_first_derivation(self):
        # statement 3 has two derivations; "joint" (via 2) was inserted first
        graph = diamond_graph()
        path = geo_explore(graph, 4, tau_l=0, tau_r=0.0)
        assert [(t.premises, t.rule, t.conclusion) for t in path.transitions] == [
            ((0,), "left", 2),
            ((2,), "joint", 3),
            ((3,), "last", 4),
        ]
        assert path.used_premises == {0}

    def test_missing_derivation_raises(self):
        # statement 1 is derived but nothing concludes it
        graph = build_graph(1, [([0, 1], "r", 2)])
        with pytest.raises(SamplerError, match="derived statement 1 has no derivation"):
            geo_explore(graph, 2, 0, 0.0)
        assert geo_explore_m(graph, 2, 0, 0.0) == []
        # neither 1 nor 2 is concluded: the walk reaches 2, the highest, first
        graph = build_graph(1, [([0, 1, 2], "r", 3)])
        for tau_l in (0, 10):
            with pytest.raises(SamplerError, match="derived statement 2 has no derivation"):
                geo_explore(graph, 3, tau_l, 0.0)

    def test_matches_first_derivation_walk_on_pipeline_scenes(self):
        config = PipelineConfig()
        for seed in range(200):
            graph = saturate(_build_scene(seed))
            for sid in range(graph.n_initial, len(graph.statements)):
                for tau_l, tau_r in ((config.tau_l, config.tau_r), (0, 0.0)):
                    expected = _first_derivation_walk(graph, sid, tau_l, tau_r)
                    assert geo_explore(graph, sid, tau_l, tau_r) == expected, (seed, sid)

    def test_forward_order(self):
        graph = _chain(5)
        path = geo_explore(graph, 8, tau_l=0, tau_r=0.0)
        conclusions = [t.conclusion for t in path.transitions]
        assert conclusions == sorted(conclusions)


# choice caps at which the walk must stop exactly where the reference does
WALK_CAPS = (0, 1, 2, 3, 5, 8, 13, 40, math.inf)


def _leaves(walk, graph, target, cap):
    options = _every_derivation(graph)
    return [sorted(leaf, key=lambda t: t.conclusion) for leaf in walk(graph, target, options, cap)]


class TestDerivations:
    @pytest.mark.parametrize("name", sorted(HAND_GRAPHS) + ["dangling"])
    def test_matches_reference_on_hand_graphs(self, name):
        if name == "dangling":
            # statement 3 has no option, so the walk backtracks past "b"
            graph, target = build_graph(2, [([0], "a", 2), ([1, 3], "b", 4), ([2], "c", 4)]), 4
        else:
            make, target, _ = HAND_GRAPHS[name]
            graph = make()
        for cap in WALK_CAPS:
            expected = _leaves(reference_derivations, graph, target, cap)
            assert _leaves(_derivations, graph, target, cap) == expected, cap

    def test_matches_reference_on_pipeline_scenes(self):
        walks = 0
        for seed in range(60):
            graph = saturate(_build_scene(seed))
            for sid in range(graph.n_initial, len(graph.statements)):
                for cap in WALK_CAPS:
                    expected = _leaves(reference_derivations, graph, sid, cap)
                    assert _leaves(_derivations, graph, sid, cap) == expected, (seed, sid, cap)
                    walks += 1
        assert walks > 10000


class TestGeoExploreM:
    @pytest.mark.parametrize("name", sorted(HAND_GRAPHS))
    def test_matches_brute_force(self, name):
        make, target, expected = HAND_GRAPHS[name]
        graph = make()
        paths = geo_explore_m(graph, target, tau_l=0, tau_r=0.0, max_paths=64)
        got = {p.transition_set() for p in paths}
        oracle = brute_force_paths(graph, target)
        assert got == oracle
        assert len(got) == expected
        assert len(paths) == len(got)  # no derivation is yielded twice

    def test_filters_apply(self):
        graph = diamond_graph()
        assert geo_explore_m(graph, 4, tau_l=10, tau_r=0.0) == []

    def test_max_paths_cap(self):
        graph = diamond_graph()
        paths = geo_explore_m(graph, 4, 0, 0.0, max_paths=1)
        assert len(paths) == 1

    def test_paths_are_acyclic_and_well_ordered(self):
        make, target, _ = HAND_GRAPHS["two_level"]
        graph = make()
        for path in geo_explore_m(graph, target, 0, 0.0):
            seen = set()
            established = set(graph.initial_ids())
            for t in path.transitions:
                assert t not in seen
                seen.add(t)
                assert all(p in established for p in t.premises)
                established.add(t.conclusion)
            assert path.transitions[-1].conclusion == target

    def test_cone_bound_is_tight(self):
        # the only path uses the whole cone: 6 derived statements, 4 of 4 premises
        graph = _chain(6)
        assert [p.length for p in geo_explore_m(graph, 9, tau_l=6, tau_r=1.0)] == [6]
        assert geo_explore_m(graph, 9, tau_l=7, tau_r=0.0) == []
        shallow = build_graph(4, [([0, 1], "r", 4), ([4], "r", 5)])
        assert [p.premise_ratio for p in geo_explore_m(shallow, 5, 0, tau_r=0.5)] == [0.5]
        assert geo_explore_m(shallow, 5, 0, tau_r=0.51) == []

    def test_cone_bound_is_exact_on_pipeline_scenes(self):
        # filtering prunes nothing that enumeration would have kept, and
        # every target the cone rules out has no passing path
        ruled_out = 0
        for seed in range(0, 300, 10):
            try:
                scene = _build_scene(seed)
            except ConstructionError:
                continue
            graph = saturate(scene)
            for target in range(graph.n_initial, len(graph.statements)):
                every = geo_explore_m(graph, target, 0, 0.0, max_paths=10**6)
                passing = [p for p in every if p.length >= 5 and p.premise_ratio >= 0.5]
                assert geo_explore_m(graph, target, 5, 0.5, max_paths=10**6) == passing
                cone = every_closure(graph, target)
                initial = sum(graph.is_initial(sid) for sid in cone)
                if len(cone) - initial < 5 or initial / graph.n_initial < 0.5:
                    ruled_out += 1
                    assert not passing, (seed, target)
        assert ruled_out > 0

    def test_deterministic(self):
        make, target, _ = HAND_GRAPHS["wide"]
        a = geo_explore_m(make(), target, 0, 0.0)
        b = geo_explore_m(make(), target, 0, 0.0)
        assert [p.transitions for p in a] == [p.transitions for p in b]


def _traceback_graph() -> ReasoningGraph:
    """Shared two-step prefix, then the correct tail and a wrong spur."""
    return build_graph(
        1,
        [
            ([0], "t0", 1),
            ([1], "t1", 2),
            ([2], "t2", 3),  # correct target
            ([2], "t3", 4),  # erroneous statement
        ],
    )


class TestGeoExploreT:
    def test_record_shape_and_overlap(self):
        graph = _traceback_graph()
        record = geo_explore_t(graph, 3, geo_explore_m(graph, 3, 0, 0.0), tau_p=0.5, rng_seed=1)
        assert record is not None
        assert record.wrong_branch.target == 4
        assert record.overlap == pytest.approx(2.0 / 3.0)
        # validity: erroneous statement outside every correct path's upstream
        for path in geo_explore_m(graph, 3, 0, 0.0):
            upstream = set()
            for t in path.transitions:
                upstream.add(t.conclusion)
                upstream.update(t.premises)
            assert record.wrong_branch.target not in upstream

    def test_full_overlap_impossible(self):
        graph = _traceback_graph()
        correct = geo_explore_m(graph, 3, 0, 0.0)
        assert geo_explore_t(graph, 3, correct, tau_p=1.0, rng_seed=1) is None

    def test_no_eligible_statement(self):
        graph = build_graph(1, [([0], "r", 1)])
        with pytest.raises(NoEligibleErroneousStatementError):
            geo_explore_t(graph, 1, geo_explore_m(graph, 1, 0, 0.0), 0.0, rng_seed=0)

    def test_target_initial_rejected(self):
        graph = _traceback_graph()
        with pytest.raises(TargetIsInitialError):
            geo_explore_t(graph, 0, [], 0.0, rng_seed=0)

    def test_seeded_validity_sweep(self):
        graph = _traceback_graph()
        correct = geo_explore_m(graph, 3, 0, 0.0)
        for seed in range(50):
            record = geo_explore_t(graph, 3, correct, 0.4, rng_seed=seed)
            if record is None:
                continue
            assert record.overlap >= 0.4
            upstream_ids = every_closure(graph, 3)
            assert record.wrong_branch.target not in upstream_ids


class TestTierOf:
    @pytest.mark.parametrize(
        "length,tier",
        [(5, 1), (10, 1), (11, 2), (20, 2), (21, 3), (50, 3), (51, 4), (7, 1), (120, 4)],
    )
    def test_boundaries(self, length, tier):
        assert tier_of(length) == tier

    def test_below_range(self):
        assert tier_of(4) is None


class TestFormulate:
    @pytest.fixture
    def iso(self):
        scene = generate_base_scene("isosceles_triangle", 7)
        graph = saturate(scene)
        return scene, graph

    def _apex_path(self, scene, graph):
        apex = next(
            sid
            for sid in range(graph.n_initial, len(graph.statements))
            if graph.stmt(sid).predicate.value == "angle_val"
            and graph.stmt(sid).groups[0][1] == "A"
        )
        return apex, geo_explore(graph, apex, tau_l=0, tau_r=0.0)

    def _record(self, scene, draft, distractor_policy="all"):
        config = PipelineConfig(distractor_policy=distractor_policy)
        record, _ = build_record(draft, scene, "scene", config, 0, TemplateBackend())
        return record

    def test_numeric_record_core(self, iso):
        scene, graph = iso
        apex, path = self._apex_path(scene, graph)
        draft = formulate_problem(scene, graph, path, "numeric")
        assert draft.kind == "numeric"
        assert draft.target == graph.stmt(apex)
        record = self._record(scene, draft)
        assert record.answer_value == graph.stmt(apex).value
        assert record.target.value is None
        assert "find the measure" in record.question
        assert record.metadata.reasoning_length == path.length
        assert len(record.premises) == graph.n_initial  # distractor policy "all"

    def test_used_only_policy(self, iso):
        scene, graph = iso
        _, path = self._apex_path(scene, graph)
        draft = formulate_problem(scene, graph, path, "numeric")
        record = self._record(scene, draft, distractor_policy="used")
        assert len(record.premises) == len(path.used_premises)
        assert len(record.premises) < graph.n_initial

    def test_distractors_present_by_default(self, iso):
        scene, graph = iso
        _, path = self._apex_path(scene, graph)
        record = self._record(scene, formulate_problem(scene, graph, path, "numeric"))
        used = {graph.stmt(i) for i in path.used_premises}
        assert any(p not in used for p in record.premises)

    def test_proof_kind(self, iso):
        scene, graph = iso
        candidates = [
            sid
            for sid in range(graph.n_initial, len(graph.statements))
            if graph.stmt(sid).predicate.value == "congruent"
        ]
        path = geo_explore(graph, candidates[0], 0, 0.0)
        record = self._record(scene, formulate_problem(scene, graph, path, "proof"))
        assert record.answer_value is None
        assert "Prove that" in record.question
        assert record.target == graph.stmt(candidates[0])

    def test_tier_metadata(self, iso):
        scene, graph = iso
        _, path = self._apex_path(scene, graph)
        record = self._record(scene, formulate_problem(scene, graph, path, "numeric"))
        if path.length >= 5:
            assert record.metadata.tier == tier_of(path.length)
        else:
            assert record.metadata.tier is None

    def test_template_follows_the_material(self):
        # proof kind: no oracle, so a hand-built graph needs no matching scene
        scene = generate_base_scene("isosceles_triangle", 1)
        graph = _traceback_graph()
        (path,) = geo_explore_m(graph, 3, 0, 0.0)
        assert formulate_problem(scene, graph, path, "proof").template == "deductive"
        traceback = geo_explore_t(graph, 3, [path], tau_p=0.5, rng_seed=1)
        draft = formulate_problem(scene, graph, traceback, "proof")
        assert draft.template == "traceback"
        assert len(draft.solutions) == 1 and draft.wrong_branch is not None

    def test_one_path_is_not_multi_solution(self):
        scene = generate_base_scene("isosceles_triangle", 1)
        graph = diamond_graph()
        paths = geo_explore_m(graph, 4, 0, 0.0)
        assert len(paths) == 2
        with pytest.raises(SamplerError):
            formulate_problem(scene, graph, paths[:1], "proof")

    def test_oracle_mismatch_aborts(self):
        geometry = SceneGeometry(
            {"A": (2.0, 2.0 * math.tan(math.radians(65.0))), "B": (0.0, 0.0), "C": (4.0, 0.0)}
        )
        scene = generate_base_scene("isosceles_triangle", 7)
        # hand-build a graph whose derived value is wrong by 2%
        graph = ReasoningGraph()
        base = graph.add_initial(angle_measure(("A", "B", "C"), 65))
        bogus = graph.add_statement(angle_measure(("B", "A", "C"), 49))
        graph.add_transition([base], "triangle_angle_sum", bogus)
        path = geo_explore(graph, bogus, 0, 0.0)
        with pytest.raises(OracleMismatchError):
            formulate_problem(scene, graph, path, "numeric")

    def test_multi_solution_union_of_premises(self):
        graph = diamond_graph()
        # a scene whose premises are the hand-built graph's initial statements
        scene = generate_base_scene("isosceles_triangle", 1)
        scene = dataclasses.replace(
            scene, initial_statements=dict.fromkeys(graph.stmt(i) for i in graph.initial_ids())
        )
        paths = geo_explore_m(graph, 4, 0, 0.0)
        draft = formulate_problem(scene, graph, paths, "proof")
        union = set()
        for p in paths:
            union |= p.used_premises
        assert set().union(*draft.cited) == {graph.stmt(i) for i in union}
        record = self._record(scene, draft, distractor_policy="used")
        assert len(record.premises) == len(union)
        assert draft.template == "multi_solution"
        assert len(draft.solutions) == 2
