"""Acceptance suite: one test per exit criterion, each printing a PASS line.

The whole module runs with outbound networking disabled, so passing it also
demonstrates offline totality of the template-backend pipeline.
"""

import dataclasses
import socket
import statistics
import time

import pytest
from helpers import HAND_GRAPHS, brute_force_paths

from geoforge.constructions import BASE_GENERATORS, extend_scene, generate_base_scene
from geoforge.dataset import load_records, load_scenes
from geoforge.pipeline import PipelineConfig, bootstrap, check_answer, generate, verify
from geoforge.reasoner import saturate, saturate_statements
from geoforge.sampler import geo_explore_m, geo_explore_t, tier_of

RUN = PipelineConfig(seed_start=0, count=850, tau_l=5, tau_r=0.5)


@pytest.fixture(autouse=True, scope="module")
def no_network():
    """Criterion 9 backdrop: any socket connection attempt fails loudly."""

    def refuse(*args, **kwargs):
        raise AssertionError("network access attempted during acceptance run")

    original_connect = socket.socket.connect
    original_create = socket.create_connection
    socket.socket.connect = refuse
    socket.create_connection = refuse
    try:
        yield
    finally:
        socket.socket.connect = original_connect
        socket.create_connection = original_create


@pytest.fixture(scope="module")
def big_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_run")
    start = time.perf_counter()
    report = generate(RUN, out)
    elapsed = time.perf_counter() - start
    return out, report, elapsed


def test_criterion_1_end_to_end_trust(big_run):
    out, report, gen_elapsed = big_run
    assert report.count >= 500, f"only {report.count} records generated"
    start = time.perf_counter()
    verdict = verify(out)
    elapsed = gen_elapsed + (time.perf_counter() - start)
    assert verdict.total == report.count
    assert verdict.ok, verdict.failures[:5]
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 1 PASS - {report.count} records generated and 100% verified "
        f"in {elapsed:.1f}s (tau_l=5, tau_r=0.5)"
    )


def test_criterion_2_closure_correctness():
    generators = sorted(BASE_GENERATORS)
    checked = 0
    for seed in range(100):
        scene = generate_base_scene(generators[seed % len(generators)], seed)
        scene = extend_scene(scene, 3, seed + 1)
        graph = saturate(scene)
        assert not graph.truncated
        resaturated = saturate_statements(scene.geometry, graph.statements)
        assert len(resaturated.statements) == len(graph.statements), (
            scene.generator,
            seed,
        )
        checked += 1
    assert checked == 100
    print("\nACCEPTANCE 2 PASS - fixpoint idempotence on 100 scenes")


def test_criterion_3_geo_explore_m_oracle():
    for name, (make, target, expected) in sorted(HAND_GRAPHS.items()):
        graph = make()
        assert len(graph.statements) <= 10
        paths = geo_explore_m(graph, target, tau_l=0, tau_r=0.0, max_paths=64)
        got = {p.transition_set() for p in paths}
        oracle = brute_force_paths(graph, target)
        assert got == oracle, name
        assert len(got) == expected, name
    print("\nACCEPTANCE 3 PASS - path sets equal brute-force enumeration on 5 hand-built graphs")


def _dfs_upstream(graph, sid, seen=None):
    # independent recursive re-check of upstream dependencies
    if seen is None:
        seen = set()
    seen.add(sid)
    for t in graph.incoming_transitions(sid):
        for p in t.premises:
            if p not in seen:
                _dfs_upstream(graph, p, seen)
    return seen


def test_criterion_4_traceback_validity():
    generators = sorted(BASE_GENERATORS)
    runs = 0
    emitted = 0
    seed = 0
    tau_p = 0.3
    while runs < 200:
        scene = generate_base_scene(generators[seed % len(generators)], seed)
        scene = extend_scene(scene, 3, seed + 5)
        graph = saturate(scene)
        seed += 1
        derived = [sid for sid in range(graph.n_initial, len(graph.statements))]
        if not derived:
            continue
        target = derived[-1]
        runs += 1
        correct = geo_explore_m(graph, target, 0, 0.0)
        record = geo_explore_t(graph, target, correct, tau_p, rng_seed=seed)
        if record is None:
            continue
        emitted += 1
        erroneous = record.wrong_branch.target
        assert erroneous not in _dfs_upstream(graph, target)
        shared = record.wrong_branch.transition_set() & record.correct_path.transition_set()
        overlap = len(shared) / record.wrong_branch.length
        assert overlap >= tau_p
        assert abs(overlap - record.overlap) < 1e-12
    assert emitted >= 20, f"only {emitted} traceback records over {runs} runs"
    print(
        f"\nACCEPTANCE 4 PASS - {emitted} traceback records over {runs} seeded runs, "
        "0 upstream or overlap violations"
    )


_TIER_ORACLE = {5: 1, 10: 1, 11: 2, 20: 2, 21: 3, 50: 3, 51: 4}


def test_criterion_5_filter_and_tier_guarantees(big_run):
    out, report, _ = big_run
    scenes = load_scenes(out)
    bounds = {1: (5, 10), 2: (11, 20), 3: (21, 50), 4: (51, 10**9)}
    for record in load_records(out):
        scene = scenes[record.scene_id]
        primary = record.solutions[0]
        length = len(primary)
        initial = set(scene.initial_statements)
        used = {p for step in primary for p in step.premises if p in initial}
        ratio = len(used) / len(scene.initial_statements)
        assert length >= RUN.tau_l
        assert ratio >= RUN.tau_r
        lo, hi = bounds[record.metadata.tier]
        assert lo <= length <= hi
    for length, tier in _TIER_ORACLE.items():
        assert tier_of(length) == tier
    print(
        f"\nACCEPTANCE 5 PASS - 0 of {report.count} records violate the filters or "
        "tier bounds; tier_of matches the boundary oracle"
    )


def test_criterion_6_bootstrap_depth_shift(tmp_path_factory):
    base_dir = tmp_path_factory.mktemp("boot_base")
    boot_dir = tmp_path_factory.mktemp("boot_next")
    config = dataclasses.replace(RUN, count=50)
    base_report = generate(config, base_dir)
    boot_report = bootstrap(config, base_dir, boot_dir)
    assert boot_report.count > 0

    prior_scenes = load_scenes(base_dir)
    new_scenes = load_scenes(boot_dir)
    assert new_scenes
    for scene in new_scenes.values():
        ancestor = next(
            p
            for p in prior_scenes.values()
            if p.seed == scene.seed and p.generator == scene.generator
        )
        base_set = {s.text() for s in ancestor.initial_statements}
        new_set = {s.text() for s in scene.initial_statements}
        assert base_set < new_set  # strict superset, 100% of scenes

    def median_scene_max(records):
        best = {}
        for r in records:
            best[r.scene_id] = max(best.get(r.scene_id, 0), r.metadata.reasoning_length)
        return statistics.median(best.values())

    gen0 = median_scene_max(base_report.records)
    gen1 = median_scene_max(boot_report.records)
    assert gen1 >= gen0, (gen0, gen1)
    print(
        f"\nACCEPTANCE 6 PASS - bootstrap: premises grew strictly in {len(new_scenes)}/"
        f"{len(new_scenes)} scenes; median max reasoning length {gen0} -> {gen1}"
    )


def test_criterion_7_determinism(tmp_path_factory):
    config = dataclasses.replace(RUN, count=40)
    d1 = tmp_path_factory.mktemp("det_a")
    d2 = tmp_path_factory.mktemp("det_b")
    generate(config, d1)
    generate(config, d2)
    for name in ("records.jsonl", "manifest.jsonl", "scenes.jsonl", "config.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    svgs1 = sorted((d1 / "svg").iterdir())
    svgs2 = sorted((d2 / "svg").iterdir())
    assert [p.name for p in svgs1] == [p.name for p in svgs2]
    for a, b in zip(svgs1, svgs2):
        assert a.read_bytes() == b.read_bytes()
    print(
        f"\nACCEPTANCE 7 PASS - two identical runs produced byte-identical manifests "
        f"and {len(svgs1)} SVG files"
    )


_ANSWER_TABLE = [
    ("the answer is 5.04", 5.0, True),
    ("5.1", 5.0, False),
    ("x = 0.0001", 0.0, True),
    ("0.02", 0.0, False),
    ("after simplification we get 42", 42.0, True),
    ("roughly 42.4", 42.0, True),
    ("42.43", 42.0, False),
    ("-3.02", -3.0, True),
    ("answer: 3/4", 0.75, True),
    ("first 10 then finally 7", 7.0, True),
    ("first 7 then finally 10", 7.0, False),
    ("1e2", 100.0, True),
    ("no numbers here", 5.0, False),
    ("101", 100.0, True),  # exactly 1.000% relative error
    ("101.001", 100.0, False),  # 1.001% relative error
    ("99", 100.0, True),
    ("98.999", 100.0, False),
    ("0.01", 0.0, True),
    ("0.011", 0.0, False),
    ("120", 7.0, False),
]


def test_criterion_8_answer_metric():
    assert len(_ANSWER_TABLE) == 20
    for predicted, key, expected in _ANSWER_TABLE:
        assert check_answer(predicted, key).correct is expected, (predicted, key)
    print("\nACCEPTANCE 8 PASS - 20-case answer-metric table including 1.000%/1.001% boundaries")


def test_criterion_9_offline_totality():
    # a direct probe that the guard is active: every criterion above ran under it
    with pytest.raises(AssertionError):
        socket.create_connection(("127.0.0.1", 9))
    print("\nACCEPTANCE 9 PASS - criteria 1-8 executed with networking disabled (template backend)")
