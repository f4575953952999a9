import ast
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geoforge.constructions
import geoforge.dataset
import geoforge.pipeline
import geoforge.sampler
import geoforge.statements
from geoforge.constructions import POINT_CAP, extend_scene, generate_base_scene
from geoforge.dataset import (
    CorruptRecordError,
    ProblemRecord,
    RecordMetadata,
    clear_tables,
    dataset_writer,
    load_config,
    load_records,
    load_scenes,
    read_jsonl,
    read_lines,
    record_content_hash,
    record_to_doc,
    scene_id_of,
)
from geoforge.geometry import GeometryError, SceneGeometry
from geoforge.pipeline import (
    AnswerCheck,
    InsufficientRecordsError,
    PipelineConfig,
    PipelineError,
    bootstrap,
    check_answer,
    curate_testset,
    generate,
    stats,
    verify,
)
from geoforge.rules import Rule
from geoforge.sampler import tier_of
from geoforge.statements import UnknownPointError, _canonical, parse_statement
from geoforge.translate import ExternalBackend, TemplateBackend
from helpers import copy_with_edited_scene, move_point, synthetic_dataset, uncited_point

SMALL = PipelineConfig(seed_start=0, count=40)
# every break str.splitlines knows, of which bytes.splitlines knows the first
# four, and "" for a line run on into the next
_BREAKS = ["\n", "\r", "\r\n", "\n\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", ""]
# the settings that became constants, at the defaults they had as fields
OLD_DEFAULTS = {
    "max_problems_per_scene": 4,
    "max_paths": 8,
    "min_extension_steps": 2,
    "max_extension_steps": 6,
    "max_statements": 5000,
    "max_transitions": 20000,
    "max_rounds": 50,
}
# the tail of every failure that names a field of the rebuilt record
REBUILT = "disagrees with the record rebuilt from its formal core"
PINNED_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def busiest_walk(monkeypatch) -> list[int]:
    """Counts the option choices of every ``sampler._derivations`` walk the
    test runs; holds the most that one walk made."""
    walk, most = geoforge.sampler._derivations, [0]

    def counted(graph, target, options, max_choices):
        made = 0

        def counting(sid):
            nonlocal made
            for t in options(sid):
                made += 1
                most[0] = max(most[0], made)
                yield t

        return walk(graph, target, counting, max_choices)

    monkeypatch.setattr(geoforge.sampler, "_derivations", counted)
    return most


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    report = generate(SMALL, out)
    return out, report


class TestGenerate:
    def test_produces_records_and_files(self, dataset):
        out, report = dataset
        assert report.count > 0
        assert (out / "records.jsonl").exists()
        assert (out / "manifest.jsonl").exists()
        assert (out / "scenes.jsonl").exists()
        assert (out / "config.json").exists()
        for record in report.records:
            assert (out / record.diagram).exists()

    def test_every_record_passes_verify(self, dataset):
        out, _ = dataset
        report = verify(out)
        assert report.ok, report.failures[:5]

    def test_filter_guarantee(self, dataset):
        _, report = dataset
        for r in report.records:
            assert r.metadata.reasoning_length >= SMALL.tau_l
            assert r.metadata.premise_ratio >= SMALL.tau_r

    def test_templates_present(self, dataset):
        _, report = dataset
        templates = {r.template for r in report.records}
        assert "deductive" in templates
        assert "multi_solution" in templates
        multi = [r for r in report.records if r.template == "multi_solution"]
        assert all(len(r.solutions) >= 2 for r in multi)

    def test_per_scene_caps(self, dataset):
        _, report = dataset
        by_scene: dict[str, list] = {}
        for r in report.records:
            by_scene.setdefault(r.scene_id, []).append(r)
        for records in by_scene.values():
            deductive = [r for r in records if r.template == "deductive"]
            assert len(deductive) <= geoforge.pipeline.MAX_PROBLEMS_PER_SCENE
            assert sum(r.kind == "proof" for r in deductive) <= 1
            assert sum(r.template == "multi_solution" for r in records) <= 1
            assert sum(r.template == "traceback" for r in records) <= 1

    @pytest.mark.parametrize("start", [0, 5000], ids=["default", "held_out"])
    def test_matches_pinned_digests(self, start, busiest_walk, tmp_path):
        # the benchmark's pinned digests of this run; byte drift shows here first
        pinned = json.loads(PINNED_DIGESTS.read_text(encoding="utf-8"))[f"generate {start}:200"]
        out = tmp_path / "pinned"
        generate(PipelineConfig(seed_start=start, count=200), out)
        for name, digest in pinned.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        # the bytes do not depend on WORK_CAP: no walk makes that many choices
        assert 0 < busiest_walk[0] < geoforge.sampler.WORK_CAP

    @pytest.mark.parametrize(
        "start, workers",
        [(0, 1), (5000, 1), (0, 2), (5000, 2)],
        ids=["default", "held_out", "default-workers2", "held_out-workers2"],
    )
    def test_bootstrap_matches_pinned_digests(self, start, workers, busiest_walk, tmp_path):
        # larger re-seeded scenes, where the triangle matchers do most work;
        # at workers 2, as the benchmark runs it, each worker has its own
        # table of canonical statements
        pinned = json.loads(PINNED_DIGESTS.read_text(encoding="utf-8"))[f"bootstrap {start}:300"]
        prior, out = tmp_path / "prior", tmp_path / "boot"
        generate(PipelineConfig(seed_start=start, count=300), prior)
        config = PipelineConfig(
            seed_start=start,
            count=300,
            bootstrap_quantile=1.0,
            bootstrap_extra_steps=3,
            bootstrap_iterations=3,
            workers=workers,
        )
        bootstrap(config, prior, out)
        for name, digest in pinned.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        # the walks of a workers=2 bootstrap run in the pool, uncounted here
        assert 0 < busiest_walk[0] < geoforge.sampler.WORK_CAP

    def test_determinism(self, dataset, tmp_path):
        out, _ = dataset
        again = tmp_path / "again"
        generate(SMALL, again)
        for name in ("records.jsonl", "manifest.jsonl", "scenes.jsonl", "config.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes()
        ours = sorted((out / "svg").iterdir())
        theirs = sorted((again / "svg").iterdir())
        assert [p.name for p in ours] == [p.name for p in theirs]
        for a, b in zip(ours, theirs):
            assert a.read_bytes() == b.read_bytes()

    def test_round_trip_records(self, dataset):
        out, report = dataset
        loaded = load_records(out)
        assert [r.id for r in loaded] == [r.id for r in report.records]
        assert loaded[0] == report.records[0]

    def test_config_echo(self, dataset):
        out, _ = dataset
        assert PipelineConfig.from_doc(load_config(out)) == SMALL

    def test_each_scene_hashed_once(self, tmp_path, monkeypatch):
        # the per-scene path names a scene once when a record or a failure
        # cites it, and never otherwise
        hashed = Counter()

        def counting(scene):
            hashed[scene.seed] += 1
            return scene_id_of(scene)

        monkeypatch.setattr(geoforge.pipeline, "scene_id_of", counting)
        config = dataclasses.replace(SMALL, count=10)
        report = generate(config, tmp_path / "hashed")
        cited = {r.seed for r in report.records}
        failed_ids = {f.split()[1].rstrip(":") for f in report.failures if f.startswith("scene ")}
        for seed in set(range(10)) - cited:
            if scene_id_of(geoforge.pipeline._build_scene(seed)) in failed_ids:
                cited.add(seed)
        assert report.count and cited < set(range(10))
        assert hashed == Counter(cited)

    def test_samplers_called_through_the_module_namespace(self, tmp_path, monkeypatch):
        # the bench's tracer times these layers by replacing these names in
        # geoforge.pipeline: a call that bypassed them would read zero time
        names = ("saturate", "geo_explore", "geo_explore_m", "geo_explore_t", "formulate_problem")
        called = Counter()
        for name in names:

            def counting(*args, _name=name, _fn=getattr(geoforge.pipeline, name), **kwargs):
                called[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(geoforge.pipeline, name, counting)
        report = generate(dataclasses.replace(SMALL, count=10), tmp_path / "traced")
        assert report.count
        assert set(called) == set(names)
        assert called["saturate"] == 10

    def test_workers_do_not_change_output(self, tmp_path):
        cfg = dataclasses.replace(SMALL, count=6)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        generate(cfg, serial)
        generate(dataclasses.replace(cfg, workers=2), parallel)
        assert (serial / "records.jsonl").read_bytes() == (parallel / "records.jsonl").read_bytes()

    def test_output_independent_of_hash_seed_and_workers(self, tmp_path):
        # every set the engine iterates for output order must not follow str hashing
        pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        digests = set()
        for hash_seed in ("1", "2"):
            for workers in ("1", "2"):
                out = tmp_path / f"h{hash_seed}w{workers}"
                subprocess.run(
                    [sys.executable, "-c", "import sys; from geoforge.cli import main; sys.exit(main())",
                     "generate", "--out", str(out), "--seed-start", "0", "--count", "30",
                     "--workers", workers],
                    env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed},
                    check=True,
                    capture_output=True,
                )
                assert (out / "records.jsonl").stat().st_size > 0
                digests.add(tuple(
                    hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("records.jsonl", "scenes.jsonl")
                ))
        assert len(digests) == 1

    def test_crash_before_manifest_fails_verify(self, dataset, tmp_path, monkeypatch):
        out, report0 = dataset
        files = ["records.jsonl", "scenes.jsonl", "config.json"]
        files += [r.diagram for r in report0.records]
        docs = [record_to_doc(r) for r in report0.records]
        scenes = load_scenes(out)
        diagrams = {r.id: (out / r.diagram).read_text(encoding="utf-8") for r in report0.records}

        def write(target):
            with dataset_writer(target, load_config(out)) as add:
                add(docs, scenes, diagrams)

        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == "manifest.jsonl":
                raise OSError("crash")
            real_replace(src, dst)

        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        shutil.copytree(out, stale)  # a complete dataset from an earlier run
        monkeypatch.setattr(os, "replace", replace)
        for target in (fresh, stale):
            with pytest.raises(OSError, match="crash"):
                write(target)
            # everything else is complete and in place; the manifest is not
            for name in files:
                assert (target / name).read_bytes() == (out / name).read_bytes(), name
            assert not (target / "manifest.jsonl").exists()
            report = verify(target)
            assert [rid for rid, _ in report.failures] == ["<dataset>"]
        monkeypatch.undo()
        write(stale)
        for name in [*files, "manifest.jsonl"]:
            assert (stale / name).read_bytes() == (out / name).read_bytes(), name
        assert verify(stale).ok

    def test_crash_linking_a_diagram_fails_verify(self, dataset, tmp_path, monkeypatch):
        out, report0 = dataset
        _, victim = _written_and_linked(report0.records)
        docs = [record_to_doc(r) for r in report0.records]
        scenes = load_scenes(out)
        # equal texts, distinct objects, as a reload gives them
        diagrams = {r.id: (out / r.diagram).read_text(encoding="utf-8") for r in report0.records}

        def write(target):
            with dataset_writer(target, load_config(out)) as add:
                add(docs, scenes, diagrams)

        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == f"{victim}.svg":
                raise OSError("crash")
            real_replace(src, dst)

        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        shutil.copytree(out, stale)  # a complete dataset from an earlier run
        monkeypatch.setattr(os, "replace", replace)
        for target in (fresh, stale):
            with pytest.raises(OSError, match="crash"):
                write(target)
            assert not [p.name for p in (target / "svg").iterdir() if p.name.endswith(".tmp")]
            assert not (target / "manifest.jsonl").exists()
            report = verify(target)
            assert [rid for rid, _ in report.failures] == ["<dataset>"]
        monkeypatch.undo()
        for target in (fresh, stale):
            write(target)
            assert _tree(target) == _tree(out)
            assert verify(target).ok

    def test_stale_temp_names_do_not_stop_a_run(self, dataset, tmp_path):
        out, report0 = dataset
        target = tmp_path / "run"
        (target / "svg").mkdir(parents=True)
        # a killed run's temp names: two hard links to a file outside the dataset, on a
        # written and a linked name, and a half-written file; writing any of them in
        # place would change the file it names
        outside = tmp_path / "outside.svg"
        outside.write_text("not a diagram", encoding="utf-8")
        written, linked = _written_and_linked(report0.records)
        for rid in (written, linked):
            os.link(outside, target / "svg" / f".{rid}.svg.tmp")
        last = max(r.id for r in report0.records)
        (target / "svg" / f".{last}.svg.tmp").write_text("half", encoding="utf-8")
        report = generate(SMALL, target)
        assert [r.id for r in report.records] == [r.id for r in report0.records]
        assert _tree(target) == _tree(out)
        assert outside.read_text(encoding="utf-8") == "not a diagram"

    def test_without_hard_links_each_diagram_is_a_file(self, dataset, tmp_path, monkeypatch):
        out, _ = dataset

        def no_link(src, dst, **kwargs):
            raise OSError(1, "Operation not permitted")

        monkeypatch.setattr(os, "link", no_link)
        generate(SMALL, tmp_path / "run")
        assert _tree(tmp_path / "run") == _tree(out)
        svg = list((tmp_path / "run" / "svg").iterdir())
        assert len({p.stat().st_ino for p in svg}) == len(svg)
        assert verify(tmp_path / "run").ok

    def test_records_of_a_scene_share_one_diagram_file(self, dataset):
        out, report = dataset
        names = sorted(p.name for p in (out / "svg").iterdir())
        assert names == sorted(f"{r.id}.svg" for r in report.records)
        inode_of = {r.id: (out / r.diagram).stat().st_ino for r in report.records}
        text_of = {r.id: (out / r.diagram).read_bytes() for r in report.records}
        # one inode per distinct diagram: as many (text, inode) pairs as texts and as inodes
        files = {(text_of[rid], inode_of[rid]) for rid in inode_of}
        assert len(files) == len(set(text_of.values())) == len(set(inode_of.values())) < len(report.records)
        for scene_id in {r.scene_id for r in report.records}:
            assert len({inode_of[r.id] for r in report.records if r.scene_id == scene_id}) == 1
        assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_crash_mid_stream_writes_no_records(self, dataset, tmp_path, monkeypatch, workers):
        out, report0 = dataset
        process_scene = geoforge.pipeline._process_scene

        def fail_late(scene, *args):
            if scene.seed == 33:
                raise RuntimeError("late scene failed")
            return process_scene(scene, *args)

        # the pool's workers are forked inside the call, so they see the patch
        monkeypatch.setattr(geoforge.pipeline, "_process_scene", fail_late)
        written = []  # ids of the record lines the writer wrote, in this process
        manifest_line = geoforge.dataset.manifest_line

        def counted(doc):
            written.append(doc["id"])
            return manifest_line(doc)

        monkeypatch.setattr(geoforge.dataset, "manifest_line", counted)
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        shutil.copytree(out, stale)  # a complete dataset from an earlier run
        for target in (fresh, stale):
            written.clear()
            with pytest.raises(RuntimeError, match="late scene failed"):
                generate(dataclasses.replace(SMALL, workers=workers), target)
            # the earlier scenes' records went to the temp file, which is gone
            assert written == [r.id for r in report0.records if r.seed < 33] != []
            assert not (target / ".records.jsonl.tmp").exists()
            assert not (target / "manifest.jsonl").exists()
        assert not (fresh / "records.jsonl").exists()
        report = verify(stale)
        assert [rid for rid, _ in report.failures] == ["<dataset>"]

    def test_invalid_config_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(tau_r=1.5)
        with pytest.raises(PipelineError):
            PipelineConfig(translator="quantum")
        with pytest.raises(PipelineError):
            PipelineConfig(distractor_policy="some")

    @pytest.mark.parametrize("given", [{}, {"llm_endpoint": "https://llm.invalid"}, {"llm_model": "m"}])
    def test_external_translator_needs_endpoint_and_model(self, given):
        message = "external translator needs --llm-endpoint and --llm-model"
        with pytest.raises(PipelineError, match=message):
            PipelineConfig(translator="external", **given)
        with pytest.raises(PipelineError, match=message):
            PipelineConfig.from_doc({"translator": "external", **given})

    @pytest.mark.parametrize(
        "field, edge, bad, message",
        [
            ("count", 1, (0, -1), "count must be >= 1"),
            ("bootstrap_extra_steps", 1, (0, -1), "bootstrap_extra_steps must be >= 1"),
            ("bootstrap_iterations", 1, (0, -2), "bootstrap_iterations must be >= 1"),
            ("bootstrap_quantile", 1.0, (0.0, -0.5, 1.01), r"bootstrap_quantile must lie in \(0, 1\]"),
        ],
    )
    def test_setting_that_crashes_or_does_nothing_rejected(self, field, edge, bad, message):
        assert PipelineConfig.from_doc({field: edge}) == PipelineConfig(**{field: edge})
        for value in bad:
            with pytest.raises(PipelineError, match=message):
                PipelineConfig(**{field: value})
            with pytest.raises(PipelineError, match=message):
                PipelineConfig.from_doc({field: value})

    def test_workers_below_one_rejected(self):
        for workers in (0, -3):
            with pytest.raises(PipelineError, match="workers must be >= 1"):
                PipelineConfig(workers=workers)

    def test_config_from_doc_checks_value_types(self):
        # an int is a float, and a field that defaults to None takes a string
        doc = {"tau_r": 1, "llm_model": "m", "llm_endpoint": None}
        assert PipelineConfig.from_doc(doc) == PipelineConfig(tau_r=1.0, llm_model="m")
        for key, value in (("count", 5.0), ("tau_p", "0.3"), ("workers", True), ("translator", None)):
            with pytest.raises(PipelineError, match=f"config key '{key}' must be "):
                PipelineConfig.from_doc({key: value})

    def test_config_from_doc_reads_settings_that_became_constants(self):
        # an older engine's config.json names them; read at today's value
        assert PipelineConfig.from_doc({**OLD_DEFAULTS, "tau_l": 4}) == PipelineConfig(tau_l=4)
        for key in OLD_DEFAULTS:
            assert PipelineConfig.from_doc({key: OLD_DEFAULTS[key]}) == PipelineConfig()

    @pytest.mark.parametrize("key, value", [("max_paths", 9), ("max_rounds", 50.0), ("max_statements", None)])
    def test_config_from_doc_refuses_an_old_setting_off_its_constant(self, key, value):
        message = f"written by an older engine: {key} was {value!r}, is now the constant {OLD_DEFAULTS[key]}"
        with pytest.raises(PipelineError, match=re.escape(message)):
            PipelineConfig.from_doc({**OLD_DEFAULTS, key: value})

    def test_config_from_doc_unknown_key_still_unknown(self):
        # a key that never was a setting is refused as before, beside old ones
        with pytest.raises(PipelineError, match=re.escape("unknown config keys: ['tau_q']")):
            PipelineConfig.from_doc({**OLD_DEFAULTS, "tau_q": 1})

    def test_verify_reads_a_dataset_with_the_old_settings(self, dataset, tmp_path):
        out, report = dataset
        old = tmp_path / "old"
        shutil.copytree(out, old)
        doc = {**load_config(out), **OLD_DEFAULTS}
        (old / "config.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
        result = verify(old)
        assert result.ok and result.total == report.count
        (old / "config.json").write_text(json.dumps({**doc, "max_paths": 3}) + "\n")
        assert verify(old).failures == [
            ("<dataset>", "cannot load config: written by an older engine: max_paths was 3, is now the constant 8")
        ]


class TestVerifyTamperDetection:
    def _tampered(self, dataset, tmp_path, mutate, index=0):
        out, _ = dataset
        target = tmp_path / "tampered"
        target.mkdir()
        for name in ("scenes.jsonl", "config.json"):
            (target / name).write_bytes((out / name).read_bytes())
        shutil.copytree(out / "svg", target / "svg")
        lines = (out / "records.jsonl").read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        mutate(docs[index])
        # a recomputed id renames the diagram too, so only the record's own
        # checks can fail, not the diagram check
        diagram = f"svg/{docs[index]['id']}.svg"
        if docs[index]["diagram"] != diagram:
            shutil.copy(target / docs[index]["diagram"], target / diagram)
            docs[index]["diagram"] = diagram
        with (target / "records.jsonl").open("w") as f:
            for doc in docs:
                f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        # a recomputed id goes into the manifest too, so only the record's own
        # checks can fail, not the manifest cross-check
        manifest = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
        manifest[index]["id"] = docs[index]["id"]
        (target / "manifest.jsonl").write_text("".join(json.dumps(m) + "\n" for m in manifest))
        return verify(target)

    def test_tampered_premise_fails(self, dataset, tmp_path):
        def mutate(doc):
            doc["formal_solutions"][0][0]["premises"][0] = "seg_len(A,B;7717)"
            doc["id"] = record_content_hash(doc)

        report = self._tampered(dataset, tmp_path, mutate)
        assert not report.ok
        assert any("step 0" in reason for _, reason in report.failures)

    def test_perturbed_answer_fails(self, dataset, tmp_path):
        ids = []

        def mutate(doc):
            if doc["kind"] != "numeric":
                return
            perturbed = Fraction(doc["answer"]["exact"]) * Fraction(21, 20)
            doc["answer"]["exact"] = str(perturbed)
            doc["answer"]["approx"] = float(perturbed)
            doc["id"] = record_content_hash(doc)
            ids.append(doc["id"])

        out, report0 = dataset
        if report0.records[0].kind != "numeric":
            pytest.skip("first record is not numeric")
        report = self._tampered(dataset, tmp_path, mutate)
        # the solution still ends at the old exact value, not at the new answer
        assert report.failures == [(ids[0], "solution 0 does not end at the target")]

    def test_answer_without_exact_value_is_corrupt(self, dataset, tmp_path):
        # a numeric answer is always an exact fraction; the float alone is not enough
        def mutate(doc):
            doc["answer"]["exact"] = None
            doc["id"] = record_content_hash(doc)

        out, report0 = dataset
        if report0.records[0].kind != "numeric":
            pytest.skip("first record is not numeric")
        report = self._tampered(dataset, tmp_path, mutate)
        assert [(where, reason.split(":")[0]) for where, reason in report.failures] == [
            ("line 1", "corrupt record")
        ]

    def test_hash_mismatch_detected(self, dataset, tmp_path):
        # the id is not recomputed, so the rebuilt record differs in question and id
        _, report0 = dataset

        def mutate(doc):
            doc["question"] = doc["question"] + " (edited)"

        report = self._tampered(dataset, tmp_path, mutate)
        assert report.failures == [
            (report0.records[0].id, "question disagrees with the record rebuilt from its formal core")
        ]

    # re-hashed edits of fields that are not part of the formal core: each
    # one fails only the comparison with the rebuilt record

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("question", lambda doc: "What is 2+2?"),
            ("premises", lambda doc: doc["premises"][::-1]),
            ("premises", lambda doc: doc["premises"][:1]),
            ("nl_solution", lambda doc: "Trust me."),
            ("connection_thinking", lambda doc: "Trust me."),
            ("untranslated", lambda doc: True),
            ("seed", lambda doc: 999999),
        ],
        ids=["question", "premises_reversed", "premises_cut", "nl_solution",
             "connection_thinking", "untranslated", "seed"],
    )
    def test_field_must_match_rebuilt_record(self, dataset, tmp_path, field, edit):
        ids = []

        def mutate(doc):
            doc[field] = edit(doc)
            doc["id"] = record_content_hash(doc)
            ids.append(doc["id"])

        report = self._tampered(dataset, tmp_path, mutate)
        assert report.failures == [
            (ids[0], f"{field} disagrees with the record rebuilt from its formal core")
        ]

    def test_corrupt_schema_detected(self, dataset, tmp_path):
        def mutate(doc):
            del doc["metadata"]

        report = self._tampered(dataset, tmp_path, mutate)
        assert any("corrupt" in reason for _, reason in report.failures)

    def _unlicensed(self, dataset, tmp_path, rule, mutate_step):
        """Rewrite the first ``rule`` step of the first record's first
        solution, recompute the id, and return the failures of that record."""
        ids = []

        def mutate(doc):
            step = next(s for s in doc["formal_solutions"][0] if s["rule"] == rule)
            mutate_step(doc, step)
            doc["id"] = record_content_hash(doc)
            ids.append(doc["id"])

        report = self._tampered(dataset, tmp_path, mutate)
        return [reason for rid, reason in report.failures if rid == ids[0]]

    def test_relabelled_rule_fails(self, dataset, tmp_path):
        def relabel(doc, step):
            step["rule"] = "thales_right_angle"

        reasons = self._unlicensed(dataset, tmp_path, "alternate_interior_angles", relabel)
        assert any("rule thales_right_angle does not license" in r for r in reasons), reasons

    def test_dropped_premise_fails(self, dataset, tmp_path):
        def drop(doc, step):
            del step["premises"][0]

        reasons = self._unlicensed(dataset, tmp_path, "asa_congruence", drop)
        assert any("rule asa_congruence does not license" in r for r in reasons), reasons

    def test_unrelated_premise_fails(self, dataset, tmp_path):
        def add(doc, step):
            assert len(step["premises"]) == 1
            extra = next(p for p in doc["premises"] if p not in step["premises"])
            step["premises"].append(extra)  # true and established, but not cited by the rule

        reasons = self._unlicensed(dataset, tmp_path, "alternate_interior_angles", add)
        assert any("rule alternate_interior_angles does not license" in r for r in reasons), reasons

    def test_swapped_conclusion_fails(self, dataset, tmp_path):
        def swap(doc, step):
            # true and established, but not what the rule derives here
            step["conclusion"] = next(p for p in doc["premises"] if p not in step["premises"])

        reasons = self._unlicensed(dataset, tmp_path, "alternate_interior_angles", swap)
        assert any("rule alternate_interior_angles does not license" in r for r in reasons), reasons

    def test_moved_point_fails_numerically(self, dataset, tmp_path):
        # the numeric check is a second witness next to the rule replay
        out, _ = dataset
        target = tmp_path / "moved"
        shutil.copytree(out, target)
        record = json.loads((out / "records.jsonl").read_text().splitlines()[0])
        label = parse_statement(record["formal_solutions"][0][0]["premises"][0]).groups[0][0]
        docs = [json.loads(line) for line in (out / "scenes.jsonl").read_text().splitlines()]
        for doc in docs:
            if doc["scene_id"] == record["scene_id"]:  # the id is kept, the point moves
                x, y = doc["scene"]["points"][label]
                doc["scene"]["points"][label] = [x + 0.5, y + 0.3]
        (target / "scenes.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs))
        report = verify(target)
        reasons = [reason for rid, reason in report.failures if rid == record["id"]]
        assert any("fails numerically" in r for r in reasons), reasons

    def test_missing_or_misnamed_diagram_fails(self, dataset, tmp_path):
        out, report0 = dataset
        first, second = report0.records[0], report0.records[1]
        target = tmp_path / "diagrams"
        shutil.copytree(out, target)
        (target / second.diagram).unlink()
        report = verify(target)
        assert report.failures == [(second.id, f"diagram {second.diagram} is missing")]
        # the diagram field is outside the content hash: point it elsewhere
        docs = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
        docs[0]["diagram"] = f"svg/{docs[2]['id']}.svg"
        (target / "records.jsonl").write_text(
            "".join(json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n" for d in docs)
        )
        report = verify(target)
        assert report.failures == [
            (first.id, f"diagram {REBUILT}"),
            (second.id, f"diagram {second.diagram} is missing"),
        ]

    def test_records_out_of_step_with_manifest_fail(self, dataset, tmp_path):
        out, report0 = dataset
        lines = (out / "records.jsonl").read_text().splitlines(keepends=True)
        first, second = (r.id for r in report0.records[:2])
        cases = {
            "truncated": (  # cut at a line boundary
                lines[:-1],
                f"manifest lists {len(lines)} records, records.jsonl holds {len(lines) - 1}",
            ),
            "reordered": (
                [lines[1], lines[0], *lines[2:]],
                f"record 0 is {second}, the manifest lists {first}",
            ),
        }
        for name, (kept, reason) in cases.items():
            target = tmp_path / name
            shutil.copytree(out, target)
            (target / "records.jsonl").write_text("".join(kept))
            report = verify(target)
            assert report.total == len(kept)
            assert report.failures == [("<dataset>", reason)], name
        (target / "records.jsonl").write_text("".join(lines))
        (target / "manifest.jsonl").unlink()
        report = verify(target)
        assert report.total == report0.count
        [(where, reason)] = report.failures
        assert where == "<dataset>" and reason.startswith("cannot read manifest: ")

    # verify runs each distinct check once per scene; the tests below tamper
    # a record that shares a scene or a cited step with an earlier record, so
    # a memo keyed too coarsely hands the tampered record a stale verdict

    def _shared_step(self, dataset):
        """(record index, step index): the first solution-0 step that an
        earlier record of the same scene also cites."""
        _, report0 = dataset
        seen = set()
        for i, record in enumerate(report0.records):
            for k, step in enumerate(record.solutions[0]):
                if (record.scene_id, step) in seen:
                    return i, k
            seen.update((record.scene_id, step) for sol in record.solutions for step in sol)
        pytest.fail("no record shares a step with an earlier record")

    def test_relabelled_shared_step_fails(self, dataset, tmp_path):
        index, k = self._shared_step(dataset)
        ids = []

        def relabel(doc):
            step = doc["formal_solutions"][0][k]
            step["rule"] = "thales_right_angle" if step["rule"] != "thales_right_angle" else "pythagoras"
            doc["id"] = record_content_hash(doc)
            ids.append((doc["id"], step["rule"]))

        report = self._tampered(dataset, tmp_path, relabel, index)
        (rid, rule), = ids
        assert report.failures == [(rid, f"solution 0 step {k}: rule {rule} does not license this step")]

    def test_shared_step_citing_a_premise_twice_fails(self, dataset, tmp_path):
        index, k = self._shared_step(dataset)
        ids = []

        def cite_twice(doc):
            step = doc["formal_solutions"][0][k]
            step["premises"].append(step["premises"][-1])
            doc["id"] = record_content_hash(doc)
            ids.append((doc["id"], step["rule"]))

        report = self._tampered(dataset, tmp_path, cite_twice, index)
        (rid, rule), = ids
        assert report.failures == [(rid, f"solution 0 step {k}: rule {rule} does not license this step")]

    def test_record_of_shared_steps_with_tampered_text_fails(self, dataset, tmp_path):
        # every step was replayed and worded for earlier records; the text
        # is still rebuilt whole and compared
        _, report0 = dataset
        seen = set()
        for index, record in enumerate(report0.records):
            steps = {(record.scene_id, s) for sol in (*record.solutions, record.wrong_branch or ()) for s in sol}
            if index and steps <= seen:
                break
            seen |= steps
        else:
            pytest.fail("no record shares every step with earlier records")
        ids = []

        def mutate(doc):
            doc["nl_solution"] = doc["nl_solution"].replace(".", ";", 1)
            doc["id"] = record_content_hash(doc)
            ids.append(doc["id"])

        report = self._tampered(dataset, tmp_path, mutate, index)
        assert report.failures == [(ids[0], f"nl_solution {REBUILT}")]

    def test_first_unestablished_premise_fails_before_a_later_one_is_checked(self, dataset, tmp_path):
        # checking the second premise numerically raises, since it names a
        # point the scene lacks; the first premise fails before that check
        out, report0 = dataset
        unestablished, unknown = parse_statement("seg_len(A,B;7717)"), parse_statement("seg_len(A,Z9;1)")
        with pytest.raises(GeometryError):
            load_scenes(out)[report0.records[0].scene_id].geometry.check_statement(unknown)
        ids = []

        def mutate(doc):
            doc["formal_solutions"][0][0]["premises"] = [unestablished.text(), unknown.text()]
            doc["id"] = record_content_hash(doc)
            ids.append(doc["id"])

        report = self._tampered(dataset, tmp_path, mutate)
        assert report.failures == [(ids[0], f"solution 0 step 0: premise {unestablished} not established")]

    def test_repeated_solution_fails(self, dataset, tmp_path):
        # a derivation listed twice is one solution, not the two a
        # multi_solution record promises
        _, report0 = dataset
        index = next(i for i, r in enumerate(report0.records) if r.template == "deductive")
        ids = []

        def mutate(doc):
            doc["formal_solutions"] = doc["formal_solutions"] * 2
            doc["template"] = "multi_solution"
            doc["id"] = record_content_hash(doc)
            ids.append(doc["id"])

        report = self._tampered(dataset, tmp_path, mutate, index)
        assert report.failures == [(ids[0], "solution 1 repeats solution 0")]

    def _moved(self, dataset, tmp_path, name):
        """A copy with the first cited point of record 0 moved, its scene id
        kept, and the (docs, scene docs) of the original."""
        out, _ = dataset
        target = tmp_path / name
        shutil.copytree(out, target)
        docs = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
        scene_docs = [json.loads(line) for line in (out / "scenes.jsonl").read_text().splitlines()]
        label = parse_statement(docs[0]["formal_solutions"][0][0]["premises"][0]).groups[0][0]
        moved = json.loads(json.dumps(scene_docs))
        for doc in moved:
            if doc["scene_id"] == docs[0]["scene_id"]:
                x, y = doc["scene"]["points"][label]
                doc["scene"]["points"][label] = [x + 0.5, y + 0.3]
        _write_lines(target / "scenes.jsonl", moved)
        return target, docs, scene_docs

    def test_moved_point_verdicts_do_not_depend_on_record_order(self, dataset, tmp_path):
        # every record of the scene is judged on its own steps, whichever of
        # them met a failing statement first
        target, docs, _ = self._moved(dataset, tmp_path, "moved")
        forward = dict(verify(target).failures)
        _write_lines(target / "records.jsonl", docs[::-1])
        _write_lines(target / "manifest.jsonl", [{"id": d["id"]} for d in docs[::-1]])
        backward = dict(verify(target).failures)
        assert forward == backward
        assert len(forward) >= 2
        assert {d["scene_id"] for d in docs if d["id"] in forward} == {docs[0]["scene_id"]}

    def test_moved_point_fails_after_clean_verify(self, dataset, tmp_path):
        # nothing verify learnt about a scene outlives the call
        out, _ = dataset
        assert verify(out).ok
        target, docs, _ = self._moved(dataset, tmp_path, "moved")
        assert "fails numerically" in dict(verify(target).failures)[docs[0]["id"]]

    def test_record_on_a_moved_copy_of_its_scene_fails(self, dataset, tmp_path):
        # the same steps and statements, replayed on another scene, are
        # judged on that scene's geometry
        out, _ = dataset
        target, docs, scene_docs = self._moved(dataset, tmp_path, "copied")
        moved = [json.loads(line) for line in (target / "scenes.jsonl").read_text().splitlines()]
        copy = next(d for d in moved if d["scene_id"] == docs[0]["scene_id"])
        copy["scene_id"] = "f" * 16
        _write_lines(target / "scenes.jsonl", [*scene_docs, copy])
        clone = json.loads(json.dumps(docs[0]))
        clone["scene_id"] = copy["scene_id"]
        clone["id"] = record_content_hash(clone)
        clone["diagram"] = f"svg/{clone['id']}.svg"
        shutil.copy(out / docs[0]["diagram"], target / clone["diagram"])
        _write_lines(target / "records.jsonl", [*docs, clone])
        _write_lines(target / "manifest.jsonl", [{"id": d["id"]} for d in [*docs, clone]])
        report = verify(target)
        assert [rid for rid, _ in report.failures] == [clone["id"]]
        assert "fails numerically" in report.failures[0][1]

    def test_moved_point_of_a_text_two_scenes_share_fails_in_one(self, dataset, tmp_path):
        # both scenes' records cite one statement text, parsed once per call;
        # each scene judges it on its own geometry
        out, _ = dataset
        docs = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
        scenes_of: dict[str, set[str]] = {}
        for doc in docs:
            for sol in [*doc["formal_solutions"], doc["wrong_branch"] or []]:
                for step in sol:
                    scenes_of.setdefault(step["premises"][0], set()).add(doc["scene_id"])
        text = next(t for t, ids in scenes_of.items() if len(ids) > 1)
        moved_id = min(scenes_of[text])
        label = parse_statement(text).groups[0][0]
        target = tmp_path / "shared"
        shutil.copytree(out, target)
        scene_docs = [json.loads(line) for line in (out / "scenes.jsonl").read_text().splitlines()]
        for doc in scene_docs:
            if doc["scene_id"] == moved_id:  # the id is kept, the point moves
                x, y = doc["scene"]["points"][label]
                doc["scene"]["points"][label] = [x + 0.5, y + 0.3]
        _write_lines(target / "scenes.jsonl", scene_docs)
        failures = dict(verify(target).failures)
        citing = {
            doc["id"]
            for doc in docs
            if doc["scene_id"] == moved_id
            and any(text in step["premises"] for sol in doc["formal_solutions"] for step in sol)
        }
        assert citing and citing <= failures.keys()
        assert all("fails numerically" in failures[rid] for rid in citing)
        # the records of the other scene, which cite the same text, verify
        assert {d["scene_id"] for d in docs if d["id"] in failures} == {moved_id}

    def test_moved_uncited_point_fails_every_record_of_its_scene(self, dataset, tmp_path):
        # no step cites the point; the scene check holds every initial
        # statement, which each record states in its question
        out, report0 = dataset
        scene_id, label = uncited_point(report0.records, load_scenes(out))
        copy_with_edited_scene(out, tmp_path / "moved", scene_id, move_point(label))
        failures = dict(verify(tmp_path / "moved").failures)
        assert failures.keys() == {r.id for r in report0.records if r.scene_id == scene_id}
        (reason,) = set(failures.values())
        assert reason.startswith("scene statement ") and reason.endswith(" fails numerically")
        assert label in set().union(*parse_statement(reason.split()[2]).groups)

    def test_point_on_top_of_another_fails_every_record_of_its_scene(self, dataset, tmp_path):
        out, report0 = dataset
        scene_id = report0.records[0].scene_id

        def add(points):
            points["Z9"] = list(points["A"])

        copy_with_edited_scene(out, tmp_path / "doubled", scene_id, add)
        failures = verify(tmp_path / "doubled").failures
        assert [rid for rid, _ in failures] == [r.id for r in report0.records if r.scene_id == scene_id]
        assert {reason for _, reason in failures} == {"scene is degenerate: points A,Z9 closer than d_min"}

    def test_scene_too_small_to_measure_fails_every_record_of_its_scene(self, dataset, tmp_path):
        # every ray's length times another's underflows to 0
        out, report0 = dataset
        scene_id = report0.records[0].scene_id

        def shrink(points):
            for label, (x, y) in points.items():
                points[label] = [x * 1e-200, y * 1e-200]

        copy_with_edited_scene(out, tmp_path / "tiny", scene_id, shrink)
        failures = verify(tmp_path / "tiny").failures
        assert [rid for rid, _ in failures] == [r.id for r in report0.records if r.scene_id == scene_id]
        assert all(reason.startswith("verification error: ray norms underflow at ") for _, reason in failures)

    def test_scene_naming_a_point_it_lacks_fails(self, dataset, tmp_path):
        # its texts were parsed once already, for a scene that has the point
        out, _ = dataset
        target = tmp_path / "lacking"
        shutil.copytree(out, target)
        scene_docs = [json.loads(line) for line in (out / "scenes.jsonl").read_text().splitlines()]
        copy = json.loads(json.dumps(scene_docs[0]))
        copy["scene_id"] = "f" * 16
        del copy["scene"]["points"][parse_statement(copy["scene"]["initial_statements"][0]).groups[0][0]]
        _write_lines(target / "scenes.jsonl", [*scene_docs, copy])
        with pytest.raises(UnknownPointError):
            load_scenes(target)
        (where, reason), = verify(target).failures
        assert where == "<dataset>" and reason.startswith("cannot load scenes: ")

    def test_scenes_line_that_is_not_an_object_fails(self, dataset, tmp_path):
        out, _ = dataset
        n = len((out / "scenes.jsonl").read_text().splitlines())
        bad_lines = ("[]", '{"scene_id": "x", "scene": 5}', '{"scene_id": "x", "scene": {"points": 5}}')
        for i, bad in enumerate(bad_lines):
            target = tmp_path / f"bad{i}"
            shutil.copytree(out, target)
            with (target / "scenes.jsonl").open("a") as f:
                f.write(bad + "\n")
            with pytest.raises(ValueError):
                load_scenes(target)
            (where, reason), = verify(target).failures
            assert where == "<dataset>"
            scenes = target / "scenes.jsonl"
            assert reason.startswith(f"cannot load scenes: {scenes} line {n + 1}: not a scene object: ")

    def test_missing_or_undecodable_records_file_fails(self, dataset, tmp_path):
        out, _ = dataset
        target = tmp_path / "records"
        shutil.copytree(out, target)
        (target / "records.jsonl").unlink()
        (where, reason), = verify(target).failures
        assert (where, reason.split(":")[0]) == ("<dataset>", "cannot read records")
        (target / "records.jsonl").write_bytes(b'{"id": "\xff"}\n')  # not UTF-8
        (where, reason), = verify(target).failures
        assert (where, reason.split(":")[0]) == ("<dataset>", "cannot read records")

    def test_undecodable_last_line_fails_the_whole_dataset(self, dataset, tmp_path):
        # streamed, the records before the byte are read and checked first
        out, _ = dataset
        target = tmp_path / "records"
        shutil.copytree(out, target)
        path = target / "records.jsonl"
        data = path.read_bytes()
        path.write_bytes(data[:-10] + b"\xff" + data[-10:])
        with pytest.raises(CorruptRecordError) as whole:
            list(read_jsonl(path))
        assert str(whole.value).startswith(f"{path} line {len(data.splitlines())}: not JSON: ")
        report = verify(target)
        assert (report.total, report.failures) == (0, [("<dataset>", f"cannot read records: {whole.value}")])

    @pytest.mark.parametrize("blank", ["\xa0", "\u2028"])
    def test_a_line_blank_only_to_str_is_a_corrupt_record(self, dataset, tmp_path, blank):
        # str.strip empties a no-break space, and str.splitlines breaks at U+2028;
        # bytes.strip and bytes.splitlines do neither, so each is a line that is not JSON
        out, _ = dataset
        target = tmp_path / "records"
        shutil.copytree(out, target)
        path = target / "records.jsonl"
        first, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(first + b"\n" + blank.encode() + b"\n" + rest)
        with pytest.raises(CorruptRecordError, match=f"^{re.escape(str(path))} line 2: not JSON: "):
            list(read_jsonl(path))
        corrupt = [where for where, reason in verify(target).failures if reason.startswith("corrupt record: ")]
        assert corrupt == ["line 2"]

    @given(
        st.sampled_from(_BREAKS),
        st.lists(st.tuples(st.sampled_from(["", "{}", "[1, 2]", '"a"', " 7", "\xa0"]), st.sampled_from(_BREAKS))),
    )
    @example("\r\n", [("{}", "\n")])
    @example("\r", [("", "\r"), ("{}", "\x85")])
    @settings(max_examples=150, deadline=None)
    def test_streamed_lines_are_the_whole_files(self, dataset, tmp_path_factory, first_break, lines):
        # a first line of 8191 bytes puts its break at the end of the first 8 KiB
        # read, where a \r\n is split in two
        target = tmp_path_factory.getbasetemp() / "lines"
        if not target.exists():
            shutil.copytree(dataset[0], target)
        path = target / "records.jsonl"
        text = json.dumps("x" * 8189) + first_break + "".join(line + brk for line, brk in lines)
        path.write_text(text, encoding="utf-8", newline="")
        data = text.encode()
        numbered = [(n, line.decode()) for n, line in enumerate(data.splitlines(), 1) if line.strip()]
        assert list(read_lines(path)) == numbered
        try:
            expected = [(n, json.loads(line)) for n, line in numbered]
        except ValueError:
            with pytest.raises(CorruptRecordError):
                list(read_jsonl(path))
        else:
            assert list(read_jsonl(path)) == expected
        # no line is a record, so each is a corrupt record of verify's, at the same number
        corrupt = [where for where, reason in verify(target).failures if reason.startswith("corrupt record: ")]
        assert corrupt == [f"line {n}" for n, _ in numbered]

    @pytest.mark.parametrize(
        "field, value",
        [
            (("formal_solutions", 0, 0, "rule"), ["x"]),
            (("metadata", "tau_l"), "5"),
            (("metadata", "tier"), True),
            (("overlap",), "5"),
            (("scene_id",), ["x"]),
            (("kind",), "x"),
        ],
        ids=["step_rule_list", "tau_l_string", "tier_bool", "overlap_string", "scene_id_list", "kind_unknown"],
    )
    def test_wrong_field_type_is_corrupt(self, dataset, tmp_path, field, value):
        # re-hashed, so only the type check can reject the record
        def mutate(doc):
            *path, key = field
            parent = doc
            for k in path:
                parent = parent[k]
            parent[key] = value
            doc["id"] = record_content_hash(doc)

        report = self._tampered(dataset, tmp_path, mutate)
        assert [(where, reason.split(":")[0]) for where, reason in report.failures] == [
            ("line 1", "corrupt record")
        ]

    # mutations that keep every statement parseable and the id re-hashed

    def test_changed_answer_and_last_conclusion_fail_numerically(self, dataset, tmp_path):
        _, report0 = dataset
        index = next(i for i, r in enumerate(report0.records) if r.kind == "numeric")
        ids = []

        def mutate(doc):
            # the answer and every solution's end move together, so the
            # solutions still end at the target
            changed = Fraction(doc["answer"]["exact"]) * Fraction(21, 20)
            doc["answer"]["exact"] = str(changed)
            doc["answer"]["approx"] = float(changed)
            for sol in doc["formal_solutions"]:
                last = parse_statement(sol[-1]["conclusion"])
                sol[-1]["conclusion"] = dataclasses.replace(last, value=changed).text()
            doc["id"] = record_content_hash(doc)
            ids.append((doc["id"], len(doc["formal_solutions"][0]) - 1))

        report = self._tampered(dataset, tmp_path, mutate, index)
        (rid, last), = ids
        assert report.failures == [(rid, f"solution 0 step {last}: conclusion fails numerically")]

    def test_swapped_steps_fail(self, dataset, tmp_path):
        # a step moved before the step that concludes one of its premises
        ids = []

        def swap(doc):
            sol = doc["formal_solutions"][0]
            k = next(
                k for k in range(len(sol) - 1) if sol[k]["conclusion"] in sol[k + 1]["premises"]
            )
            sol[k], sol[k + 1] = sol[k + 1], sol[k]
            doc["id"] = record_content_hash(doc)
            ids.append((doc["id"], k, sol[k + 1]["conclusion"]))

        report = self._tampered(dataset, tmp_path, swap)
        (rid, k, premise), = ids
        assert report.failures == [(rid, f"solution 0 step {k}: premise {premise} not established")]

    def test_wrong_overlap_fails(self, dataset, tmp_path):
        _, report0 = dataset
        index = next(i for i, r in enumerate(report0.records) if r.template == "traceback")
        ids = []

        def mutate(doc):
            doc["overlap"] = doc["overlap"] + 0.25
            doc["id"] = record_content_hash(doc)
            ids.append(doc["id"])

        report = self._tampered(dataset, tmp_path, mutate, index)
        assert report.failures == [
            (ids[0], "overlap disagrees with the record rebuilt from its formal core")
        ]

    @pytest.mark.parametrize(
        "template, field, value, reason",
        [
            ("traceback", "wrong_branch", None, f"template {REBUILT}"),
            ("traceback", "overlap", None, f"overlap {REBUILT}"),
            ("traceback", "template", "deductive", f"template {REBUILT}"),
            ("deductive", "template", "5", f"template {REBUILT}"),
            ("deductive", "template", "multi_solution", f"template {REBUILT}"),
            ("deductive", "template", "traceback", f"template {REBUILT}"),
            ("multi_solution", "template", "deductive", f"template {REBUILT}"),
            (
                "traceback",
                "formal_solutions",
                lambda doc: doc["formal_solutions"] * 2,
                "a record with a wrong branch needs exactly one solution",
            ),
            ("deductive", "overlap", 0.5, f"overlap {REBUILT}"),
        ],
        ids=[
            "traceback_without_wrong_branch",
            "traceback_without_overlap",
            "traceback_as_deductive",
            "unknown_template",
            "deductive_as_multi_solution",
            "deductive_as_traceback",
            "multi_solution_as_deductive",
            "traceback_with_two_solutions",
            "deductive_with_overlap",
        ],
    )
    def test_record_shape_must_fit_template(self, dataset, tmp_path, template, field, value, reason):
        # the template follows from the core's shape, so a field that does not
        # fit the stored template disagrees with the rebuilt record
        _, report0 = dataset
        index = next(i for i, r in enumerate(report0.records) if r.template == template)
        ids = []

        def mutate(doc):
            doc[field] = value(doc) if callable(value) else value
            doc["id"] = record_content_hash(doc)
            ids.append(doc["id"])

        report = self._tampered(dataset, tmp_path, mutate, index)
        assert report.failures == [(ids[0], reason)]

    @pytest.mark.parametrize("field", ["tau_l", "tau_r", "tau_p"])
    def test_thresholds_must_match_config(self, dataset, tmp_path, field):
        # a lowered threshold would let a record pass a filter it fails; the
        # rebuilt metadata carries the thresholds of config.json
        ids = []

        def mutate(doc):
            doc["metadata"][field] = -1
            doc["id"] = record_content_hash(doc)
            ids.append(doc["id"])

        report = self._tampered(dataset, tmp_path, mutate)
        assert report.failures == [(ids[0], f"metadata {REBUILT}")]

    def _with_thresholds(self, dataset, tmp_path, **thresholds):
        """Verify a copy of the dataset whose config.json and every record's
        metadata carry ``thresholds``, each id re-hashed and renamed in the
        diagrams and the manifest; returns the copy's records and report."""
        out, _ = dataset
        target = tmp_path / "thresholds"
        shutil.copytree(out, target)
        (target / "config.json").write_text(json.dumps({**load_config(out), **thresholds}))
        docs = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
        for doc in docs:
            doc["metadata"].update(thresholds)
            doc["id"] = record_content_hash(doc)
            shutil.copy(target / doc["diagram"], target / f"svg/{doc['id']}.svg")
            doc["diagram"] = f"svg/{doc['id']}.svg"
        (target / "records.jsonl").write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        manifest = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
        for line, doc in zip(manifest, docs):
            line["id"] = doc["id"]
        (target / "manifest.jsonl").write_text("".join(json.dumps(m) + "\n" for m in manifest))
        return docs, verify(target)

    def test_raised_length_threshold_fails_short_solutions(self, dataset, tmp_path):
        docs, report = self._with_thresholds(dataset, tmp_path, tau_l=9)
        expected = []
        for doc in docs:
            short = [j for j, sol in enumerate(doc["formal_solutions"]) if len(sol) < 9]
            if short:
                expected.append((doc["id"], f"solution {short[0]} violates the length filter"))
        assert report.failures == expected
        assert (len(expected), len(docs)) == (32, 43)

    def test_raised_premise_ratio_threshold_fails_narrow_solutions(self, dataset, tmp_path):
        out, _ = dataset
        initial = {}
        for line in (out / "scenes.jsonl").read_text().splitlines():
            doc = json.loads(line)
            initial[doc["scene_id"]] = set(doc["scene"]["initial_statements"])
        docs, report = self._with_thresholds(dataset, tmp_path, tau_r=0.6)
        expected = []
        for doc in docs:
            given = initial[doc["scene_id"]]
            narrow = [
                j
                for j, sol in enumerate(doc["formal_solutions"])
                if len({p for step in sol for p in step["premises"]} & given) / len(given) < 0.6
            ]
            if narrow:
                expected.append((doc["id"], f"solution {narrow[0]} violates the premise-ratio filter"))
        assert report.failures == expected
        assert (len(expected), len(docs)) == (30, 43)

    def test_raised_overlap_threshold_fails_distant_wrong_branches(self, dataset, tmp_path):
        docs, report = self._with_thresholds(dataset, tmp_path, tau_p=0.9)
        expected = [
            (doc["id"], "overlap violates tau_p")
            for doc in docs
            if doc["overlap"] is not None and doc["overlap"] < 0.9
        ]
        assert report.failures == expected
        assert (len(expected), len(docs)) == (10, 43)

    def test_unknown_rule_fails(self, dataset, tmp_path):
        ids = []

        def mutate(doc):
            doc["formal_solutions"][0][0]["rule"] = "no_such_rule"
            doc["id"] = record_content_hash(doc)
            ids.append(doc["id"])

        report = self._tampered(dataset, tmp_path, mutate)
        assert report.failures == [(ids[0], "solution 0 step 0: unknown rule no_such_rule")]

    def test_unknown_scene_fails(self, dataset, tmp_path):
        ids = []

        def mutate(doc):
            doc["scene_id"] = "0" * len(doc["scene_id"])
            doc["id"] = record_content_hash(doc)
            ids.append((doc["id"], doc["scene_id"]))

        report = self._tampered(dataset, tmp_path, mutate)
        (rid, scene_id), = ids
        assert report.failures == [(rid, f"unknown scene {scene_id}")]

    def test_conclusion_the_geometry_cannot_check_fails(self, dataset, tmp_path):
        # a last conclusion naming a point the scene lacks: its numeric check
        # raises, and verify reports that instead of crashing
        out, report0 = dataset
        unknown = parse_statement("seg_len(A,Z9;1)")
        with pytest.raises(GeometryError) as raised:
            load_scenes(out)[report0.records[0].scene_id].geometry.check_statement(unknown)
        ids = []

        def mutate(doc):
            doc["formal_solutions"][0][-1]["conclusion"] = unknown.text()
            doc["id"] = record_content_hash(doc)
            ids.append(doc["id"])

        report = self._tampered(dataset, tmp_path, mutate)
        assert report.failures == [(ids[0], f"verification error: {raised.value}")]

    def test_unlicensed_wrong_branch_step_fails(self, dataset, tmp_path):
        # the wrong branch's last step concludes the erroneous statement, which
        # no correct solution reaches, so only the wrong branch's replay fails
        _, report0 = dataset
        index = next(i for i, r in enumerate(report0.records) if r.template == "traceback")
        ids = []

        def relabel(doc):
            step = doc["wrong_branch"][-1]
            step["rule"] = "thales_right_angle" if step["rule"] != "thales_right_angle" else "pythagoras"
            doc["id"] = record_content_hash(doc)
            ids.append((doc["id"], len(doc["wrong_branch"]) - 1, step["rule"]))

        report = self._tampered(dataset, tmp_path, relabel, index)
        (rid, last, rule), = ids
        assert report.failures == [(rid, f"wrong branch step {last}: rule {rule} does not license this step")]

    def test_step_reconcluding_its_own_premise_fails(self, dataset, tmp_path):
        # the last conclusion is established, so citing it passes the premise
        # check; the solution still ends at the target
        ids = []

        def reconclude(doc):
            sol = doc["formal_solutions"][0]
            last = sol[-1]
            sol.append({"premises": [last["conclusion"]], "rule": last["rule"], "conclusion": last["conclusion"]})
            doc["id"] = record_content_hash(doc)
            ids.append((doc["id"], len(sol) - 1))

        report = self._tampered(dataset, tmp_path, reconclude)
        (rid, k), = ids
        assert report.failures == [(rid, f"solution 0 step {k}: conclusion among premises")]

    @pytest.mark.parametrize(
        "solutions, reason",
        [
            (lambda sols: [], "no formal solution"),
            (lambda sols: [*sols, []], "solution {n} is empty"),
        ],
        ids=["no_solution", "last_solution_empty"],
    )
    def test_missing_or_empty_solution_fails(self, dataset, tmp_path, solutions, reason):
        _, report0 = dataset
        index = next(i for i, r in enumerate(report0.records) if r.template == "deductive")
        ids = []

        def mutate(doc):
            doc["formal_solutions"] = solutions(doc["formal_solutions"])
            doc["id"] = record_content_hash(doc)
            ids.append(doc["id"])

        report = self._tampered(dataset, tmp_path, mutate, index)
        n = len(report0.records[index].solutions)
        assert report.failures == [(ids[0], reason.format(n=n))]

    def test_missing_or_invalid_config_fails(self, dataset, tmp_path):
        out, _ = dataset
        target = tmp_path / "config"
        shutil.copytree(out, target)
        config = target / "config.json"
        for text in (
            None,  # deleted
            "{",
            "[]",
            json.dumps({**load_config(out), "tau_r": 1.5}),
            json.dumps({**load_config(out), "colour": "red"}),
        ):
            config.unlink(missing_ok=True)
            if text is not None:
                config.write_text(text)
            (where, reason), = verify(target).failures
            assert (where, reason.split(":")[0]) == ("<dataset>", "cannot load config")

    def test_external_texts_checked_without_a_transport_call(self, tmp_path, monkeypatch):
        # external texts cannot be rebuilt offline: verify asks no backend,
        # and checks only that they are null exactly when untranslated is true
        def answer(url, payload, timeout):
            return json.dumps({"choices": [{"message": {"content": "Translated sentence."}}]})

        calls = []

        def refuse(url, payload, timeout):
            calls.append(url)
            raise AssertionError("verify called the translator")

        config = dataclasses.replace(
            SMALL, count=10, translator="external", llm_endpoint="https://llm.invalid", llm_model="m"
        )
        out = tmp_path / "external"
        monkeypatch.setattr(
            geoforge.pipeline, "ExternalBackend", functools.partial(ExternalBackend, transport=answer)
        )
        report0 = generate(config, out)
        assert report0.count and not any(r.untranslated for r in report0.records)
        monkeypatch.setattr(
            geoforge.pipeline, "ExternalBackend", functools.partial(ExternalBackend, transport=refuse)
        )
        assert verify(out).ok

        def mutate(doc):
            doc["untranslated"] = True
            doc["id"] = record_content_hash(doc)

        report = self._tampered((out, report0), tmp_path, mutate)
        (_, reason), = report.failures
        assert reason == "nl_solution and connection_thinking must be null exactly when untranslated is true"
        assert calls == []


# the functions whose failure messages ``verify`` reports
_VERIFY_PATH = (
    "verify",
    "_verify_record",
    "_replay_steps",
    "_manifest_mismatch",
    "_SceneChecks.__init__",
    "_StepChecks.after_premises",
)


def _is_text(node: ast.AST) -> bool:
    return isinstance(node, ast.JoinedStr) or (
        isinstance(node, ast.Constant) and isinstance(node.value, str)
    )


def _pieces(node: ast.AST) -> list[str]:
    """The literal runs of a string or f-string, without the placeholders,
    trimmed of the spaces and colons that join them to a placeholder."""
    values = node.values if isinstance(node, ast.JoinedStr) else [node]
    return [v.value.strip(" :") for v in values if isinstance(v, ast.Constant) and v.value.strip(" :")]


def _verify_messages() -> list[ast.AST]:
    """Every failure-message literal on the ``verify`` path: returned (alone
    or first in a tuple), assigned, or the reason of a (where, reason) pair."""
    defs = {}
    for node in ast.parse(Path(geoforge.pipeline.__file__).read_text()).body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            defs.update((f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef))
    messages = []
    for name in _VERIFY_PATH:
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Return) and node.value is not None:
                value = node.value.elts[0] if isinstance(node.value, ast.Tuple) else node.value
            elif isinstance(node, ast.Assign):
                value = node.value
            elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
                value = node.elts[1]
            else:
                continue
            if _is_text(value):
                messages.append(value)
    return messages


def _test_texts() -> list[str]:
    """The string literals of the tests (bodies and decorators of the
    ``test_*`` functions, and module constants), this guard's own aside."""
    texts = []
    for path in Path(__file__).parent.glob("test_*.py"):
        tree = ast.parse(path.read_text())
        roots: list[ast.AST] = [n for n in tree.body if isinstance(n, ast.Assign)]
        roots += [
            n
            for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef)
            and n.name.startswith("test_")
            and n.name != "test_every_verify_failure_message_is_asserted"
        ]
        texts += [" ".join(_pieces(n)) for root in roots for n in ast.walk(root) if _is_text(n)]
    return texts


def test_every_verify_failure_message_is_asserted():
    # a check whose message no test names is a check no test is shown to
    # kill: each literal run of every message must appear in some test
    messages = _verify_messages()
    shown = {ast.unparse(m) for m in messages}
    assert {"'no formal solution'", "'conclusion among premises'"} <= shown
    assert "f'{label} step {i}: unknown rule {step.rule}'" in shown
    assert "f'corrupt record: {exc}'" in shown
    texts = _test_texts()
    unasserted = [
        ast.unparse(m)
        for m in messages
        if not all(any(piece in text for text in texts) for piece in _pieces(m))
    ]
    assert unasserted == []


class TestVerifyWork:
    def test_each_check_runs_once_per_scene(self, dataset, monkeypatch):
        out, _ = dataset
        records = load_records(out)
        docs = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
        steps = [
            (r.scene_id, step)
            for r in records
            for sol in (*r.solutions, r.wrong_branch or ())
            for step in sol
        ]
        replays = {(sid, s.rule, s.premises, s.conclusion) for sid, s in steps}
        # each scene's initial statements once, by its scene check, then each
        # distinct conclusion once
        scenes = load_scenes(out)
        initial = sum(len(scenes[sid].initial_statements) for sid in {r.scene_id for r in records})
        concluded = {(sid, s.conclusion) for sid, s in steps}
        texts = {
            text
            for line in (out / "scenes.jsonl").read_text().splitlines()
            for text in json.loads(line)["scene"]["initial_statements"]
        }
        for doc in docs:
            texts.update(doc["premises"])
            texts.add(doc["target"])
            for sol in [*doc["formal_solutions"], doc["wrong_branch"] or []]:
                for step in sol:
                    texts.update(step["premises"])
                    texts.add(step["conclusion"])

        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Rule, "recheck", counted("recheck", Rule.recheck))
        monkeypatch.setattr(
            SceneGeometry, "check_statement", counted("check", SceneGeometry.check_statement)
        )
        # the parser's body, behind its table of parsed texts
        monkeypatch.setattr(geoforge.statements, "_parse", counted("parse", geoforge.statements._parse))
        clear_tables()  # loading the records and scenes above filled them
        assert verify(out).ok
        assert calls["recheck"] == len(replays) < len(steps)
        assert calls["check"] == initial + len(concluded)
        assert calls["parse"] == len(texts)

    def test_each_text_and_step_handled_once_per_call(self, tmp_path, monkeypatch):
        # one parse per distinct text of both files and one replay per
        # distinct step of a scene
        out = tmp_path / "counted"
        generate(dataclasses.replace(SMALL, count=30), out)
        records = load_records(out)
        scene_texts = [
            text
            for line in (out / "scenes.jsonl").read_text().splitlines()
            for text in json.loads(line)["scene"]["initial_statements"]
        ]
        texts = set(scene_texts)
        for line in (out / "records.jsonl").read_text().splitlines():
            doc = json.loads(line)
            texts.update(doc["premises"], [doc["target"]])
            for sol in [*doc["formal_solutions"], doc["wrong_branch"] or []]:
                for step in sol:
                    texts.update(step["premises"], [step["conclusion"]])
        steps = [
            (r.scene_id, step) for r in records for sol in (*r.solutions, r.wrong_branch or ()) for step in sol
        ]
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(geoforge.statements, "_parse", counted("parse", geoforge.statements._parse))
        monkeypatch.setattr(Rule, "recheck", counted("recheck", Rule.recheck))
        clear_tables()  # loading the records above filled them
        assert verify(out).ok
        assert calls["parse"] == len(texts) < len(scene_texts) + len(texts)
        assert calls["recheck"] == len({*steps}) < len(steps)

    def test_each_statement_serialized_and_sentence_worded_once_per_call(self, dataset, monkeypatch):
        # statements keep their text and the backend its sentences: before,
        # a verify of this dataset serialized 2 102 times for 165 distinct
        # statements and worded 366 step sentences for 105 distinct steps
        out, _ = dataset
        records = load_records(out)
        texts = set()
        for line in (out / "records.jsonl").read_text().splitlines():
            doc = json.loads(line)
            texts.update(doc["premises"], [doc["target"]])
            for sol in [*doc["formal_solutions"], doc["wrong_branch"] or []]:
                for step in sol:
                    texts.update(step["premises"], [step["conclusion"]])
        worded = {step for r in records for step in (*r.solutions[0], *(r.wrong_branch or ()))}
        serialized, sentences = [], []
        serialize = geoforge.statements.serialize_statement
        step_sentence = TemplateBackend.step_sentence

        def counted_serialize(s):
            serialized.append(s)
            return serialize(s)

        def counted_step_sentence(self, step):
            sentences.append(step)
            return step_sentence(self, step)

        monkeypatch.setattr(geoforge.statements, "serialize_statement", counted_serialize)
        monkeypatch.setattr(TemplateBackend, "step_sentence", counted_step_sentence)
        assert verify(out).ok
        assert len(serialized) == len(set(serialized)) == len(texts)
        assert len(sentences) == len(set(sentences)) == len(worded)
        # the memos live for one call: a second starts empty and redoes each
        assert verify(out).ok
        assert len(serialized) == 2 * len(texts)
        assert len(sentences) == 2 * len(worded)


class TestBootstrap:
    def test_generation_shift(self, dataset, tmp_path):
        out, report = dataset
        boot_dir = tmp_path / "boot"
        boot = bootstrap(SMALL, out, boot_dir)
        assert boot.count > 0
        assert all(r.metadata.bootstrap_generation == 1 for r in boot.records)
        assert verify(boot_dir).ok

    def test_strict_premise_growth(self, dataset, tmp_path):
        out, _ = dataset
        boot_dir = tmp_path / "boot2"
        boot = bootstrap(SMALL, out, boot_dir)
        prior_scenes = load_scenes(out)
        new_scenes = load_scenes(boot_dir)
        matched = 0
        for scene in new_scenes.values():
            ancestors = [
                p
                for p in prior_scenes.values()
                if p.seed == scene.seed and p.generator == scene.generator
            ]
            assert ancestors
            assert len(scene.initial_statements) > len(ancestors[0].initial_statements)
            matched += 1
        assert matched == len(new_scenes)

    def test_selection_quantile_size(self, dataset, tmp_path):
        out, report = dataset
        scene_count = len({r.scene_id for r in report.records})
        boot = bootstrap(SMALL, out, tmp_path / "boot3")
        selected = {r.scene_id for r in boot.records}
        import math

        assert len(selected) <= max(1, math.ceil(SMALL.bootstrap_quantile * scene_count))

    def test_workers_do_not_change_output(self, dataset, tmp_path):
        # both failure kinds: the deleted first scenes line is missing, and a
        # later generation's scene would not grow; at 2 extra steps several
        # scenes of each generation yield, so their order shows
        out, _ = dataset
        prior = tmp_path / "prior"
        shutil.copytree(out, prior)
        scenes = (prior / "scenes.jsonl").read_text().splitlines(keepends=True)
        (prior / "scenes.jsonl").write_text("".join(scenes[1:]))
        config = dataclasses.replace(
            SMALL, bootstrap_quantile=1.0, bootstrap_extra_steps=2, bootstrap_iterations=4
        )
        serial = bootstrap(config, prior, tmp_path / "serial")
        parallel = bootstrap(dataclasses.replace(config, workers=2), prior, tmp_path / "parallel")
        missing = json.loads(scenes[0])["scene_id"]
        assert f"bootstrap: scene {missing} missing" in serial.failures
        assert any(f.endswith(" would not grow") for f in serial.failures)
        assert parallel.failures == serial.failures
        for name in ("records.jsonl", "scenes.jsonl"):
            assert (tmp_path / "parallel" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

    def test_output_independent_of_hash_seed_and_workers(self, dataset, tmp_path):
        # generations keep the ranked scene order whatever order workers finish in
        out, _ = dataset
        pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        digests = set()
        for hash_seed in ("1", "2"):
            for workers in (1, 2):
                config = tmp_path / f"w{workers}.json"
                config.write_text(json.dumps({"workers": workers}))
                boot = tmp_path / f"h{hash_seed}w{workers}"
                subprocess.run(
                    [sys.executable, "-c", "import sys; from geoforge.cli import main; sys.exit(main())",
                     "bootstrap", "--in", str(out), "--out", str(boot), "--config", str(config),
                     "--quantile", "1.0", "--extra-steps", "2", "--iterations", "2"],
                    env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed},
                    check=True,
                    capture_output=True,
                )
                assert (boot / "records.jsonl").stat().st_size > 0
                digests.add(tuple(
                    hashlib.sha256((boot / name).read_bytes()).hexdigest()
                    for name in ("records.jsonl", "scenes.jsonl")
                ))
        assert len(digests) == 1

    def test_pool_leaves_no_child(self, dataset, tmp_path):
        out, _ = dataset
        generate(dataclasses.replace(SMALL, count=4, workers=2), tmp_path / "gen")
        assert not multiprocessing.active_children()
        bootstrap(dataclasses.replace(SMALL, workers=2), out, tmp_path / "boot")
        assert not multiprocessing.active_children()

    def test_worker_exception_propagates(self, dataset, tmp_path, monkeypatch):
        def fail(*args):
            raise RuntimeError("scene failed in a worker")

        # the pool's workers are forked inside the call, so they see the patch
        monkeypatch.setattr(geoforge.pipeline, "_process_scene", fail)
        out, _ = dataset
        with pytest.raises(RuntimeError, match="scene failed in a worker"):
            bootstrap(dataclasses.replace(SMALL, bootstrap_quantile=1.0, workers=2), out, tmp_path / "boot")
        assert not (tmp_path / "boot" / "records.jsonl").exists()
        assert not multiprocessing.active_children()

    def test_capped_base_does_not_grow(self, monkeypatch):
        base = extend_scene(generate_base_scene("rectangle", 5), 40, 7)
        assert len(base.geometry) == POINT_CAP

        def extend(*args, **kwargs):
            raise AssertionError("extend_scene called on a capped base")

        monkeypatch.setattr(geoforge.pipeline, "extend_scene", extend)
        assert geoforge.pipeline._grow_scene(SMALL, base, 1) is None

    def test_empty_prior_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "records.jsonl").write_text("")
        (empty / "scenes.jsonl").write_text("")
        with pytest.raises(PipelineError):
            bootstrap(SMALL, empty, tmp_path / "b")


def _written_and_linked(records) -> tuple[str, str]:
    """The ids of the two first records, in id order, of a scene with more
    than one: the writer writes the first's diagram and links the second's."""
    by_scene: dict[str, list[str]] = {}
    for r in records:
        by_scene.setdefault(r.scene_id, []).append(r.id)
    return next(tuple(sorted(ids)[:2]) for ids in by_scene.values() if len(ids) > 1)


def _tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root``, temp files included, by its path below ``root``."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _write_lines(path: Path, docs) -> None:
    path.write_text("".join(json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n" for d in docs))


def _table_sizes() -> tuple[int, int, int]:
    """Entries of the call-scoped tables: canonical statements, parsed texts, stored steps."""
    return _canonical.cache_info().currsize, len(geoforge.statements._parsed), len(geoforge.dataset._steps)


class TestCanonicalTable:
    """``generate``, ``bootstrap`` and ``verify`` fill the call-scoped tables
    (canonical statements, parsed texts and stored steps) and leave each
    empty when they return, or raise."""

    @pytest.fixture
    def sizes_at_clear(self, monkeypatch) -> list[tuple[int, int, int]]:
        sizes = []
        clear = geoforge.pipeline.clear_tables

        def spy():
            sizes.append(_table_sizes())
            clear()

        monkeypatch.setattr(geoforge.pipeline, "clear_tables", spy)
        return sizes

    def test_empty_after_each_call(self, dataset, sizes_at_clear, tmp_path):
        out, _ = dataset
        generate(dataclasses.replace(SMALL, count=5), tmp_path / "gen")
        assert _table_sizes() == (0, 0, 0)
        bootstrap(SMALL, out, tmp_path / "boot")
        assert _table_sizes() == (0, 0, 0)
        assert verify(tmp_path / "boot").ok
        assert _table_sizes() == (0, 0, 0)
        generated, booted, verified = sizes_at_clear
        # generate builds statements but reads none; the other two read both files
        assert generated[0] > 0 and min(booted) > 0 and min(verified) > 0

    def test_empty_after_bootstrap_yields_no_records(self, dataset, sizes_at_clear, tmp_path, monkeypatch):
        out, _ = dataset
        monkeypatch.setattr(geoforge.pipeline, "_grow_scene", lambda *args: None)
        with pytest.raises(PipelineError, match="yielded no records"):
            bootstrap(SMALL, out, tmp_path / "boot")
        assert _table_sizes() == (0, 0, 0)
        assert len(sizes_at_clear) == 1 and min(sizes_at_clear[0]) > 0  # loading the prior filled each


class TestCurate:
    def test_eight_records_for_quota_two(self, tmp_path):
        data = synthetic_dataset(tmp_path)
        chosen = curate_testset(data, 2, tmp_path / "test_split")
        assert len(chosen) == 8
        per_tier = {}
        for r in chosen:
            per_tier[r.metadata.tier] = per_tier.get(r.metadata.tier, 0) + 1
        assert per_tier == {1: 2, 2: 2, 3: 2, 4: 2}

    def test_key_and_test_files(self, tmp_path):
        data = synthetic_dataset(tmp_path)
        split = tmp_path / "split"
        curate_testset(data, 1, split)
        test_docs = [json.loads(line) for line in (split / "test.jsonl").read_text().splitlines()]
        key_docs = [json.loads(line) for line in (split / "key.jsonl").read_text().splitlines()]
        assert len(test_docs) == len(key_docs) == 4
        for doc in test_docs:
            assert set(doc) == {"id", "question", "diagram", "tier"}

    def test_insufficient_records(self, tmp_path):
        data = synthetic_dataset(tmp_path, tiers=(1, 2, 3))
        with pytest.raises(InsufficientRecordsError) as exc_info:
            curate_testset(data, 2, tmp_path / "split2")
        assert exc_info.value.tier == 4

    @pytest.mark.parametrize("per_tier", [0, -1])
    def test_per_tier_below_one_rejected(self, per_tier, tmp_path):
        data = synthetic_dataset(tmp_path)
        with pytest.raises(PipelineError, match="per_tier must be >= 1"):
            curate_testset(data, per_tier, tmp_path / "split")
        assert not (tmp_path / "split").exists()

    def test_proof_records_never_selected(self, tmp_path):
        data = synthetic_dataset(tmp_path)
        chosen = curate_testset(data, 2, tmp_path / "split3")
        assert all(r.kind == "numeric" for r in chosen)

    def test_diagrams_are_copies(self, tmp_path):
        data = synthetic_dataset(tmp_path)
        # one file under every name, as the writer stores equal diagrams
        names = sorted((data / "svg").glob("*.svg"))
        for path in names[1:]:
            path.unlink()
            os.link(names[0], path)
        chosen = curate_testset(data, 1, tmp_path / "split")
        for r in chosen:
            copy, src = tmp_path / "split" / r.diagram, data / r.diagram
            assert src.stat().st_nlink == len(names)
            assert copy.read_bytes() == src.read_bytes()
            assert copy.stat().st_nlink == 1

    def test_missing_diagram_fails_before_writing(self, tmp_path):
        data = synthetic_dataset(tmp_path)
        victim = curate_testset(data, 1, tmp_path / "first")[-1]
        (data / victim.diagram).unlink()
        with pytest.raises(PipelineError, match=f"record {victim.id}: diagram {victim.diagram} is missing"):
            curate_testset(data, 1, tmp_path / "split")
        assert not (tmp_path / "split").exists()


class TestCheckAnswer:
    CASES = [
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
        ("0.01", 0.0, True),  # zero-key absolute boundary
        ("0.011", 0.0, False),
        ("120", 7.0, False),
        ("answer 3/0", 5.0, False),  # a zero denominator names no number
        ("1" + "0" * 400 + "/1", 5.0, False),  # beyond float range
    ]

    @pytest.mark.parametrize("predicted,key,expected", CASES)
    def test_table(self, predicted, key, expected):
        assert check_answer(predicted, key).correct is expected

    def test_no_number_flag(self):
        result = check_answer("i cannot solve this", 3.0)
        assert result == AnswerCheck(False, False, None)

    def test_fraction_without_a_float_value_is_a_wrong_answer(self):
        for predicted in ("answer 3/0", "1" + "0" * 400 + "/1"):
            assert check_answer(predicted, 5) == AnswerCheck(False, True, None)

    def test_fraction_key(self):
        assert check_answer("0.5", Fraction(1, 2)).correct

    def test_non_finite_key_rejected(self):
        with pytest.raises(PipelineError):
            check_answer("1", float("nan"))


class TestStats:
    def test_shapes(self, dataset):
        _, report = dataset
        s = stats(report.records)
        assert s.total == report.count
        assert sum(s.length_histogram.values()) == s.total
        assert sum(s.ratio_histogram.values()) == s.total
        assert sum(s.template_counts.values()) == s.total
        assert "0-4" not in {k for k, v in s.length_histogram.items() if v}

    def test_zero_mass_below_tau_l(self, dataset):
        _, report = dataset
        s = stats(report.records)
        below = [r for r in report.records if r.metadata.reasoning_length < SMALL.tau_l]
        assert not below

    def test_generation_comparison(self, dataset, tmp_path):
        out, report = dataset
        boot = bootstrap(SMALL, out, tmp_path / "bs")
        combined = stats(report.records + boot.records)
        assert set(combined.generation_length_histograms) == {"0", "1"}
        text = combined.render_text()
        assert "generation 0" in text and "generation 1" in text

    def test_pinned_on_hand_built_records(self):
        # ratios k/10 land in bucket k, and 0.9 and 1.0 share the closed last
        # one; lengths 4, 5, 9 and 10 sit on bucket edges; two generations
        blank = dict.fromkeys(f.name for f in dataclasses.fields(ProblemRecord))
        records = []
        for k in range(11):
            length = (4, 5, 9, 10)[k % 4]
            meta = RecordMetadata(length, k / 10, tier_of(length), 5, 0.5, 0.3, k % 2)
            template = ("deductive", "multi_solution", "traceback")[k % 3]
            kind = ("numeric", "proof")[k % 2]
            records.append(ProblemRecord(**{**blank, "template": template, "kind": kind, "metadata": meta}))
        ratio_labels = [f"0.{i}-{'1.0' if i == 9 else f'0.{i + 1}'}" for i in range(10)]
        empty = stats([])
        assert empty.to_doc() == {
            "total": 0,
            "length_histogram": {},
            "ratio_histogram": dict.fromkeys(ratio_labels, 0),
            "tier_counts": {},
            "template_counts": {},
            "kind_counts": {},
            "generation_length_histograms": {},
        }
        assert empty.render_text().splitlines() == [
            "records: 0", "", "reasoning length:", "", "premise ratio:",
            *(f"    {label}       0  " for label in ratio_labels),
            "", "tiers:     ", "templates: ", "kinds:     ",
        ]
        report = stats(records)
        assert report.to_doc() == {
            "total": 11,
            "length_histogram": {"0-4": 3, "5-9": 6, "10-14": 2},
            "ratio_histogram": {**dict.fromkeys(ratio_labels, 1), "0.9-1.0": 2},
            "tier_counts": {"1": 8, "None": 3},
            "template_counts": {"deductive": 4, "multi_solution": 4, "traceback": 3},
            "kind_counts": {"numeric": 6, "proof": 5},
            "generation_length_histograms": {
                "0": {"0-4": 3, "5-9": 3},
                "1": {"0-4": 0, "5-9": 3, "10-14": 2},
            },
        }
        assert report.render_text().splitlines() == [
            "records: 11",
            "",
            "reasoning length:",
            "        0-4       3  ###",
            "        5-9       6  ######",
            "      10-14       2  ##",
            "",
            "premise ratio:",
            *(f"    {label}       1  #" for label in ratio_labels[:-1]),
            "    0.9-1.0       2  ##",
            "",
            "tiers:     1:8  None:3",
            "templates: deductive:4  multi_solution:4  traceback:3",
            "kinds:     numeric:6  proof:5",
            "",
            "reasoning length by bootstrap generation:",
            "  generation 0:",
            "          0-4       3  ###",
            "          5-9       3  ###",
            "  generation 1:",
            "          0-4       0  ",
            "          5-9       3  ###",
            "        10-14       2  ##",
        ]
        assert report.render_text().endswith("##\n")
