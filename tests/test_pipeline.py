import dataclasses
import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import geoforge.dataset
import geoforge.pipeline
from geoforge.dataset import (
    load_config,
    load_records,
    load_scenes,
    record_content_hash,
    write_dataset,
)
from geoforge.geometry import SceneGeometry
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
from geoforge.statements import parse_statement
from geoforge.translate import ExternalBackend

SMALL = PipelineConfig(seed_start=0, count=40)
PINNED_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"
SRC = Path(__file__).resolve().parents[1] / "src"


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
            assert len(deductive) <= SMALL.max_problems_per_scene
            assert sum(r.kind == "proof" for r in deductive) <= 1
            assert sum(r.template == "multi_solution" for r in records) <= 1
            assert sum(r.template == "traceback" for r in records) <= 1

    def test_matches_pinned_digests(self, tmp_path):
        # the benchmark's pinned digests of this run; byte drift shows here first
        pinned = json.loads(PINNED_DIGESTS.read_text(encoding="utf-8"))["generate 0:200"]
        out = tmp_path / "pinned"
        generate(PipelineConfig(seed_start=0, count=200), out)
        for name, digest in pinned.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_bootstrap_matches_pinned_digests(self, tmp_path):
        # larger re-seeded scenes, where the triangle matchers do most work
        pinned = json.loads(PINNED_DIGESTS.read_text(encoding="utf-8"))["bootstrap 0:300"]
        prior, out = tmp_path / "prior", tmp_path / "boot"
        generate(PipelineConfig(seed_start=0, count=300), prior)
        config = PipelineConfig(
            seed_start=0,
            count=300,
            bootstrap_quantile=1.0,
            bootstrap_extra_steps=3,
            bootstrap_iterations=3,
        )
        bootstrap(config, prior, out)
        for name, digest in pinned.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

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
        args = (
            report0.records,
            load_scenes(out),
            {r.id: (out / r.diagram).read_text(encoding="utf-8") for r in report0.records},
            load_config(out),
        )
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
                write_dataset(target, *args)
            # everything else is complete and in place; the manifest is not
            for name in files:
                assert (target / name).read_bytes() == (out / name).read_bytes(), name
            assert not (target / "manifest.jsonl").exists()
            report = verify(target)
            assert [rid for rid, _ in report.failures] == ["<dataset>"]
        monkeypatch.undo()
        write_dataset(stale, *args)
        for name in [*files, "manifest.jsonl"]:
            assert (stale / name).read_bytes() == (out / name).read_bytes(), name
        assert verify(stale).ok

    def test_invalid_config_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(tau_r=1.5)
        with pytest.raises(PipelineError):
            PipelineConfig(translator="quantum")
        with pytest.raises(PipelineError):
            PipelineConfig(distractor_policy="some")


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
            (first.id, f"diagram svg/{docs[2]['id']}.svg is not {first.diagram}"),
            (second.id, f"diagram {second.diagram} is missing"),
        ]

    def test_records_out_of_step_with_manifest_fail(self, dataset, tmp_path):
        out, report0 = dataset
        lines = (out / "records.jsonl").read_text().splitlines(keepends=True)
        cases = {
            "truncated": lines[:-1],  # cut at a line boundary
            "reordered": [lines[1], lines[0], *lines[2:]],
        }
        for name, kept in cases.items():
            target = tmp_path / name
            shutil.copytree(out, target)
            (target / "records.jsonl").write_text("".join(kept))
            report = verify(target)
            assert report.total == len(kept)
            assert [rid for rid, _ in report.failures] == ["<dataset>"], name
        (target / "records.jsonl").write_text("".join(lines))
        (target / "manifest.jsonl").unlink()
        report = verify(target)
        assert report.total == report0.count
        assert [rid for rid, _ in report.failures] == ["<dataset>"]
        assert "manifest" in report.failures[0][1]

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
            assert reason.startswith(f"cannot load scenes: scenes.jsonl line {n + 1} is not a scene object: ")

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
            ("traceback", "wrong_branch", None, "a traceback record needs a wrong branch and an overlap"),
            ("traceback", "overlap", None, "a traceback record needs a wrong branch and an overlap"),
            ("traceback", "template", "deductive", "a deductive record has a wrong branch or an overlap"),
            ("deductive", "template", "5", "unknown template '5'"),
            ("deductive", "template", "multi_solution", "a multi_solution record needs at least two solutions"),
            ("deductive", "template", "traceback", "a traceback record needs a wrong branch and an overlap"),
            ("multi_solution", "template", "deductive", "a deductive record needs exactly one solution"),
        ],
        ids=[
            "traceback_without_wrong_branch",
            "traceback_without_overlap",
            "traceback_as_deductive",
            "unknown_template",
            "deductive_as_multi_solution",
            "deductive_as_traceback",
            "multi_solution_as_deductive",
        ],
    )
    def test_record_shape_must_fit_template(self, dataset, tmp_path, template, field, value, reason):
        _, report0 = dataset
        index = next(i for i, r in enumerate(report0.records) if r.template == template)
        ids = []

        def mutate(doc):
            doc[field] = value
            doc["id"] = record_content_hash(doc)
            ids.append(doc["id"])

        report = self._tampered(dataset, tmp_path, mutate, index)
        assert report.failures == [(ids[0], reason)]

    @pytest.mark.parametrize("field", ["tau_l", "tau_r", "tau_p"])
    def test_thresholds_must_match_config(self, dataset, tmp_path, field):
        # a lowered threshold would let a record pass a filter it fails
        ids = []

        def mutate(doc):
            doc["metadata"][field] = -1
            doc["id"] = record_content_hash(doc)
            ids.append(doc["id"])

        report = self._tampered(dataset, tmp_path, mutate)
        assert report.failures == [(ids[0], "stored thresholds disagree with config.json")]

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
        checked = {(sid, stmt) for sid, s in steps for stmt in (*s.premises, s.conclusion)}
        texts = set()
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
        monkeypatch.setattr(
            geoforge.dataset, "parse_statement", counted("parse", geoforge.dataset.parse_statement)
        )
        assert verify(out).ok
        assert calls["recheck"] == len(replays) < len(steps)
        assert calls["check"] == len(checked)
        assert calls["parse"] == len(texts)


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

    def test_empty_prior_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "records.jsonl").write_text("")
        (empty / "scenes.jsonl").write_text("")
        with pytest.raises(PipelineError):
            bootstrap(SMALL, empty, tmp_path / "b")


def _write_lines(path: Path, docs) -> None:
    path.write_text("".join(json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n" for d in docs))


def _synthetic_dataset(tmp_path, tiers=(1, 2, 3, 4), per_tier=3) -> Path:
    """Dataset with hand-set tiers for exercising curation."""
    out = tmp_path / "synth"
    report = generate(dataclasses.replace(SMALL, count=12), out)
    docs = []
    lines = (out / "records.jsonl").read_text().splitlines()
    base_docs = [json.loads(line) for line in lines if json.loads(line)["kind"] == "numeric"]
    template = base_docs[0]
    lengths = {1: 7, 2: 15, 3: 30, 4: 80}
    for tier in tiers:
        for i in range(per_tier):
            doc = json.loads(json.dumps(template))
            doc["metadata"]["tier"] = tier
            doc["metadata"]["reasoning_length"] = lengths[tier]
            doc["seed"] = 10_000 + tier * 100 + i
            doc["id"] = record_content_hash(doc)
            doc["diagram"] = f"svg/{doc['id']}.svg"
            docs.append(doc)
    with (out / "records.jsonl").open("w") as f:
        for doc in docs:
            f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return out


class TestCurate:
    def test_eight_records_for_quota_two(self, tmp_path):
        data = _synthetic_dataset(tmp_path)
        chosen = curate_testset(data, 2, tmp_path / "test_split")
        assert len(chosen) == 8
        per_tier = {}
        for r in chosen:
            per_tier[r.metadata.tier] = per_tier.get(r.metadata.tier, 0) + 1
        assert per_tier == {1: 2, 2: 2, 3: 2, 4: 2}

    def test_key_and_test_files(self, tmp_path):
        data = _synthetic_dataset(tmp_path)
        split = tmp_path / "split"
        curate_testset(data, 1, split)
        test_docs = [json.loads(line) for line in (split / "test.jsonl").read_text().splitlines()]
        key_docs = [json.loads(line) for line in (split / "key.jsonl").read_text().splitlines()]
        assert len(test_docs) == len(key_docs) == 4
        for doc in test_docs:
            assert set(doc) == {"id", "question", "diagram", "tier"}

    def test_insufficient_records(self, tmp_path):
        data = _synthetic_dataset(tmp_path, tiers=(1, 2, 3))
        with pytest.raises(InsufficientRecordsError) as exc_info:
            curate_testset(data, 2, tmp_path / "split2")
        assert exc_info.value.tier == 4

    def test_proof_records_never_selected(self, tmp_path):
        data = _synthetic_dataset(tmp_path)
        chosen = curate_testset(data, 2, tmp_path / "split3")
        assert all(r.kind == "numeric" for r in chosen)


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
    ]

    @pytest.mark.parametrize("predicted,key,expected", CASES)
    def test_table(self, predicted, key, expected):
        assert check_answer(predicted, key).correct is expected

    def test_no_number_flag(self):
        result = check_answer("i cannot solve this", 3.0)
        assert result == AnswerCheck(False, False, None)

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
