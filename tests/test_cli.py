import json
import shutil

import pytest

import geoforge.cli as cli
from geoforge.cli import main
from geoforge.dataset import load_records, load_scenes
from geoforge.pipeline import GenerationReport, PipelineConfig
from geoforge.statements import parse_statement
from helpers import copy_with_edited_scene, move_point, uncited_point


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    code = main(["generate", "--out", str(out), "--seed-start", "0", "--count", "25"])
    assert code == 0
    return out


_TEN_400 = str(10**400)
# case: (file, path to the value edited in its first numeric record or its
# first scene, the new value, what the command reports)
_HOSTILE_NUMBERS = {
    "premise_zero_denominator": (
        "records.jsonl", ("premises", 0), "angle_val(B,A,D;1/0)", "at byte 16: expected rational"
    ),
    "exact_zero_denominator": ("records.jsonl", ("answer", "exact"), "1/0", "at byte 0: expected rational"),
    "exact_decimal": ("records.jsonl", ("answer", "exact"), "1.5", "at byte 1: expected end of input"),
    "exact_exponent": ("records.jsonl", ("answer", "exact"), "1e3", "at byte 1: expected end of input"),
    "exact_space": ("records.jsonl", ("answer", "exact"), " 7", "at byte 0: expected rational"),
    "exact_number": ("records.jsonl", ("answer", "exact"), 7, "at byte 0: expected rational (input: 7)"),
    "step_value_overflow": (
        "records.jsonl", ("formal_solutions", 0, 0, "conclusion"), f"seg_len(C,D;{_TEN_400})",
        "seg_len value has no nonzero finite float",
    ),
    "scene_zero_over_zero": (
        "scenes.jsonl", ("scene", "initial_statements", 0), "seg_len(A,B;0/0)", "at byte 12: expected rational"
    ),
    "scene_5000_digits": (
        "scenes.jsonl", ("scene", "initial_statements", 0), f"seg_len(A,B;{'7' * 5000})",
        "at byte 12: expected rational",
    ),
    "scene_value_overflow": (
        "scenes.jsonl", ("scene", "initial_statements", 0), f"seg_len(A,B;{_TEN_400})",
        "seg_len value has no nonzero finite float",
    ),
    "scene_value_underflow": (
        "scenes.jsonl", ("scene", "initial_statements", 0), f"seg_len(A,B;1/{_TEN_400})",
        "seg_len value has no nonzero finite float",
    ),
    "seed_string": ("scenes.jsonl", ("scene", "seed"), "x", "seed is not an integer: 'x'"),
    "seed_list": ("scenes.jsonl", ("scene", "seed"), [], "seed is not an integer: []"),
    "seed_float": ("scenes.jsonl", ("scene", "seed"), 1.5, "seed is not an integer: 1.5"),
    "seed_bool": ("scenes.jsonl", ("scene", "seed"), True, "seed is not an integer: True"),
}
_READERS = {"records.jsonl": ["verify", "stats", "curate", "bootstrap"], "scenes.jsonl": ["verify", "bootstrap"]}


class TestCli:
    def test_generate_and_verify(self, run_dir, capsys):
        assert main(["verify", "--in", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_stats(self, run_dir, capsys):
        assert main(["stats", "--in", str(run_dir)]) == 0
        assert "reasoning length" in capsys.readouterr().out
        assert main(["stats", "--in", str(run_dir), "--json"]) == 0
        json.loads(capsys.readouterr().out)

    def test_bootstrap(self, run_dir, tmp_path, capsys):
        out = tmp_path / "boot"
        assert main(["bootstrap", "--in", str(run_dir), "--out", str(out), "--quantile", "1.0"]) == 0
        assert (out / "records.jsonl").exists()
        assert "generation-1 records" in capsys.readouterr().out
        # a bootstrap of a bootstrap output reports the later generation
        again = tmp_path / "boot2"
        args = ["--quantile", "1.0", "--extra-steps", "1"]
        assert main(["bootstrap", "--in", str(out), "--out", str(again), *args]) == 0
        assert "generation-2 records" in capsys.readouterr().out

    def test_bootstrap_workers_flag(self, run_dir, tmp_path, capsys):
        outs = {workers: tmp_path / f"w{workers}" for workers in ("1", "2")}
        for workers, out in outs.items():
            argv = ["bootstrap", "--in", str(run_dir), "--out", str(out), "--quantile", "1.0"]
            assert main([*argv, "--workers", workers]) == 0
        assert json.loads((outs["2"] / "config.json").read_text())["workers"] == 2
        for name in ("records.jsonl", "scenes.jsonl"):
            assert (outs["2"] / name).read_bytes() == (outs["1"] / name).read_bytes(), name
        assert (outs["1"] / "records.jsonl").stat().st_size > 0

    def test_bootstrap_with_no_records_fails(self, run_dir, tmp_path, capsys):
        # at the default 3 extra steps the second bootstrap of this run yields nothing
        first = tmp_path / "boot"
        assert main(["bootstrap", "--in", str(run_dir), "--out", str(first), "--quantile", "1.0"]) == 0
        capsys.readouterr()
        again = tmp_path / "boot2"
        assert main(["bootstrap", "--in", str(first), "--out", str(again), "--quantile", "1.0"]) == 1
        assert "no records" in capsys.readouterr().err
        assert not (again / "records.jsonl").exists()

    def test_check(self, run_dir, tmp_path, capsys):
        # grade a synthetic prediction file against a synthetic key
        key = tmp_path / "key.jsonl"
        pred = tmp_path / "pred.jsonl"
        key.write_text(
            json.dumps({"id": "x1", "exact": "5", "approx": 5.0, "tier": 1})
            + "\n"
            + json.dumps({"id": "x2", "exact": None, "approx": 2.5, "tier": 2})
            + "\n"
        )
        pred.write_text(
            json.dumps({"id": "x1", "prediction": "the answer is 5.01"})
            + "\n"
            + json.dumps({"id": "x2", "prediction": "3.1"})
            + "\n"
        )
        assert main(["check", "--pred", str(pred), "--key", str(key)]) == 0
        out = capsys.readouterr().out
        assert "1/2" in out

    def test_verify_fails_on_tampered(self, run_dir, tmp_path, capsys):
        clone = tmp_path / "clone"
        clone.mkdir()
        for name in ("manifest.jsonl", "scenes.jsonl", "config.json"):
            (clone / name).write_bytes((run_dir / name).read_bytes())
        lines = (run_dir / "records.jsonl").read_text().splitlines()
        docs = [json.loads(x) for x in lines]
        docs[0]["metadata"]["reasoning_length"] += 1
        (clone / "records.jsonl").write_text(
            "\n".join(json.dumps(d, sort_keys=True, separators=(",", ":")) for d in docs) + "\n"
        )
        assert main(["verify", "--in", str(clone)]) == 1

    def test_verify_fails_every_record_of_a_scene_with_a_moved_point(self, run_dir, tmp_path, capsys):
        # the point is cited by no step, only by the scene's own statements
        records = load_records(run_dir)
        scene_id, label = uncited_point(records, load_scenes(run_dir))
        copy_with_edited_scene(run_dir, tmp_path / "moved", scene_id, move_point(label))
        assert main(["verify", "--in", str(tmp_path / "moved")]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
        expected = [f"FAIL {r.id}" for r in records if r.scene_id == scene_id]
        assert [line.split(":")[0] for line in fails] == expected
        assert all(line.split(": ", 1)[1].startswith("scene statement ") for line in fails)

    def test_curate_insufficient(self, run_dir, tmp_path, capsys):
        code = main(["curate", "--in", str(run_dir), "--out", str(tmp_path / "s"), "--per-tier", "999"])
        assert code == 1
        assert "need 999" in capsys.readouterr().err

    @pytest.mark.parametrize("per_tier", ["0", "-1"])
    def test_curate_per_tier_below_one(self, run_dir, per_tier, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["curate", "--in", str(run_dir), "--out", str(out), "--per-tier", per_tier]) == 1
        assert capsys.readouterr().err == "error: per_tier must be >= 1\n"
        assert not out.exists()


class TestCliInputErrors:
    """Bad input files end in one ``error:`` line and exit 1, not a traceback."""

    @pytest.mark.parametrize(
        "pred_line, reason",
        [
            ('{"id": "x1", "prediction": 3}', "'prediction' is not a string"),
            ('{"prediction": "3"}', "'id' is not a string"),
            ('{"id": "x1", "prediction": ', "not JSON: "),
        ],
        ids=["numeric_prediction", "no_id", "not_json"],
    )
    def test_check_bad_prediction_line(self, pred_line, reason, tmp_path, capsys):
        key = tmp_path / "key.jsonl"
        pred = tmp_path / "pred.jsonl"
        key.write_text(json.dumps({"id": "x1", "exact": "5", "approx": 5.0, "tier": 1}) + "\n")
        pred.write_text(json.dumps({"id": "x1", "prediction": "5"}) + "\n" + pred_line + "\n")
        assert main(["check", "--pred", str(pred), "--key", str(key)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pred} line 2: {reason}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--in", "{missing}"],
            ["curate", "--in", "{missing}", "--out", "{out}", "--per-tier", "1"],
            ["bootstrap", "--in", "{missing}", "--out", "{out}"],
        ],
        ids=["stats", "curate", "bootstrap"],
    )
    def test_missing_dataset(self, argv, tmp_path, capsys):
        paths = {"missing": tmp_path / "missing", "out": tmp_path / "out"}
        assert main([a.format(**paths) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(paths["missing"]) in err
        assert err.count("\n") == 1
        assert not paths["out"].exists()

    @pytest.mark.parametrize("command", ["stats", "curate", "bootstrap"])
    @pytest.mark.parametrize("bad", ["not_json", "not_utf8", "kind_unknown", "id_number", "length_float"])
    def test_bad_records_line(self, run_dir, command, bad, tmp_path, capsys):
        first = (run_dir / "records.jsonl").read_bytes().splitlines()[0]
        doc = json.loads(first)
        line, reason = {
            "not_json": (b"not json", "not JSON: "),
            "not_utf8": (b'{"id": "\xff"}', "not JSON: 'utf-8' codec can't decode"),
            "kind_unknown": ({**doc, "kind": "x"}, "kind 'x' is neither numeric nor proof"),
            "id_number": ({**doc, "id": 5}, "id 5 is not a string"),
            "length_float": (
                {**doc, "metadata": {**doc["metadata"], "reasoning_length": 7.5}},
                "reasoning_length is not an integer: 7.5",
            ),
        }[bad]
        if isinstance(line, dict):
            line = json.dumps(line).encode()
        records = tmp_path / "in" / "records.jsonl"
        records.parent.mkdir()
        records.write_bytes(first + b"\n" + line + b"\n")
        out = tmp_path / "out"
        argv = {
            "stats": ["stats", "--in", str(records.parent)],
            "curate": ["curate", "--in", str(records.parent), "--out", str(out), "--per-tier", "1"],
            "bootstrap": ["bootstrap", "--in", str(records.parent), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {records} line 2: {reason}") and err.count("\n") == 1
        assert not out.exists()

    def test_bootstrap_bad_scenes_line(self, run_dir, tmp_path, capsys):
        shutil.copytree(run_dir, tmp_path / "in")
        scenes = tmp_path / "in" / "scenes.jsonl"
        n = len(scenes.read_text().splitlines())
        with scenes.open("a") as f:
            f.write("[]\n")
        out = tmp_path / "out"
        assert main(["bootstrap", "--in", str(tmp_path / "in"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scenes} line {n + 1}: not a scene object: ")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda scene: scene["points"].update(A=[1.0]), "point A is not two numbers: [1.0]"),
            (lambda scene: scene["points"].update(A=[True, 0.0]), "point A is not two numbers: [True, 0.0]"),
            (lambda scene: scene["points"].update(A=[float("nan"), 0.0]), "non-finite coordinate for A"),
            (lambda scene: scene["points"].update(A=[10**400, 0.0]), "int too large to convert to float"),
            (lambda scene: scene["drawn_segments"].append(["A"]), "drawn segment is not two labels: ['A']"),
            (lambda scene: scene.update(seed="x"), "seed is not an integer: 'x'"),
            (lambda scene: scene.update(seed=[]), "seed is not an integer: []"),
            (lambda scene: scene.update(seed=1.5), "seed is not an integer: 1.5"),
            (lambda scene: scene.update(seed=True), "seed is not an integer: True"),
        ],
        ids=[
            "point_one_coordinate", "point_bool", "point_nan", "point_huge_int", "segment_one_label",
            "seed_string", "seed_list", "seed_float", "seed_bool",
        ],
    )
    def test_bootstrap_bad_scene_shape(self, run_dir, tmp_path, capsys, edit, reason):
        shutil.copytree(run_dir, tmp_path / "in")
        scenes = tmp_path / "in" / "scenes.jsonl"
        lines = scenes.read_text().splitlines()
        doc = json.loads(lines[0])
        edit(doc["scene"])
        scenes.write_text("\n".join([json.dumps(doc), *lines[1:]]) + "\n")
        out = tmp_path / "out"
        assert main(["bootstrap", "--in", str(tmp_path / "in"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {scenes} line 1: not a scene object: {reason}\n"
        assert not out.exists()

    def test_bootstrap_extra_steps_below_one(self, run_dir, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["bootstrap", "--in", str(run_dir), "--out", str(out), "--extra-steps", "-1"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: bootstrap_extra_steps must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key_line, reason",
        [
            (
                '{"id": "x1", "exact": "abc", "approx": 5.0}',
                "no numeric answer: at byte 0: expected rational (input: 'abc')",
            ),
            ('{"id": "x1", "tier": 1}', "no numeric answer: 'approx'"),
            ('{"id": "x1", "exact": "1/0"}', "no numeric answer: at byte 0: expected rational (input: '1/0')"),
            ('{"id": "x1", "exact": "5", "tier": [1]}', "tier is not an integer: [1]"),
            ('{"id": "x1", "exact": "5", "tier": "x"}', "tier is not an integer: 'x'"),
        ],
        ids=["exact_not_rational", "no_answer", "exact_zero_denominator", "tier_list", "tier_string"],
    )
    def test_check_bad_key_line(self, key_line, reason, tmp_path, capsys):
        key = tmp_path / "key.jsonl"
        pred = tmp_path / "pred.jsonl"
        key.write_text(json.dumps({"id": "x0", "exact": "5", "tier": 1}) + "\n" + key_line + "\n")
        pred.write_text(json.dumps({"id": "x1", "prediction": "5"}) + "\n")
        assert main(["check", "--pred", str(pred), "--key", str(key)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {key} line 2: {reason}\n"

    @pytest.mark.parametrize(
        "text, reason",
        [("{", "not JSON: "), ("[1]", "not a JSON object"), ('{"tau_q": 1}', "unknown config keys")],
        ids=["not_json", "not_object", "unknown_key"],
    )
    def test_generate_bad_config(self, text, reason, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"tau_l": "5"}', "config key 'tau_l' must be int, not '5'"),
            ('{"count": "5"}', "config key 'count' must be int, not '5'"),
            ('{"tau_r": true}', "config key 'tau_r' must be int or float, not True"),
            ('{"llm_model": 3}', "config key 'llm_model' must be str or null, not 3"),
            ('{"workers": 0}', "workers must be >= 1"),
        ],
        ids=["tau_l_string", "count_string", "tau_r_bool", "llm_model_number", "workers_zero"],
    )
    def test_generate_bad_config_value(self, text, reason, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_generate_workers_below_one(self, workers, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["generate", "--out", str(out), "--workers", workers]) == 1
        assert capsys.readouterr().err == "error: workers must be >= 1\n"
        assert not out.exists()

    def test_bootstrap_scene_naming_a_point_it_lacks(self, run_dir, tmp_path, capsys):
        shutil.copytree(run_dir, tmp_path / "in")
        scenes = tmp_path / "in" / "scenes.jsonl"
        docs = [json.loads(line) for line in scenes.read_text().splitlines()]
        del docs[0]["scene"]["points"][parse_statement(docs[0]["scene"]["initial_statements"][0]).groups[0][0]]
        scenes.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        out = tmp_path / "out"
        assert main(["bootstrap", "--in", str(tmp_path / "in"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scenes} line 1: at byte ") and "expected known point" in err
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize(
        "edited, argv",
        [
            ("records.jsonl", ["verify", "--in", "{in}"]),
            ("scenes.jsonl", ["verify", "--in", "{in}"]),
            ("manifest.jsonl", ["verify", "--in", "{in}"]),
            ("config.json", ["verify", "--in", "{in}"]),
            ("records.jsonl", ["stats", "--in", "{in}"]),
            ("records.jsonl", ["curate", "--in", "{in}", "--out", "{out}", "--per-tier", "1"]),
            ("records.jsonl", ["bootstrap", "--in", "{in}", "--out", "{out}"]),
            ("scenes.jsonl", ["bootstrap", "--in", "{in}", "--out", "{out}"]),
            ("cfg.json", ["generate", "--config", "{in}/cfg.json", "--out", "{out}"]),
            ("pred.jsonl", ["check", "--pred", "{in}/pred.jsonl", "--key", "{in}/key.jsonl"]),
            ("key.jsonl", ["check", "--pred", "{in}/pred.jsonl", "--key", "{in}/key.jsonl"]),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_input_nested_past_the_recursion_limit(self, run_dir, edited, argv, tmp_path, capsys):
        # the decoder gives up on it with a RecursionError, which is a line that is not JSON
        nested = "[" * 200_000 + "]" * 200_000 + "\n"
        data = tmp_path / "in"
        shutil.copytree(run_dir, data)
        (data / "key.jsonl").write_text(json.dumps({"id": "x1", "exact": "5", "tier": 1}) + "\n")
        (data / "pred.jsonl").write_text(json.dumps({"id": "x1", "prediction": "5"}) + "\n")
        path = data / edited
        if path.suffix == ".jsonl":
            with path.open("a") as f:
                f.write(nested)
        else:  # one JSON document, so an added line would only be extra data
            path.write_text(nested)
        out = tmp_path / "out"
        assert main([a.format(**{"in": data, "out": out}) for a in argv]) == 1
        printed = capsys.readouterr()
        if argv[0] == "verify":
            assert printed.err == "" and "not JSON: " in printed.out
            assert printed.out.splitlines()[-1].startswith("verified ")
        else:
            assert printed.err.startswith("error: ") and "not JSON: " in printed.err
            assert printed.err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize(
        "case, command",
        [
            (case, command)
            for case, (edited, *_) in _HOSTILE_NUMBERS.items()
            for command in _READERS[edited]
            if not (case.startswith("seed_") and command == "bootstrap")  # test_bootstrap_bad_scene_shape
        ],
    )
    def test_hostile_number(self, run_dir, case, command, tmp_path, capsys):
        # a value that is no rational or that no float holds, or a seed that
        # is no integer: a failure or one error line, never a traceback
        edited, (*head, last), value, reason = _HOSTILE_NUMBERS[case]
        data = tmp_path / "in"
        shutil.copytree(run_dir, data)
        path = data / edited
        lines = path.read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        n = next(i for i, doc in enumerate(docs) if edited == "scenes.jsonl" or doc["kind"] == "numeric")
        parent = docs[n]
        for key in head:
            parent = parent[key]
        parent[last] = value
        lines[n] = json.dumps(docs[n])
        path.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "out"
        argv = {
            "verify": ["verify", "--in", str(data)],
            "stats": ["stats", "--in", str(data)],
            "curate": ["curate", "--in", str(data), "--out", str(out), "--per-tier", "1"],
            "bootstrap": ["bootstrap", "--in", str(data), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        printed = capsys.readouterr()
        if command == "verify":
            assert printed.err == ""
            assert any(line.startswith("FAIL ") and reason in line for line in printed.out.splitlines())
        else:
            assert printed.err.startswith(f"error: {path} line {n + 1}: ") and reason in printed.err
            assert printed.err.count("\n") == 1 and not out.exists()


class TestCliConfig:
    """Each flag whose dest is a ``PipelineConfig`` field sets that field."""

    @pytest.fixture
    def configs(self, monkeypatch):
        seen = []

        def run(config, *dirs):
            seen.append(config)
            return GenerationReport(str(dirs[-1]))

        monkeypatch.setattr(cli, "generate", run)
        monkeypatch.setattr(cli, "bootstrap", run)
        return seen

    @pytest.mark.parametrize(
        "command, flag, value, field, expected",
        [
            ("generate", "--seed-start", "7", "seed_start", 7),
            ("generate", "--count", "3", "count", 3),
            ("generate", "--tau-l", "4", "tau_l", 4),
            ("generate", "--tau-r", "0.25", "tau_r", 0.25),
            ("generate", "--llm-endpoint", "http://localhost:1", "llm_endpoint", "http://localhost:1"),
            ("generate", "--llm-model", "m", "llm_model", "m"),
            ("generate", "--workers", "2", "workers", 2),
            ("bootstrap", "--quantile", "0.5", "bootstrap_quantile", 0.5),
            ("bootstrap", "--extra-steps", "2", "bootstrap_extra_steps", 2),
            ("bootstrap", "--iterations", "2", "bootstrap_iterations", 2),
            ("bootstrap", "--workers", "2", "workers", 2),
        ],
    )
    def test_flag_sets_field(self, configs, command, flag, value, field, expected, tmp_path):
        dirs = ["--out", str(tmp_path / "out")]
        if command == "bootstrap":
            dirs += ["--in", str(tmp_path / "in")]
        assert main([command, *dirs, flag, value]) == 0
        [config] = configs
        assert config.to_doc() == {**PipelineConfig().to_doc(), field: expected}

    def test_translator_flags(self, configs, tmp_path):
        endpoint = ["--llm-endpoint", "http://localhost:1", "--llm-model", "m"]
        assert main(["generate", "--out", str(tmp_path / "out"), "--translator", "external", *endpoint]) == 0
        [config] = configs
        assert (config.translator, config.llm_endpoint, config.llm_model) == ("external", "http://localhost:1", "m")

    def test_flag_overrides_config_file(self, configs, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"tau_l": 3, "count": 9, "bootstrap_iterations": 4}))
        common = ["--config", str(path), "--out", str(tmp_path / "out")]
        assert main(["generate", *common, "--tau-l", "6"]) == 0
        assert main(["bootstrap", *common, "--in", str(tmp_path), "--iterations", "5"]) == 0
        assert [(c.tau_l, c.count, c.bootstrap_iterations) for c in configs] == [(6, 9, 4), (3, 9, 5)]
