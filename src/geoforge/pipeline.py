"""End-to-end orchestration: batch generation, bootstrap augmentation,
test-set curation, statistics, answer checking, and independent record
verification.

Every run is a pure function of its configuration under the template
translator: scene seeds drive construction, saturation, sampling, rendering
and translation, and records are emitted in seed order with content-hash
ids. Per-scene failures are logged and skipped, never fatal.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import re
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

from . import dataset
from .constructions import (
    BASE_GENERATORS,
    ConstructionError,
    Scene,
    extend_scene,
    generate_base_scene,
)
from .dataset import (
    CorruptRecordError,
    ProblemRecord,
    RecordMetadata,
    load_config,
    load_records,
    load_scenes,
    record_content_hash,
    record_to_doc,
    scene_id_of,
    write_dataset,
)
from .geometry import GeometryError
from .reasoner import (
    Budget,
    ReasoningGraph,
    SolutionStep,
    VerifierContradictionError,
    saturate,
)
from .render import RenderError, render_svg
from .rules import RULES_BY_ID, Rule
from .sampler import (
    BelowTierRangeError,
    OracleMismatchError,
    ProblemDraft,
    ReasoningPath,
    SamplerError,
    TracebackRecord,
    formulate_problem,
    geo_explore,
    geo_explore_m,
    geo_explore_t,
    tier_of,
)
from .statements import VALUE_PREDICATES, ParseError, Predicate, Statement, Unit
from .translate import (
    BackendUnavailableError,
    ExternalBackend,
    TemplateBackend,
    connect_thinking,
    statement_nl,
    translate_steps,
)


class PipelineError(RuntimeError):
    pass


class InsufficientRecordsError(PipelineError):
    def __init__(self, tier: int, have: int, need: int):
        self.tier = tier
        super().__init__(f"tier {tier}: need {need} numeric records, have {have}")


_PROOF_TARGETS = frozenset(
    {
        Predicate.EQUAL_SEGMENTS,
        Predicate.EQUAL_ANGLES,
        Predicate.PARALLEL,
        Predicate.PERPENDICULAR,
        Predicate.RIGHT_ANGLE,
        Predicate.CONGRUENT_TRIANGLES,
        Predicate.SIMILAR_TRIANGLES,
    }
)


@dataclass(frozen=True)
class PipelineConfig:
    seed_start: int = 0
    count: int = 20
    tau_l: int = 5
    tau_r: float = 0.5
    tau_p: float = 0.3
    distractor_policy: str = "all"
    translator: str = "template"
    llm_endpoint: str | None = None
    llm_model: str | None = None
    max_problems_per_scene: int = 4
    max_paths: int = 8
    min_extension_steps: int = 2
    max_extension_steps: int = 6
    max_statements: int = 5000
    max_transitions: int = 20000
    max_rounds: int = 50
    workers: int = 1
    bootstrap_quantile: float = 0.1
    bootstrap_extra_steps: int = 3
    bootstrap_iterations: int = 1

    def __post_init__(self) -> None:
        if self.tau_l < 0:
            raise PipelineError("tau_l must be >= 0")
        if not 0.0 <= self.tau_r <= 1.0:
            raise PipelineError("tau_r must lie in [0, 1]")
        if not 0.0 <= self.tau_p <= 1.0:
            raise PipelineError("tau_p must lie in [0, 1]")
        if self.translator not in ("template", "external"):
            raise PipelineError(f"unknown translator {self.translator!r}")
        if self.distractor_policy not in ("all", "used"):
            raise PipelineError(f"unknown distractor policy {self.distractor_policy!r}")

    def budget(self) -> Budget:
        return Budget(self.max_statements, self.max_transitions, self.max_rounds)

    def to_doc(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise PipelineError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


@dataclass
class GenerationReport:
    out_dir: str
    records: list[ProblemRecord] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.records)


def _make_backend(config: PipelineConfig):
    if config.translator == "template":
        return TemplateBackend()
    if not config.llm_endpoint or not config.llm_model:
        raise PipelineError("external translator needs --llm-endpoint and --llm-model")
    return ExternalBackend(endpoint=config.llm_endpoint, model=config.llm_model)


def _candidate_targets(graph: ReasoningGraph) -> list[int]:
    """Derived statements, deepest-inserted first."""
    return list(range(len(graph.statements) - 1, graph.n_initial - 1, -1))


def _numeric_target(stmt: Statement) -> bool:
    return stmt.predicate in VALUE_PREDICATES and stmt.value is not None


def _question_clause(target: Statement) -> str:
    if target.unit is Unit.LENGTH:
        a, b = target.groups[0]
        return f"find the length of {a}{b}"
    if target.unit is Unit.DEGREES:
        a, v, c = target.groups[0]
        return f"find the measure of ∠{a}{v}{c} in degrees"
    if target.unit is Unit.RATIO:
        (a, b), (c, d) = target.groups
        return f"find the ratio {a}{b} / {c}{d}"
    raise PipelineError(f"{target.predicate.value} is not a numeric query")


def _translate(draft: ProblemDraft, shown: Statement, backend) -> tuple[str | None, str | None]:
    """(nl_solution, connection_thinking), or two Nones when the backend is
    unavailable."""
    try:
        primary = draft.solutions[0]
        sentences = translate_steps(primary, backend)
        nl_solution = " ".join(sentences)
        connection = connect_thinking(primary, sentences, shown, backend)
        if draft.wrong_branch:
            # the wrong branch, a pivot, then the correct continuation
            wrong = " ".join(translate_steps(draft.wrong_branch, backend))
            pivot = backend.pivot_sentence(draft.wrong_branch[-1].conclusion, shown)
            nl_solution = f"{wrong} {pivot} {nl_solution}"
            connection = f"{wrong} {pivot} {connection}"
    except BackendUnavailableError:
        return None, None
    return nl_solution, connection


def build_record(
    draft: ProblemDraft,
    scene: Scene,
    scene_id: str,
    config: PipelineConfig,
    generation: int,
    backend,
) -> tuple[ProblemRecord, dict]:
    """The finished record of a formal core, and its ``record_to_doc``.

    ``generate`` builds each record here, and ``verify`` rebuilds each one
    here and compares the two whole. ``backend`` translates the texts. In
    its place ``verify`` passes a record's stored ``(nl_solution,
    connection_thinking)`` when an external translator wrote them, since
    it cannot rerun one offline.
    """
    cited = frozenset().union(*draft.cited)
    keep_all = config.distractor_policy == "all"
    premises = tuple(p for p in scene.initial_statements if keep_all or p in cited)
    clauses = "; ".join(statement_nl(p) for p in premises)
    target = draft.target
    if draft.kind == "numeric":
        shown, answer_value = target.without_value(), target.value
        question = f"In the figure, {clauses}. Based on these premises, {_question_clause(target)}."
    else:
        shown, answer_value = target, None
        question = f"In the figure, {clauses}. Prove that {statement_nl(target)}."
    primary = draft.solutions[0]
    try:
        tier: int | None = tier_of(len(primary)).tier
    except BelowTierRangeError:
        tier = None
    overlap = None
    if draft.wrong_branch is not None:
        overlap = len(set(primary).intersection(draft.wrong_branch)) / len(draft.wrong_branch)
    if isinstance(backend, tuple):
        nl_solution, connection = backend
    else:
        nl_solution, connection = _translate(draft, shown, backend)

    record = ProblemRecord(
        id="",
        seed=scene.seed,
        scene_id=scene_id,
        template=draft.template,
        kind=draft.kind,
        question=question,
        premises=premises,
        target=shown,
        answer_value=answer_value,
        solutions=draft.solutions,
        wrong_branch=draft.wrong_branch,
        overlap=overlap,
        nl_solution=nl_solution,
        connection_thinking=connection,
        untranslated=nl_solution is None,
        diagram="",
        metadata=RecordMetadata(
            reasoning_length=len(primary),
            premise_ratio=len(draft.cited[0]) / len(scene.initial_statements),
            tier=tier,
            tau_l=config.tau_l,
            tau_r=config.tau_r,
            tau_p=config.tau_p,
            bootstrap_generation=generation,
        ),
    )
    doc = record_to_doc(record)
    doc["id"] = record_content_hash(doc)
    doc["diagram"] = f"svg/{doc['id']}.svg"
    return dataclasses.replace(record, id=doc["id"], diagram=doc["diagram"]), doc


def _process_scene(
    scene: Scene, config: PipelineConfig, generation: int, backend
) -> tuple[list[ProblemRecord], dict[str, str], list[str]]:
    """Saturate once, sample every template, formulate, render, translate."""
    failures: list[str] = []
    graph = saturate(scene, budget=config.budget())
    scene_id = scene_id_of(scene)
    drafts: list[ProblemDraft] = []

    def deductive(sid: int) -> ReasoningPath | None:
        path = geo_explore(graph, sid, config.tau_l, config.tau_r)
        return path if isinstance(path, ReasoningPath) else None

    enumerated: dict[int, list[ReasoningPath]] = {}

    def correct_paths(sid: int) -> list[ReasoningPath]:
        # the multi_solution and traceback rows share one enumeration per target
        if sid not in enumerated:
            enumerated[sid] = geo_explore_m(
                graph, sid, config.tau_l, config.tau_r, config.max_paths
            )
        return enumerated[sid]

    def multi_solution(sid: int) -> list[ReasoningPath] | None:
        paths = correct_paths(sid)
        return paths if len(paths) >= 2 else None

    def traceback(sid: int) -> TracebackRecord | None:
        try:
            return geo_explore_t(
                graph,
                sid,
                correct_paths(sid),
                config.tau_p,
                rng_seed=scene.seed * 8191 + sid,
                max_paths=config.max_paths,
            )
        except SamplerError:
            return None

    # One row per thinking template: sampler, targets tried, records kept.
    # The samplers resolve geo_explore* through module globals on every call,
    # so the functions stay replaceable from outside (tracing, tests).
    templates = (
        (deductive, math.inf, config.max_problems_per_scene),
        (multi_solution, 25, 1),
        (traceback, 8, 1),
    )
    targets = _candidate_targets(graph)
    for sample, max_tried, max_kept in templates:
        tried = kept = proofs = 0
        for sid in targets:
            if kept >= max_kept or tried >= max_tried:
                break
            stmt = graph.stmt(sid)
            if _numeric_target(stmt):
                kind = "numeric"
            elif stmt.predicate in _PROOF_TARGETS and proofs < 1:
                kind = "proof"
            else:
                continue
            tried += 1
            material = sample(sid)
            if material is None:
                continue
            try:
                drafts.append(formulate_problem(scene, graph, material, kind))
            except OracleMismatchError as exc:
                failures.append(f"scene {scene_id} target {sid}: {exc}")
                continue
            kept += 1
            proofs += kind == "proof"

    records: list[ProblemRecord] = []
    diagrams: dict[str, str] = {}
    if drafts:
        try:
            svg = render_svg(scene)
        except RenderError as exc:
            return [], {}, failures + [f"scene {scene_id}: render failed: {exc}"]
        for draft in drafts:
            record, _ = build_record(draft, scene, scene_id, config, generation, backend)
            records.append(record)
            diagrams[record.id] = svg
    return records, diagrams, failures


def _build_scene(config: PipelineConfig, seed: int) -> Scene:
    rng = random.Random(("pipeline", seed).__repr__())
    generator_id = rng.choice(sorted(BASE_GENERATORS))
    steps = rng.randint(config.min_extension_steps, config.max_extension_steps)
    scene = generate_base_scene(generator_id, seed)
    return extend_scene(scene, steps, seed)


def _generate_one_seed(config: PipelineConfig, seed: int, generation: int = 0):
    backend = _make_backend(config)
    try:
        scene = _build_scene(config, seed)
    except ConstructionError as exc:
        return [], {}, {}, [f"seed {seed}: construction failed: {exc}"]
    try:
        records, diagrams, failures = _process_scene(scene, config, generation, backend)
    except (VerifierContradictionError, GeometryError) as exc:
        return [], {}, {}, [f"seed {seed}: {exc}"]
    scenes = {scene_id_of(scene): scene} if records else {}
    return records, scenes, diagrams, failures


def generate(config: PipelineConfig, out_dir: str | Path) -> GenerationReport:
    """Run the full engine for every seed and emit a dataset directory."""
    report = GenerationReport(out_dir=str(out_dir))
    seeds = range(config.seed_start, config.seed_start + config.count)
    all_scenes: dict[str, Scene] = {}
    all_diagrams: dict[str, str] = {}

    if config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # map keeps the seed order; a frozen config pickles as it is
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_generate_one_seed, repeat(config), seeds))
    else:
        results = [_generate_one_seed(config, s) for s in seeds]

    for records, scenes, diagrams, failures in results:
        report.records.extend(records)
        all_scenes.update(scenes)
        all_diagrams.update(diagrams)
        report.failures.extend(failures)

    write_dataset(out_dir, report.records, all_scenes, all_diagrams, config.to_doc())
    return report


def bootstrap(config: PipelineConfig, in_dir: str | Path, out_dir: str | Path) -> GenerationReport:
    """Re-seed the constructor with the deepest prior scenes and go again.

    Scenes whose best sampled reasoning length ranks in the top quantile are
    extended by extra constructions (retrying until the premise set strictly
    grows), then re-saturated and re-sampled; emitted records carry the next
    bootstrap generation number. Raises ``PipelineError``, and writes
    nothing, when no iteration yields a record.
    """
    backend = _make_backend(config)
    prior_records = load_records(in_dir)
    prior_scenes = load_scenes(in_dir)
    if not prior_records:
        raise PipelineError("prior dataset has no records")

    report = GenerationReport(out_dir=str(out_dir))
    all_scenes: dict[str, Scene] = {}
    all_diagrams: dict[str, str] = {}

    current_records = prior_records
    current_scenes = prior_scenes
    generation = max(r.metadata.bootstrap_generation for r in prior_records)

    for _ in range(config.bootstrap_iterations):
        generation += 1
        best: dict[str, int] = {}
        for r in current_records:
            best[r.scene_id] = max(best.get(r.scene_id, 0), r.metadata.reasoning_length)
        ranked = sorted(best, key=lambda sid: (-best[sid], sid))
        k = max(1, math.ceil(config.bootstrap_quantile * len(ranked)))
        selected = ranked[:k]

        new_records: list[ProblemRecord] = []
        new_scenes: dict[str, Scene] = {}
        for scene_id in selected:
            base = current_scenes.get(scene_id)
            if base is None:
                report.failures.append(f"bootstrap: scene {scene_id} missing")
                continue
            extended: Scene | None = None
            for attempt in range(10):
                candidate = extend_scene(
                    base,
                    config.bootstrap_extra_steps,
                    rng_seed=base.seed * 1000003 + generation * 101 + attempt,
                )
                if len(candidate.initial_statements) > len(base.initial_statements):
                    extended = candidate
                    break
            if extended is None:
                report.failures.append(f"bootstrap: scene {scene_id} would not grow")
                continue
            try:
                records, diagrams, failures = _process_scene(
                    extended, config, generation, backend
                )
            except (VerifierContradictionError, GeometryError) as exc:
                report.failures.append(f"bootstrap scene {scene_id}: {exc}")
                continue
            report.failures.extend(failures)
            all_diagrams.update(diagrams)
            if records:
                new_scenes[scene_id_of(extended)] = extended
                new_records.extend(records)
        report.records.extend(new_records)
        all_scenes.update(new_scenes)
        current_records = new_records or current_records
        current_scenes = {**current_scenes, **new_scenes}

    if not report.records:
        # an empty dataset would verify as "0 records, 0 failures"
        raise PipelineError(f"bootstrap of {in_dir} yielded no records; nothing written")
    write_dataset(out_dir, report.records, all_scenes, all_diagrams, config.to_doc())
    return report


def curate_testset(in_dir: str | Path, per_tier: int, out_dir: str | Path) -> list[ProblemRecord]:
    """Numeric-answer records only, ``per_tier`` from each tier by id order;
    solution fields are stripped and the answers go to a hidden key file."""
    records = load_records(in_dir)
    numeric = [r for r in records if r.kind == "numeric" and r.metadata.tier is not None]
    chosen: list[ProblemRecord] = []
    for tier in (1, 2, 3, 4):
        pool = sorted((r for r in numeric if r.metadata.tier == tier), key=lambda r: r.id)
        if len(pool) < per_tier:
            raise InsufficientRecordsError(tier, len(pool), per_tier)
        chosen.extend(pool[:per_tier])

    out = Path(out_dir)
    (out / "svg").mkdir(parents=True, exist_ok=True)
    with (out / "test.jsonl").open("w", encoding="utf-8") as f:
        for r in chosen:
            doc = {"id": r.id, "question": r.question, "diagram": r.diagram, "tier": r.metadata.tier}
            f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    with (out / "key.jsonl").open("w", encoding="utf-8") as f:
        for r in chosen:
            doc = {
                "id": r.id,
                "tier": r.metadata.tier,
                "exact": str(r.answer_value),
                "approx": float(r.answer_value),
            }
            f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    for r in chosen:
        src = Path(in_dir) / r.diagram
        if src.exists():
            shutil.copy(src, out / "svg" / src.name)
    return chosen


_NUMBER_TOKEN = re.compile(
    r"-?(?:\d+/\d+|\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+(?:[eE][-+]?\d+)?)"
)


@dataclass(frozen=True)
class AnswerCheck:
    correct: bool
    found_number: bool
    predicted: float | None


def check_answer(predicted: str, key: float | Fraction) -> AnswerCheck:
    """Last number token of the prediction against the key, 1% relative
    tolerance (absolute 0.01 when the key is zero)."""
    key_f = float(key)
    if not math.isfinite(key_f):
        raise PipelineError("answer key must be finite")
    tokens = _NUMBER_TOKEN.findall(predicted)
    if not tokens:
        return AnswerCheck(False, False, None)
    token = tokens[-1]
    value = float(Fraction(token)) if "/" in token else float(token)
    if key_f == 0.0:
        correct = abs(value) <= 0.01
    else:
        correct = abs(value - key_f) <= 0.01 * abs(key_f)
    return AnswerCheck(correct, True, value)


@dataclass
class StatsReport:
    total: int
    length_histogram: dict[str, int]
    ratio_histogram: dict[str, int]
    tier_counts: dict[str, int]
    template_counts: dict[str, int]
    kind_counts: dict[str, int]
    generation_length_histograms: dict[str, dict[str, int]]

    def to_doc(self) -> dict:
        return dataclasses.asdict(self)

    def render_text(self) -> str:
        lines = [f"records: {self.total}", "", "reasoning length:"]
        for label, n in self.length_histogram.items():
            lines.append(f"  {label:>9}  {n:6d}  {'#' * min(n, 60)}")
        lines.append("")
        lines.append("premise ratio:")
        for label, n in self.ratio_histogram.items():
            lines.append(f"  {label:>9}  {n:6d}  {'#' * min(n, 60)}")
        lines.append("")
        lines.append("tiers:     " + "  ".join(f"{k}:{v}" for k, v in self.tier_counts.items()))
        lines.append("templates: " + "  ".join(f"{k}:{v}" for k, v in self.template_counts.items()))
        lines.append("kinds:     " + "  ".join(f"{k}:{v}" for k, v in self.kind_counts.items()))
        if len(self.generation_length_histograms) > 1:
            lines.append("")
            lines.append("reasoning length by bootstrap generation:")
            for gen, hist in self.generation_length_histograms.items():
                lines.append(f"  generation {gen}:")
                for label, n in hist.items():
                    lines.append(f"    {label:>9}  {n:6d}  {'#' * min(n, 60)}")
        return "\n".join(lines) + "\n"


def _length_hist(lengths: Sequence[int]) -> dict[str, int]:
    hist: dict[str, int] = {}
    if not lengths:
        return hist
    top = max(lengths)
    for lo in range(0, top + 1, 5):
        label = f"{lo}-{lo + 4}"
        hist[label] = sum(1 for x in lengths if lo <= x < lo + 5)
    return hist


def stats(records: Iterable[ProblemRecord]) -> StatsReport:
    records = list(records)
    lengths = [r.metadata.reasoning_length for r in records]
    ratio_hist: dict[str, int] = {}
    for i in range(10):
        lo = i / 10
        hi = (i + 1) / 10
        label = f"{lo:.1f}-{hi:.1f}"
        if i < 9:
            ratio_hist[label] = sum(
                1 for r in records if lo <= r.metadata.premise_ratio < hi
            )
        else:
            ratio_hist[label] = sum(1 for r in records if lo <= r.metadata.premise_ratio <= hi)

    def count_by(fn) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in records:
            key = str(fn(r))
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    generations: dict[str, dict[str, int]] = {}
    for gen in sorted({r.metadata.bootstrap_generation for r in records}):
        generations[str(gen)] = _length_hist(
            [r.metadata.reasoning_length for r in records if r.metadata.bootstrap_generation == gen]
        )

    return StatsReport(
        total=len(records),
        length_histogram=_length_hist(lengths),
        ratio_histogram=ratio_hist,
        tier_counts=count_by(lambda r: r.metadata.tier),
        template_counts=count_by(lambda r: r.template),
        kind_counts=count_by(lambda r: r.kind),
        generation_length_histograms=generations,
    )


@dataclass
class VerifyReport:
    total: int
    failures: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not self.failures


class _SceneChecks:
    """One scene's initial set and its pure checks, each run once per
    ``verify`` call: statement -> numeric verdict, and (rule id, premises in
    cited order, conclusion) -> licensed. Never shared across scenes or
    calls, where a verdict would meet another geometry."""

    def __init__(self, scene: Scene):
        self.geometry = scene.geometry
        self.initial = set(scene.initial_statements)
        self._holds: dict[Statement, bool] = {}
        self._licensed: dict[tuple, bool] = {}

    def holds(self, stmt: Statement) -> bool:
        verdict = self._holds.get(stmt)
        if verdict is None:
            verdict = self._holds[stmt] = self.geometry.check_statement(stmt).holds
        return verdict

    def licensed(self, rule: Rule, step: SolutionStep) -> bool:
        key = (rule.id, step.premises, step.conclusion)
        verdict = self._licensed.get(key)
        if verdict is None:
            verdict = self._licensed[key] = rule.recheck(self.geometry, step.premises, step.conclusion)
        return verdict


def _replay_steps(
    checks: _SceneChecks, steps: Sequence[SolutionStep], label: str
) -> tuple[str | None, frozenset[Statement]]:
    """Re-verify a transition list; returns (error or None, used premises).

    Each step must be derived by its cited rule's matcher from exactly its
    cited premises, all established earlier, and every premise and
    conclusion must hold numerically."""
    derived: set[Statement] = set()
    used: set[Statement] = set()
    for i, step in enumerate(steps):
        rule = RULES_BY_ID.get(step.rule)
        if rule is None:
            return f"{label} step {i}: unknown rule {step.rule}", frozenset()
        for p in step.premises:
            if p in checks.initial:
                used.add(p)
            elif p not in derived:
                return f"{label} step {i}: premise {p} not established", frozenset()
            if not checks.holds(p):
                return f"{label} step {i}: premise {p} fails numerically", frozenset()
        if step.conclusion in step.premises:
            return f"{label} step {i}: conclusion among premises", frozenset()
        if not checks.holds(step.conclusion):
            return f"{label} step {i}: conclusion fails numerically", frozenset()
        if not checks.licensed(rule, step):
            return f"{label} step {i}: rule {step.rule} does not license this step", frozenset()
        derived.add(step.conclusion)
    return None, frozenset(used)


def _shape_mismatch(record: ProblemRecord) -> str | None:
    """Why the record's fields do not fit its template, if they do not: one
    solution (at least two for multi_solution), and a wrong branch with its
    overlap exactly when the template is traceback."""
    template = record.template
    if template not in ("deductive", "multi_solution", "traceback"):
        return f"unknown template {template!r}"
    many = template == "multi_solution"
    if (len(record.solutions) > 1) != many:
        if many:
            return "a multi_solution record needs at least two solutions"
        return f"a {template} record needs exactly one solution"
    if template == "traceback":
        if record.wrong_branch is None or record.overlap is None:
            return "a traceback record needs a wrong branch and an overlap"
    elif record.wrong_branch is not None or record.overlap is not None:
        return f"a {template} record has a wrong branch or an overlap"
    return None


# derived from every other field, so named only when nothing else differs
_DERIVED = ("id", "diagram")
_ABSENT = object()


def _first_difference(rebuilt: dict, stored: dict) -> str:
    """The first field, in ``record_to_doc`` order, where two documents
    differ; ``rebuilt`` and ``stored`` must differ somewhere."""
    order = [*(k for k in rebuilt if k not in _DERIVED), *_DERIVED]
    order += [k for k in stored if k not in rebuilt]
    return next(k for k in order if rebuilt.get(k, _ABSENT) != stored.get(k, _ABSENT))


def _verify_record(
    record: ProblemRecord,
    stored: dict,
    scenes: dict[str, Scene],
    diagrams: set[str],
    checks: dict[str, _SceneChecks],
    config: PipelineConfig,
) -> str | None:
    if record.diagram != f"svg/{record.id}.svg":
        return f"diagram {record.diagram} is not svg/{record.id}.svg"
    if record.diagram not in diagrams:
        return f"diagram {record.diagram} is missing"
    meta = record.metadata
    if (meta.tau_l, meta.tau_r, meta.tau_p) != (config.tau_l, config.tau_r, config.tau_p):
        return "stored thresholds disagree with config.json"
    problem = _shape_mismatch(record)
    if problem:
        return problem
    scene = scenes.get(record.scene_id)
    if scene is None:
        return f"unknown scene {record.scene_id}"
    scene_checks = checks.get(record.scene_id)
    if scene_checks is None:
        scene_checks = checks[record.scene_id] = _SceneChecks(scene)
    if not record.solutions:
        return "no formal solution"
    target = _full_target(record)
    cited = []
    for j, steps in enumerate(record.solutions):
        if not steps:
            return f"solution {j} is empty"
        error, used = _replay_steps(scene_checks, steps, f"solution {j}")
        if error:
            return error
        if steps[-1].conclusion != target:
            return f"solution {j} does not end at the target"
        if len(steps) < config.tau_l:
            return f"solution {j} violates the length filter"
        if len(used) / len(scene.initial_statements) < config.tau_r - 1e-12:
            return f"solution {j} violates the premise-ratio filter"
        cited.append(used)
    if record.wrong_branch is not None:
        error, used = _replay_steps(scene_checks, record.wrong_branch, "wrong branch")
        if error:
            return error
        cited.append(used)
    if config.translator == "template":
        backend = TemplateBackend()
    else:  # an external translator's texts, which cannot be rebuilt offline
        texts = (record.nl_solution, record.connection_thinking)
        if (texts[0] is None, texts[1] is None) != (record.untranslated,) * 2:
            return "nl_solution and connection_thinking must be null exactly when untranslated is true"
        backend = texts
    draft = ProblemDraft(
        kind=record.kind,
        template=record.template,
        target=target,
        solutions=record.solutions,
        wrong_branch=record.wrong_branch,
        cited=tuple(cited),
    )
    rebuilt, doc = build_record(
        draft, scene, record.scene_id, config, meta.bootstrap_generation, backend
    )
    if rebuilt.overlap is not None and rebuilt.overlap < config.tau_p - 1e-12:
        return "overlap violates tau_p"
    if doc != stored:
        return f"{_first_difference(doc, stored)} disagrees with the record rebuilt from its formal core"
    return None


def _full_target(record: ProblemRecord) -> Statement:
    """The statement a solution must end at (value restored for numeric)."""
    if record.answer_value is None:
        return record.target
    return Statement(record.target.predicate, record.target.groups, record.answer_value)


def verify(in_dir: str | Path) -> VerifyReport:
    """Independently replay every record of a dataset, then rebuild it.

    Each solution step is re-derived by its cited rule's matcher from exactly
    its cited premises, and each statement is checked numerically on the
    scene geometry; the filters are judged against the thresholds of
    ``config.json``, which each record must repeat, and each record must
    have its template's shape. A missing or invalid ``config.json`` is a
    ``<dataset>`` failure. These checks are pure, so each distinct replay,
    numeric check and statement parse runs once per scene per call, however
    many records share it. Each record's diagram must be ``svg/<id>.svg``
    and present.

    Each record that passes is then rebuilt by ``build_record`` from its
    formal core (template, kind, target, solutions, wrong branch and the
    initial statements they cite), its scene and ``config.json``, and must
    equal its stored line field for field, id included; the failure names
    the first field that differs. Texts of an external translator are not
    rebuilt, which would need the network: they must be null exactly when
    ``untranslated`` is true.

    The record ids, in order, must match manifest.jsonl, so a truncated
    records.jsonl fails as a ``<dataset>`` failure, as does a missing or
    non-UTF-8 one. Schema and field-type problems surface as corrupt-record
    failures, not crashes.
    """
    failures: list[tuple[str, str]] = []
    try:
        scenes = load_scenes(in_dir)
    except (OSError, KeyError, ValueError) as exc:
        return VerifyReport(0, [("<dataset>", f"cannot load scenes: {exc}")])
    try:
        config = PipelineConfig.from_doc(load_config(in_dir))
    except (OSError, ValueError, TypeError, PipelineError) as exc:
        return VerifyReport(0, [("<dataset>", f"cannot load config: {exc}")])
    try:
        diagrams = {f"svg/{p.name}" for p in (Path(in_dir) / "svg").iterdir()}
    except OSError:
        diagrams = set()
    try:
        lines = (Path(in_dir) / "records.jsonl").read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:  # missing, unreadable or not UTF-8
        return VerifyReport(0, [("<dataset>", f"cannot read records: {exc}")])
    parsed: dict[str, Statement] = {}
    checks: dict[str, _SceneChecks] = {}
    ids: list[str | None] = []
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        ids.append(None)
        try:
            doc = json.loads(line)
            if isinstance(doc, dict):
                ids[-1] = doc.get("id")
            # looked up at call time, as load_records does, so a patched parser applies
            record = dataset.record_from_doc(doc, parsed)
        except (CorruptRecordError, ParseError, json.JSONDecodeError) as exc:
            failures.append((f"line {line_no}", f"corrupt record: {exc}"))
            continue
        try:
            problem = _verify_record(record, doc, scenes, diagrams, checks, config)
        except (GeometryError, ParseError) as exc:
            problem = f"verification error: {exc}"
        if problem:
            failures.append((record.id, problem))
    problem = _manifest_mismatch(Path(in_dir) / "manifest.jsonl", ids)
    if problem:
        failures.append(("<dataset>", problem))
    return VerifyReport(len(ids), failures)


def _manifest_mismatch(path: Path, ids: list[str | None]) -> str | None:
    """Why the records' ids, in order, disagree with the manifest, if they do."""
    try:
        listed = [
            json.loads(line)["id"]
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"cannot read manifest: {exc}"
    if len(listed) != len(ids):
        return f"manifest lists {len(listed)} records, records.jsonl holds {len(ids)}"
    for i, (want, have) in enumerate(zip(listed, ids)):
        if want != have:
            return f"record {i} is {have}, the manifest lists {want}"
    return None
