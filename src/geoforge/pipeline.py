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
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, wraps
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
    read_jsonl,
    record_content_hash,
    record_to_doc,
    scene_id_of,
    write_dataset,
    write_jsonl,
)
from .geometry import GeometryError
from .reasoner import (
    MAX_ROUNDS,
    MAX_STATEMENTS,
    MAX_TRANSITIONS,
    ReasoningGraph,
    SolutionStep,
    VerifierContradictionError,
    saturate,
)
from .render import RenderError, render_svg
from .rules import RULES_BY_ID, Rule
from .sampler import (
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
from .statements import VALUE_PREDICATES, ParseError, Predicate, Statement, Unit, clear_canonical_table
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

MAX_PROBLEMS_PER_SCENE = 4  # deductive records per scene, at most one of them a proof
MAX_PATHS = 8  # derivations per target that geo_explore_m keeps and geo_explore_t reads
MIN_EXTENSION_STEPS, MAX_EXTENSION_STEPS = 2, 6  # constructions extending each base scene

# config fields that became the constants above and reasoner's closure caps;
# an older engine's config.json still names them
_NOW_CONSTANT = {
    "max_problems_per_scene": MAX_PROBLEMS_PER_SCENE,
    "max_paths": MAX_PATHS,
    "min_extension_steps": MIN_EXTENSION_STEPS,
    "max_extension_steps": MAX_EXTENSION_STEPS,
    "max_statements": MAX_STATEMENTS,
    "max_transitions": MAX_TRANSITIONS,
    "max_rounds": MAX_ROUNDS,
}


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
    workers: int = 1
    bootstrap_quantile: float = 0.1
    bootstrap_extra_steps: int = 3
    bootstrap_iterations: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise PipelineError("count must be >= 1")
        if self.tau_l < 0:
            raise PipelineError("tau_l must be >= 0")
        if self.workers < 1:
            raise PipelineError("workers must be >= 1")
        if not 0.0 <= self.tau_r <= 1.0:
            raise PipelineError("tau_r must lie in [0, 1]")
        if not 0.0 <= self.tau_p <= 1.0:
            raise PipelineError("tau_p must lie in [0, 1]")
        if self.translator not in ("template", "external"):
            raise PipelineError(f"unknown translator {self.translator!r}")
        if self.translator == "external" and not (self.llm_endpoint and self.llm_model):
            raise PipelineError("external translator needs --llm-endpoint and --llm-model")
        if self.distractor_policy not in ("all", "used"):
            raise PipelineError(f"unknown distractor policy {self.distractor_policy!r}")
        if not 0.0 < self.bootstrap_quantile <= 1.0:
            raise PipelineError("bootstrap_quantile must lie in (0, 1]")
        if self.bootstrap_extra_steps < 1:
            raise PipelineError("bootstrap_extra_steps must be >= 1")
        if self.bootstrap_iterations < 1:
            raise PipelineError("bootstrap_iterations must be >= 1")

    def to_doc(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "PipelineConfig":
        if not isinstance(doc, dict):
            raise PipelineError("config is not a JSON object")
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        unknown = set(doc) - set(defaults) - set(_NOW_CONSTANT)
        if unknown:
            raise PipelineError(f"unknown config keys: {sorted(unknown)}")
        # a dataset written by an older engine is read when it ran at today's value
        for key in sorted(set(doc) & set(_NOW_CONSTANT)):
            value, constant = doc[key], _NOW_CONSTANT[key]
            if type(value) is not int or value != constant:
                raise PipelineError(
                    f"written by an older engine: {key} was {value!r}, is now the constant {constant}"
                )
        doc = {k: v for k, v in doc.items() if k not in _NOW_CONSTANT}
        for key, value in doc.items():
            default = defaults[key]
            # a field takes its default's type, a float field an int too, and
            # a field that defaults to None a string; a JSON true is no number
            if default is None:
                allowed: tuple[type, ...] = (str, type(None))
            elif type(default) is float:
                allowed = (int, float)
            else:
                allowed = (type(default),)
            if type(value) not in allowed:
                expected = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
                raise PipelineError(f"config key {key!r} must be {expected}, not {value!r}")
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
            tier=tier_of(len(primary)),
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


@dataclass
class _Batch:
    """Records and their documents, the scenes and diagrams they cite, and
    failures, as ``generate`` and ``bootstrap`` collect them scene by scene."""

    records: list[ProblemRecord] = field(default_factory=list)
    docs: list[dict] = field(default_factory=list)
    scenes: dict[str, Scene] = field(default_factory=dict)
    diagrams: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def extend(self, other: "_Batch") -> None:
        self.records.extend(other.records)
        self.docs.extend(other.docs)
        self.scenes.update(other.scenes)
        self.diagrams.update(other.diagrams)
        self.failures.extend(other.failures)

    def write(self, out_dir: str | Path, config: PipelineConfig) -> GenerationReport:
        write_dataset(out_dir, self.docs, self.scenes, self.diagrams, config.to_doc())
        return GenerationReport(str(out_dir), self.records, self.failures)


def _process_scene(scene: Scene, config: PipelineConfig, generation: int, backend) -> _Batch:
    """Saturate once, sample every template, formulate, render, translate.

    The scene is registered under its id when it yields a record; a scene
    the reasoner or the geometry rejects yields only a failure. Only these
    name the scene, so only they compute its id."""
    scene_id = cache(lambda: scene_id_of(scene))
    try:
        return _scene_records(scene, scene_id, config, generation, backend)
    except (VerifierContradictionError, GeometryError) as exc:
        return _Batch(failures=[f"scene {scene_id()}: {exc}"])


def _scene_records(
    scene: Scene, scene_id: Callable[[], str], config: PipelineConfig, generation: int, backend
) -> _Batch:
    out = _Batch()
    graph = saturate(scene)
    drafts: list[ProblemDraft] = []

    def deductive(sid: int) -> ReasoningPath | None:
        path = geo_explore(graph, sid, config.tau_l, config.tau_r)
        return path if isinstance(path, ReasoningPath) else None

    enumerated: dict[int, list[ReasoningPath]] = {}

    def correct_paths(sid: int) -> list[ReasoningPath]:
        # the multi_solution and traceback rows share one enumeration per target
        if sid not in enumerated:
            enumerated[sid] = geo_explore_m(graph, sid, config.tau_l, config.tau_r, MAX_PATHS)
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
                max_paths=MAX_PATHS,
            )
        except SamplerError:
            return None

    # One row per thinking template: sampler, targets tried, records kept.
    # The samplers resolve geo_explore* through module globals on every call,
    # so the functions stay replaceable from outside (tracing, tests).
    templates = (
        (deductive, math.inf, MAX_PROBLEMS_PER_SCENE),
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
            drafts.append(formulate_problem(graph, material, kind))
            kept += 1
            proofs += kind == "proof"

    if drafts:
        try:
            svg = render_svg(scene)
        except RenderError as exc:
            out.failures.append(f"scene {scene_id()}: render failed: {exc}")
            return out
        for draft in drafts:
            record, doc = build_record(draft, scene, scene_id(), config, generation, backend)
            out.records.append(record)
            out.docs.append(doc)
            out.diagrams[record.id] = svg
        out.scenes[scene_id()] = scene
    return out


def _build_scene(seed: int) -> Scene:
    rng = random.Random(("pipeline", seed).__repr__())
    generator_id = rng.choice(sorted(BASE_GENERATORS))
    steps = rng.randint(MIN_EXTENSION_STEPS, MAX_EXTENSION_STEPS)
    scene = generate_base_scene(generator_id, seed)
    return extend_scene(scene, steps, seed)


def _grow_scene(config: PipelineConfig, base: Scene, generation: int) -> Scene | None:
    """``base`` extended by ``bootstrap_extra_steps`` constructions, retried
    until its premise set strictly grows; None after ten attempts."""
    for attempt in range(10):
        candidate = extend_scene(
            base,
            config.bootstrap_extra_steps,
            rng_seed=base.seed * 1000003 + generation * 101 + attempt,
        )
        if len(candidate.initial_statements) > len(base.initial_statements):
            return candidate
    return None


@contextmanager
def _scene_map(workers: int) -> Iterator[Callable]:
    """A ``map`` that keeps input order: a process pool's at ``workers > 1``,
    shut down and joined on exit, else the builtin.

    Workers start by the platform's default method, fork on Linux before
    Python 3.14, so they see the parent's module globals, patched ones
    included; arguments and results are pickled, and a frozen config
    pickles as it is. A worker's exception is raised in the parent.
    """
    if workers <= 1:
        yield map
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def _generate_one_seed(config: PipelineConfig, seed: int) -> _Batch:
    backend = _make_backend(config)
    try:
        scene = _build_scene(seed)
    except ConstructionError as exc:
        return _Batch(failures=[f"seed {seed}: construction failed: {exc}"])
    return _process_scene(scene, config, 0, backend)


def _empties_canonical_table(fn: Callable) -> Callable:
    """``fn``, which empties the table of canonical statements when it
    returns or raises: equal statements are one object within a call, and
    the table holds none of them past it."""

    @wraps(fn)
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            clear_canonical_table()

    return call


@_empties_canonical_table
def generate(config: PipelineConfig, out_dir: str | Path) -> GenerationReport:
    """Run the full engine for every seed and emit a dataset directory."""
    seeds = range(config.seed_start, config.seed_start + config.count)
    out = _Batch()
    with _scene_map(config.workers) as scene_map:
        for batch in scene_map(_generate_one_seed, repeat(config), seeds):
            out.extend(batch)
    return out.write(out_dir, config)


def _bootstrap_one_scene(
    config: PipelineConfig, scene_id: str, base: Scene | None, generation: int
) -> _Batch:
    """One re-seeded scene of a bootstrap generation: grown, then processed."""
    if base is None:
        return _Batch(failures=[f"bootstrap: scene {scene_id} missing"])
    extended = _grow_scene(config, base, generation)
    if extended is None:
        return _Batch(failures=[f"bootstrap: scene {scene_id} would not grow"])
    return _process_scene(extended, config, generation, _make_backend(config))


@_empties_canonical_table
def bootstrap(config: PipelineConfig, in_dir: str | Path, out_dir: str | Path) -> GenerationReport:
    """Re-seed the constructor with the deepest prior scenes and go again.

    Scenes whose best sampled reasoning length ranks in the top quantile are
    extended by extra constructions (retrying until the premise set strictly
    grows), then re-saturated and re-sampled; emitted records carry the next
    bootstrap generation number. A generation's scenes run in parallel on
    one ``workers`` pool that serves the whole call, while generations run
    one after another, since each ranks the records of the one before;
    records and failures keep the ranked order whatever ``workers`` is.
    Raises ``PipelineError``, and writes nothing, when no iteration yields
    a record.
    """
    prior_records = load_records(in_dir)
    prior_scenes = load_scenes(in_dir)
    if not prior_records:
        raise PipelineError("prior dataset has no records")

    out = _Batch()
    current_records = prior_records
    current_scenes = prior_scenes
    generation = max(r.metadata.bootstrap_generation for r in prior_records)

    with _scene_map(config.workers) as scene_map:
        for _ in range(config.bootstrap_iterations):
            generation += 1
            best: dict[str, int] = {}
            for r in current_records:
                best[r.scene_id] = max(best.get(r.scene_id, 0), r.metadata.reasoning_length)
            ranked = sorted(best, key=lambda sid: (-best[sid], sid))
            k = math.ceil(config.bootstrap_quantile * len(ranked))  # >= 1, as the quantile is > 0

            new = _Batch()
            selected = ranked[:k]
            bases = [current_scenes.get(scene_id) for scene_id in selected]
            for batch in scene_map(
                _bootstrap_one_scene, repeat(config), selected, bases, repeat(generation)
            ):
                new.extend(batch)
            out.extend(new)
            current_records = new.records or current_records
            current_scenes = {**current_scenes, **new.scenes}

    if not out.records:
        # an empty dataset would verify as "0 records, 0 failures"
        raise PipelineError(f"bootstrap of {in_dir} yielded no records; nothing written")
    return out.write(out_dir, config)


def curate_testset(in_dir: str | Path, per_tier: int, out_dir: str | Path) -> list[ProblemRecord]:
    """Numeric-answer records only, ``per_tier`` from each tier by id order;
    solution fields are stripped and the answers go to a hidden key file."""
    if per_tier < 1:
        raise PipelineError("per_tier must be >= 1")
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
    write_jsonl(
        out / "test.jsonl",
        (
            {"id": r.id, "question": r.question, "diagram": r.diagram, "tier": r.metadata.tier}
            for r in chosen
        ),
    )
    write_jsonl(
        out / "key.jsonl",
        (
            {
                "id": r.id,
                "tier": r.metadata.tier,
                "exact": str(r.answer_value),
                "approx": float(r.answer_value),
            }
            for r in chosen
        ),
    )
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
    tolerance (absolute 0.01 when the key is zero). A fraction with no float
    value (a zero denominator, or beyond float range) is a wrong answer."""
    key_f = float(key)
    if not math.isfinite(key_f):
        raise PipelineError("answer key must be finite")
    tokens = _NUMBER_TOKEN.findall(predicted)
    if not tokens:
        return AnswerCheck(False, False, None)
    token = tokens[-1]
    try:
        value = float(Fraction(token)) if "/" in token else float(token)
    except (ZeroDivisionError, OverflowError):
        return AnswerCheck(False, True, None)
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
        lines += _bars(self.length_histogram, "  ")
        lines += ["", "premise ratio:", *_bars(self.ratio_histogram, "  "), ""]
        lines.append("tiers:     " + "  ".join(f"{k}:{v}" for k, v in self.tier_counts.items()))
        lines.append("templates: " + "  ".join(f"{k}:{v}" for k, v in self.template_counts.items()))
        lines.append("kinds:     " + "  ".join(f"{k}:{v}" for k, v in self.kind_counts.items()))
        if len(self.generation_length_histograms) > 1:
            lines += ["", "reasoning length by bootstrap generation:"]
            for gen, hist in self.generation_length_histograms.items():
                lines += [f"  generation {gen}:", *_bars(hist, "    ")]
        return "\n".join(lines) + "\n"


def _bars(hist: dict[str, int], indent: str) -> list[str]:
    return [f"{indent}{label:>9}  {n:6d}  {'#' * min(n, 60)}" for label, n in hist.items()]


def _length_hist(lengths: Sequence[int]) -> dict[str, int]:
    """5-wide buckets from 0 up to the longest length."""
    counts = Counter(x // 5 for x in lengths)
    return {f"{5 * b}-{5 * b + 4}": counts[b] for b in range(max(lengths, default=-1) // 5 + 1)}


# ratio r falls in bucket bisect_right(_RATIO_EDGES, r): bucket i holds
# [i/10, (i+1)/10), and the last one, 0.9-1.0, holds 1.0 too
_RATIO_EDGES = [i / 10 for i in range(1, 10)]


def stats(records: Iterable[ProblemRecord]) -> StatsReport:
    records = list(records)
    ratios = Counter(
        bisect_right(_RATIO_EDGES, r.metadata.premise_ratio)
        for r in records
        if 0.0 <= r.metadata.premise_ratio <= 1.0
    )
    by_generation: dict[int, list[int]] = {}
    for r in records:
        meta = r.metadata
        by_generation.setdefault(meta.bootstrap_generation, []).append(meta.reasoning_length)

    def count_by(fn) -> dict[str, int]:
        return dict(sorted(Counter(str(fn(r)) for r in records).items()))

    return StatsReport(
        total=len(records),
        length_histogram=_length_hist([r.metadata.reasoning_length for r in records]),
        ratio_histogram={f"{i / 10:.1f}-{(i + 1) / 10:.1f}": ratios[i] for i in range(10)},
        tier_counts=count_by(lambda r: r.metadata.tier),
        template_counts=count_by(lambda r: r.template),
        kind_counts=count_by(lambda r: r.kind),
        generation_length_histograms={
            str(gen): _length_hist(by_generation[gen]) for gen in sorted(by_generation)
        },
    )


@dataclass
class VerifyReport:
    total: int
    failures: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not self.failures


class _SceneChecks:
    """One scene's verdict and its pure checks, each run once per ``verify``
    call: ``check_scene``, the constructor's own validity test, on its
    initial statements (``problem``), statement -> numeric verdict, and
    step -> its ``_StepChecks``. Never shared across scenes or calls, where
    a verdict would meet another geometry."""

    def __init__(self, scene: Scene):
        self.geometry = scene.geometry
        self.initial = set(scene.initial_statements)
        verdict = self.geometry.check_scene(scene.initial_statements)
        self.problem: str | None = None
        if verdict.failing:
            self.problem = f"scene statement {verdict.failing[0]} fails numerically"
        elif verdict.degeneracies:
            self.problem = f"scene is degenerate: {verdict.degeneracies[0]}"
        self._holds: dict[Statement, bool] = {}
        self._steps: dict[SolutionStep, _StepChecks] = {}

    def holds(self, stmt: Statement) -> bool:
        verdict = self._holds.get(stmt)
        if verdict is None:
            verdict = self._holds[stmt] = self.geometry.check_statement(stmt).holds
        return verdict

    def step(self, step: SolutionStep) -> "_StepChecks":
        checks = self._steps.get(step)
        if checks is None:
            checks = self._steps[step] = _StepChecks(step, self.initial)
        return checks


_UNCHECKED = object()


class _StepChecks:
    """The checks of one distinct step that no other step affects: its rule
    is known, and then (``after_premises``) its conclusion is new and holds
    and its rule licenses it. Each runs the first time a replay reaches it,
    so a check that raises raises where it did before anything was
    memoised."""

    __slots__ = ("rule", "given", "needed", "concluded", "_after")

    def __init__(self, step: SolutionStep, initial: set[Statement]):
        self.rule: Rule | None = RULES_BY_ID.get(step.rule)
        # sets, whose operations reuse the hashes they store; the lookup in
        # _SceneChecks.step still hashes the whole step on every replay
        premises = frozenset(step.premises)
        self.needed = premises - initial  # must be earlier conclusions
        self.given = premises - self.needed
        self.concluded = frozenset((step.conclusion,))
        self._after: str | None | object = _UNCHECKED

    def after_premises(self, checks: _SceneChecks, step: SolutionStep) -> str | None:
        """Why the step fails once its premises are established."""
        if self._after is _UNCHECKED:
            if step.conclusion in step.premises:
                self._after = "conclusion among premises"
            elif not checks.holds(step.conclusion):
                self._after = "conclusion fails numerically"
            elif not self.rule.recheck(checks.geometry, step.premises, step.conclusion):
                self._after = f"rule {step.rule} does not license this step"
            else:
                self._after = None
        return self._after


def _replay_steps(
    checks: _SceneChecks, steps: Sequence[SolutionStep], label: str
) -> tuple[str | None, frozenset[Statement]]:
    """Re-verify a transition list on a scene that passed its scene check;
    returns (error or None, used premises).

    Each step must be derived by its cited rule's matcher from exactly its
    cited premises, all established earlier, and its conclusion must hold
    numerically. A premise is an initial statement, which the scene check
    holds, or an earlier conclusion, checked at its own step. Only whether a
    premise is established depends on the steps before it; the rest comes
    from ``checks``."""
    derived: set[Statement] = set()
    used: set[Statement] = set()
    for i, step in enumerate(steps):
        step_checks = checks.step(step)
        if step_checks.rule is None:
            return f"{label} step {i}: unknown rule {step.rule}", frozenset()
        if not step_checks.needed <= derived:
            p = next(p for p in step.premises if p not in step_checks.given and p not in derived)
            return f"{label} step {i}: premise {p} not established", frozenset()
        error = step_checks.after_premises(checks, step)
        if error:
            return f"{label} step {i}: {error}", frozenset()
        used |= step_checks.given
        derived |= step_checks.concluded
    return None, frozenset(used)


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
    backend: TemplateBackend | None,
) -> str | None:
    """Why ``record`` fails, or None. ``backend`` rebuilds the texts of a
    template translator and is None for an external one."""
    if record.diagram not in diagrams:
        return f"diagram {record.diagram} is missing"
    scene = scenes.get(record.scene_id)
    if scene is None:
        return f"unknown scene {record.scene_id}"
    scene_checks = checks.get(record.scene_id)
    if scene_checks is None:
        scene_checks = checks[record.scene_id] = _SceneChecks(scene)
    if scene_checks.problem:
        return scene_checks.problem
    if not record.solutions:
        return "no formal solution"
    if record.wrong_branch is not None and len(record.solutions) > 1:
        # the one shape the template, derived from the core, cannot express
        return "a record with a wrong branch needs exactly one solution"
    for j, steps in enumerate(record.solutions):
        if steps in record.solutions[:j]:
            return f"solution {j} repeats solution {record.solutions.index(steps)}"
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
    if backend is None:  # an external translator's texts, which cannot be rebuilt offline
        texts = (record.nl_solution, record.connection_thinking)
        if (texts[0] is None, texts[1] is None) != (record.untranslated,) * 2:
            return "nl_solution and connection_thinking must be null exactly when untranslated is true"
        backend = texts
    draft = ProblemDraft(
        kind=record.kind,
        target=target,
        solutions=record.solutions,
        wrong_branch=record.wrong_branch,
        cited=tuple(cited),
    )
    rebuilt, doc = build_record(
        draft, scene, record.scene_id, config, record.metadata.bootstrap_generation, backend
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


@_empties_canonical_table
def verify(in_dir: str | Path) -> VerifyReport:
    """Independently replay every record of a dataset, then rebuild it.

    Each record's scene must pass ``check_scene``, the test its
    constructor accepted it by: every initial statement holds numerically
    and nothing is degenerate. Each solution step is re-derived by its
    cited rule's matcher from exactly its cited premises, and its
    conclusion is checked numerically on the scene geometry; the filters
    are judged against the thresholds of ``config.json``. A missing or
    invalid ``config.json`` is a ``<dataset>`` failure. Each record's diagram file must be present, a
    record with a wrong branch must have exactly one solution, and no
    solution may repeat an earlier one.

    These checks are pure, so each distinct piece of work runs once per
    call however many records share it: each statement text of both files
    is parsed once and each stored step built once; per scene, the scene
    check, each distinct step's checks that no other step affects (rule
    known, conclusion new and holding, licence) and each numeric check run
    once. Per record, only whether each premise is established and which
    initial statements a solution uses remain. The memos are keyed by
    value and live for this call only.

    Each record that passes is then rebuilt by ``build_record`` from its
    formal core (kind, target, solutions, wrong branch and the initial
    statements they cite), its scene and ``config.json``, and must equal
    its stored line field for field: template, thresholds, diagram name and
    id included. The failure names the first field that differs. Texts of
    an external translator are not rebuilt, which would need the network:
    they must be null exactly when ``untranslated`` is true.

    The record ids, in order, must match manifest.jsonl, so a truncated
    records.jsonl fails as a ``<dataset>`` failure, as does a missing or
    non-UTF-8 one. Schema and field-type problems surface as corrupt-record
    failures, not crashes. records.jsonl is read by its own loop, not by
    ``dataset.read_jsonl``, because a bad line is reported as a failure of
    that line and the loop goes on to the next.
    """
    failures: list[tuple[str, str]] = []
    parsed: dict = {}  # statement and step memo for both files
    try:
        scenes = load_scenes(in_dir, parsed)
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
    backend = TemplateBackend() if config.translator == "template" else None
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
            problem = _verify_record(record, doc, scenes, diagrams, checks, config, backend)
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
        listed = [doc["id"] for _, doc in read_jsonl(path)]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"cannot read manifest: {exc}"
    if len(listed) != len(ids):
        return f"manifest lists {len(listed)} records, records.jsonl holds {len(ids)}"
    for i, (want, have) in enumerate(zip(listed, ids)):
        if want != have:
            return f"record {i} is {have}, the manifest lists {want}"
    return None
