"""Problem-record schema and dataset directory IO.

A dataset directory holds records.jsonl (full records), scenes.jsonl (the
scenes they reference), manifest.jsonl (one summary line per record), an
svg/ directory with one diagram per record, and config.json. Record ids are
content hashes, so identical runs produce identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .constructions import Scene, scene_from_doc
from .reasoner import SolutionStep
from .statements import Statement, StatementError, Unit, parse_statement

SCHEMA_VERSION = 1


class CorruptRecordError(ValueError):
    pass


@dataclass(frozen=True)
class RecordMetadata:
    reasoning_length: int
    premise_ratio: float
    tier: int | None
    tau_l: int
    tau_r: float
    tau_p: float
    bootstrap_generation: int


@dataclass(frozen=True)
class ProblemRecord:
    id: str
    seed: int
    scene_id: str
    template: str  # "deductive" | "multi_solution" | "traceback"
    kind: str  # "numeric" | "proof"
    question: str
    premises: tuple[Statement, ...]
    target: Statement  # query form for numeric problems
    answer_value: Fraction | None
    solutions: tuple[tuple[SolutionStep, ...], ...]
    wrong_branch: tuple[SolutionStep, ...] | None
    overlap: float | None
    nl_solution: str | None
    connection_thinking: str | None
    untranslated: bool
    diagram: str
    metadata: RecordMetadata

    @property
    def answer_unit(self) -> str | None:
        unit = self.target.unit
        return unit.value if isinstance(unit, Unit) else None


def _steps_doc(steps: Iterable[SolutionStep]) -> list[dict]:
    return [
        {
            "premises": [p.text() for p in s.premises],
            "rule": s.rule,
            "conclusion": s.conclusion.text(),
        }
        for s in steps
    ]


def _step_from_doc(entry, parse, memo: dict) -> SolutionStep:
    rule = entry["rule"]
    if not isinstance(rule, str):
        raise TypeError(f"rule {rule!r} is not a string")
    premises, conclusion = entry.get("premises"), entry.get("conclusion")
    # only a well-typed step is looked up, so any other fails below as before
    key = None
    if type(premises) is list and type(conclusion) is str and all(type(t) is str for t in premises):
        key = (tuple(premises), rule, conclusion)
        step = memo.get(key)
        if step is not None:
            return step
    step = SolutionStep(
        premises=tuple(parse(t) for t in entry["premises"]),
        rule=rule,
        conclusion=parse(entry["conclusion"]),
    )
    if key is not None:
        memo[key] = step
    return step


def _steps_from_doc(doc, parse, memo: dict) -> tuple[SolutionStep, ...]:
    try:
        return tuple(_step_from_doc(entry, parse, memo) for entry in doc)
    except (KeyError, TypeError) as exc:
        raise CorruptRecordError(f"bad solution step: {exc}") from exc


def _number(doc: dict, key: str, optional: bool = False) -> int | float | None:
    """``doc[key]``, which must be a JSON number (a bool is not one), or null
    when ``optional``."""
    value = doc[key]
    if type(value) in (int, float) or (optional and value is None):
        return value
    raise CorruptRecordError(f"{key} is not a number: {value!r}")


def _answer_doc(record: ProblemRecord) -> dict | None:
    if record.kind == "proof":
        return {"kind": "proof", "statement": record.target.text()}
    value = record.answer_value
    return {
        "kind": "numeric",
        "exact": str(value),
        "approx": float(value),
        "unit": record.answer_unit,
    }


def record_to_doc(record: ProblemRecord) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "id": record.id,
        "seed": record.seed,
        "scene_id": record.scene_id,
        "template": record.template,
        "kind": record.kind,
        "question": record.question,
        "premises": [p.text() for p in record.premises],
        "target": record.target.text(),
        "answer": _answer_doc(record),
        "formal_solutions": [_steps_doc(sol) for sol in record.solutions],
        "wrong_branch": _steps_doc(record.wrong_branch) if record.wrong_branch else None,
        "overlap": record.overlap,
        "nl_solution": record.nl_solution,
        "connection_thinking": record.connection_thinking,
        "untranslated": record.untranslated,
        "diagram": record.diagram,
        "metadata": {
            "reasoning_length": record.metadata.reasoning_length,
            "premise_ratio": record.metadata.premise_ratio,
            "tier": record.metadata.tier,
            "tau_l": record.metadata.tau_l,
            "tau_r": record.metadata.tau_r,
            "tau_p": record.metadata.tau_p,
            "bootstrap_generation": record.metadata.bootstrap_generation,
        },
    }


def record_content_hash(doc: dict) -> str:
    """Deterministic id from everything except the id and diagram filename."""
    body = {k: v for k, v in doc.items() if k not in ("id", "diagram")}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def record_from_doc(doc: dict, parsed: dict | None = None) -> ProblemRecord:
    """``parsed`` memoises statement text -> ``Statement`` and stored step
    (premise texts, rule, conclusion text) -> ``SolutionStep``; records of
    one scene share most of their statements and steps, so pass one dict
    per file."""
    if parsed is None:
        parsed = {}

    def parse(text: str) -> Statement:
        stmt = parsed.get(text)
        if stmt is None:
            stmt = parsed[text] = parse_statement(text)
        return stmt

    try:
        kind, scene_id = doc["kind"], doc["scene_id"]
        if kind not in ("numeric", "proof"):
            raise CorruptRecordError(f"kind {kind!r} is neither numeric nor proof")
        if not isinstance(scene_id, str):
            raise CorruptRecordError(f"scene_id {scene_id!r} is not a string")
        value = Fraction(doc["answer"]["exact"]) if kind == "numeric" else None
        meta = doc["metadata"]
        return ProblemRecord(
            id=doc["id"],
            seed=doc["seed"],
            scene_id=scene_id,
            template=doc["template"],
            kind=kind,
            question=doc["question"],
            premises=tuple(parse(t) for t in doc["premises"]),
            target=parse(doc["target"]),
            answer_value=value,
            solutions=tuple(_steps_from_doc(sol, parse, parsed) for sol in doc["formal_solutions"]),
            wrong_branch=(
                _steps_from_doc(doc["wrong_branch"], parse, parsed) if doc["wrong_branch"] else None
            ),
            overlap=_number(doc, "overlap", optional=True),
            nl_solution=doc["nl_solution"],
            connection_thinking=doc["connection_thinking"],
            untranslated=doc["untranslated"],
            diagram=doc["diagram"],
            metadata=RecordMetadata(
                **{f.name: _number(meta, f.name, f.name == "tier") for f in fields(RecordMetadata)}
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptRecordError(str(exc)) from exc


def scene_id_of(scene: Scene) -> str:
    return hashlib.sha256(scene.to_json().encode("utf-8")).hexdigest()[:16]


def manifest_line(record: ProblemRecord) -> dict:
    approx = None
    if record.kind == "numeric" and record.answer_value is not None:
        approx = float(record.answer_value)
    return {
        "id": record.id,
        "seed": record.seed,
        "scene_id": record.scene_id,
        "template": record.template,
        "kind": record.kind,
        "tier": record.metadata.tier,
        "reasoning_length": record.metadata.reasoning_length,
        "premise_ratio": record.metadata.premise_ratio,
        "bootstrap_generation": record.metadata.bootstrap_generation,
        "answer_approx": approx,
        "diagram": record.diagram,
    }


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """Write beside ``path``, then rename into place: ``path`` is either its
    old self or complete, never half written."""
    tmp = path.with_name(f".{path.name}.tmp")
    with tmp.open("w", encoding="utf-8") as f:
        yield f
    os.replace(tmp, path)


def write_jsonl(path: Path, docs: Iterable[dict]) -> None:
    """One ``_dump`` line per doc, written beside ``path`` and renamed into place."""
    with _replacing(path) as f:
        for doc in docs:
            f.write(_dump(doc) + "\n")


def write_dataset(
    out_dir: str | Path,
    records: Iterable[ProblemRecord],
    scenes: dict[str, Scene],
    diagrams: dict[str, str],
    config_doc: dict,
) -> None:
    """Write a dataset directory, ``manifest.jsonl`` last.

    An old manifest is removed first and every file is renamed into place
    once complete, so a crash leaves no manifest or one that disagrees with
    ``records.jsonl``, and ``verify`` fails either way."""
    out = Path(out_dir)
    (out / "svg").mkdir(parents=True, exist_ok=True)
    (out / "manifest.jsonl").unlink(missing_ok=True)
    records = list(records)
    write_jsonl(out / "records.jsonl", (record_to_doc(r) for r in records))
    write_jsonl(
        out / "scenes.jsonl",
        ({"scene_id": sid, "scene": scenes[sid].to_doc()} for sid in sorted(scenes)),
    )
    for record_id, svg in sorted(diagrams.items()):
        with _replacing(out / "svg" / f"{record_id}.svg") as f:
            f.write(svg)
    with _replacing(out / "config.json") as f:
        f.write(_dump(config_doc) + "\n")
    write_jsonl(out / "manifest.jsonl", (manifest_line(r) for r in records))


def read_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """``(line number, decoded value)`` for each non-blank line of ``path``.
    A line that is not UTF-8 JSON raises ``CorruptRecordError`` naming the
    file and line."""
    for n, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except ValueError as exc:
            raise CorruptRecordError(f"{path} line {n}: not JSON: {exc}") from exc
        yield n, doc


def load_records(in_dir: str | Path) -> list[ProblemRecord]:
    path = Path(in_dir) / "records.jsonl"
    records = []
    parsed: dict[str, Statement] = {}
    for n, doc in read_jsonl(path):
        try:
            records.append(record_from_doc(doc, parsed))
        except CorruptRecordError as exc:
            raise CorruptRecordError(f"{path} line {n}: {exc}") from exc
    return records


def load_scenes(in_dir: str | Path, parsed: dict | None = None) -> dict[str, Scene]:
    """``parsed`` is a statement memo as for ``record_from_doc``; ``verify``
    passes it on to the records, so a text both files hold is parsed once."""
    path = Path(in_dir) / "scenes.jsonl"
    if parsed is None:
        parsed = {}

    def parse(text: str, known: frozenset[str]) -> Statement:
        # a remembered statement must name only this scene's points; any
        # other text is parsed, and raises as it would without the memo
        stmt = parsed.get(text) if isinstance(text, str) else None
        if stmt is None or not known.issuperset(label for group in stmt.groups for label in group):
            stmt = parsed[text] = parse_statement(text, known)
        return stmt

    scenes: dict[str, Scene] = {}
    for n, doc in read_jsonl(path):
        try:
            scenes[doc["scene_id"]] = scene_from_doc(doc["scene"], parse)
        except (AttributeError, KeyError, TypeError) as exc:
            raise CorruptRecordError(f"scenes.jsonl line {n} is not a scene object: {exc}") from exc
        except StatementError as exc:
            # named where it stands, and still of its own type
            exc.args = (f"{path} line {n}: {exc}",)
            raise
    return scenes


def load_config(in_dir: str | Path) -> dict:
    return json.loads((Path(in_dir) / "config.json").read_text(encoding="utf-8"))
