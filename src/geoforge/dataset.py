"""Problem-record schema and dataset directory IO.

A dataset directory holds records.jsonl (full records), scenes.jsonl (the
scenes they reference), manifest.jsonl (one summary line per record), an
svg/ directory with one diagram name per record (the records of one scene
share one file), and config.json. Record ids are content hashes, so
identical runs produce identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

from .constructions import CorruptRecordError, Scene, scene_from_doc
from .geometry import GeometryError
from .reasoner import SolutionStep
from .statements import Statement, StatementError, Unit, parse_statement

SCHEMA_VERSION = 1


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


def _number(doc: dict, key: str, optional: bool = False, integer: bool = False) -> int | float | None:
    """``doc[key]``, which must be a JSON number (a bool is not one), an
    integer when ``integer``, or null when ``optional``."""
    value = doc[key]
    if type(value) is int or (type(value) is float and not integer) or (optional and value is None):
        return value
    raise CorruptRecordError(f"{key} is not {'an integer' if integer else 'a number'}: {value!r}")


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


DERIVED_FIELDS = ("id", "diagram")  # the record fields that follow from all the others


def record_content_hash(doc: dict) -> str:
    """Deterministic id from everything except the ``DERIVED_FIELDS``."""
    body = {k: v for k, v in doc.items() if k not in DERIVED_FIELDS}
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
        kind = doc["kind"]
        if kind not in ("numeric", "proof"):
            raise CorruptRecordError(f"kind {kind!r} is neither numeric nor proof")
        # sorted, counted and joined onto paths, so each must be a string
        for key in ("id", "scene_id", "template", "diagram"):
            if not isinstance(doc[key], str):
                raise CorruptRecordError(f"{key} {doc[key]!r} is not a string")
        value = Fraction(doc["answer"]["exact"]) if kind == "numeric" else None
        meta = doc["metadata"]
        return ProblemRecord(
            id=doc["id"],
            seed=doc["seed"],
            scene_id=doc["scene_id"],
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
                **{
                    f.name: _number(meta, f.name, f.name == "tier", integer=f.type != "float")
                    for f in fields(RecordMetadata)
                }
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptRecordError(str(exc)) from exc


def scene_id_of(scene: Scene) -> str:
    text = json.dumps(scene.to_doc(), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def manifest_line(doc: dict) -> dict:
    """The manifest's summary of one ``record_to_doc`` document."""
    meta = doc["metadata"]
    return {
        "id": doc["id"],
        "seed": doc["seed"],
        "scene_id": doc["scene_id"],
        "template": doc["template"],
        "kind": doc["kind"],
        "tier": meta["tier"],
        "reasoning_length": meta["reasoning_length"],
        "premise_ratio": meta["premise_ratio"],
        "bootstrap_generation": meta["bootstrap_generation"],
        "answer_approx": doc["answer"]["approx"] if doc["kind"] == "numeric" else None,
        "diagram": doc["diagram"],
    }


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@contextmanager
def _renaming(path: Path) -> Iterator[Path]:
    """A temp name beside ``path`` for the block to create, renamed onto
    ``path`` when the block ends: ``path`` is either its old self or
    complete, never half written, and no temp file is left. A killed run's
    temp name is unlinked first, since it may be a hard link to a live file."""
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.unlink(missing_ok=True)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """A text file written beside ``path`` and renamed into place, as ``_renaming``."""
    with _renaming(path) as tmp, tmp.open("w", encoding="utf-8") as f:
        yield f


def _linked(source: Path, tmp: Path) -> bool:
    """Whether ``tmp`` is now a second name of ``source``'s file; False, with
    nothing made, where the filesystem has no hard links."""
    try:
        os.link(source, tmp)
    except OSError:
        return False
    return True


def write_jsonl(path: Path, docs: Iterable[dict]) -> None:
    """One ``_dump`` line per doc, written beside ``path`` and renamed into place."""
    with _replacing(path) as f:
        for doc in docs:
            f.write(_dump(doc) + "\n")


@contextmanager
def dataset_writer(out_dir: str | Path, config_doc: dict) -> Iterator[Callable[..., None]]:
    """``add(docs, scenes, diagrams)`` per batch, ``docs`` being ``record_to_doc`` documents
    with id and diagram filled in and ``diagrams`` their SVG texts by record id, writes
    their lines to ``records.jsonl``'s temp file at once and keeps manifest lines, scenes
    and diagrams. The first record, or the end if none comes, removes an old manifest;
    the end renames ``records.jsonl`` into place, then writes each diagram at its
    record's ``diagram`` path, ``scenes.jsonl``, ``config.json`` and, last,
    ``manifest.jsonl``, so a crash leaves no manifest or one that disagrees with records.
    Records with equal diagrams get one file under several names (a copy where the
    filesystem has no hard links), each name renamed into place like a written file."""
    out = Path(out_dir)
    manifest: list[dict] = []
    all_scenes: dict[str, Scene] = {}
    all_diagrams: dict[str, str] = {}  # by diagram path
    with ExitStack() as stack:
        @cache  # opened at the first call
        def records() -> TextIO:
            (out / "svg").mkdir(parents=True, exist_ok=True)
            (out / "manifest.jsonl").unlink(missing_ok=True)
            return stack.enter_context(_replacing(out / "records.jsonl"))

        def add(docs: Iterable[dict], scenes: dict[str, Scene], diagrams: dict[str, str]) -> None:
            for doc in docs:
                records().write(_dump(doc) + "\n")
                line = manifest_line(doc)
                manifest.append(line)
                all_diagrams[line["diagram"]] = diagrams[line["id"]]
            all_scenes.update(scenes)

        yield add
        records()  # with no record at all, records.jsonl is still written, empty
    # written together: interleaved with the scenes' work, they made generate slower.
    # Each distinct text is written once, under its first name, and hard-linked to the
    # rest (a scene's records share its diagram): a new inode costs far more than a name
    written: dict[str, Path] = {}
    for name, svg in sorted(all_diagrams.items()):
        path = out / name
        source = written.setdefault(svg, path)
        with _renaming(path) as tmp:
            if source is path or not _linked(source, tmp):
                tmp.write_text(svg, encoding="utf-8")
    write_jsonl(
        out / "scenes.jsonl",
        ({"scene_id": sid, "scene": all_scenes[sid].to_doc()} for sid in sorted(all_scenes)),
    )
    write_jsonl(out / "config.json", [config_doc])  # one line, so one JSON document
    write_jsonl(out / "manifest.jsonl", manifest)


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` for each non-blank line of ``path``: the line
    rule of every reader. Lines and numbers are those of ``bytes.splitlines``
    of the whole file, which is streamed, not held at once: a binary line
    ends at ``\\n``, and splitting it splits it at ``\\r`` as well. A line
    is blank when ``bytes.strip`` empties it. A line that is not UTF-8, and
    so not JSON text, raises ``CorruptRecordError`` naming the file and line."""
    with open(path, "rb") as f:
        lines = (line for chunk in f for line in chunk.splitlines())
        for n, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                yield n, line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptRecordError(f"{path} line {n}: not JSON: {exc}") from exc


def read_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """``(line number, decoded value)`` for each ``read_lines`` line of
    ``path``. A line that is not JSON raises ``CorruptRecordError`` naming
    the file and line."""
    for n, line in read_lines(path):
        try:
            yield n, json.loads(line)
        except ValueError as exc:
            raise CorruptRecordError(f"{path} line {n}: not JSON: {exc}") from exc


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
        except (  # a field of the wrong type or shape, or a coordinate no float holds
            AttributeError, KeyError, TypeError, OverflowError, CorruptRecordError, GeometryError
        ) as exc:
            raise CorruptRecordError(f"{path} line {n}: not a scene object: {exc}") from exc
        except StatementError as exc:
            # named where it stands, and still of its own type
            exc.args = (f"{path} line {n}: {exc}",)
            raise
    return scenes


def load_config(in_dir: str | Path) -> dict:
    return json.loads((Path(in_dir) / "config.json").read_text(encoding="utf-8"))
