"""Shared test utilities: hand-built graphs, independent path oracles and a
reference numeric kernel."""

from __future__ import annotations

import itertools
import json
import math
import shutil
from bisect import insort
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from geoforge.dataset import record_content_hash
from geoforge.geometry import (
    D_MIN_FACTOR,
    THETA_MIN_DEG,
    Coord,
    DegenerateMeasurementError,
    UnknownScenePointError,
)
from geoforge.pipeline import PipelineConfig, generate
from geoforge.reasoner import ReasoningGraph, Transition
from geoforge.statements import Predicate, Statement, segment_length

_LABELS = [a + b for a in "ABCDEFGHIJKLM" for b in "ABCDEFGHIJKLM" if a != b]


def dummy_statement(i: int) -> Statement:
    """Distinct, parseable placholder statements for structural graphs."""
    a, b = _LABELS[i]
    return segment_length((a, b), Fraction(i + 1))


def build_graph(n_initial: int, edges: list[tuple[list[int], str, int]]) -> ReasoningGraph:
    """Graph over dummy statements 0..max referenced; edges are
    (premise ids, rule, conclusion id)."""
    graph = ReasoningGraph()
    top = max([n_initial - 1] + [e[2] for e in edges])
    for i in range(n_initial):
        graph.add_initial(dummy_statement(i))
    for i in range(n_initial, top + 1):
        graph.add_statement(dummy_statement(i))
    for premises, rule, conclusion in edges:
        graph.add_transition(premises, rule, conclusion)
    return graph


def diamond_graph() -> ReasoningGraph:
    """Two derivations of statement 3; target 4 hangs below it."""
    return build_graph(
        2,
        [
            ([0], "left", 2),
            ([2], "joint", 3),
            ([1], "right", 3),
            ([3], "last", 4),
        ],
    )


# name -> (builder, target id, expected number of distinct derivations)
HAND_GRAPHS = {
    "diamond": (diamond_graph, 4, 2),
    "triple_fan": (
        lambda: build_graph(3, [([0], "a", 3), ([1], "b", 3), ([2], "c", 3), ([3], "d", 4)]),
        4,
        3,
    ),
    "two_level": (
        lambda: build_graph(
            2,
            [
                ([0], "a", 2),
                ([1], "b", 2),
                ([2], "c", 3),
                ([0, 1], "d", 3),
                ([3], "e", 4),
            ],
        ),
        4,
        3,
    ),
    "shared_sub": (
        lambda: build_graph(
            2,
            [
                ([0], "a", 2),
                ([1], "b", 2),
                ([2], "c", 3),
                ([2], "d", 4),
                ([3, 4], "e", 5),
            ],
        ),
        5,
        2,
    ),
    "wide": (
        lambda: build_graph(
            3,
            [
                ([0], "a", 3),
                ([1], "b", 3),
                ([0, 1], "c", 4),
                ([2], "d", 4),
                ([3, 4], "e", 5),
            ],
        ),
        5,
        4,
    ),
}


def every_closure(graph: ReasoningGraph, sid: int) -> set[int]:
    """The statement ids of ``sid``'s every closure: ``sid`` and all it is
    backward-reachable from over every derivation."""
    every = graph.closures(sid)[1]
    return {i for i in range(every.bit_length()) if every >> i & 1}


def brute_force_paths(graph: ReasoningGraph, target: int) -> set[frozenset[Transition]]:
    """Exhaustive enumeration over global per-statement derivation choices.

    Independent of the sampler: iterates the cartesian product of every
    backward-reachable statement's incoming-transition options and keeps the
    transition sets actually needed by the target.
    """
    reach: set[int] = set()
    stack = [target]
    while stack:
        sid = stack.pop()
        if sid in reach:
            continue
        reach.add(sid)
        for t in graph.incoming_transitions(sid):
            stack.extend(t.premises)
    derived = sorted(s for s in reach if not graph.is_initial(s))
    option_lists = [graph.incoming_transitions(s) for s in derived]
    results: set[frozenset[Transition]] = set()
    for combo in itertools.product(*option_lists):
        choice = dict(zip(derived, combo))
        needed: set[int] = set()
        stack = [target]
        complete = True
        while stack:
            sid = stack.pop()
            if sid in needed or graph.is_initial(sid):
                continue
            needed.add(sid)
            t = choice.get(sid)
            if t is None:
                complete = False
                break
            stack.extend(t.premises)
        if complete and needed:
            results.add(frozenset(choice[s] for s in needed))
    return results


def reference_derivations(
    graph: ReasoningGraph,
    target: int,
    options: Callable[[int], Sequence[Transition]],
    max_choices: float,
) -> Iterator[list[Transition]]:
    """Reference for ``sampler._derivations``, which must yield the same
    leaves: a walk that backtracks by undoing its edits to one mutable state.

    Walk ``target``'s derivations backward, depth first, and yield each
    leaf: one transition per statement it needs, chosen among
    ``options(sid)``. Stops before choice ``max_choices + 1``.

    The largest unresolved id is resolved next, so the choices made so far
    fix the next statement: no two leaves share their transition set. A
    premise is below its conclusion, so it is never already resolved.
    """
    unresolved = [target]  # ascending, so pop() takes the largest
    chosen: dict[int, Transition] = {}
    # each frame: (sid, its options left, the premises its choice added)
    frames: list[tuple[int, Iterator[Transition], list[int]]] = []
    choices = 0
    while True:
        if unresolved:
            sid = unresolved.pop()
            frames.append((sid, iter(options(sid)), []))
        else:
            yield list(chosen.values())
        # advance the newest frame, backtracking through exhausted ones
        while frames:
            sid, opts, added = frames[-1]
            for p in added:
                unresolved.remove(p)
            added.clear()
            t = next(opts, None)
            if t is not None:
                break
            chosen.pop(sid, None)  # absent when sid had no option
            insort(unresolved, sid)
            frames.pop()
        else:
            return
        choices += 1
        if choices > max_choices:
            return
        chosen[sid] = t
        for p in t.premises:
            if not graph.is_initial(p) and p not in unresolved:
                insort(unresolved, p)
                added.append(p)


def uncited_point(records, scenes) -> tuple[str, str]:
    """(scene id, label): the first point, by scene id then label, that an
    initial statement of its scene names and no step of the scene's records
    cites, so only the scene check can see it move."""
    cited: dict[str, set[str]] = {}
    for r in records:
        names = cited.setdefault(r.scene_id, set())
        for sol in (*r.solutions, r.wrong_branch or ()):
            for step in sol:
                for stmt in (*step.premises, step.conclusion):
                    names.update(*stmt.groups)
    for sid in sorted(cited):
        named = set().union(*(p for s in scenes[sid].initial_statements for p in s.groups))
        if named - cited[sid]:
            return sid, min(named - cited[sid])
    raise AssertionError("every named point of every scene is cited")


def copy_with_edited_scene(src: Path, dst: Path, scene_id: str, edit) -> None:
    """Copy dataset ``src`` to ``dst``, applying ``edit(points)`` to the
    points of scene ``scene_id``, whose stored id is kept."""
    shutil.copytree(src, dst)
    docs = [json.loads(line) for line in (src / "scenes.jsonl").read_text().splitlines()]
    for doc in docs:
        if doc["scene_id"] == scene_id:
            edit(doc["scene"]["points"])
    (dst / "scenes.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs))


def move_point(label: str):
    """An ``edit`` for ``copy_with_edited_scene`` that moves ``label``."""

    def edit(points):
        x, y = points[label]
        points[label] = [x + 0.5, y + 0.3]

    return edit


def synthetic_dataset(tmp_path: Path, tiers=(1, 2, 3, 4), per_tier=3) -> Path:
    """Dataset with hand-set tiers for exercising curation: ``per_tier``
    copies of one numeric record of ``generate`` 0-11 per tier, each with
    a copy of that record's diagram."""
    out = tmp_path / "synth"
    generate(PipelineConfig(seed_start=0, count=12), out)
    lines = (out / "records.jsonl").read_text().splitlines()
    template = next(doc for doc in map(json.loads, lines) if doc["kind"] == "numeric")
    lengths = {1: 7, 2: 15, 3: 30, 4: 80}
    docs = []
    for tier in tiers:
        for i in range(per_tier):
            doc = json.loads(json.dumps(template))
            doc["metadata"]["tier"] = tier
            doc["metadata"]["reasoning_length"] = lengths[tier]
            doc["seed"] = 10_000 + tier * 100 + i
            doc["id"] = record_content_hash(doc)
            doc["diagram"] = f"svg/{doc['id']}.svg"
            shutil.copyfile(out / template["diagram"], out / doc["diagram"])
            docs.append(doc)
    (out / "records.jsonl").write_text(
        "".join(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" for doc in docs)
    )
    return out


# --- reference kernel -------------------------------------------------------
# SceneGeometry's measures as they stood when each one fetched every
# coordinate through ``point`` and built its vectors with these helpers, kept
# verbatim: the engine's flat kernels must give the same floats, bit for bit.


def _sub(a: Coord, b: Coord) -> Coord:
    return (a[0] - b[0], a[1] - b[1])


def _dot(u: Coord, v: Coord) -> float:
    return u[0] * v[0] + u[1] * v[1]


def _norm(u: Coord) -> float:
    return math.hypot(u[0], u[1])


class ReferenceKernel:
    """Distances, angles, smallest triangle angles and degeneracies of fixed
    points, by the formulas of the reference kernel."""

    def __init__(self, points: Mapping[str, Coord]):
        self.points = dict(points)
        self._min_angles: dict[frozenset[str], float | None] = {}

    def point(self, label: str) -> Coord:
        try:
            return self.points[label]
        except KeyError:
            raise UnknownScenePointError(label) from None

    def bbox(self) -> tuple[float, float, float, float]:
        xs = [p[0] for p in self.points.values()]
        ys = [p[1] for p in self.points.values()]
        return (min(xs), min(ys), max(xs), max(ys))

    def bbox_diagonal(self) -> float:
        x0, y0, x1, y1 = self.bbox()
        return math.hypot(x1 - x0, y1 - y0)

    def d_min(self) -> float:
        return D_MIN_FACTOR * max(self.bbox_diagonal(), 1e-6)

    def distance(self, a: str, b: str) -> float:
        return _norm(_sub(self.point(a), self.point(b)))

    def angle_deg(self, a: str, v: str, c: str) -> float:
        """Measure of the angle at vertex ``v`` in degrees, in [0, 180]."""
        u = _sub(self.point(a), self.point(v))
        w = _sub(self.point(c), self.point(v))
        nu, nw = _norm(u), _norm(w)
        if nu == 0.0 or nw == 0.0:
            raise DegenerateMeasurementError(f"zero-length ray at {v}")
        cos = max(-1.0, min(1.0, _dot(u, w) / (nu * nw)))
        return math.degrees(math.acos(cos))

    def min_angle_deg(self, a: str, b: str, c: str) -> float | None:
        key = frozenset((a, b, c))
        try:
            return self._min_angles[key]
        except KeyError:
            pass
        try:
            smallest: float | None = min(
                self.angle_deg(b, a, c), self.angle_deg(a, b, c), self.angle_deg(a, c, b)
            )
        except DegenerateMeasurementError:
            smallest = None
        self._min_angles[key] = smallest
        return smallest

    def referenced_triangles(self, statements: Iterable[Statement]) -> set[tuple[str, str, str]]:
        tris: set[tuple[str, str, str]] = set()
        for s in statements:
            pred = s.predicate
            if pred in (Predicate.ANGLE_MEASURE, Predicate.RIGHT_ANGLE):
                tris.add(tuple(sorted(s.groups[0])))
            elif pred in (
                Predicate.EQUAL_ANGLES, Predicate.CONGRUENT_TRIANGLES, Predicate.SIMILAR_TRIANGLES
            ):
                tris.update(tuple(sorted(g)) for g in s.groups)
        return tris

    def degeneracies(self, statements: Iterable[Statement]) -> list[str]:
        problems: list[str] = []
        labels = sorted(self.points)
        dmin = self.d_min()
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                if self.distance(a, b) < dmin:
                    problems.append(f"points {a},{b} closer than d_min")
        for tri in sorted(self.referenced_triangles(statements)):
            a, b, c = tri
            smallest = self.min_angle_deg(a, b, c)
            if smallest is None:
                problems.append(f"triangle {a}{b}{c} has a zero-length side")
            elif smallest < THETA_MIN_DEG:
                problems.append(f"triangle {a}{b}{c} has an angle below theta_min")
        return problems
