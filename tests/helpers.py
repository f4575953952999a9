"""Shared test utilities: hand-built graphs and independent path oracles."""

from __future__ import annotations

import itertools
import json
import shutil
from bisect import insort
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Sequence

from geoforge.reasoner import ReasoningGraph, Transition
from geoforge.statements import Statement, segment_length

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
